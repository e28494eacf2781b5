"""Prometheus text rendering of the engine's existing metrics.

The serving layer does not invent a new metrics model: the engines
already account per-operator work, punctuation traffic and feedback
(:class:`~repro.engine.metrics.OperatorMetrics`) and per-edge queue
occupancy (:class:`~repro.engine.metrics.QueueMetrics`).  This module
renders those -- plus the serving adapters' own counters (channels,
hubs, tenants, server connections) -- in the Prometheus text exposition
format (version 0.0.4), so a standard scraper pointed at ``/metrics``
sees the paper's feedback control plane as ordinary time series:
``repro_operator_pauses_issued_total`` *is* the pause-punctuation count
of docs/backpressure.md.

Pure functions over plain data, no sockets: the server calls
:func:`render_prometheus` with live snapshots, and the unit tests call
it with synthetic ones.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_prometheus"]

#: OperatorMetrics counters exported per operator.  Monotone counts get
#: the ``_total`` suffix per Prometheus naming conventions; the two
#: ``_seconds`` entries are cumulative times.
_OPERATOR_COUNTERS = (
    ("tuples_in", "repro_operator_tuples_in_total",
     "Tuples consumed by the operator"),
    ("tuples_out", "repro_operator_tuples_out_total",
     "Tuples emitted by the operator"),
    ("punctuations_in", "repro_operator_punctuations_in_total",
     "Embedded punctuations consumed"),
    ("punctuations_out", "repro_operator_punctuations_out_total",
     "Embedded punctuations emitted"),
    ("feedback_received", "repro_operator_feedback_received_total",
     "Feedback punctuations received on the control channel"),
    ("feedback_produced", "repro_operator_feedback_produced_total",
     "Feedback punctuations issued upstream"),
    ("pauses_issued", "repro_operator_pauses_issued_total",
     "Backpressure pause punctuations issued by this consumer"),
    ("resumes_issued", "repro_operator_resumes_issued_total",
     "Backpressure resume punctuations issued by this consumer"),
    ("pauses_received", "repro_operator_pauses_received_total",
     "Pause punctuations received (producer side)"),
    ("resumes_received", "repro_operator_resumes_received_total",
     "Resume punctuations received (producer side)"),
    ("time_paused", "repro_operator_paused_seconds_total",
     "Cumulative seconds the operator spent paused"),
    ("busy_time", "repro_operator_busy_seconds_total",
     "Cumulative seconds of accounted operator work"),
)

_QUEUE_GAUGES = (
    ("peak_occupancy", "repro_queue_peak_occupancy",
     "High-water mark of elements buffered on the edge"),
    ("elements_enqueued", "repro_queue_elements_enqueued_total",
     "Elements ever enqueued on the edge"),
)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels(**labels: Any) -> str:
    inner = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def _number(value: Any) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


class _Writer:
    """Accumulates samples grouped under HELP/TYPE headers."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._declared: set[str] = set()

    def sample(
        self,
        metric: str,
        help_text: str,
        kind: str,
        value: Any,
        **labels: Any,
    ) -> None:
        if metric not in self._declared:
            self._declared.add(metric)
            self._lines.append(f"# HELP {metric} {help_text}")
            self._lines.append(f"# TYPE {metric} {kind}")
        self._lines.append(f"{metric}{_labels(**labels)} {_number(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""


def render_prometheus(
    plan_metrics: Mapping[str, Any] | None = None,
    *,
    flow_states: Mapping[str, Mapping[str, Any]] | None = None,
    tenants: Mapping[str, Mapping[str, Any]] | None = None,
    server: Mapping[str, Any] | None = None,
) -> str:
    """Render one scrape of the serving process.

    ``plan_metrics`` maps flow name to a live
    :class:`~repro.engine.metrics.PlanMetrics`; ``flow_states`` is
    :meth:`FlowSupervisor.status`'s output; ``tenants`` is
    :meth:`AdmissionController.snapshot`'s; ``server`` is the network
    front-end's own counter dict.  All sections are optional, so policy
    tests render tenants alone and engine tests render plans alone.
    """
    out = _Writer()

    for flow, metrics in (plan_metrics or {}).items():
        for op_name, op in metrics.operator_metrics.items():
            for attr, metric, help_text in _OPERATOR_COUNTERS:
                out.sample(
                    metric, help_text, "counter", getattr(op, attr),
                    flow=flow, operator=op_name,
                )
        for edge_key, queue in metrics.queue_metrics.items():
            for attr, metric, help_text in _QUEUE_GAUGES:
                kind = "counter" if metric.endswith("_total") else "gauge"
                out.sample(
                    metric, help_text, kind, getattr(queue, attr),
                    flow=flow, edge=edge_key,
                    capacity=queue.capacity
                    if queue.capacity is not None else "unbounded",
                )

    for flow, state in (flow_states or {}).items():
        out.sample(
            "repro_flow_up",
            "1 while the flow's supervised run is live",
            "gauge",
            1 if state.get("state") in ("running", "restarting") else 0,
            flow=flow, tenant=state.get("tenant", ""),
            state=state.get("state", ""),
        )
        out.sample(
            "repro_flow_restarts_total",
            "Supervised restarts after operator crashes",
            "counter", state.get("restarts", 0), flow=flow,
        )
        out.sample(
            "repro_flow_ingested_total",
            "Elements admitted into the flow's ingest channels",
            "counter", state.get("ingested", 0), flow=flow,
        )
        for channel, stats in state.get("channels", {}).items():
            out.sample(
                "repro_channel_backlog",
                "Elements currently buffered in the ingest channel",
                "gauge", stats["backlog"], flow=flow, channel=channel,
            )
            out.sample(
                "repro_channel_peak_backlog",
                "High-water mark of the ingest channel backlog",
                "gauge", stats["peak_backlog"], flow=flow, channel=channel,
            )
            out.sample(
                "repro_channel_admitted_total",
                "Elements ever admitted into the ingest channel",
                "counter", stats["admitted"], flow=flow, channel=channel,
            )
        for hub, stats in state.get("hubs", {}).items():
            out.sample(
                "repro_hub_subscribers",
                "Live delivery subscriptions on the hub",
                "gauge", stats["subscribers"], flow=flow, hub=hub,
            )
            out.sample(
                "repro_hub_backlog",
                "Deepest current subscriber buffer on the hub",
                "gauge", stats["backlog"], flow=flow, hub=hub,
            )
            out.sample(
                "repro_hub_published_total",
                "Results pushed through the hub",
                "counter", stats["published"], flow=flow, hub=hub,
            )
            out.sample(
                "repro_hub_pauses_total",
                "Delivery-gate closures (slow-subscriber backpressure)",
                "counter", stats["pauses"], flow=flow, hub=hub,
            )

    for tenant, stats in (tenants or {}).items():
        out.sample(
            "repro_tenant_flows",
            "Concurrently admitted flows for the tenant",
            "gauge", stats["flows"], tenant=tenant,
        )
        out.sample(
            "repro_tenant_reservations_total",
            "Ingest reservations taken from the tenant's token bucket",
            "counter", stats["reservations"], tenant=tenant,
        )
        out.sample(
            "repro_tenant_delayed_total",
            "Reservations that exceeded the rate and were delayed",
            "counter", stats["delayed"], tenant=tenant,
        )
        out.sample(
            "repro_tenant_delay_seconds_total",
            "Cumulative admission delay imposed on the tenant",
            "counter", stats["delay_total"], tenant=tenant,
        )
        out.sample(
            "repro_tenant_paused",
            "1 while the tenant's bucket is exhausted (pause issued)",
            "gauge", 1 if stats["paused"] else 0, tenant=tenant,
        )

    for key, value in (server or {}).items():
        out.sample(
            f"repro_server_{key}",
            f"Serving front-end counter: {key.replace('_', ' ')}",
            "counter" if key.endswith("_total") else "gauge",
            value, scope="server",
        )

    return out.render()
