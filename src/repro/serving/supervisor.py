"""The flow supervisor: admit, start, restart, drain always-on flows.

One :class:`FlowSupervisor` multiplexes many tenant flows on the event
loop it runs on -- the serving layer's core (docs/serving.md).  Each
admitted flow is an ordinary :class:`repro.api.Flow` declared with the
serving verbs (``flow.ingest(...)`` sources, ``.push(...)`` delivery),
and the supervisor owns its lifecycle:

* **admit** -- per-tenant admission control via
  :class:`~repro.serving.tenancy.AdmissionController` (max concurrent
  flows; per-element token buckets applied in :meth:`ingest`);
* **start** -- build a fresh plan and run it on an
  :class:`~repro.engine.async_engine.AsyncioEngine` with the watchdog
  disabled (``timeout=None``): serving flows end only when drained;
* **restart** -- a crashed run is rebuilt and restarted under bounded
  exponential backoff; the flow's ingest channels and delivery hubs
  persist across the rebuild, so connected clients ride through (input
  admitted during the outage is delivered by the next run; elements the
  dead engine had consumed but not yet delivered are lost unless the
  flow runs with a checkpoint store);
* **drain** -- close the ingest channels and await end-of-stream, so
  every admitted element is processed and pushed before shutdown;
* **stop** -- cancel outright (for tests and emergency shutdown).

The supervisor is engine-facing but socket-free: the network front-end
(:mod:`repro.serving.server`) calls :meth:`ingest` / :meth:`subscribe`,
and tests drive the same methods directly.
"""

from __future__ import annotations

import asyncio
import enum
import time
from typing import Any, Callable

from repro.api.flow import Flow
from repro.engine.registry import create_engine
from repro.errors import ServingError
from repro.serving.tenancy import AdmissionController, TenantPolicy
from repro.stream.channels import Broadcast, Channel, Subscription

__all__ = ["FlowState", "FlowSupervisor", "ManagedFlow"]


class FlowState(enum.Enum):
    ADMITTED = "admitted"      # registered, not yet started
    RUNNING = "running"        # engine coroutine in flight
    RESTARTING = "restarting"  # crashed; waiting out the backoff
    DRAINED = "drained"        # clean end of stream
    FAILED = "failed"          # crashed beyond the restart budget
    STOPPED = "stopped"        # cancelled by stop()


class ManagedFlow:
    """One supervised flow: the Flow, its tenant, and live run state."""

    def __init__(self, flow: Flow, tenant: str) -> None:
        self.flow = flow
        self.tenant = tenant
        self.state = FlowState.ADMITTED
        self.plan: Any = None
        self.engine: Any = None
        self.task: asyncio.Task | None = None
        self.restarts = 0
        self.crashes: list[str] = []
        self.error: BaseException | None = None
        self.result: Any = None
        self.ingested = 0

    @property
    def name(self) -> str:
        return self.flow.name

    @property
    def channels(self) -> dict[str, Channel]:
        return self.flow._serving_channels

    @property
    def hubs(self) -> dict[str, Broadcast]:
        return self.flow._serving_hubs

    def summary(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "state": self.state.value,
            "restarts": self.restarts,
            "crashes": list(self.crashes),
            "ingested": self.ingested,
            "channels": {
                name: {
                    "backlog": len(channel),
                    "capacity": channel.capacity,
                    "admitted": channel.admitted,
                    "delivered": channel.delivered,
                    "peak_backlog": channel.peak_backlog,
                    "closed": channel.closed,
                }
                for name, channel in self.channels.items()
            },
            "hubs": {
                name: {
                    "subscribers": hub.subscribers,
                    "backlog": hub.backlog,
                    "published": hub.published,
                    "peak_backlog": hub.peak_backlog,
                    "pauses": hub.pauses,
                    "resumes": hub.resumes,
                    "gate_open": hub.gate_open,
                }
                for name, hub in self.hubs.items()
            },
        }


class FlowSupervisor:
    """Admit, run and supervise many always-on flows on one loop.

    Parameters
    ----------
    admission:
        The per-tenant policy seam; defaults to an
        :class:`AdmissionController` with the default
        :class:`~repro.serving.tenancy.TenantPolicy`.
    queue_capacity:
        Bounded-queue capacity applied to every built plan, so in-plan
        backpressure (pause/resume punctuation) is always armed.
    restart_limit:
        Crashes tolerated per flow before it is marked ``FAILED``.
    backoff_base / backoff_cap:
        Exponential restart backoff: crash *k* waits
        ``min(cap, base · 2^(k-1))`` seconds.
    engine_options:
        Extra keyword arguments for every built asyncio engine (e.g.
        ``checkpoint_every=...``, ``checkpoint_store=...`` to make a
        supervised flow durable).
    """

    def __init__(
        self,
        *,
        admission: AdmissionController | None = None,
        queue_capacity: int | None = 64,
        restart_limit: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        engine_options: dict[str, Any] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.admission = admission or AdmissionController()
        self.queue_capacity = queue_capacity
        if restart_limit < 0:
            raise ServingError(
                f"restart_limit must be >= 0, got {restart_limit}"
            )
        self.restart_limit = restart_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.engine_options = dict(engine_options or {})
        self._clock = clock
        self._flows: dict[str, ManagedFlow] = {}

    # -- lifecycle ---------------------------------------------------------------

    def admit(
        self,
        flow: Flow,
        *,
        tenant: str = "default",
        policy: TenantPolicy | None = None,
    ) -> ManagedFlow:
        """Register a flow under a tenant, enforcing its flow cap.

        The flow must declare at least one ``ingest()`` channel and one
        ``.push()`` hub -- a serving flow has a network-facing input and
        output by definition (use plain ``flow.run()`` for batch runs).
        """
        if flow.name in self._flows:
            raise ServingError(
                f"a flow named {flow.name!r} is already admitted"
            )
        if not flow._serving_channels:
            raise ServingError(
                f"flow {flow.name!r} declares no ingest channel; serving "
                f"flows start from flow.ingest(schema)"
            )
        if not flow._serving_hubs:
            raise ServingError(
                f"flow {flow.name!r} declares no delivery hub; serving "
                f"flows terminate in .push()"
            )
        if policy is not None:
            self.admission.set_policy(tenant, policy)
        self.admission.admit_flow(tenant, flow.name)
        managed = ManagedFlow(flow, tenant)
        self._flows[flow.name] = managed
        return managed

    def start(self, name: str) -> ManagedFlow:
        """Launch the flow's supervised run task (must be on the loop)."""
        managed = self._managed(name)
        if managed.task is not None:
            raise ServingError(f"flow {name!r} is already started")
        managed.task = asyncio.ensure_future(self._supervise(managed))
        return managed

    def start_all(self) -> list[ManagedFlow]:
        return [
            self.start(name)
            for name, managed in self._flows.items()
            if managed.task is None
        ]

    async def _supervise(self, managed: ManagedFlow) -> None:
        """Run the flow, restarting with bounded backoff on crashes."""
        crashes = 0
        try:
            while True:
                plan = managed.flow.build(
                    queue_capacity=self.queue_capacity
                )
                engine = create_engine(
                    "asyncio", plan, timeout=None, **self.engine_options
                )
                managed.plan = plan
                managed.engine = engine
                managed.state = FlowState.RUNNING
                try:
                    managed.result = await engine.arun()
                except asyncio.CancelledError:
                    managed.state = FlowState.STOPPED
                    raise
                except Exception as exc:
                    crashes += 1
                    managed.crashes.append(f"{type(exc).__name__}: {exc}")
                    if crashes > self.restart_limit:
                        managed.state = FlowState.FAILED
                        managed.error = exc
                        return
                    managed.state = FlowState.RESTARTING
                    managed.restarts += 1
                    await asyncio.sleep(
                        min(
                            self.backoff_cap,
                            self.backoff_base * 2 ** (crashes - 1),
                        )
                    )
                else:
                    managed.state = FlowState.DRAINED
                    return
        finally:
            self.admission.release_flow(managed.tenant, managed.name)

    # -- data plane ---------------------------------------------------------------

    async def ingest(
        self,
        name: str,
        element: Any,
        *,
        channel: str | None = None,
    ) -> int:
        """Admit one element, or a list of them, into a flow's channel.

        The full admission chain, in order: the tenant's token bucket
        (one token per element, reserved for the whole run at once;
        over-rate ⇒ sleep out the conforming delay of the last), the
        flow's delivery-hub gates (a slow subscriber ⇒ wait for the hub
        to re-open), then the bounded channel itself (a paused plan ⇒
        the part of a list that does not fit awaits space, and the gates
        are looked at again after every such wait).  Every stage
        converts overload into delay for *this caller only*; nothing is
        dropped.  Returns the admission sequence number of the last
        element.
        """
        managed = self._managed(name)
        if managed.state in (FlowState.FAILED, FlowState.STOPPED):
            raise ServingError(
                f"flow {name!r} is {managed.state.value}; not accepting "
                f"input"
            )
        run = element if isinstance(element, list) else (element,)
        if run:
            delay = self.admission.reserve(
                managed.tenant, self._clock(), len(run)
            )
            if delay > 0.0:
                await asyncio.sleep(delay)
        seq = await managed.flow.channel(channel).put_run(
            run, gates=managed.hubs.values()
        )
        managed.ingested += len(run)
        return seq

    def subscribe(self, name: str, *, hub: str | None = None) -> Subscription:
        """Attach a delivery subscription to a flow's push hub."""
        return self._managed(name).flow.hub(hub).subscribe()

    # -- shutdown -----------------------------------------------------------------

    async def drain(self, *, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: close ingest, process everything, stop.

        Closes every flow's ingest channels (new ``put`` calls raise)
        and awaits the supervised runs; each plan sees end of stream
        once its channel backlog drains, pushes its final results, and
        closes its hubs -- so subscribers' iterators end too.
        """
        for managed in self._flows.values():
            for channel in managed.channels.values():
                channel.close()
        tasks = [m.task for m in self._flows.values() if m.task is not None]
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=timeout)
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                raise ServingError(
                    f"{len(pending)} flow(s) did not drain within "
                    f"{timeout}s and were cancelled"
                )

    async def stop(self) -> None:
        """Hard shutdown: cancel every run and close every adapter."""
        tasks = [m.task for m in self._flows.values() if m.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for managed in self._flows.values():
            for channel in managed.channels.values():
                channel.close()
            for hub in managed.hubs.values():
                hub.close()

    # -- observation --------------------------------------------------------------

    def _managed(self, name: str) -> ManagedFlow:
        try:
            return self._flows[name]
        except KeyError:
            raise ServingError(
                f"no admitted flow named {name!r}; admitted: "
                f"{sorted(self._flows) or 'none'}"
            ) from None

    @property
    def flows(self) -> list[ManagedFlow]:
        return list(self._flows.values())

    def status(self) -> dict[str, Any]:
        return {
            name: managed.summary()
            for name, managed in sorted(self._flows.items())
        }

    def healthy(self) -> bool:
        """True when every started flow is live (running or backing off)."""
        return all(
            managed.state
            in (FlowState.RUNNING, FlowState.RESTARTING, FlowState.DRAINED)
            for managed in self._flows.values()
            if managed.task is not None
        )

    def live_metrics(self) -> dict[str, Any]:
        """Per-flow engine metrics snapshots (running flows only)."""
        snapshots: dict[str, Any] = {}
        for name, managed in self._flows.items():
            if managed.engine is not None:
                snapshots[name] = managed.engine.live_metrics()
        return snapshots
