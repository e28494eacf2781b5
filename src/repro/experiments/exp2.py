"""Experiment 2: the speed-map query plan and feedback schemes (Figure 7).

The plan of paper Figure 4(b), with NiagaraST's ingest stage made explicit::

    SOURCE -> PARSE -> σQ (quality filter) -> AVERAGE -> SINK (map render)

A navigation client displays **one** of the nine freeway segments and
switches segments every 2, 4 or 6 minutes.  At every switch it injects
event-driven assumed feedback (section 3.3) for the segments it will *not*
look at during the upcoming interval::

    ¬[window ∈ [w_lo, w_hi], segment ∈ {not visible}, *]

Bounding the feedback by the window range keeps it *supportable* (section
4.4): source punctuation eventually covers the range and every guard
expires -- no retraction mechanism is needed even though the viewer keeps
changing its mind.

Feedback schemes (paper section 6):

====  ==========================================================
F0    no feedback (baseline)
F1    AVERAGE mounts a guard on its *output* only
F2    AVERAGE additionally avoids aggregating unneeded groups
      (state purge + input guard)
F3    AVERAGE relays the feedback to the quality filter, which
      guards its own input; the relay stops at the feedback-
      unaware PARSE stage, which is the floor on savings
====  ==========================================================

Cost-model calibration: the paper's testbed
constants are unknown, so the three per-stage costs are set to land F1's
reduction at the published ~50 % and F2's at ~61 %; F3's ~65 % then
*follows* from plan structure rather than tuning.  What the benchmark
asserts is the paper's qualitative claims: strict ordering F0 > F1 > F2 >
F3, reductions in the published bands, and no discernible overhead as the
feedback frequency rises from every 6 minutes to every 2 minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.api.aggregates import avg
from repro.api.flow import Flow, StreamHandle
from repro.engine.plan import QueryPlan
from repro.operators.passthrough import PassThrough
from repro.operators.select import QualityFilter
from repro.punctuation.atoms import InSet, Interval
from repro.punctuation.patterns import Pattern
from repro.core.feedback import FeedbackPunctuation
from repro.stream.schema import Schema
from repro.workloads.traffic import DETECTOR_SCHEMA, TrafficWorkload

__all__ = [
    "SCHEMES",
    "Exp2Config",
    "Exp2CellResult",
    "run_cell",
    "run_experiment_2",
]

SCHEMES = ("F0", "F1", "F2", "F3")


@dataclass(frozen=True)
class Exp2Config:
    """Parameters of Experiment 2.

    The paper's full workload is 18 h at 20 s resolution with 9 segments
    and 40 detectors per segment (~1.17 M tuples); the default here is a
    2 h slice (~130 k tuples) so the whole 12-cell sweep stays minutes-
    scale in pure Python.  Set ``REPRO_EXP2_HOURS=18`` for full scale --
    the savings fractions are horizon-invariant.
    """

    segments: int = 9
    detectors_per_segment: int = 40
    report_interval: float = 20.0
    horizon_hours: float = 2.0
    window_width: float = 20.0
    visible_segments: int = 1
    switch_minutes: tuple[float, ...] = (2.0, 4.0, 6.0)
    # Per-stage virtual costs (seconds); see module docstring.
    parse_cost: float = 0.0009
    quality_cost: float = 0.00015
    aggregate_cost: float = 0.000415
    render_cost: float = 0.0752
    control_cost: float = 0.0002
    punctuation_interval: float = 60.0
    page_size: int = 64
    seed: int = 7

    @classmethod
    def from_env(cls) -> "Exp2Config":
        hours = float(os.environ.get("REPRO_EXP2_HOURS", "2.0"))
        return cls(horizon_hours=hours)

    @property
    def horizon(self) -> float:
        return self.horizon_hours * 3600.0


@dataclass
class Exp2CellResult:
    """One (scheme, switch frequency) cell of Figure 7."""

    scheme: str
    switch_minutes: float
    execution_time: float          # total virtual work: the paper's metric
    makespan: float
    input_tuples: int
    results_rendered: int
    feedback_messages: int
    guard_drops: dict[str, int] = field(default_factory=dict)
    stage_work: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.scheme} @ {self.switch_minutes:g} min: "
            f"exec={self.execution_time:.1f}s, "
            f"rendered={self.results_rendered}, fb={self.feedback_messages}"
        )


#: Plan-operator names keyed by the short handles used by the ops dict.
_OPERATOR_NAMES = {
    "source": "source", "parse": "parse", "quality": "sigma_q",
    "average": "average", "sink": "map_render",
}


def _build_flow(
    config: Exp2Config, scheme: str
) -> tuple[Flow, StreamHandle]:
    """The Figure 4(b) plan as a flow; also returns the AVERAGE handle."""
    workload = TrafficWorkload(
        segments=config.segments,
        detectors_per_segment=config.detectors_per_segment,
        report_interval=config.report_interval,
        horizon=config.horizon,
        seed=config.seed,
    )
    flow = Flow(f"exp2-{scheme}", page_size=config.page_size)
    average = (
        flow.source(
            DETECTOR_SCHEMA, workload.detector_timeline(), name="source"
        )
        .punctuate(on="timestamp", every=config.punctuation_interval)
        .apply(lambda: PassThrough(
            "parse", DETECTOR_SCHEMA, tuple_cost=config.parse_cost,
            control_cost=config.control_cost,
        ))
        .apply(lambda: QualityFilter(
            "sigma_q", DETECTOR_SCHEMA,
            lambda tup: tup["speed"] is None or tup["speed"] < 120.0,
            tuple_cost=config.quality_cost,
            control_cost=config.control_cost,
        ))
        .window(
            avg("speed"),
            on="timestamp", width=config.window_width, by="segment",
            name="average",
            tuple_cost=config.aggregate_cost,
            control_cost=config.control_cost,
            exploit_level=1 if scheme == "F1" else 2,
            # Schemes F1/F2 stop the relay at AVERAGE (a knob that is not
            # a constructor argument, hence configure=).
            configure=(
                (lambda op: setattr(op, "relay_enabled", False))
                if scheme in ("F1", "F2") else None
            ),
        )
    )
    average.collect(
        "map_render",
        tuple_cost=config.render_cost,
        control_cost=config.control_cost,
    )
    return flow, average


def _build_plan(config: Exp2Config, scheme: str) -> tuple[QueryPlan, dict]:
    flow, _ = _build_flow(config, scheme)
    plan = flow.build()
    ops = {key: plan.operator(name) for key, name in _OPERATOR_NAMES.items()}
    return plan, ops


def _viewer_feedback(
    config: Exp2Config,
    switch_minutes: float,
    out_schema: Schema,
    issuer: str,
) -> list[tuple[float, FeedbackPunctuation]]:
    """The zooming client: one feedback injection per segment switch."""
    interval = switch_minutes * 60.0
    schedule: list[tuple[float, FeedbackPunctuation]] = []
    switch_count = int(config.horizon // interval)
    for index in range(switch_count):
        start = index * interval
        end = min(start + interval, config.horizon)
        visible = index % config.segments
        invisible = frozenset(
            s for s in range(config.segments) if s != visible
        )
        w_lo = int(start // config.window_width)
        w_hi = int(end // config.window_width) - 1
        if w_hi < w_lo:
            continue
        pattern = Pattern.from_mapping(
            out_schema,
            {
                "window": Interval(w_lo, w_hi),
                "segment": InSet(invisible),
            },
        )
        schedule.append(
            (
                start,
                FeedbackPunctuation.assumed(
                    pattern, issuer=issuer, issued_at=start
                ),
            )
        )
    return schedule


def run_cell(
    config: Exp2Config,
    scheme: str,
    switch_minutes: float,
    *,
    engine: str = "simulated",
) -> Exp2CellResult:
    """Run one Figure 7 cell (a scheme at a switch frequency).

    The viewer's segment switches are *declared* on the run call --
    ``(time, sink-name, feedback)`` triples -- rather than wired into the
    plan: the same flow runs feedback-free (F0) or under any schedule.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme != "F0" and engine != "simulated":
        # The viewer schedule is phrased in *stream* time; only the
        # virtual-clock engine can honour it (a wall-clock engine drains
        # the replay in milliseconds, every injection misses, and the
        # cell would silently report F0 numbers under an F1-F3 label).
        raise ValueError(
            f"scheme {scheme!r} needs timed feedback injections, which "
            f"only the 'simulated' engine honours (got {engine!r})"
        )
    flow, average_handle = _build_flow(config, scheme)
    injections: list[tuple[float, str, FeedbackPunctuation]] = []
    if scheme != "F0":
        injections = [
            (when, "map_render", feedback)
            for when, feedback in _viewer_feedback(
                config, switch_minutes, average_handle.schema,
                issuer="map_render",
            )
        ]
    result = flow.run(engine=engine, feedback=injections)
    plan = result.plan
    ops = {key: plan.operator(name) for key, name in _OPERATOR_NAMES.items()}
    average = ops["average"]
    sink = ops["sink"]
    stage_work = {
        name: ops[name].metrics.busy_time
        for name in ("parse", "quality", "average", "sink")
        if name in ops
    }
    stage_work["map_render"] = sink.metrics.busy_time
    return Exp2CellResult(
        scheme=scheme,
        switch_minutes=switch_minutes,
        execution_time=result.total_work,
        makespan=result.makespan,
        input_tuples=ops["parse"].metrics.tuples_in,
        results_rendered=len(sink.results),
        feedback_messages=sink.metrics.feedback_produced,
        guard_drops={
            "average_input": average.metrics.input_guard_drops,
            "average_output": average.metrics.output_guard_drops,
            "quality_input": ops["quality"].metrics.input_guard_drops,
        },
        stage_work=stage_work,
    )


def run_experiment_2(
    config: Exp2Config | None = None,
    *,
    schemes: tuple[str, ...] = SCHEMES,
    frequencies: tuple[float, ...] | None = None,
) -> dict[str, dict[float, Exp2CellResult]]:
    """The full Figure 7 sweep: scheme x switch frequency.

    F0 takes no feedback, so one run is reused across frequencies.
    """
    config = config or Exp2Config.from_env()
    frequencies = frequencies or config.switch_minutes
    table: dict[str, dict[float, Exp2CellResult]] = {}
    for scheme in schemes:
        table[scheme] = {}
        if scheme == "F0":
            baseline = run_cell(config, "F0", frequencies[0])
            for frequency in frequencies:
                table[scheme][frequency] = baseline
            continue
        for frequency in frequencies:
            table[scheme][frequency] = run_cell(config, scheme, frequency)
    return table
