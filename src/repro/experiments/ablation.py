"""Ablation studies for the design choices the paper calls out.

Three ablations, each isolating one design decision of the paper:

1. **Localized vs centralized adaptation** (Figure 2).  The Experiment 2
   workload run with (a) localized feedback (scheme F3) and (b) a
   centralized monitor that consumes a copy of the stream and applies the
   same suppression decisions with a collection-cycle delay.  Reported:
   total work, tuples shipped to the decision point, messages sent.
2. **PACE feedback bound policy** (watermark vs tolerance).  Experiment 1
   run with the paper's aggressive "everything behind the watermark"
   declaration versus the conservative "only what the tolerance already
   condemns" variant -- showing why the aggressive bound is what makes
   catch-up possible.
3. **Feedback frequency overhead** (part of Figure 7's claim).  Scheme F3
   at increasingly aggressive switch frequencies, with non-zero control
   costs, quantifying the per-message overhead of feedback.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.centralized import CentralizedMonitor
from repro.engine.simulator import Simulator
from repro.experiments.exp1 import Exp1Config, build_plan as build_exp1_plan
from repro.experiments.exp2 import (
    Exp2CellResult,
    Exp2Config,
    _build_plan,
    _viewer_feedback,
    run_cell,
)
from repro.operators.duplicate import Duplicate
from repro.operators.pace import Pace

__all__ = [
    "CentralizedComparison",
    "run_centralized_ablation",
    "run_pace_bound_ablation",
    "run_frequency_overhead_ablation",
]


@dataclass
class CentralizedComparison:
    """Localized feedback vs centralized monitor on the same workload."""

    localized_work: float
    centralized_work: float
    localized_messages: int
    centralized_data_shipped: int
    centralized_decisions: int

    def summary(self) -> str:
        return (
            f"localized: work={self.localized_work:.1f}s with "
            f"{self.localized_messages} feedback messages;  "
            f"centralized: work={self.centralized_work:.1f}s, "
            f"{self.centralized_data_shipped} tuples shipped to the "
            f"monitor, {self.centralized_decisions} decision cycles"
        )


def run_centralized_ablation(
    config: Exp2Config | None = None,
    *,
    switch_minutes: float = 2.0,
    transfer_cost: float = 0.0003,
    decision_interval: float = 60.0,
) -> CentralizedComparison:
    """Figure 2 quantified on the Experiment 2 workload.

    The centralized arm duplicates the parsed stream into a
    :class:`CentralizedMonitor` (shipping + inspection cost per tuple) and
    applies the viewer's suppression decisions one collection cycle late
    by injecting the same feedback patterns at the sink, delayed by
    ``decision_interval``.
    """
    config = config or Exp2Config()

    # -- localized arm: plain scheme F3 -------------------------------------
    localized = run_cell(config, "F3", switch_minutes)

    # -- centralized arm -----------------------------------------------------
    plan, ops = _build_plan(config, "F3")
    average, sink = ops["average"], ops["sink"]
    monitor = CentralizedMonitor(
        "monitor",
        ops["parse"].output_schema,
        timestamp_attribute="timestamp",
        transfer_cost=transfer_cost,
        decision_interval=decision_interval,
    )
    # Splice a duplicate above PARSE so the monitor sees the raw stream.
    duplicate = Duplicate("monitor_tap", ops["parse"].output_schema)
    plan.add(monitor)
    plan.add(duplicate)
    parse = ops["parse"]
    # Rewire: parse -> duplicate -> (quality, monitor).  parse currently
    # feeds quality directly; replace that edge's consumer by the tap.
    quality = ops["quality"]
    old_edge = parse.outputs[0]
    parse.outputs.clear()
    quality.inputs[0] = None
    plan.connect(parse, duplicate, page_size=config.page_size)
    plan.connect(duplicate, quality, page_size=config.page_size)
    plan.connect(duplicate, monitor, page_size=config.page_size)

    simulator = Simulator(plan)
    for when, feedback in _viewer_feedback(
        config, switch_minutes, average.output_schema, issuer=sink.name
    ):
        delayed = when + decision_interval
        simulator.at(
            delayed, lambda fb=feedback: sink.inject_feedback(fb)
        )
    result = simulator.run()
    return CentralizedComparison(
        localized_work=localized.execution_time,
        centralized_work=result.total_work,
        localized_messages=localized.feedback_messages,
        centralized_data_shipped=monitor.data_shipped,
        centralized_decisions=monitor.decisions_made,
    )


def run_pace_bound_ablation(
    config: Exp1Config | None = None,
) -> dict[str, float]:
    """Drop fractions of Experiment 1 under the two PACE bound policies."""
    config = config or Exp1Config()
    fractions: dict[str, float] = {}
    for policy in ("watermark", "tolerance"):
        plan, ops = build_exp1_plan(config, feedback=True)
        pace: Pace = ops["pace"]  # type: ignore[assignment]
        pace.feedback_bound = policy
        Simulator(plan).run()
        impute = ops["impute"]
        dropped = (
            pace.late_drops_by_port[1]
            + impute.metrics.input_guard_drops  # type: ignore[union-attr]
        )
        fractions[policy] = dropped / (config.tuples // 2)
    return fractions


def run_frequency_overhead_ablation(
    config: Exp2Config | None = None,
    *,
    frequencies: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 6.0),
) -> dict[float, Exp2CellResult]:
    """Scheme F3 under increasingly chatty viewers.

    The paper reports "no discernible overhead" from 2-6 minute switch
    intervals; this ablation pushes to 30-second switching to find where
    (whether) control costs start to register.
    """
    config = config or Exp2Config()
    return {
        frequency: run_cell(config, "F3", frequency)
        for frequency in frequencies
    }
