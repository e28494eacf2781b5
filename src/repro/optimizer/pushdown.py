"""Guard pushdown: move pattern SELECTs toward the sources.

A SELECT whose predicate is a declarative :class:`Pattern` commutes with
an immediately-upstream stateless stage when every constrained attribute
has an *exact* origin in that stage's input (Definition 2's condition,
applied to predicates instead of feedback): filtering before the stage
drops exactly the tuples whose transformed image the original filter
would have dropped.  Pushing the filter up means the stage never does
work on non-qualifying tuples -- the optimizer applying, at plan time,
the same move the paper's assumed feedback makes at run time.

Only pattern predicates move (an opaque callable's column reads are
unknowable); SELECTs never swap past other SELECTs (pointless, and it
would cycle); shard-region members stay put.
"""

from __future__ import annotations

from repro.core.propagation import PropagationPlanner
from repro.engine.plan import QueryPlan
from repro.operators.map import Map
from repro.operators.passthrough import PassThrough
from repro.operators.project import Project
from repro.operators.select import Select

from repro.optimizer.fusion import shard_bound_names

__all__ = ["push_guards"]

#: Stages a pattern SELECT may commute across.
COMMUTABLE_TYPES = (Project, Map, PassThrough)


def _swap_once(plan: QueryPlan, shard_bound: set[str], report) -> bool:
    """Find one legal swap, apply it, and report it.  False when none."""
    for op in plan:
        # Exact-type check: a Select *subclass* (QualityFilter) would be
        # rebuilt below as a plain Select, silently shedding behaviour.
        if type(op) is not Select or op.pattern is None:
            continue
        if op.n_inputs != 1 or op.inputs[0] is None:
            continue
        if op.name in shard_bound or op.needs_metering:
            continue
        upstream = op.inputs[0].producer
        if (
            upstream is None
            or not isinstance(upstream, COMMUTABLE_TYPES)
            or upstream.n_inputs != 1
            or len(upstream.outputs) != 1
            or upstream.name in shard_bound
            or upstream.inputs[0] is None
        ):
            continue
        # The pattern over the stage's input by the rule that relays
        # feedback (Definition 2): every constrained attribute needs an
        # exact origin, and constraints on one origin intersect.  None
        # (a computed origin, an empty intersection, nothing
        # constrained): decline.
        remapped = PropagationPlanner(upstream.mapping).plan(
            op.pattern
        ).per_input.get(0)
        if remapped is None:
            continue

        feeder = upstream.inputs[0].producer
        if feeder is None:
            continue
        feed_edge = next(
            e for e in feeder.outputs if e.consumer is upstream
        )
        mid_edge = upstream.outputs[0]
        out_edges = list(op.outputs)

        plan.disconnect(feed_edge)
        plan.disconnect(mid_edge)
        for edge in out_edges:
            plan.disconnect(edge)
        plan.remove_operator(op.name)
        pushed = Select(
            op.name, upstream.mapping.input_schemas[0], remapped
        )
        plan.add(pushed)
        plan.connect_like(feeder, pushed, feed_edge, port=0)
        plan.connect_like(pushed, upstream, mid_edge, port=0)
        for edge in out_edges:
            plan.connect_like(upstream, edge.consumer, edge)
        report.pushed.append((op.name, upstream.name))
        return True
    return False


def push_guards(plan: QueryPlan, report) -> None:
    """Swap pattern SELECTs upstream until no legal swap remains.

    Termination: each swap strictly decreases the number of non-SELECT
    stages upstream of some SELECT, and SELECTs never swap with SELECTs,
    so the pass reaches a fixpoint in at most |edges| x |selects| steps
    (the bound below is a safety net, never the stop condition).
    """
    shard_bound = shard_bound_names(plan)
    for _ in range(len(plan) * len(plan) + 1):
        if not _swap_once(plan, shard_bound, report):
            return
