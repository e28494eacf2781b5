"""Plan optimizer: rewrite passes over the :class:`QueryPlan` IR.

Run before engine handoff (``flow.run(optimize=True)``) or standalone
(``optimize(plan)``).  Three passes, in order:

1. **guard pushdown** (:mod:`repro.optimizer.pushdown`) -- move
   pattern-predicate SELECTs upstream across commuting stateless stages,
   so non-qualifying tuples are dropped before work is spent on them;
2. **projection pruning** (:mod:`repro.optimizer.pruning`) -- dead-drop
   attributes at projection boundaries: when a downstream projection
   proves attributes unread, the upstream projection drops them
   immediately (adjacent projections compose), and projections that keep
   everything vanish;
3. **fusion** (:mod:`repro.optimizer.fusion`) -- collapse the remaining
   chains of adjacent single-input stateless verbs into one
   :class:`~repro.operators.fused.FusedOperator`, so a page crosses one
   queue instead of N.

Every pass preserves the punctuation/feedback protocol observably: sink
data (as a multiset), sink punctuation, and feedback effects at sources
are identical to the unoptimized plan -- the property the differential
harness in ``tests/test_optimizer_equivalence.py`` checks mechanically.
Rewritten edges carry their queue configuration (``page_size`` and
``capacity``, which fixes the relief mark) through
:meth:`QueryPlan.connect_like`, so backpressure behaviour survives
rewrites too.

Exploits the operator-equivalence observations in *On the Semantic
Overlap of Operators in Stream Processing Engines* (see PAPERS.md): the
stateless verbs here are mutually reorderable/composable exactly when
their schema mappings carry exact lineage for the attributes involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.plan import QueryPlan
from repro.optimizer.fusion import fuse_chains
from repro.optimizer.pruning import prune_projections
from repro.optimizer.pushdown import push_guards

__all__ = ["OptimizationReport", "optimize"]


@dataclass
class OptimizationReport:
    """What the optimizer did (and declined) to one plan.

    ``fused`` lists ``(composite_name, stage_names)`` per new composite;
    ``pushed`` lists ``(select_name, pushed_past_name)`` per guard swap;
    ``pruned`` lists the names of projections removed or composed away;
    ``declined`` lists ``(operator_name, reason)`` for operators the
    fusion pass considered and rejected -- the honest record of where the
    plan kept its materialized form.
    """

    fused: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    pushed: list[tuple[str, str]] = field(default_factory=list)
    pruned: list[str] = field(default_factory=list)
    declined: list[tuple[str, str]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.fused or self.pushed or self.pruned)


def optimize(plan: QueryPlan) -> OptimizationReport:
    """Rewrite ``plan`` in place; return what happened.

    Pass order matters: pushdown first (it moves SELECTs into positions
    pruning and fusion then see), pruning second (composed projections
    make longer fusible chains), fusion last (it freezes the chain shape).
    To run one pass alone, call it with an :class:`OptimizationReport`.
    """
    report = OptimizationReport()
    push_guards(plan, report)
    prune_projections(plan, report)
    fuse_chains(plan, report)
    return report
