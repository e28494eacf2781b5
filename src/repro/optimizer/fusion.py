"""Fusion pass: collapse stateless chains into FusedOperator composites.

A *fusible* operator is a single-input stateless verb -- SELECT, PROJECT,
MAP, PASSTHROUGH -- with nothing that ties it to its own seat in the
plan: no cost metering (virtual-time charging is per schedulable unit),
no checkpointable state, no per-lane flow control, and not a shard
region *boundary* (Partition and ShardMerge anchor the region's control
plane).  Lane interiors do fuse: the pass rewrites the owning
:class:`~repro.engine.plan.ShardGroup`'s lane tuple so the region
record stays truthful, and the metrics rollup attributes a composite's
stages back to their lane (``lane::composite::stage`` keys).  Maximal
runs of two or more fusible operators along single-fanout edges become
one :class:`~repro.operators.fused.FusedOperator`.

Every decline is recorded with its reason: an optimized plan's report
says not just what fused but why the rest did not.
"""

from __future__ import annotations

from repro.engine.plan import QueryPlan, checkpoint_capable
from repro.operators.base import Operator, SourceOperator
from repro.operators.fused import FusedOperator
from repro.operators.map import Map
from repro.operators.passthrough import PassThrough
from repro.operators.project import Project
from repro.operators.select import Select

__all__ = ["FUSIBLE_TYPES", "fuse_chains", "fusible_reason"]

#: The stateless single-input whitelist.  Subclasses qualify only if they
#: add no metering or snapshot state (checked per instance below).
FUSIBLE_TYPES = (Select, Project, Map, PassThrough)


def shard_bound_names(plan: QueryPlan) -> set[str]:
    """Operators a shard region pins by name (the lane boundaries).

    Only the Partition and ShardMerge are pinned: they are the region's
    control-plane endpoints (routing, the per-lane stash and the
    punctuation alignment live there).  Lane *members* are free to fuse --
    :func:`fuse_chains` rewrites the group's lane tuples afterwards so
    the region record names the composite.
    """
    names: set[str] = set()
    for group in plan.shard_groups:
        names.add(group.partition)
        names.add(group.merge)
    return names


def fusible_reason(
    op: Operator, shard_bound: set[str]
) -> str | None:
    """Why ``op`` cannot fuse, or None when it can."""
    if isinstance(op, SourceOperator):
        return "source"
    if not isinstance(op, FUSIBLE_TYPES):
        return f"stateful or multi-input ({type(op).__name__})"
    if op.n_inputs != 1:
        return f"{op.n_inputs} inputs"
    if op.needs_metering:
        return "cost-metered (virtual-time charging is per operator)"
    if checkpoint_capable(type(op)):
        return "carries checkpointable state"
    if op.lane_flow_control:
        return "per-lane flow control"
    if op.name in shard_bound:
        return "shard region boundary (anchors the region's control plane)"
    if op.inputs[0] is None:
        return "input not wired"
    return None


def _find_chains(plan: QueryPlan) -> tuple[
    list[list[Operator]], list[tuple[str, str]]
]:
    """Maximal fusible runs (length >= 2) and the recorded declines."""
    shard_bound = shard_bound_names(plan)
    reasons: dict[str, str | None] = {
        op.name: fusible_reason(op, shard_bound) for op in plan
    }

    def fusible(op: Operator) -> bool:
        return reasons[op.name] is None

    def continues_a_chain(op: Operator) -> bool:
        """Is ``op`` mid-chain (its producer will pick it up)?"""
        producer = op.inputs[0].producer
        return (
            producer is not None
            and fusible(producer)
            and len(producer.outputs) == 1
        )

    chains: list[list[Operator]] = []
    for op in plan:
        if not fusible(op) or continues_a_chain(op):
            continue
        chain = [op]
        cursor = op
        while len(cursor.outputs) == 1:
            succ = cursor.outputs[0].consumer
            if not fusible(succ):
                break
            chain.append(succ)
            cursor = succ
        if len(chain) >= 2:
            chains.append(chain)
    declined = [
        (op.name, reasons[op.name])
        for op in plan
        if reasons[op.name] is not None
        and not isinstance(op, SourceOperator)
    ]
    return chains, declined


def _fuse_one(plan: QueryPlan, chain: list[Operator]) -> FusedOperator:
    """Replace ``chain`` with one composite, carrying queue configs.

    The upstream feed keeps the old feed edge's configuration; each
    downstream edge keeps the old tail edge's.  The internal edges vanish
    -- that is the optimization.
    """
    head, tail = chain[0], chain[-1]
    feed_port = head.inputs[0]
    upstream = feed_port.producer
    feed_edge = next(
        e for e in upstream.outputs if e.consumer is head
    )
    out_edges = list(tail.outputs)
    internal = [op.outputs[0] for op in chain[:-1]]

    plan.disconnect(feed_edge)
    for edge in internal:
        plan.disconnect(edge)
    for edge in out_edges:
        plan.disconnect(edge)
    for op in chain:
        plan.remove_operator(op.name)

    fused = FusedOperator(chain)
    plan.add(fused)
    plan.connect_like(upstream, fused, feed_edge, port=0)
    for edge in out_edges:
        plan.connect_like(fused, edge.consumer, edge)
    return fused


def fuse_chains(plan: QueryPlan, report) -> None:
    """Run the fusion pass over ``plan``, recording into ``report``."""
    chains, declined = _find_chains(plan)
    for chain in chains:
        chain_names = [op.name for op in chain]
        fused = _fuse_one(plan, chain)
        # A chain that lived inside a shard lane replaced that lane's
        # run of member names; keep the region record truthful.
        plan.replace_lane_members(chain_names, fused.name)
        report.fused.append((fused.name, fused.stage_names))
    report.declined.extend(declined)
