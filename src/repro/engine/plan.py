"""Query plans: DAGs of operators connected by queues and control channels.

Paper cross-reference: Figure 3 (section 3.1) draws the inter-operator
connection structure this module materialises -- a data queue carrying
pages of tuples and embedded punctuation downstream, paired with a
bidirectional out-of-band control channel for feedback punctuation --
and section 5 describes the NiagaraST deployment of it (operators as
schedulable units joined by queues).  Each ``connect`` call creates
exactly that pair: one :class:`~repro.stream.queues.DataQueue` plus one
:class:`~repro.stream.control.ControlChannel`.

Plans are engine-agnostic: the simulator, the threaded runtime and the
asyncio engine all consume the same validated plan (the registry in
:mod:`repro.engine.registry` resolves engines by name; see
``docs/engines.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.errors import PlanError
from repro.operators.base import Operator, OutputEdge, SourceOperator
from repro.stream.control import ControlChannel
from repro.stream.pages import DEFAULT_PAGE_SIZE
from repro.stream.queues import DataQueue

__all__ = [
    "QueryPlan",
    "ShardGroup",
    "edge_annotation",
    "render_describe",
    "render_dot",
]


@dataclass(frozen=True)
class ShardGroup:
    """IR record of one shard region inside a plan.

    A shard region is a subgraph replicated ``n`` ways between a
    :class:`~repro.operators.partition.Partition` (``partition``) and a
    :class:`~repro.operators.partition.ShardMerge` (``merge``), running
    over a stream key-partitioned on ``key``.  ``lanes[i]`` names the
    replica operators of lane ``i`` in topological order.  The record is
    pure bookkeeping -- data and control flow entirely through the plan's
    ordinary queues and channels -- but it is what lets the runtime roll
    metrics up per lane (skew reports) and the renderers draw the region
    as one unit.
    """

    name: str
    partition: str
    merge: str
    key: tuple[str, ...]
    n: int
    lanes: tuple[tuple[str, ...], ...]

    @property
    def members(self) -> tuple[str, ...]:
        """Every replica operator name, across all lanes."""
        return tuple(op for lane in self.lanes for op in lane)


def describe_region_lines(
    regions: Sequence[ShardGroup],
) -> list[str]:
    """The describe()-style trailer for a plan's shard regions.

    Empty when there are none, so unsharded plans render byte-identically
    to historical output.
    """
    lines: list[str] = []
    for region in regions:
        key = ", ".join(region.key)
        lines.append(
            f"  shard {region.name!r} x{region.n} by ({key}): "
            f"{region.partition} -> {region.merge}"
        )
        for index, lane in enumerate(region.lanes):
            lines.append(
                f"    lane {index}: {', '.join(lane) or '(direct)'}"
            )
    return lines


def checkpoint_capable(op_type: type) -> bool:
    """True when ``op_type`` has state a checkpoint could carry.

    Capability is a property of the *class*
    (:meth:`~repro.operators.base.Operator.carries_state`: it declares
    ``state_fields`` or overrides the snapshot seam).  The renderers use
    this for the opt-in ``checkpoints=`` annotation.
    """
    return op_type.carries_state()


def checkpoint_annotation(op_type: type, enabled: bool) -> str:
    """`` ⌖`` when annotating and capable, else empty (output unchanged)."""
    return " ⌖" if enabled and checkpoint_capable(op_type) else ""


def render_describe(
    name: str,
    stages: list[tuple[str, str, list[str]]],
    regions: Sequence[ShardGroup] = (),
    fused: Sequence[tuple[str, list[tuple[str, str]]]] = (),
) -> str:
    """Shared topology-text renderer.

    ``stages`` rows are ``(op_name, type_name, targets)`` where each
    target is already formatted as ``consumer[port]``; ``regions`` are
    the plan's shard groups, rendered as a trailer.  ``fused`` rows are
    ``(composite_name, [(stage_name, stage_type), ...])`` for composites
    produced by the optimizer, rendered as their own trailer so the
    collapsed stages stay visible.  Used by both
    :meth:`QueryPlan.describe` and ``Flow.describe`` so the two surfaces
    cannot drift.
    """
    lines = [f"QueryPlan {name!r}:"]
    for op_name, type_name, targets in stages:
        rendered = ", ".join(targets) or "(sink)"
        lines.append(f"  {op_name} ({type_name}) -> {rendered}")
    for fused_name, members in fused:
        inner = " -> ".join(f"{s} ({t})" for s, t in members)
        lines.append(f"  fused {fused_name!r}: {inner}")
    lines.extend(describe_region_lines(regions))
    return "\n".join(lines)


def render_dot(
    name: str,
    nodes: list[tuple[str, str, bool, bool]],
    edges: list[tuple[str, str, int, int | None]],
    regions: Sequence[ShardGroup] = (),
    fused: Sequence[tuple[str, list[tuple[str, str]]]] = (),
) -> str:
    """Shared Graphviz (DOT) renderer.

    ``nodes`` rows are ``(op_name, type_name, is_source, is_sink)``;
    ``edges`` rows are ``(producer, consumer, port, capacity)``.  Sources
    are drawn as ellipses, sinks with doubled borders, everything else as
    boxes; edge labels carry the consumer port.  Backpressure-capable
    edges (``capacity`` set) additionally carry a ``cap=N`` label and a
    tee arrowtail -- the queue can push back on its producer.  Shard
    ``regions`` render their replica operators inside a dashed cluster
    labelled with the fanout and partition key.  ``fused`` rows
    (``(composite_name, [(stage_name, stage_type), ...])``) render each
    optimizer composite as a dashed cluster of its stages -- node names
    ``composite::stage`` -- with the collapsed hops drawn dashed inside;
    callers remap external edges to the head/tail stage nodes.  Paste
    into ``dot -Tpng`` or any DOT viewer.  Used by both
    :meth:`QueryPlan.to_dot` and ``Flow.to_dot``.
    """
    def quote(text: str) -> str:
        # Escape quotes only: labels deliberately embed DOT's \n.
        return '"' + text.replace('"', '\\"') + '"'

    def node_statement(row: tuple[str, str, bool, bool]) -> str:
        op_name, type_name, is_source, is_sink = row
        label = f"{op_name}\\n{type_name}"
        attrs = [f"label={quote(label)}"]
        if is_source:
            attrs.append("shape=ellipse")
        elif is_sink:
            attrs.append("peripheries=2")
        return f"{quote(op_name)} [{', '.join(attrs)}];"

    member_of: dict[str, ShardGroup] = {}
    for region in regions:
        for member in region.members:
            member_of[member] = region

    lines = [
        f"digraph {quote(name)} {{",
        "  rankdir=LR;",
        "  node [shape=box];",
    ]
    for row in nodes:
        if row[0] not in member_of:
            lines.append(f"  {node_statement(row)}")
    for index, region in enumerate(regions):
        members = set(region.members)
        key = ", ".join(region.key)
        lines.append(f"  subgraph cluster_shard_{index} {{")
        lines.append(
            f"    label={quote(f'shard {region.name} x{region.n} by ({key})')};"
        )
        lines.append("    style=dashed;")
        for row in nodes:
            if row[0] in members:
                lines.append(f"    {node_statement(row)}")
        lines.append("  }")
    for index, (fused_name, stage_rows) in enumerate(fused):
        lines.append(f"  subgraph cluster_fused_{index} {{")
        lines.append(f"    label={quote(f'fused {fused_name}')};")
        lines.append("    style=dashed;")
        for stage_name, stage_type in stage_rows:
            node = f"{fused_name}::{stage_name}"
            label = f"{stage_name}\\n{stage_type}"
            lines.append(f"    {quote(node)} [label={quote(label)}];")
        for (a, _), (b, _) in zip(stage_rows, stage_rows[1:]):
            lines.append(
                f"    {quote(f'{fused_name}::{a}')} -> "
                f"{quote(f'{fused_name}::{b}')} [style=dashed];"
            )
        lines.append("  }")
    for producer, consumer, port, capacity in edges:
        label = f"[{port}]"
        attrs = [f"label={quote(label)}"]
        if capacity is not None:
            attrs[0] = f"label={quote(f'{label} cap={capacity}')}"
            attrs.append("dir=both, arrowtail=tee")
        lines.append(
            f"  {quote(producer)} -> {quote(consumer)}"
            f" [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def edge_annotation(capacity: int | None) -> str:
    """The describe()-style suffix for one edge's queue capacity.

    Empty for unbounded edges, so plans without backpressure render
    byte-identically to historical output.
    """
    return f" (cap={capacity})" if capacity is not None else ""


class QueryPlan:
    """A named collection of operators and their connections."""

    def __init__(self, name: str = "plan") -> None:
        self.name = name
        self._operators: dict[str, Operator] = {}
        self._edges: list[OutputEdge] = []
        self._shard_groups: list[ShardGroup] = []

    # -- construction ------------------------------------------------------------

    def add(self, operator: Operator) -> Operator:
        """Register an operator; names must be unique within the plan."""
        if operator.name in self._operators:
            raise PlanError(
                f"plan {self.name!r} already has an operator named "
                f"{operator.name!r}"
            )
        self._operators[operator.name] = operator
        return operator

    def connect(
        self,
        producer: Operator,
        consumer: Operator,
        *,
        port: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
        capacity: int | None = None,
    ) -> OutputEdge:
        """Wire producer -> consumer[port] with a fresh queue + channel.

        ``capacity`` bounds the edge's data queue (high-water mark in
        elements; relief at ``capacity // 2``) and opts the edge into
        runtime backpressure.  Unbounded (the default) edges behave
        exactly as before.

        Duplicate wiring of the same ``(consumer, port)`` is rejected up
        front -- before either endpoint is mutated -- so a bad ``connect``
        can never leave a producer holding a dangling output edge into a
        queue nobody drains.
        """
        if not 0 <= port < consumer.n_inputs:
            raise PlanError(
                f"{consumer.name}: input port {port} out of range "
                f"(operator has {consumer.n_inputs} inputs)"
            )
        if consumer.inputs[port] is not None:
            raise PlanError(
                f"plan {self.name!r}: input port {port} of "
                f"{consumer.name!r} is already connected "
                f"(from {consumer.inputs[port].producer!r})"
            )
        for op in (producer, consumer):
            if op.name not in self._operators:
                self.add(op)
        edge_name = f"{producer.name}->{consumer.name}[{port}]"
        queue = DataQueue(edge_name, page_size=page_size, capacity=capacity)
        control = ControlChannel(edge_name)
        edge = OutputEdge(queue, control, consumer, port)
        producer.attach_output(edge)
        consumer.attach_input(port, queue, control, producer)
        self._edges.append(edge)
        return edge

    def connect_like(
        self,
        producer: Operator,
        consumer: Operator,
        like: OutputEdge,
        *,
        port: int | None = None,
    ) -> OutputEdge:
        """Wire producer -> consumer carrying ``like``'s queue settings.

        Optimizer rewrites replace an edge's endpoint but must not change
        the edge's *queue configuration*: a bounded, backpressure-capable
        edge (``capacity``) or a custom ``page_size`` that silently
        reverted to defaults would alter runtime behaviour in a way no
        equivalence harness at default settings could see.  This is the
        rewrite-safe variant of :meth:`connect`: page size and capacity
        (and so the relief mark) come from ``like``'s queue.
        """
        queue = like.queue
        return self.connect(
            producer,
            consumer,
            port=like.consumer_port if port is None else port,
            page_size=queue.page_size,
            capacity=queue.capacity,
        )

    def disconnect(self, edge: OutputEdge) -> None:
        """Unwire one plan edge (the optimizer's rewrite primitive).

        Removes the edge from its producer's outputs, frees the
        consumer's input port, and drops the edge from the plan's edge
        list.  Only edges created by :meth:`connect` qualify.
        """
        producer = next(
            (
                op
                for op in self._operators.values()
                if edge in op.outputs
            ),
            None,
        )
        if producer is None or edge not in self._edges:
            raise PlanError(
                f"plan {self.name!r}: cannot disconnect unknown edge "
                f"{edge!r}"
            )
        producer.outputs.remove(edge)
        consumer = edge.consumer
        port = consumer.inputs[edge.consumer_port]
        if port is not None and port.queue is edge.queue:
            consumer.inputs[edge.consumer_port] = None
        self._edges.remove(edge)

    def producer_of(self, edge: OutputEdge) -> Operator:
        """The operator holding ``edge`` among its outputs."""
        for op in self._operators.values():
            if edge in op.outputs:
                return op
        raise PlanError(
            f"plan {self.name!r}: edge {edge!r} has no producer here"
        )

    def remove_operator(self, name: str) -> Operator:
        """Drop a fully-disconnected operator from the plan.

        Rewrites must :meth:`disconnect` every edge first; removing a
        still-wired operator would leave dangling queues.
        """
        op = self.operator(name)
        if op.outputs or any(p is not None for p in op.inputs):
            raise PlanError(
                f"plan {self.name!r}: operator {name!r} is still "
                f"connected; disconnect its edges before removal"
            )
        del self._operators[name]
        return op

    def chain(self, *operators: Operator, page_size: int = DEFAULT_PAGE_SIZE) -> Operator:
        """Connect operators linearly; returns the last one."""
        for producer, consumer in zip(operators, operators[1:]):
            self.connect(producer, consumer, page_size=page_size)
        return operators[-1]

    def register_shard_group(self, group: ShardGroup) -> ShardGroup:
        """Record a shard region over operators already in the plan.

        Validates that the boundary operators and every lane member exist
        and that the lane count matches the declared fanout.  The group
        is IR metadata: it steers metrics rollups and rendering, never
        execution (the wiring does that).
        """
        for op_name in (group.partition, group.merge, *group.members):
            if op_name not in self._operators:
                raise PlanError(
                    f"plan {self.name!r}: shard group {group.name!r} "
                    f"names unknown operator {op_name!r}"
                )
        if len(group.lanes) != group.n:
            raise PlanError(
                f"plan {self.name!r}: shard group {group.name!r} declares "
                f"n={group.n} but has {len(group.lanes)} lane(s)"
            )
        self._shard_groups.append(group)
        return group

    def replace_lane_members(
        self, members: Sequence[str], replacement: str
    ) -> None:
        """Substitute a fused run of lane members with its composite name.

        Optimizer rewrites that collapse operators *inside* a shard lane
        must keep the region record truthful -- metrics rollups, the
        multiprocess engine's lane groups and the renderers all resolve
        lanes by operator name.  Each lane's run of ``members`` collapses
        to the single ``replacement`` name; lanes and groups not
        mentioning any member are untouched.
        """
        member_set = set(members)
        for index, group in enumerate(self._shard_groups):
            if not member_set & set(group.members):
                continue
            new_lanes = []
            for lane in group.lanes:
                rewritten: list[str] = []
                for op_name in lane:
                    if op_name in member_set:
                        if replacement not in rewritten:
                            rewritten.append(replacement)
                    else:
                        rewritten.append(op_name)
                new_lanes.append(tuple(rewritten))
            self._shard_groups[index] = replace(
                group, lanes=tuple(new_lanes)
            )

    # -- access -------------------------------------------------------------------

    @property
    def operators(self) -> list[Operator]:
        return list(self._operators.values())

    @property
    def edges(self) -> list[OutputEdge]:
        return list(self._edges)

    @property
    def shard_groups(self) -> list[ShardGroup]:
        return list(self._shard_groups)

    def operator(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError:
            raise PlanError(f"no operator named {name!r}") from None

    def sources(self) -> list[SourceOperator]:
        return [
            op for op in self._operators.values()
            if isinstance(op, SourceOperator)
        ]

    def sinks(self) -> list[Operator]:
        return [op for op in self._operators.values() if not op.outputs]

    # -- validation ---------------------------------------------------------------

    def validate(self) -> None:
        """Check connectivity and acyclicity; raise PlanError otherwise."""
        if not self._operators:
            raise PlanError(f"plan {self.name!r} is empty")
        for op in self._operators.values():
            for index, port in enumerate(op.inputs):
                if port is None:
                    raise PlanError(
                        f"{op.name}: input port {index} is not connected"
                    )
        if not self.sources():
            raise PlanError(f"plan {self.name!r} has no source operator")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self._operators}

        def visit(op: Operator) -> None:
            colour[op.name] = GREY
            for edge in op.outputs:
                successor = edge.consumer
                if colour[successor.name] == GREY:
                    raise PlanError(
                        f"plan {self.name!r} has a cycle through "
                        f"{op.name!r} -> {successor.name!r}"
                    )
                if colour[successor.name] == WHITE:
                    visit(successor)
            colour[op.name] = BLACK

        for op in self._operators.values():
            if colour[op.name] == WHITE:
                visit(op)

    # -- reporting -----------------------------------------------------------------

    def _fused_rows(
        self, checkpoints: bool
    ) -> list[tuple[str, list[tuple[str, str]]]]:
        """``(composite_name, [(stage, type), ...])`` for every fused
        composite in the plan (duck-typed on ``fused_stages`` to keep the
        IR module free of operator-package imports)."""
        rows = []
        for op in self._operators.values():
            stages = getattr(op, "fused_stages", None)
            if stages:
                rows.append((
                    op.name,
                    [
                        (
                            stage.name,
                            type(stage).__name__
                            + checkpoint_annotation(
                                type(stage), checkpoints
                            ),
                        )
                        for stage in stages
                    ],
                ))
        return rows

    def describe(self, *, checkpoints: bool = False) -> str:
        """Text rendering of the plan topology.

        With ``checkpoints=True``, operators that carry checkpointable
        state (they override the snapshot seam) are marked ``⌖``; the
        default output is unchanged.  Fused composites list their stages
        in a trailer so optimized plans render honestly.
        """
        return render_describe(
            self.name,
            [
                (
                    op.name,
                    type(op).__name__
                    + checkpoint_annotation(type(op), checkpoints),
                    [
                        f"{e.consumer.name}[{e.consumer_port}]"
                        f"{edge_annotation(e.queue.capacity)}"
                        for e in op.outputs
                    ],
                )
                for op in self._operators.values()
            ],
            regions=self._shard_groups,
            fused=self._fused_rows(checkpoints),
        )

    def to_dot(self, *, checkpoints: bool = False) -> str:
        """Graphviz (DOT) rendering of the plan topology.

        See :func:`render_dot` for the conventions; ``checkpoints=True``
        appends ``⌖`` to checkpoint-capable operators' type labels.
        """
        fused_rows = self._fused_rows(checkpoints)
        # External edges touching a composite attach to its head (inward)
        # or tail (outward) stage node inside the cluster.
        head_of = {
            name: f"{name}::{stages[0][0]}" for name, stages in fused_rows
        }
        tail_of = {
            name: f"{name}::{stages[-1][0]}" for name, stages in fused_rows
        }
        return render_dot(
            self.name,
            [
                (
                    op.name,
                    type(op).__name__
                    + checkpoint_annotation(type(op), checkpoints),
                    isinstance(op, SourceOperator),
                    not op.outputs,
                )
                for op in self._operators.values()
                if op.name not in head_of
            ],
            [
                (
                    tail_of.get(op.name, op.name),
                    head_of.get(edge.consumer.name, edge.consumer.name),
                    edge.consumer_port,
                    edge.queue.capacity,
                )
                for op in self._operators.values()
                for edge in op.outputs
            ],
            regions=self._shard_groups,
            fused=fused_rows,
        )

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators.values())

    def __len__(self) -> int:
        return len(self._operators)
