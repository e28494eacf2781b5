"""Metrics: per-operator, per-queue and plan-wide counters.

The experiments report three kinds of numbers, all sourced here:

* **work accounting** -- virtual seconds charged per operator (the
  simulator's stand-in for the paper's "total query execution time" on a
  single-CPU machine);
* **feedback accounting** -- counts of feedback produced / exploited /
  relayed plus guard drop counters, used for the savings breakdowns;
* **flow-control accounting** -- pause/resume signals issued and received,
  time spent paused, and per-queue occupancy high-water marks (bounded
  in ``tests/test_virtual_time_results.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "OperatorMetrics",
    "PlanMetrics",
    "QueueMetrics",
    "ShardGroupMetrics",
    "ShardLaneMetrics",
]


@dataclass
class OperatorMetrics:
    """Counters maintained by every operator.

    ``busy_time`` is the virtual time spent processing (charged by the cost
    model); ``state_size`` is a gauge the operator updates when its internal
    state grows or shrinks (hash-table entries, open windows, backlog).
    """

    tuples_in: int = 0
    tuples_out: int = 0
    punctuations_in: int = 0
    punctuations_out: int = 0
    pages_in: int = 0
    pages_batched: int = 0
    input_guard_drops: int = 0
    output_guard_drops: int = 0
    state_purged: int = 0
    state_size: int = 0
    peak_state_size: int = 0
    feedback_received: int = 0
    feedback_produced: int = 0
    feedback_relayed: int = 0
    feedback_ignored: int = 0
    control_messages: int = 0
    control_forwarded: int = 0
    pauses_issued: int = 0
    resumes_issued: int = 0
    pauses_received: int = 0
    resumes_received: int = 0
    time_paused: float = 0.0
    busy_time: float = 0.0
    #: Checkpoint markers this operator completed (snapshots taken), the
    #: pickled state bytes written, and wall time spent snapshotting.
    checkpoints: int = 0
    snapshot_bytes: int = 0
    snapshot_time: float = 0.0

    def grow_state(self, delta: int = 1) -> None:
        self.state_size += delta
        if self.state_size > self.peak_state_size:
            self.peak_state_size = self.state_size

    def shrink_state(self, delta: int = 1, *, purged: bool = False) -> None:
        self.state_size = max(0, self.state_size - delta)
        if purged:
            self.state_purged += delta

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports and JSON-ish dumps."""
        return {
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "punctuations_in": self.punctuations_in,
            "punctuations_out": self.punctuations_out,
            "pages_in": self.pages_in,
            "pages_batched": self.pages_batched,
            "input_guard_drops": self.input_guard_drops,
            "output_guard_drops": self.output_guard_drops,
            "state_purged": self.state_purged,
            "peak_state_size": self.peak_state_size,
            "feedback_received": self.feedback_received,
            "feedback_produced": self.feedback_produced,
            "feedback_relayed": self.feedback_relayed,
            "feedback_ignored": self.feedback_ignored,
            "control_messages": self.control_messages,
            "control_forwarded": self.control_forwarded,
            "pauses_issued": self.pauses_issued,
            "resumes_issued": self.resumes_issued,
            "pauses_received": self.pauses_received,
            "resumes_received": self.resumes_received,
            "time_paused": self.time_paused,
            "busy_time": self.busy_time,
            "checkpoints": self.checkpoints,
            "snapshot_bytes": self.snapshot_bytes,
            "snapshot_time": self.snapshot_time,
        }


@dataclass(frozen=True)
class QueueMetrics:
    """Occupancy accounting of one inter-operator data queue.

    ``peak_occupancy`` is the gauge the backpressure benchmark bounds:
    with a ``capacity`` set, the runtime's pause/resume signalling keeps
    it near the high-water mark instead of letting it grow with the
    producer/consumer speed gap.

    Edges are identified structurally by ``(producer, consumer, port)``
    -- the plan-wide rollup keys entries by exactly that triple (rendered
    ``"producer->consumer[port]"``), so replicated shard edges and the
    several inputs of a join or merge always report distinct metrics even
    when the underlying queues carry hand-assigned (or colliding) names.
    """

    name: str
    capacity: int | None
    low_water: int
    peak_occupancy: int
    elements_enqueued: int
    pages_flushed: int
    producer: str = ""
    consumer: str = ""
    port: int = 0

    @property
    def edge_key(self) -> str:
        """The canonical ``producer->consumer[port]`` identifier."""
        return f"{self.producer}->{self.consumer}[{self.port}]"

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "producer": self.producer,
            "consumer": self.consumer,
            "port": self.port,
            "capacity": self.capacity,
            "low_water": self.low_water,
            "peak_occupancy": self.peak_occupancy,
            "elements_enqueued": self.elements_enqueued,
            "pages_flushed": self.pages_flushed,
        }


@dataclass(frozen=True)
class ShardLaneMetrics:
    """Rollup over one lane (replica) of a shard group.

    ``ingress`` counts every element the partitioner routed into the lane
    (tuples plus broadcast punctuation) -- the load-balance gauge; the
    remaining counters sum the lane's member-operator metrics.
    """

    lane: int
    operators: tuple[str, ...]
    ingress: int
    tuples_in: int
    tuples_out: int
    busy_time: float
    time_paused: float

    def snapshot(self) -> dict[str, Any]:
        return {
            "lane": self.lane,
            "operators": list(self.operators),
            "ingress": self.ingress,
            "tuples_in": self.tuples_in,
            "tuples_out": self.tuples_out,
            "busy_time": self.busy_time,
            "time_paused": self.time_paused,
        }


@dataclass
class ShardGroupMetrics:
    """Per-shard-group rollup: one :class:`ShardLaneMetrics` per lane."""

    name: str
    key: tuple[str, ...]
    n: int
    lanes: list[ShardLaneMetrics] = field(default_factory=list)
    regions_held: int = 0
    regions_released: int = 0

    def skew(self) -> float:
        """Max-over-mean lane ingress: 1.0 is perfectly balanced.

        The classic load-imbalance metric for key-partitioned
        parallelism; a heavy hitter key drives it toward ``n``.
        """
        loads = [lane.ingress for lane in self.lanes]
        if not loads or not sum(loads):
            return 1.0
        return max(loads) / (sum(loads) / len(loads))

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "key": list(self.key),
            "n": self.n,
            "skew": self.skew(),
            "regions_held": self.regions_held,
            "regions_released": self.regions_released,
            "lanes": [lane.snapshot() for lane in self.lanes],
        }


@dataclass
class PlanMetrics:
    """Aggregated view over a finished run."""

    operator_metrics: dict[str, OperatorMetrics] = field(default_factory=dict)
    #: Per-edge rollups, keyed ``"producer->consumer[port]"`` (see
    #: :attr:`QueueMetrics.edge_key`).
    queue_metrics: dict[str, QueueMetrics] = field(default_factory=dict)
    #: Per-shard-group rollups, keyed by the group's region name.
    shard_metrics: dict[str, ShardGroupMetrics] = field(default_factory=dict)
    makespan: float = 0.0
    total_work: float = 0.0
    events_processed: int = 0
    #: Durability rollup (zero when checkpointing was off): complete
    #: epochs in the run's store, summed snapshot bytes and time.
    checkpoint_epochs: int = 0
    checkpoint_bytes: int = 0
    checkpoint_time: float = 0.0

    def peak_queue_occupancy(self) -> int:
        """The deepest any data queue got during the run."""
        return max(
            (q.peak_occupancy for q in self.queue_metrics.values()),
            default=0,
        )

    def edge(self, producer: str, consumer: str, port: int = 0) -> QueueMetrics:
        """Queue metrics for one edge, addressed structurally."""
        return self.queue_metrics[f"{producer}->{consumer}[{port}]"]

    def shard_report(self) -> str:
        """Text table of per-lane load and skew for every shard group."""
        if not self.shard_metrics:
            return "(no shard groups)"
        lines: list[str] = []
        for group in self.shard_metrics.values():
            lines.append(
                f"shard {group.name!r} x{group.n} by "
                f"({', '.join(group.key)}): skew={group.skew():.3f}, "
                f"regions held/released="
                f"{group.regions_held}/{group.regions_released}"
            )
            header = (
                f"  {'lane':>4} {'ingress':>9} {'in':>9} {'out':>9} "
                f"{'busy':>10} {'paused':>8}"
            )
            lines.append(header)
            for lane in group.lanes:
                lines.append(
                    f"  {lane.lane:>4} {lane.ingress:>9} "
                    f"{lane.tuples_in:>9} {lane.tuples_out:>9} "
                    f"{lane.busy_time:>10.3f} {lane.time_paused:>8.3f}"
                )
        return "\n".join(lines)

    def work_of(self, *operators: str) -> float:
        """Summed busy time of the named operators."""
        return sum(
            self.operator_metrics[name].busy_time for name in operators
        )

    def table(self) -> str:
        """Text table of per-operator counters (debugging aid)."""
        names = sorted(self.operator_metrics)
        header = (
            f"{'operator':<18} {'in':>8} {'out':>8} {'grd_in':>7} "
            f"{'grd_out':>8} {'purged':>7} {'fb_rx':>6} {'fb_tx':>6} "
            f"{'busy':>10}"
        )
        lines = [header, "-" * len(header)]
        for name in names:
            m = self.operator_metrics[name]
            lines.append(
                f"{name:<18} {m.tuples_in:>8} {m.tuples_out:>8} "
                f"{m.input_guard_drops:>7} {m.output_guard_drops:>8} "
                f"{m.state_purged:>7} {m.feedback_received:>6} "
                f"{m.feedback_produced:>6} {m.busy_time:>10.3f}"
            )
        lines.append(
            f"total work: {self.total_work:.3f}s   makespan: "
            f"{self.makespan:.3f}s   events: {self.events_processed}"
        )
        return "\n".join(lines)
