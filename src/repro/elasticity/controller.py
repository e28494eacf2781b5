"""The elastic controller: observe, decide, apply -- over punctuation.

One :class:`ElasticController` rides a run.  On a configurable cadence
(engine-driven: one timed entry on the engine's due-ordered heap -- the
event heap of the simulator and the asyncio engine, the threaded
runtime's clock thread -- decided by ``RuntimeCore._elastic_tick``) it
samples each armed shard region's slot loads
and lane-edge occupancy, asks the configured
:class:`~repro.elasticity.policy.ScalePolicy` for a decision, and
applies it by sending a ``REBALANCE``
:class:`~repro.stream.control.ControlMessage` carrying a
:class:`~repro.elasticity.rebalance.RebalanceCommand` down the
partition's input control channel.  The partition runs the two-phase
cut/install protocol from its own processing seat, so the controller
never mutates operator state directly -- it only reads counters (safe
on every engine) and enqueues control.

Regions whose lane members cannot migrate keyed state -- and engines
that cannot rebalance at all -- **decline** with a recorded reason
(mirroring the optimizer's fusibility declines) instead of failing the
run; see ``declines`` on the resulting ``PlanMetrics``.

The controller also owns **adaptive watermarks** when
``ElasticConfig.adapt_queues`` is set: each bounded queue's capacity is
re-sized to track its observed per-tick drain rate (see
:meth:`ElasticController._adapt_queues`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.elasticity.policy import (
    ElasticConfig,
    Observations,
    RebalanceAction,
    ScaleAction,
)
from repro.elasticity.rebalance import (
    RebalanceCommand,
    RebalanceRouter,
    scale_assignments,
)
from repro.errors import EngineError
from repro.stream.control import ControlMessageKind, Direction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ShardGroup
    from repro.operators.partition import Partition

__all__ = ["ElasticController"]


class ElasticController:
    """Samples shard skew and queue occupancy; applies scale decisions."""

    #: Name stamped as the sender of controller-issued control messages.
    SENDER = "elastic-controller"

    def __init__(self, runtime: Any, config: ElasticConfig) -> None:
        if not isinstance(config, ElasticConfig):
            raise EngineError(
                "elastic= expects an ElasticConfig, got "
                f"{type(config).__name__}"
            )
        self.runtime = runtime
        self.config = config
        self.policy = config.policy
        #: ``(what, why)`` pairs for everything elasticity skipped.
        self.declines: list[tuple[str, str]] = []
        #: Armed regions: group name -> partition operator.
        self.armed: dict[str, "Partition"] = {}
        self.ticks = 0
        self.decisions = 0
        self.queue_resizes = 0
        #: Per-group slot-load counter snapshot at the previous tick.
        self._load_seen: dict[str, list[int]] = {}
        #: Per-queue (enqueued, occupancy, built capacity) at last tick.
        self._queue_seen: dict[str, tuple[int, int, int]] = {}
        for group in runtime.plan.shard_groups:
            self._arm(group)
        if not runtime.plan.shard_groups:
            self.declines.append(
                ("plan", "no shard regions to rebalance")
            )

    # -- arming ----------------------------------------------------------------------

    def _arm(self, group: "ShardGroup") -> None:
        plan = self.runtime.plan
        partition = plan.operator(group.partition)
        if group.n < 2:
            self.declines.append(
                (group.name, "single-lane region: nothing to rebalance")
            )
            return
        blockers = []
        for lane in group.lanes:
            for name in lane:
                reason = plan.operator(name).rebalance_migratable(
                    partition.key
                )
                if reason is not None:
                    blockers.append(f"{name}: {reason}")
        if blockers:
            self.declines.append((group.name, "; ".join(blockers)))
            return
        partition.enable_rebalancing(
            RebalanceRouter.identity(
                partition.fanout, self.config.slots_per_lane
            )
        )
        self.armed[group.name] = partition

    # -- the loop --------------------------------------------------------------------

    def tick(self, now: float) -> None:
        """One observe-decide-apply cycle (engine cadence hook)."""
        self.ticks += 1
        for group in self.runtime.plan.shard_groups:
            partition = self.armed.get(group.name)
            if partition is None:
                continue
            obs = self._observe(group, partition)
            if partition.finished or partition.rebalance_pending:
                continue  # sampled, but no new decision mid-flight
            action = self.policy.decide(obs)
            command = self._translate(action, obs, partition)
            if command is None:
                continue
            self.decisions += 1
            self._send(partition, command, now)
        if self.config.adapt_queues:
            self._adapt_queues()

    def _observe(
        self, group: "ShardGroup", partition: "Partition"
    ) -> Observations:
        loads = partition.slot_loads
        seen = self._load_seen.get(group.name)
        if seen is None:
            delta = tuple(loads)
        else:
            delta = tuple(
                now - before for now, before in zip(loads, seen)
            )
        self._load_seen[group.name] = list(loads)
        max_lanes = self.config.max_lanes
        return Observations(
            group=group.name,
            fanout=partition.fanout,
            table=partition.router.table,
            slot_loads=delta,
            lane_occupancy=tuple(
                edge.queue.occupancy for edge in partition.outputs
            ),
            min_lanes=min(self.config.min_lanes, partition.fanout),
            max_lanes=(
                partition.fanout
                if max_lanes is None
                else min(max_lanes, partition.fanout)
            ),
        )

    def _translate(
        self,
        action: "RebalanceAction | ScaleAction | None",
        obs: Observations,
        partition: "Partition",
    ) -> RebalanceCommand | None:
        """Validate a policy decision into a concrete slot-move command."""
        if action is None:
            return None
        table = obs.table
        if isinstance(action, ScaleAction):
            lanes = max(obs.min_lanes, min(obs.max_lanes, action.lanes))
            if lanes == obs.active_lanes:
                return None
            moves = scale_assignments(table, lanes)
        elif isinstance(action, RebalanceAction):
            moves = {}
            for slot, dest in action.assignments:
                if not 0 <= slot < len(table):
                    raise EngineError(
                        f"{type(self.policy).__name__} assigned unknown "
                        f"slot {slot} (table has {len(table)})"
                    )
                if not 0 <= dest < partition.fanout:
                    raise EngineError(
                        f"{type(self.policy).__name__} assigned slot "
                        f"{slot} to unknown lane {dest} "
                        f"(fanout {partition.fanout})"
                    )
                if table[slot] != dest:
                    moves[slot] = dest
            if moves:
                resulting = set(table)
                for slot, dest in moves.items():
                    resulting.add(dest)
                if len(resulting) > obs.max_lanes:
                    self.declines.append(
                        (
                            obs.group,
                            f"decision would use {len(resulting)} lanes, "
                            f"max_lanes is {obs.max_lanes}",
                        )
                    )
                    return None
        else:
            raise EngineError(
                f"{type(self.policy).__name__}.decide returned "
                f"{type(action).__name__}; expected RebalanceAction, "
                "ScaleAction or None"
            )
        if not moves:
            return None
        return RebalanceCommand.moving(moves)

    def _send(
        self, partition: "Partition", command: RebalanceCommand, now: float
    ) -> None:
        partition.input_port(0).control.stamp(
            ControlMessageKind.REBALANCE, Direction.DOWNSTREAM, command,
            sender=self.SENDER, at=now, runtime=self.runtime,
            reader=partition,
        )

    # -- adaptive watermarks ---------------------------------------------------------

    def _adapt_queues(self) -> None:
        """Re-size bounded queues to track their observed drain rate.

        A queue's drain over the last tick is what its consumer actually
        absorbed; capacity beyond ``queue_headroom`` times that is dead
        buffer (it only adds latency before backpressure engages), and
        capacity below it starves the producer between ticks.  The low
        watermark follows capacity at the queue's built ratio.
        """
        cfg = self.config
        for op in self.runtime.plan:
            if op.finished:
                continue
            for edge in op.outputs:
                queue = edge.queue
                if not queue.bounded:
                    continue
                enqueued, occupancy = (
                    queue.elements_enqueued, queue.occupancy,
                )
                seen = self._queue_seen.get(queue.name)
                self._queue_seen[queue.name] = (
                    enqueued,
                    occupancy,
                    seen[2] if seen is not None else queue.capacity,
                )
                if seen is None:
                    continue
                drained = (enqueued - seen[0]) - (occupancy - seen[1])
                ceiling = (
                    seen[2] if cfg.max_capacity is None else cfg.max_capacity
                )
                target = max(
                    cfg.min_capacity,
                    min(ceiling, int(drained * cfg.queue_headroom)),
                )
                if target != queue.capacity:
                    queue.resize(target)
                    self.queue_resizes += 1
