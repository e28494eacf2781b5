"""PARTITION / SHARD MERGE: key-partitioned replica execution.

Data-parallel operator replication over a key-partitioned stream is the
standard scaling move in stream engines (Röger & Mayer's parallelization
survey calls it *data parallelism with key-based splitting*); AsterixDB's
data feeds apply the same shape to partitioned ingestion with
per-partition flow control.  This module supplies the two boundary
operators of a *shard region*:

* :class:`Partition` -- one input, N output lanes.  Each tuple routes to
  the lane chosen by a **stable** hash of its key attributes (stable
  across processes, so simulator runs stay exactly reproducible and lane
  assignment is testable).  Punctuation is broadcast to every lane: a
  completed subset of the input is complete on every partition of it.
* :class:`ShardMerge` -- N same-schema inputs, one output.  Tuples
  interleave order-tolerantly; a region punctuation passes downstream
  only once **every** replica has declared it (otherwise a late tuple
  from a sibling replica could violate the emitted punctuation).

Control semantics across the shard boundary:

* **feedback broadcast** -- feedback arriving at the merge relays to all
  replicas (every output attribute originates in every input, so the
  identity mapping is safe on each); feedback arriving at the partition
  from one replica is enacted immediately when its pattern pins the
  partition key to values routed to that replica (**key routing**), and
  otherwise only once every replica has declared a covering region
  (**agreement**, exactly DUPLICATE's reconciliation rule -- the other
  replicas' subsets are disjoint but their consumers are the same merged
  downstream, so a lone replica's feedback proves nothing about them);
* **per-lane flow control** -- a pause from one congested replica stalls
  only that lane: the partition stashes traffic routed to the paused
  lane (bounded by ``stash_limit``) and keeps feeding the siblings,
  becoming fully paused -- and therefore transitively pausing the source
  -- only when a stash fills up.  See
  :meth:`~repro.engine.runtime.RuntimeCore.is_paused`;
* **unknown control kinds** forward hop-by-hop through both operators
  via :meth:`~repro.operators.base.Operator.forward_control`, so a
  control message the shard boundary predates still crosses it.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.feedback import (
    FeedbackIntent,
    FeedbackPunctuation,
    RebalancePunctuation,
)
from repro.core.roles import ExploitAction
from repro.elasticity.rebalance import (
    RebalanceCommand,
    RebalanceRecord,
    RebalanceRouter,
    key_digest,
)
from repro.errors import PlanError
from repro.operators.base import Operator, OutputEdge
from repro.operators.duplicate import agreed_patterns
from repro.operators.union import Union
from repro.punctuation.atoms import Equals, InSet
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.control import (
    ControlMessage,
    ControlMessageKind,
    Direction,
)
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Partition", "ShardMerge"]

#: Give up key-routing when a pattern's key atoms expand to more combos.
_MAX_KEY_COMBOS = 64


class Partition(Operator):
    """Route each tuple to one of ``fanout`` lanes by key hash.

    Parameters
    ----------
    key:
        Attribute name (or sequence of names) hashed to choose the lane.
    fanout:
        Number of output lanes; must match the number of connected
        outputs at start-up.
    stash_limit:
        Per-lane bound on elements absorbed while that lane is paused;
        at the bound the partition reports :meth:`holding_pressure` and
        the pause becomes transitive toward the source.
    """

    feedback_aware = True
    lane_flow_control = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        key: str | Sequence[str],
        fanout: int,
        stash_limit: int = 256,
        **kwargs: Any,
    ) -> None:
        if fanout < 1:
            raise PlanError(f"{name}: fanout must be >= 1, got {fanout}")
        if stash_limit < 1:
            raise PlanError(
                f"{name}: stash_limit must be >= 1, got {stash_limit}"
            )
        key_tuple = (key,) if isinstance(key, str) else tuple(key)
        if not key_tuple:
            raise PlanError(f"{name}: partition key must name an attribute")
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        self.key = key_tuple
        self.fanout = int(fanout)
        self.stash_limit = int(stash_limit)
        self._key_indices = tuple(schema.index_of(k) for k in key_tuple)
        self._paused_lanes: set[int] = set()
        self._stash: dict[int, list] = {}
        # Assumed patterns declared per output edge (agreement protocol).
        self._declared: dict[int, list[Pattern]] = {}
        self._relay_pending: Pattern | None = None
        self.tuples_stashed = 0
        self.lane_pauses = 0
        self.key_routed_feedback = 0
        # -- elastic rebalancing (armed by the ElasticController) --------
        #: Slot routing table; None keeps plain ``digest % fanout``
        #: hashing (and the hot path branch-free), byte-identically.
        self._router: RebalanceRouter | None = None
        #: Tuples routed through each slot (the controller's skew signal).
        self._slot_loads: list[int] = []
        self._rebalance_epoch = 0
        #: The in-flight rebalance's ledger (cut issued, ack pending).
        self._pending_rebalance: RebalanceRecord | None = None
        self._next_router: RebalanceRouter | None = None
        #: Moved-slot tuples held between cut and install, arrival order.
        self._rebalance_stash: list = []
        #: Punctuation held during the migration window: broadcasting it
        #: mid-migration could close windows at a destination lane before
        #: the migrated partial state arrives.
        self._held_puncts: list = []
        self.rebalances_applied = 0
        self.rebalances_completed = 0
        self.rebalances_aborted = 0
        self.keys_migrated = 0
        self.tuples_held = 0

    state_fields = (
        "_paused_lanes", "_stash", "_relay_pending", "tuples_stashed",
        "lane_pauses", "key_routed_feedback",
    )

    def snapshot_state(self) -> dict[str, Any]:
        # ``_declared`` is keyed by ``id(edge)`` -- remap to lane indices,
        # which survive pickling and a rebuilt plan.
        state = super().snapshot_state()
        state["declared"] = {
            lane: patterns
            for lane, edge in enumerate(self.outputs)
            if (patterns := self._declared.get(id(edge)))
        }
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        super().restore_state(state)
        self._declared = {
            id(self.outputs[lane]): patterns
            for lane, patterns in state["declared"].items()
        }

    # ------------------------------------------------------------------ lanes

    def lane_of_key(self, *key_values: Any) -> int:
        """Stable lane for concrete key values (crc32, not ``hash``).

        ``hash`` is salted per process (``PYTHONHASHSEED``); crc32 over
        the canonicalised values' reprs keeps routing identical across
        runs and hosts, which the deterministic simulator's
        reproducibility promise -- and every test pinning a tuple to a
        lane -- relies on.  Numerically equal keys route identically
        (``1``/``1.0``/``True``); key values must have value-based reprs
        (str, numbers, tuples of those) -- an address-based default repr
        would route nondeterministically across processes.

        With elastic rebalancing armed the digest routes through the
        slot table instead; the identity table makes that exactly
        ``digest % fanout``, so arming alone changes nothing.
        """
        digest = key_digest(key_values)
        router = self._router
        if router is None:
            return digest % self.fanout
        return router.table[digest % router.num_slots]

    def lane_of(self, tup: StreamTuple) -> int:
        """The lane ``tup`` routes to."""
        values = tup.values
        return self.lane_of_key(*(values[i] for i in self._key_indices))

    def _slot_lane_of(self, tup: StreamTuple) -> tuple[int | None, int]:
        """Route one tuple: ``(slot, lane)``; slot is None when unarmed."""
        values = tup.values
        digest = key_digest(values[i] for i in self._key_indices)
        router = self._router
        if router is None:
            return None, digest % self.fanout
        slot = digest % router.num_slots
        return slot, router.table[slot]

    # -- elastic surface read by the controller / metrics rollup ---------

    def enable_rebalancing(self, router: RebalanceRouter) -> None:
        """Arm runtime re-partitioning with ``router`` (controller call)."""
        if router.num_slots % self.fanout != 0:
            raise PlanError(
                f"{self.name}: slot count {router.num_slots} must be a "
                f"multiple of the fanout {self.fanout}"
            )
        if not router.lanes_in_use <= set(range(self.fanout)):
            raise PlanError(
                f"{self.name}: routing table names lanes outside "
                f"0..{self.fanout - 1}"
            )
        self._router = router
        self._slot_loads = [0] * router.num_slots

    @property
    def router(self) -> RebalanceRouter | None:
        return self._router

    @property
    def slot_loads(self) -> list[int]:
        return self._slot_loads

    @property
    def lanes_in_use(self) -> frozenset[int]:
        """Lanes the live table can route to (all lanes when unarmed)."""
        if self._router is None:
            return frozenset(range(self.fanout))
        return self._router.lanes_in_use

    @property
    def rebalance_pending(self) -> bool:
        return self._pending_rebalance is not None

    def on_start(self) -> None:
        if len(self.outputs) != self.fanout:
            raise PlanError(
                f"{self.name}: fanout is {self.fanout} but "
                f"{len(self.outputs)} output(s) are connected"
            )

    # ------------------------------------------------------------------ data

    def on_page(self, port_index: int, batch: list) -> None:
        """Bucket the run by lane, one bulk emit (or stash) per lane."""
        buckets: dict[int, list] = {}
        held: list = []
        if self._router is None:
            for tup in batch:
                buckets.setdefault(self.lane_of(tup), []).append(tup)
        else:
            loads = self._slot_loads
            record = self._pending_rebalance
            moved = record.moved if record is not None else ()
            for tup in batch:
                slot, lane = self._slot_lane_of(tup)
                loads[slot] += 1
                if slot in moved:
                    # A moved key's old lane already cut its state; its
                    # new lane has not installed it yet.  Hold the tuple
                    # here -- routing it either way would split the
                    # key's history.
                    held.append(tup)
                else:
                    buckets.setdefault(lane, []).append(tup)
        # What waits here has passed the output rules already: the
        # survivors are this operator's output, shipped now or later.
        if held:
            held = self._emit(held, hold=True)
            self._rebalance_stash.extend(held)
            self.tuples_held += len(held)
        for lane, routed in buckets.items():
            if lane not in self._paused_lanes:
                self.emit_many_to(lane, routed)
                continue
            routed = self._emit(routed, hold=True)
            if routed:
                self._stash.setdefault(lane, []).extend(routed)
                self.tuples_stashed += len(routed)

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Broadcast punctuation to every lane, respecting paused stashes.

        A completed input subset is complete on every partition of it, so
        each lane gets the punctuation.  A paused lane's copy joins that
        lane's stash *behind* the stashed tuples -- emitting it directly
        would let the punctuation overtake earlier tuples it covers,
        which is exactly the disorder punctuation forbids.
        """
        self._emit([punct], hold=True)
        if self._pending_rebalance is not None:
            # Held until install: broadcasting now could close a window
            # at a destination lane before the migrated partial state
            # for keys the punctuation covers has arrived there.
            self._held_puncts.append(punct)
            return
        self._broadcast_element(punct)

    def _put_lane(self, lane: int, element: Any) -> None:
        """Send ``element``, through the output rules already, on one
        lane -- or into that lane's stash while it is paused."""
        if lane in self._paused_lanes:
            self._stash.setdefault(lane, []).append(element)
        else:
            self._emit([element], lane, raw=True)

    def _broadcast_element(self, element: Any) -> None:
        """Queue ``element`` on every lane, respecting paused stashes."""
        for lane in range(len(self.outputs)):
            self._put_lane(lane, element)

    def on_finish(self) -> None:
        # The stream is over.  A cut whose ack can no longer arrive must
        # roll back first, then ship every stash (the queues close right
        # after this hook, and the consumers will drain them) so no
        # element is stranded behind a pause that can no longer lift.
        record = self._pending_rebalance
        if record is not None:
            self._abort_rebalance(record)
        for lane in list(self._stash):
            self._flush_stash(lane)

    # -------------------------------------------------- per-lane flow control

    def holding_pressure(self) -> bool:
        if len(self._rebalance_stash) >= self.stash_limit:
            return True
        return any(
            len(stash) >= self.stash_limit
            for stash in self._stash.values()
        )

    def _lane_of_edge(
        self, punct: Any, from_edge: OutputEdge | None
    ) -> int | None:
        if from_edge is not None and from_edge in self.outputs:
            return self.outputs.index(from_edge)
        edge_name = getattr(punct, "edge", None)
        for index, edge in enumerate(self.outputs):
            if edge.queue.name == edge_name:
                return index
        return None

    def on_pause(self, punct: Any, from_edge: OutputEdge | None) -> None:
        lane = self._lane_of_edge(punct, from_edge)
        if lane is not None:
            self._paused_lanes.add(lane)
            self.lane_pauses += 1

    def on_resume(self, punct: Any, from_edge: OutputEdge | None) -> None:
        lane = self._lane_of_edge(punct, from_edge)
        if lane is None:
            return
        self._paused_lanes.discard(lane)
        self._flush_stash(lane)

    def _flush_stash(self, lane: int) -> None:
        for element in self._stash.pop(lane, ()):
            self._emit([element], lane, raw=True)

    # ------------------------------------------------- elastic rebalancing

    def rebalance_migratable(self, key_names: tuple[str, ...]) -> str | None:
        # A nested shard region's keys are split across *its* lanes; the
        # outer migration cannot collect them through this partition.
        return "nested shard regions cannot migrate through their partition"

    def on_rebalance_control(self, message: ControlMessage) -> bool:
        """Partition's half of the rebalance control protocol.

        Downstream carries the controller's :class:`RebalanceCommand`
        (phase one starts here); upstream carries the merge's completed
        cut acknowledgement -- the shared :class:`RebalanceRecord` --
        relayed hop-by-hop back through the lanes (phase two lands
        here).
        """
        payload = message.payload
        if message.direction is Direction.DOWNSTREAM and isinstance(
            payload, RebalanceCommand
        ):
            self._begin_rebalance(payload)
            return True
        if message.direction is Direction.UPSTREAM and isinstance(
            payload, RebalanceRecord
        ):
            self._complete_rebalance(payload)
            return True
        return False

    def _shard_group(self) -> Any | None:
        plan = self.runtime.plan
        if plan is None:
            return None
        for group in plan.shard_groups:
            if group.partition == self.name:
                return group
        return None

    def _begin_rebalance(self, command: RebalanceCommand) -> None:
        """Phase one: cut.  Freeze moved keys; ask the lanes to pack up.

        The CUT marker broadcasts to *every* lane (a moved slot's source
        lane must extract, and marker arrival doubles as the region-wide
        barrier the merge counts).  From this point until the install,
        tuples routed to a moved slot are held in ``_rebalance_stash``
        and all punctuation is held, so no lane sees traffic for a key
        whose state is in flight.
        """
        router = self._router
        if router is None or self.finished or self._pending_rebalance:
            return
        group = self._shard_group()
        if group is None:
            return
        moves = {
            slot: dest
            for slot, dest in command.assignments
            if 0 <= slot < router.num_slots
            and 0 <= dest < self.fanout
            and router.table[slot] != dest
        }
        if not moves:
            return
        positions: dict[str, tuple[int, int]] = {}
        for lane_index, lane_members in enumerate(group.lanes):
            for member_position, member in enumerate(lane_members):
                positions[member] = (lane_index, member_position)
        self._rebalance_epoch += 1
        record = RebalanceRecord(
            self._rebalance_epoch,
            key_names=self.key,
            moved=moves,
            num_slots=router.num_slots,
            positions=positions,
        )
        self._pending_rebalance = record
        self._next_router = router.with_assignments(moves)
        self.rebalances_applied += 1
        self._broadcast_element(
            RebalancePunctuation(
                record.epoch, "cut",
                issuer=self.name, record=record, issued_at=self.now(),
            )
        )

    def _complete_rebalance(self, record: RebalanceRecord) -> None:
        """Phase two: install.  Swap tables and release what was held.

        Runs when the merge's acknowledgement (every lane saw the cut,
        so every deposit is in the ledger) arrives back at this seat.
        INSTALL markers go out first, then the held tuples re-routed
        through the *new* table -- each lands behind the marker that
        makes its lane claim the key's state -- and finally the held
        punctuation, broadcast behind everything it could cover.
        """
        if record is not self._pending_rebalance or record.aborted:
            return
        self._broadcast_element(
            RebalancePunctuation(
                record.epoch, "install",
                issuer=self.name, record=record, issued_at=self.now(),
            )
        )
        self._router = self._next_router
        self._next_router = None
        self._pending_rebalance = None
        self._release_held()
        self.rebalances_completed += 1
        self.keys_migrated += record.keys_moved

    def _abort_rebalance(self, record: RebalanceRecord) -> None:
        """Roll back a cut whose acknowledgement can no longer arrive.

        ``abort`` flips the shared record under its lock, so a deposit
        still racing in from a lane member fails and re-installs at its
        source; RESTORE markers then make every seat reclaim its own
        deposits.  The held tuples re-route through the *old* table --
        behind the restore markers, so state is back before they land.
        """
        record.abort()
        self.rebalances_aborted += 1
        self._broadcast_element(
            RebalancePunctuation(
                record.epoch, "restore",
                issuer=self.name, record=record, issued_at=self.now(),
            )
        )
        self._pending_rebalance = None
        self._next_router = None
        self._release_held()

    def _release_held(self) -> None:
        """Send what the migration window held, behind the install or
        restore markers: the tuples re-routed through the live table,
        then the punctuation, broadcast behind everything it covers."""
        stash, self._rebalance_stash = self._rebalance_stash, []
        for tup in stash:
            self._put_lane(self.lane_of(tup), tup)
        held, self._held_puncts = self._held_puncts, []
        for punct in held:
            self._broadcast_element(punct)

    # -------------------------------------------------------------- feedback

    def _lanes_for_pattern(self, pattern: Pattern) -> set[int] | None:
        """Lanes a pattern's tuples can route to, or None when unbounded.

        Bounded only when every key attribute is pinned to finitely many
        values (the payload carries the partition key); a wildcard or
        range atom on any key attribute routes everywhere.
        """
        combos: list[tuple] = [()]
        for index in self._key_indices:
            atom = pattern.atoms[index]
            if isinstance(atom, InSet):
                members: tuple = tuple(atom.values)
            elif isinstance(atom, Equals):
                members = (atom.value,)
            elif not atom.is_wildcard and atom.is_point:
                members = (atom.point_value(),)
            else:
                return None
            combos = [c + (v,) for c in combos for v in members]
            if len(combos) > _MAX_KEY_COMBOS:
                return None
        return {self.lane_of_key(*combo) for combo in combos}

    def on_assumed(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        edge = self.feedback_source_edge
        lane = (
            self.outputs.index(edge)
            if edge is not None and edge in self.outputs else None
        )
        routed = self._lanes_for_pattern(feedback.pattern)
        if routed is not None and lane is not None and routed <= {lane}:
            # Key-routed: the pattern's tuples only ever reach the issuing
            # replica, so its feedback alone licenses full exploitation.
            self.key_routed_feedback += 1
            self.input_port(0).guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            self.output_guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            self._relay_pending = feedback.pattern
            return [ExploitAction.GUARD_INPUT, ExploitAction.GUARD_OUTPUT]
        # DUPLICATE's reconciliation across all lanes.  (The merged
        # downstream consumer is shared, so a broadcast feedback reaches
        # every lane and agreement converges.)
        agreed = agreed_patterns(
            self._declared, self.outputs, feedback.pattern, edge
        )
        if not agreed:
            return []  # null response until all replicas agree
        actions: list[ExploitAction] = []
        for pattern in agreed:
            if self.output_guards.install(
                pattern, origin=feedback, at=self.now()
            ):
                actions.append(ExploitAction.GUARD_OUTPUT)
            self.input_port(0).guards.install(
                pattern, origin=feedback, at=self.now()
            )
            actions.append(ExploitAction.GUARD_INPUT)
        # relay_feedback carries one pattern; additional agreed regions
        # propagate directly (the aggregate's state-dependent propagation
        # precedent), so the source stops producing *all* of them.
        if self.relay_enabled:
            for pattern in agreed[1:]:
                self.metrics.feedback_relayed += 1
                self._send_upstream(
                    ControlMessageKind.FEEDBACK,
                    feedback.propagated(
                        pattern.with_schema(self.output_schema)
                        if self.output_schema is not None else pattern,
                        relayer=self.name,
                        at=self.now(),
                    ),
                    (0,),
                )
        self._relay_pending = agreed[0]
        return actions

    def relay_feedback(
        self, feedback: FeedbackPunctuation
    ) -> dict[int, FeedbackPunctuation]:
        """Relay assumed feedback only once key-routed or agreed.

        Desired/demanded feedback is a pure production hint (it never
        changes the final result), so it relays upstream directly via the
        identity mapping.
        """
        if feedback.intent is not FeedbackIntent.ASSUMED:
            return super().relay_feedback(feedback)
        pending, self._relay_pending = self._relay_pending, None
        if pending is None:
            return {}
        return {
            0: feedback.propagated(
                pending.with_schema(self.output_schema)
                if self.output_schema is not None else pending,
                relayer=self.name,
                at=self.now(),
            )
        }


class ShardMerge(Union):
    """Order-tolerant fan-in closing a shard region.

    Inherits UNION's data path (interleave; batch forwarding) and its
    feedback broadcast (the identity mapping relays feedback to *every*
    replica).  The punctuation rule is UNION's alignment specialised to
    replicas: a region punctuation is **held** until every lane has
    declared a covering region and then emitted exactly once downstream
    -- the lane whose declaration completes the region carries it out.
    ``regions_held`` / ``regions_released`` count both halves for the
    shard metrics rollup.
    """

    def __init__(
        self, name: str, schema: Schema, *, arity: int, **kwargs: Any
    ) -> None:
        if arity < 1:
            raise PlanError(f"{name}: merge arity must be >= 1, got {arity}")
        super().__init__(name, schema, arity=arity, **kwargs)
        self.regions_held = 0
        self.regions_released = 0
        # Rebalance barrier bookkeeping: marker arrivals per epoch.
        self._rebalance_cuts: dict[int, int] = {}
        self._rebalance_installs: dict[int, int] = {}
        self.rebalances_completed = 0

    # Union's per-lane frontiers decide whether a held region releases,
    # so they must survive recovery along with the counters.
    state_fields = Union.state_fields + ("regions_held", "regions_released")

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        self._advance_frontier(port_index, punct.pattern)
        if self._covered_everywhere(punct.pattern, exclude=port_index):
            self.regions_released += 1
            self.emit_punctuation(punct)
        else:
            self.regions_held += 1

    def _on_rebalance_marker(
        self, port_index: int, marker: RebalancePunctuation
    ) -> None:
        """The merge is the region's barrier: count, acknowledge, absorb.

        A CUT marker on every lane proves each member between partition
        and merge has processed its cut -- all migrating state sits in
        the record's deposit ledger -- so the arity'th arrival sends the
        record back upstream as a ``REBALANCE`` acknowledgement (relayed
        hop-by-hop to the partition, which then installs).  INSTALL
        arrivals re-arm this epoch's bookkeeping; RESTORE (an aborted
        cut) just clears it.  No marker crosses the merge: rebalancing
        is interior to the shard region, invisible downstream.
        """
        record = marker.record
        if marker.phase == "cut":
            seen = self._rebalance_cuts.get(marker.epoch, 0) + 1
            self._rebalance_cuts[marker.epoch] = seen
            if seen < self.n_inputs:
                return
            del self._rebalance_cuts[marker.epoch]
            if record is None or record.aborted:
                return
            self._send_upstream(ControlMessageKind.REBALANCE, record, (0,))
            return
        if marker.phase == "install":
            seen = self._rebalance_installs.get(marker.epoch, 0) + 1
            self._rebalance_installs[marker.epoch] = seen
            if seen == self.n_inputs:
                del self._rebalance_installs[marker.epoch]
                self.rebalances_completed += 1
            return
        # restore: the epoch never completed; drop its cut counts.
        self._rebalance_cuts.pop(marker.epoch, None)
