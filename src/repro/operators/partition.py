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

from typing import Any, Iterable, Sequence
from zlib import crc32

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.errors import PlanError
from repro.operators.base import Operator, OutputEdge
from repro.operators.duplicate import enact_agreed
from repro.operators.union import Union
from repro.punctuation.atoms import Equals, InSet
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Partition", "ShardMerge", "canonical_key_value", "key_digest"]

#: Give up key-routing when a pattern's key atoms expand to more combos.
_MAX_KEY_COMBOS = 64


def canonical_key_value(value: Any) -> Any:
    """Collapse numeric types that compare equal onto one routing form.

    Python's value equality makes ``1 == 1.0 == True`` -- an unsharded
    group-by treats them as one group -- so routing must too, or a mixed
    int/float key column would split one logical group across replicas
    and the merged output would carry two partial aggregates for it.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def key_digest(key_values: Iterable[Any]) -> int:
    """Stable digest of concrete key values (crc32, not ``hash``).

    ``hash`` is salted per process (``PYTHONHASHSEED``); crc32 over the
    canonicalised values' reprs keeps routing identical across runs and
    hosts, which the deterministic simulator's reproducibility promise
    -- and every test pinning a tuple to a lane -- relies on.
    """
    digest = 0
    for value in key_values:
        digest = crc32(
            repr(canonical_key_value(value)).encode("utf-8"), digest
        )
    return digest


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
        self.tuples_stashed = 0
        self.lane_pauses = 0
        self.key_routed_feedback = 0

    state_fields = (
        "_paused_lanes", "_stash", "tuples_stashed", "lane_pauses",
        "key_routed_feedback",
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
        """Stable lane for concrete key values: :func:`key_digest` of
        them modulo the fanout, the one routing rule.

        Numerically equal keys route identically (``1``/``1.0``/
        ``True``); key values must have value-based reprs (str, numbers,
        tuples of those) -- an address-based default repr would route
        nondeterministically across processes.
        """
        return key_digest(key_values) % self.fanout

    def lane_of(self, tup: StreamTuple) -> int:
        """The lane ``tup`` routes to."""
        values = tup.values
        return self.lane_of_key(*(values[i] for i in self._key_indices))

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
        for tup in batch:
            buckets.setdefault(self.lane_of(tup), []).append(tup)
        for lane, routed in buckets.items():
            if lane not in self._paused_lanes:
                self.emit_many_to(lane, routed)
                continue
            # What waits here has passed the output rules already: the
            # survivors are this operator's output, shipped later.
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
        for lane in range(len(self.outputs)):
            if lane in self._paused_lanes:
                self._stash.setdefault(lane, []).append(punct)
            else:
                self._emit([punct], lane, raw=True)

    def on_finish(self) -> None:
        # The stream is over: ship every stash (the queues close right
        # after this hook, and the consumers will drain them) so no
        # element is stranded behind a pause that can no longer lift.
        for lane in list(self._stash):
            self._flush_stash(lane)

    # -------------------------------------------------- per-lane flow control

    def holding_pressure(self) -> bool:
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

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        """Enact and relay key-routed feedback at once; anything else
        once every replica agrees (DUPLICATE's rule, :func:`enact_agreed`:
        the merged downstream consumer is shared, so a broadcast feedback
        reaches every lane and agreement converges).

        Desired and demanded feedback the default hooks relay through the
        identity mapping: every lane feeds the one merged consumer, so a
        partial a demand unblocks upstream reaches only its issuer.
        """
        edge = self.feedback_source_edge
        routed = self._lanes_for_pattern(feedback.pattern)
        if (
            routed is not None and edge in self.outputs
            and routed <= {self.outputs.index(edge)}
        ):
            # Key-routed: the pattern's tuples only ever reach the issuing
            # replica, so its feedback alone licenses full exploitation.
            self.key_routed_feedback += 1
            self.input_port(0).guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            self.output_guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            return (
                [ExploitAction.GUARD_INPUT, ExploitAction.GUARD_OUTPUT],
                [(0, feedback.pattern.with_schema(self.output_schema))],
            )
        return enact_agreed(self, self._declared, feedback)


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
