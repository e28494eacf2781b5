"""Routing tables, migration ledger and commands for elastic rebalancing.

The elasticity control plane routes keys through **slots** (Flink calls
them key groups): a key hashes to one of ``num_slots`` slots, and a
routing table maps each slot to a lane.  Rebalancing reassigns *slots*,
never individual keys, so a decision is a small table diff and the set
of keys that migrates is exactly the set whose slot moved -- the minimal
migration property the tests assert.

``num_slots`` is always a multiple of the fanout, so the identity table
(``slot % fanout``) routes every key to the same lane as the plain
``digest % fanout`` hash the :class:`~repro.operators.partition.Partition`
uses when elasticity is off -- turning the feature on with no rebalance
decisions is byte-identical to leaving it off.

One rebalance is a two-phase protocol coordinated through a
:class:`RebalanceRecord`, the shared deposit ledger that
:class:`~repro.core.feedback.RebalancePunctuation` markers carry by
reference:

1. **cut** -- the partition stops routing moved-slot tuples (they wait
   in its rebalance stash) and broadcasts a ``cut`` marker down every
   lane.  Each lane member the marker passes extracts the state of its
   moved keys and deposits it here; the merge counts arrivals and, once
   every lane's marker is in, acknowledges upstream.
2. **install** -- the partition broadcasts an ``install`` marker (each
   destination claims and merges its deposits), switches to the new
   table, and releases the stashed tuples *behind* the marker.

If the run ends while a cut is in flight the partition aborts: a
``restore`` marker makes every lane re-install its *own* deposits and
the old table stays live (see ``Partition.on_finish``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence
from zlib import crc32

from repro.errors import PlanError

__all__ = [
    "DEFAULT_SLOTS_PER_LANE",
    "RebalanceCommand",
    "RebalanceRecord",
    "RebalanceRouter",
    "canonical_key_value",
    "key_digest",
    "scale_assignments",
]

#: Slots per lane in the identity table -- the granularity of rebalancing.
DEFAULT_SLOTS_PER_LANE = 16


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


class RebalanceRouter:
    """An immutable slot-to-lane routing table."""

    __slots__ = ("table", "num_slots", "lanes_in_use")

    def __init__(self, table: Sequence[int]) -> None:
        if not table:
            raise PlanError("routing table must have at least one slot")
        self.table = tuple(int(lane) for lane in table)
        self.num_slots = len(self.table)
        self.lanes_in_use = frozenset(self.table)

    @classmethod
    def identity(
        cls, fanout: int, slots_per_lane: int = DEFAULT_SLOTS_PER_LANE
    ) -> "RebalanceRouter":
        """The table equivalent to plain ``digest % fanout`` hashing.

        ``fanout`` divides ``num_slots``, so ``table[d % num_slots]``
        equals ``d % fanout`` for every digest ``d`` -- arming a
        partition with this table changes no routing decision.
        """
        if slots_per_lane < 1:
            raise PlanError(
                f"slots_per_lane must be >= 1, got {slots_per_lane}"
            )
        return cls([s % fanout for s in range(fanout * slots_per_lane)])

    def lane_of_key(self, *key_values: Any) -> int:
        return self.table[key_digest(key_values) % self.num_slots]

    def with_assignments(
        self, assignments: Mapping[int, int]
    ) -> "RebalanceRouter":
        """A new router with the given slots reassigned."""
        table = list(self.table)
        for slot, lane in assignments.items():
            table[slot] = lane
        return RebalanceRouter(table)

    def __repr__(self) -> str:
        return (
            f"RebalanceRouter({self.num_slots} slots over "
            f"{len(self.lanes_in_use)} lane(s))"
        )


def scale_assignments(
    table: Sequence[int], lanes: int
) -> dict[int, int]:
    """Minimal slot moves taking ``table`` onto exactly ``lanes`` lanes.

    Lanes ``0..lanes-1`` stay/become active; slots on higher lanes are
    evacuated, and slot counts are levelled so every active lane holds
    between ``floor`` and ``ceil`` of ``num_slots / lanes`` slots.  Only
    slots that *must* move do (evacuation plus levelling), and the
    result is deterministic: donors are scanned from the fullest lane,
    receivers from the emptiest, slot indices ascending.
    """
    num_slots = len(table)
    if not 1 <= lanes <= num_slots:
        raise PlanError(
            f"cannot scale a {num_slots}-slot table to {lanes} lane(s)"
        )
    counts = [0] * lanes
    for lane in table:
        if lane < lanes:
            counts[lane] += 1
    moves: dict[int, int] = {}

    def _receiver() -> int:
        return min(range(lanes), key=lambda lane: (counts[lane], lane))

    # Evacuate deactivated lanes onto the emptiest active lanes.
    for slot, lane in enumerate(table):
        if lane >= lanes:
            dest = _receiver()
            moves[slot] = dest
            counts[dest] += 1
    # Level: no active lane may hold more than ceil(num_slots / lanes).
    ceil = -(-num_slots // lanes)
    for lane in sorted(range(lanes), key=lambda ln: (-counts[ln], ln)):
        if counts[lane] <= ceil:
            break
        for slot, owner in enumerate(table):
            if counts[lane] <= ceil:
                break
            if owner == lane and slot not in moves:
                dest = _receiver()
                if counts[dest] >= counts[lane] - 1:
                    break  # no receiver improves the balance
                moves[slot] = dest
                counts[dest] += 1
                counts[lane] -= 1
    return moves


@dataclass(frozen=True)
class RebalanceCommand:
    """A controller decision: reassign these slots to these lanes.

    ``assignments`` is ``(slot, destination_lane)`` pairs.  The command
    travels to the partition as the payload of a ``REBALANCE``
    :class:`~repro.stream.control.ControlMessage` on its input control
    channel, so it is applied on the partition's own processing seat
    (thread-safe on every engine without extra locking).
    """

    assignments: tuple[tuple[int, int], ...]
    epoch_hint: int = 0  # diagnostics only; the partition numbers epochs

    @classmethod
    def moving(cls, assignments: Mapping[int, int]) -> "RebalanceCommand":
        return cls(tuple(sorted(assignments.items())))


class RebalanceRecord:
    """The shared deposit ledger of one in-flight rebalance.

    Lane members deposit extracted keyed state at the ``cut``, and claim
    it back at the ``install`` (or ``restore``).  The ledger is shared
    by reference through the marker and lock-guarded, because on the
    threaded engine each lane's members run on their own threads.

    ``positions`` maps every lane member's operator name to its
    ``(lane_index, member_position)`` seat; replicas of one stage share
    a ``member_position``, which is what keys the deposit buckets --
    state extracted from stage *p* of one lane installs into stage *p*
    of another.
    """

    def __init__(
        self,
        epoch: int,
        *,
        key_names: Sequence[str],
        moved: Mapping[int, int],
        num_slots: int,
        positions: Mapping[str, tuple[int, int]],
    ) -> None:
        self.epoch = int(epoch)
        self.key_names = tuple(key_names)
        self.moved = dict(moved)  # slot -> destination lane
        self.num_slots = int(num_slots)
        self.positions = dict(positions)
        self.keys_moved = 0
        self.aborted = False
        self._lock = threading.Lock()
        # (member_position, destination_lane) -> [(source_lane, blob)].
        self._deposits: dict[tuple[int, int], list[tuple[int, Any]]] = {}

    def dest_of(self, key_values: Sequence[Any]) -> int | None:
        """Destination lane for moved key values, None when unmoved."""
        return self.moved.get(key_digest(key_values) % self.num_slots)

    def deposit(
        self, position: int, source_lane: int, dest_lane: int, blob: Any
    ) -> bool:
        """Bank extracted state; False when the rebalance already aborted
        (the caller keeps -- re-installs -- the state itself)."""
        with self._lock:
            if self.aborted:
                return False
            self._deposits.setdefault((position, dest_lane), []).append(
                (source_lane, blob)
            )
            try:
                self.keys_moved += len(blob)
            except TypeError:
                self.keys_moved += 1
            return True

    def claim(self, position: int, dest_lane: int) -> list[Any]:
        """Pop every blob destined for this (stage, lane) seat."""
        with self._lock:
            return [
                blob
                for _, blob in self._deposits.pop((position, dest_lane), [])
            ]

    def reclaim(self, position: int, source_lane: int) -> list[Any]:
        """Abort path: pop every blob this seat itself deposited."""
        with self._lock:
            reclaimed: list[Any] = []
            for bucket_key in list(self._deposits):
                if bucket_key[0] != position:
                    continue
                kept = []
                for source, blob in self._deposits[bucket_key]:
                    if source == source_lane:
                        reclaimed.append(blob)
                    else:
                        kept.append((source, blob))
                if kept:
                    self._deposits[bucket_key] = kept
                else:
                    del self._deposits[bucket_key]
            return reclaimed

    def abort(self) -> None:
        with self._lock:
            self.aborted = True

    def __repr__(self) -> str:
        state = "aborted" if self.aborted else "live"
        return (
            f"RebalanceRecord(epoch={self.epoch}, "
            f"{len(self.moved)} slot(s), {state})"
        )


#: Signature of the routing callback handed to ``extract_keyed_state``.
RouteFn = Callable[[Sequence[Any]], "int | None"]
