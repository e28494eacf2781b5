"""Symmetric hash join with punctuation-driven state purging.

The join implements the paper's (L, J, R) model (section 4.3, Table 2):
output schema = left-exclusive attributes, join attributes, right-exclusive
attributes.  Both inputs are hashed on the join key; each arriving tuple
probes the opposite table.

**Punctuation.** A punctuation on one input that constrains only join
attributes bounds the partners the *other* side can still meet: stored
tuples of the opposite table whose keys are covered can be purged (they
were waiting for arrivals that will never come).  An output punctuation for
a key region is emitted once both inputs have punctuated it.

**Outer joins.** ``how="left_outer"`` preserves every left tuple: when the
right side punctuates a key region, stored unmatched left tuples in that
region emit null-padded results.  Outer semantics restrict feedback
exploitation and propagation (see :meth:`SymmetricHashJoin.on_assumed`):
purging the non-preserved side is only correct for join-attribute-only
patterns, and propagation toward the null-padded side can invent padded
tuples -- exactly the kind of subtlety Definition 2 exists to prevent.

**Feedback (Table 2).** Exploitation is planner-driven: the safe per-input
patterns double as input-guard patterns and hash-table purge predicates;
when no safe mapping exists (the ``¬[l,*,r]`` row) the join guards its
output only.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.errors import PlanError
from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["SymmetricHashJoin"]

JoinKey = tuple[Hashable, ...]


class _StoredTuple:
    """A tuple parked in a hash table, with outer-join bookkeeping."""

    __slots__ = ("tup", "matched")

    def __init__(self, tup: StreamTuple) -> None:
        self.tup = tup
        self.matched = False


class SymmetricHashJoin(Operator):
    """Equi-join of two streams with optional residual condition.

    Parameters
    ----------
    on:
        Pairs ``(left_attribute, right_attribute)`` defining the equi-join
        key.  The output carries the join attributes once, under their
        left-side names.
    condition:
        Optional residual predicate over ``(left_tuple, right_tuple)``;
        pairs failing it do not join (for a left-outer join the left tuple
        may still be null-padded when its key region completes).
    how:
        ``"inner"`` or ``"left_outer"``.
    """

    n_inputs = 2
    feedback_aware = True
    LEFT = 0
    RIGHT = 1

    def __init__(
        self,
        name: str,
        left_schema: Schema,
        right_schema: Schema,
        on: Sequence[tuple[str, str]],
        *,
        condition: Callable[[StreamTuple, StreamTuple], bool] | None = None,
        how: str = "inner",
        **kwargs: Any,
    ) -> None:
        if how not in ("inner", "left_outer"):
            raise PlanError(f"unsupported join type {how!r}")
        if not on:
            raise PlanError("join requires at least one attribute pair")
        mapping = SchemaMapping.for_join(left_schema, right_schema, on)
        super().__init__(
            name, mapping.output_schema, mapping=mapping, **kwargs
        )
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.on = list(on)
        self.how = how
        self._condition = condition
        self._key_indices = (
            tuple(left_schema.index_of(l) for l, _ in on),
            tuple(right_schema.index_of(r) for _, r in on),
        )
        out = mapping.output_schema
        self._join_out_positions = tuple(out.index_of(l) for l, _ in on)
        left_join = {l for l, _ in on}
        right_join = {r for _, r in on}
        self._left_only = tuple(
            a.name for a in left_schema if a.name not in left_join
        )
        self._right_only = tuple(
            a.name for a in right_schema if a.name not in right_join
        )
        # Output value layout: left-exclusive, join, right-exclusive.
        self._left_out_indices = tuple(
            left_schema.index_of(n) for n in self._left_only
        )
        self._right_out_indices = tuple(
            right_schema.index_of(n) for n in self._right_only
        )
        self._tables: tuple[dict[JoinKey, list[_StoredTuple]], ...] = ({}, {})
        # Punctuation frontiers per input, as key patterns (join attrs only).
        self._key_frontiers: tuple[list[Pattern], list[Pattern]] = ([], [])
        # Right-side purge patterns that make null-padding unsafe.
        self._suppressed_key_patterns: list[Pattern] = []

    state_fields = ("_tables", "_key_frontiers", "_suppressed_key_patterns")

    # ------------------------------------------------------------- keys

    def _key_of(self, side: int, tup: StreamTuple) -> JoinKey:
        return tuple(tup.values[i] for i in self._key_indices[side])

    def _key_pattern_of(self, side: int, pattern: Pattern) -> Pattern | None:
        """Restrict an input-side pattern to the join key, if lossless.

        Returns the pattern over the join-key positions when the input
        pattern constrains *only* join attributes; None otherwise.
        """
        key_positions = set(self._key_indices[side])
        if not set(pattern.constrained_indices()) <= key_positions:
            return None
        return pattern.project(self._key_indices[side])

    # ------------------------------------------------------------- output

    def _join_values(self, left: StreamTuple, right: StreamTuple) -> StreamTuple:
        values = [left.values[i] for i in self._left_out_indices]
        values += [left.values[i] for i in self._key_indices[self.LEFT]]
        values += [right.values[i] for i in self._right_out_indices]
        return StreamTuple(self.output_schema, values)

    def _padded_values(self, left: StreamTuple) -> StreamTuple:
        values = [left.values[i] for i in self._left_out_indices]
        values += [left.values[i] for i in self._key_indices[self.LEFT]]
        values += [None] * len(self._right_out_indices)
        return StreamTuple(self.output_schema, values)

    # ------------------------------------------------------------- data

    def on_page(self, port_index: int, batch: list) -> None:
        """One build+probe pass over a run of same-port tuples.

        Results (joins and any due outer padding) accumulate in arrival
        order and ship via one :meth:`~repro.operators.base.Operator.
        emit_many`; hash-table mutations and ``matched`` flags are
        applied tuple by tuple, so the result does not depend on where
        the run was cut.
        """
        other = 1 - port_index
        other_port = self.inputs[other]
        other_done = other_port is not None and other_port.done
        table = self._tables[port_index]
        other_table = self._tables[other]
        condition = self._condition
        is_left = port_index == self.LEFT
        pad_due = other_done and is_left and self.how == "left_outer"
        out: list[StreamTuple] = []
        parked = 0
        for tup in batch:
            key = self._key_of(port_index, tup)
            stored = _StoredTuple(tup)
            if not other_done:
                # Park the tuple only while the opposite input can still
                # deliver partners; storing after that is pure state leak.
                table.setdefault(key, []).append(stored)
                parked += 1
            for partner in other_table.get(key, ()):
                left_stored, right_stored = (
                    (stored, partner) if is_left else (partner, stored)
                )
                left, right = left_stored.tup, right_stored.tup
                if condition is not None and not condition(left, right):
                    continue
                left_stored.matched = True
                right_stored.matched = True
                out.append(self._join_values(left, right))
            if pad_due:
                # The right side is complete: an unmatched left tuple
                # will never find a partner, so its padding is due now.
                padded = self._padded_result(stored, key)
                if padded is not None:
                    out.append(padded)
        if parked:
            self.metrics.grow_state(parked)
        if out:
            self.emit_many(out)

    # ------------------------------------------------------------ punctuation

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        key_pattern = self._key_pattern_of(port_index, punct.pattern)
        if key_pattern is None:
            return  # not expressible over the join key; absorb
        other = 1 - port_index
        self._purge_waiting(other, key_pattern)
        self._advance_key_frontier(port_index, key_pattern)
        if self._key_covered(other, key_pattern):
            self._emit_key_punctuation(key_pattern)

    def _purge_waiting(self, side: int, key_pattern: Pattern) -> None:
        """Drop stored tuples of ``side`` whose partners can't arrive."""
        table = self._tables[side]
        dead_keys = [k for k in table if key_pattern.matches(k)]
        for k in dead_keys:
            if side == self.LEFT and self.how == "left_outer":
                for stored in table[k]:
                    self._maybe_pad(stored, k)
            self.metrics.shrink_state(len(table[k]))
            del table[k]

    def _padded_result(
        self, stored: _StoredTuple, key: JoinKey
    ) -> StreamTuple | None:
        """The null-padded result due for ``stored``, or None."""
        if stored.matched:
            return None
        if any(p.matches(key) for p in self._suppressed_key_patterns):
            return None  # feedback purged potential partners; padding unsafe
        return self._padded_values(stored.tup)

    def _maybe_pad(self, stored: _StoredTuple, key: JoinKey) -> None:
        padded = self._padded_result(stored, key)
        if padded is not None:
            self.emit(padded)

    def _advance_key_frontier(self, port_index: int, key_pattern: Pattern) -> None:
        frontier = self._key_frontiers[port_index]
        frontier[:] = [p for p in frontier if not key_pattern.subsumes(p)]
        frontier.append(key_pattern)

    def _key_covered(self, port_index: int, key_pattern: Pattern) -> bool:
        port = self.inputs[port_index]
        if port is not None and port.done:
            return True
        return any(
            seen.subsumes(key_pattern)
            for seen in self._key_frontiers[port_index]
        )

    def _emit_key_punctuation(self, key_pattern: Pattern) -> None:
        atoms = list(
            Pattern.all_wildcards(
                len(self.output_schema), schema=self.output_schema
            ).atoms
        )
        for atom, position in zip(key_pattern.atoms, self._join_out_positions):
            atoms[position] = atom
        self.emit_punctuation(
            Punctuation(
                Pattern(atoms, schema=self.output_schema), source=self.name
            )
        )

    def on_input_done(self, port_index: int) -> None:
        other = 1 - port_index
        if port_index == self.RIGHT and self.how == "left_outer":
            # No more right tuples at all: pad every unmatched left tuple.
            for key, entries in list(self._tables[self.LEFT].items()):
                for stored in entries:
                    self._maybe_pad(stored, key)
                self.metrics.shrink_state(len(entries))
                del self._tables[self.LEFT][key]
        # Stored tuples on the other side were waiting for this input.
        if self._tables[other]:
            total = sum(len(v) for v in self._tables[other].values())
            self.metrics.shrink_state(total)
            self._tables[other].clear()

    # ------------------------------------------------------------- feedback

    def _outer_safe(self, plan_input: int, pattern: Pattern) -> bool:
        """For outer joins, is exploiting/propagating toward this input safe?

        Purging or suppressing the null-padded (right) side is only safe
        when the feedback constrains join attributes alone; otherwise
        missing partners would turn into invented padded tuples or
        wrongly-suppressed padded tuples.
        """
        if self.how == "inner":
            return True
        if plan_input == self.LEFT:
            return True
        constrained = {
            self.output_schema[i].name
            for i in pattern.constrained_indices()
        }
        join_names = {l for l, _ in self.on}
        return constrained <= join_names

    def _planned(self, pattern: Pattern) -> list[tuple[int, Pattern]]:
        """The planner's pairs that are outer-safe: where this join may
        guard, purge and relay."""
        return [
            (idx, mapped) for idx, mapped in super()._planned(pattern)
            if self._outer_safe(idx, pattern)
        ]

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        usable = self._planned(feedback.pattern)
        if not usable:
            self.output_guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            return [ExploitAction.GUARD_OUTPUT], usable
        purged = 0
        for idx, pattern in usable:
            self.input_port(idx).guards.install(
                pattern, origin=feedback, at=self.now()
            )
            purged += self._purge_table_matching(idx, pattern)
            if idx == self.RIGHT and self.how == "left_outer":
                key_pattern = self._key_pattern_of(self.RIGHT, pattern)
                if key_pattern is not None:
                    self._suppressed_key_patterns.append(key_pattern)
        # Late bloomers on unguarded paths are still caught at the output.
        self.output_guards.install(
            feedback.pattern, origin=feedback, at=self.now()
        )
        actions = [ExploitAction.PURGE_STATE] if purged else []
        actions += [ExploitAction.GUARD_INPUT, ExploitAction.GUARD_OUTPUT]
        return actions, usable

    def _purge_table_matching(self, side: int, pattern: Pattern) -> int:
        """Purge stored tuples matching an input-schema pattern."""
        table = self._tables[side]
        purged = 0
        for key in list(table):
            entries = table[key]
            keep = [s for s in entries if not pattern.matches(s.tup)]
            purged += len(entries) - len(keep)
            if keep:
                table[key] = keep
            else:
                del table[key]
        if purged:
            self.metrics.shrink_state(purged, purged=True)
        return purged
