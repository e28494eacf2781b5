"""Windowed group aggregates: COUNT / SUM / AVG / MAX / MIN.

Output schema is ``(window, g..., a)``: a window identifier, the grouping
attributes, and the aggregate value.  Windows are defined over a
progressing (timestamp) attribute with ``width`` and ``slide`` --
``slide == width`` gives tumbling windows, ``slide < width`` the paper's
overlapping "slide-by-tuple"-style windows of Example 2.

Assumed feedback is answered by the row of the operator's
:func:`~repro.core.characterization.aggregate_characterization` (Table 1)
the pattern falls in.  What the table leaves to the operator:

* **Sliding windows** neither guard the input nor relay a window
  constraint: a tuple of a useless window also belongs to other windows
  (Example 2), so guarded windows are simply never accumulated.
* **The relay cap**: a state-dependent row input-guards and relays at
  most 64 of the pairs in G; the rest are purged and window-guarded.
* ``![…]`` (demanded): matching open windows emit their current partial
  immediately (the financial-speculator example) -- partial results now
  beat exact results too late.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Sequence

from repro.core.characterization import (
    PropagationBehavior,
    aggregate_characterization,
)
from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.errors import PlanError
from repro.operators.base import Operator
from repro.punctuation.atoms import (
    AtLeast,
    AtMost,
    Atom,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    NEG_INF,
    POS_INF,
    WILDCARD,
)
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Attribute, AttributeOrigin, Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["AggregateKind", "WindowAggregate"]

#: Stands for "no tuple yet" where a run's previous timestamp and group
#: are compared by identity.
_NOTHING = object()


class AggregateKind:
    """Names and properties of the supported aggregate functions."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MAX = "max"
    MIN = "min"

    ALL = (COUNT, SUM, AVG, MAX, MIN)


@dataclass
class _WindowState:
    """Partial aggregate for one (window, group) pair."""

    count: int = 0
    total: float = 0.0
    maximum: float | None = None
    minimum: float | None = None
    partial_emitted: bool = False

    def value(self, kind: str) -> float | None:
        if kind == AggregateKind.COUNT:
            return self.count
        if kind == AggregateKind.SUM:
            return self.total
        if kind == AggregateKind.AVG:
            return self.total / self.count if self.count else None
        if kind == AggregateKind.MAX:
            return self.maximum
        return self.minimum


class WindowAggregate(Operator):
    """Group-by window aggregation with full feedback support."""

    feedback_aware = True

    def __init__(
        self,
        name: str,
        input_schema: Schema,
        *,
        kind: str,
        window_attribute: str,
        width: float,
        slide: float | None = None,
        value_attribute: str | None = None,
        group_by: Sequence[str] = (),
        origin: float = 0.0,
        window_name: str = "window",
        value_name: str | None = None,
        emit_on_close: bool = True,
        exploit_level: int = 2,
        **kwargs: Any,
    ) -> None:
        if kind not in AggregateKind.ALL:
            raise PlanError(f"unknown aggregate kind {kind!r}")
        if kind != AggregateKind.COUNT and value_attribute is None:
            raise PlanError(f"{kind} requires a value attribute")
        if width <= 0:
            raise PlanError(f"window width must be > 0: {width}")
        slide = width if slide is None else slide
        if slide <= 0 or slide > width:
            raise PlanError(
                f"slide must be in (0, width]: slide={slide}, width={width}"
            )
        if value_name is None:
            value_name = (
                "count" if kind == AggregateKind.COUNT
                else f"{kind}_{value_attribute}"
            )
        output_schema = Schema(
            [Attribute(window_name, "int", progressing=True)]
            + [input_schema.attribute(g) for g in group_by]
            + [Attribute(value_name, "float")]
        )
        mapping = SchemaMapping(
            output_schema,
            (input_schema,),
            {
                window_name: (),  # computed (but monotone-translatable)
                value_name: (),
                **{
                    g: (AttributeOrigin(0, g, exact=True),) for g in group_by
                },
            },
        )
        super().__init__(name, output_schema, mapping=mapping, **kwargs)
        if exploit_level not in (1, 2):
            raise PlanError(
                f"exploit_level must be 1 (output guard only) or 2 "
                f"(full local exploitation): {exploit_level}"
            )
        #: Experiment 2's scheme knob: level 1 restricts every assumed
        #: response to an output guard (scheme F1); level 2 enables purging
        #: and input guards (schemes F2/F3; F3 additionally sets
        #: ``relay_enabled`` on the instance).
        self.exploit_level = exploit_level
        self.kind = kind
        self.input_schema = input_schema
        self.window_name = window_name
        self.value_name = value_name
        self.width = float(width)
        self.slide = float(slide)
        self.origin = float(origin)
        self.emit_on_close = emit_on_close
        self.group_by = tuple(group_by)
        self._ts_index = input_schema.index_of(window_attribute)
        self.window_attribute = input_schema[self._ts_index].name
        self._value_index = (
            input_schema.index_of(value_attribute)
            if value_attribute is not None else None
        )
        self._group_indices = tuple(
            input_schema.index_of(g) for g in group_by
        )
        #: Table 1 for this kind: :meth:`on_assumed` enacts its rows.
        self.characterization = aggregate_characterization(
            kind, output_schema, (window_name, *group_by), value_name
        )
        self._state: dict[tuple[int, tuple], _WindowState] = {}
        # Internal window guards: output-schema patterns whose matching
        # (window, group) pairs must not be accumulated (Example 2).
        self._window_guards: list[Pattern] = []
        self.windows_skipped = 0
        self._result_buffer: list[StreamTuple] = []
        # Highest window id already asserted complete downstream.
        self._last_punct_window: int | None = None

    state_fields = (
        "_state", "_window_guards", "windows_skipped", "_result_buffer",
        "_last_punct_window",
    )

    # -------------------------------------------------------------- windows

    @property
    def tumbling(self) -> bool:
        return self.slide == self.width

    def window_ids(self, timestamp: float) -> range:
        """All window ids containing ``timestamp``."""
        offset = timestamp - self.origin
        last = math.floor(offset / self.slide)
        first = math.floor((offset - self.width) / self.slide) + 1
        return range(max(first, 0), last + 1)

    def window_bounds(self, window_id: int) -> tuple[float, float]:
        """Half-open ``[start, end)`` timestamp range of a window."""
        start = self.origin + window_id * self.slide
        return start, start + self.width

    def window_interval_atom(self, window_atom: Atom) -> Atom | None:
        """Translate an atom over window ids to one over timestamps.

        The result admits exactly the timestamps of the windows whose
        integer id the atom admits, and leaves an open end open.  Returns
        None when the atom admits no id, or ids with a gap between them:
        no translation is always sound.
        """
        bounds = window_atom.bounds
        if bounds is None:  # a finite set of ids
            members = (
                window_atom.values if isinstance(window_atom, InSet)
                else (window_atom.point_value(),)
            )
            ids = sorted(
                int(w) for w in members
                if isinstance(w, int)
                or (isinstance(w, float) and w.is_integer())
            )
            if not ids or ids[-1] - ids[0] != len(ids) - 1:
                return None
            first, last = ids[0], ids[-1]
        else:
            lo, lo_inclusive, hi, hi_inclusive = bounds
            try:
                first = None if lo is NEG_INF else (
                    math.ceil(lo) if lo_inclusive else math.floor(lo) + 1
                )
                last = None if hi is POS_INF else (
                    math.floor(hi) if hi_inclusive else math.ceil(hi) - 1
                )
            except (OverflowError, TypeError, ValueError):
                return None  # an infinite, NaN or non-numeric bound
            if first is None and last is None:
                return None
            if first is not None and last is not None and first > last:
                return None
        if last is None:
            return AtLeast(self.window_bounds(first)[0])
        end = self.window_bounds(last)[1]
        if first is None:
            return LessThan(end)
        return Interval(self.window_bounds(first)[0], end, hi_inclusive=False)

    # ---------------------------------------------------------------- data

    def _output_values(
        self, window_id: int, group: tuple, value: float | None
    ) -> list:
        return [window_id, *group, value]

    def on_page(self, port_index: int, batch: list) -> None:
        """Accumulate a run of tuples: bucket by ``(window, group)``, then
        fold each bucket at once.

        Pure state accumulation (windows emit on punctuation or finish,
        never here), so bulk processing is trivially order-safe.  A
        tuple's windows are :meth:`window_ids` written out -- the same two
        ``floor`` expressions, so a float-edge timestamp picks the same
        windows -- worked out once per distinct timestamp; consecutive
        tuples of one timestamp and group go to the buckets the first of
        them found.  Each bucket holds its raw values in stream order and
        is folded as the per-tuple loop would fold it, to the bit: the
        float sum in stream order (``reduce(add, ...)``, never ``sum``),
        ``max`` / ``min`` over the current extreme followed by the bucket
        (so NaN and ``-0.0`` stay where a sequential compare leaves
        them).  Window guards
        can only change via control (feedback) or punctuation, both
        delivered outside a run, so a ``(window, group)`` pair's guard
        verdict is asked once per run; buckets keep first-touch order, so
        ``_state`` grows in the order the loop would grow it.
        """
        ts_index = self._ts_index
        value_index = self._value_index
        group_indices = self._group_indices
        single = group_indices[0] if len(group_indices) == 1 else None
        origin = self.origin
        width = self.width
        slide = self.slide
        floor = math.floor
        spans: dict[Any, range] = {}
        buckets: dict[tuple[int, tuple], list] = {}
        last_ts = last_group = _NOTHING
        targets: list[list] = []
        for tup in batch:
            values = tup.values
            ts = values[ts_index]
            key_value = values[single] if single is not None else (
                tuple([values[i] for i in group_indices])
            )
            if ts is not last_ts or key_value is not last_group:
                last_ts, last_group = ts, key_value
                span = spans.get(ts)
                if span is None:
                    offset = float(ts) - origin
                    first = floor((offset - width) / slide) + 1
                    span = spans[ts] = range(
                        first if first > 0 else 0, floor(offset / slide) + 1
                    )
                group = (key_value,) if single is not None else key_value
                targets = []
                for window_id in span:
                    key = (window_id, group)
                    bucket = buckets.get(key)
                    if bucket is None:
                        bucket = buckets[key] = []
                    targets.append(bucket)
            value = None if value_index is None else values[value_index]
            for bucket in targets:
                bucket.append(value)
        state = self._state
        guarded = self._window_guarded if self._window_guards else None
        grown = 0
        skipped = 0
        for key, bucket in buckets.items():
            count = len(bucket)
            if value_index is None:
                floats = ()
            else:
                try:
                    floats = list(map(float, bucket))
                except TypeError:  # a None counts but carries no value
                    floats = [float(v) for v in bucket if v is not None]
            if guarded is not None and guarded(*key):
                skipped += count
                continue
            window_state = state.get(key)
            if window_state is None:
                window_state = state[key] = _WindowState()
                grown += 1
            window_state.count += count
            if not floats:
                continue
            maximum = window_state.maximum
            minimum = window_state.minimum
            window_state.total = reduce(add, floats, window_state.total)
            window_state.maximum = (
                max(floats) if maximum is None else max(maximum, *floats)
            )
            window_state.minimum = (
                min(floats) if minimum is None else min(minimum, *floats)
            )
        if grown:
            self.metrics.grow_state(grown)
        if skipped:
            self.windows_skipped += skipped

    def _window_guarded(self, window_id: int, group: tuple) -> bool:
        probe = self._output_values(window_id, group, None)
        return any(g.matcher(probe) for g in self._window_guards)

    # ---------------------------------------------------------- punctuation

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Close windows the punctuation completes; forward progress.

        Handles the two practically relevant punctuation families:
        timestamp progress (``[..., <=T, ...]``) and group completion
        (exact atoms on group attributes).
        """
        pattern = punct.pattern
        constrained = set(pattern.constrained_indices())
        ts_atom = pattern.atoms[self._ts_index]
        group_positions = set(self._group_indices)
        if constrained and constrained <= {self._ts_index}:
            bound = self._upper_bound_of(ts_atom)
            if bound is not None:
                self._close_windows_before(bound)
            return
        if constrained and constrained <= group_positions:
            self._close_groups(pattern)
            return
        if not constrained:  # end-of-stream punctuation
            self._close_all()
            self.emit_punctuation(
                Punctuation(
                    Pattern.all_wildcards(
                        len(self.output_schema), schema=self.output_schema
                    ),
                    source=self.name,
                )
            )

    @staticmethod
    def _upper_bound_of(atom: Atom) -> float | None:
        if isinstance(atom, AtMost):
            return float(atom.value)
        if isinstance(atom, LessThan):
            return float(atom.value)
        return None

    def _close_windows_before(self, bound: float) -> None:
        """Emit and purge every window whose end lies at or before bound.

        Progress punctuation ``[window <= k]`` is emitted whenever the
        closed-window bound *advances*, even when no state closed: the
        input watermark guarantees no tuple below ``bound`` is still
        coming, so the assertion is sound either way.  (Emitting only on
        actual closes would starve a shard replica that happens to own
        no group in the region -- its :class:`~repro.operators.partition.
        ShardMerge` siblings would wait forever; see ``docs/sharding.md``.)
        """
        self._emit_windows(sorted(
            key for key in self._state
            if self.window_bounds(key[0])[1] <= bound
        ))
        last_closed = math.floor(
            (bound - self.origin - self.width) / self.slide
        )
        if last_closed >= 0 and (
            self._last_punct_window is None
            or last_closed > self._last_punct_window
        ):
            self._last_punct_window = int(last_closed)
            self._expire_window_guards(int(last_closed))
            self.emit_punctuation(
                Punctuation(
                    Pattern.single(
                        self.output_schema,
                        self.window_name,
                        AtMost(int(last_closed)),
                    ),
                    source=self.name,
                )
            )

    def _expire_window_guards(self, last_closed: int) -> None:
        """Drop internal window guards that can never fire again.

        A guard whose window atom admits no window id above
        ``last_closed`` is dead: those windows are closed and will not
        re-form.  This is the same predicate-state bound that
        :class:`~repro.core.guards.GuardSet` enforces via punctuation
        (paper section 4.4), applied to the aggregate's internal guards.
        """
        survivors = []
        future = GreaterThan(last_closed)
        for guard in self._window_guards:
            window_atom = guard.atoms[0]
            if window_atom.is_wildcard or not window_atom.is_disjoint(future):
                survivors.append(guard)
        self._window_guards = survivors

    def _close_groups(self, input_pattern: Pattern) -> None:
        """A group is complete on the input: close all its windows."""
        group_atoms = [input_pattern.atoms[i] for i in self._group_indices]
        tests = [atom.predicate() for atom in group_atoms]
        self._emit_windows(sorted(
            key for key in self._state
            if all(test(v) for test, v in zip(tests, key[1]))
        ))
        out_atoms: list[Atom] = [WILDCARD] * len(self.output_schema)
        for offset, atom in enumerate(group_atoms):
            out_atoms[1 + offset] = atom
        self.emit_punctuation(
            Punctuation(
                Pattern(out_atoms, schema=self.output_schema),
                source=self.name,
            )
        )

    def _close_all(self) -> None:
        self._emit_windows(sorted(self._state))

    def _emit_windows(self, keys: list[tuple[int, tuple]]) -> None:
        """Close the windows of ``keys``, in that order: their results
        leave as one run (or join the poll buffer)."""
        if not keys:
            return
        pop, kind, schema = self._state.pop, self.kind, self.output_schema
        results = [
            StreamTuple(schema, self._output_values(
                key[0], key[1], pop(key).value(kind)
            ))
            for key in keys
        ]
        self.metrics.shrink_state(len(results))
        if self.emit_on_close:
            self.emit_many(results)
        else:
            self._result_buffer.extend(results)

    def on_finish(self) -> None:
        self._close_all()
        self.flush_buffered()

    def flush_buffered(self) -> list[StreamTuple]:
        """Emit buffered results (poll-based mode, Example 4)."""
        flushed = self._result_buffer
        self._result_buffer = []
        if flushed:
            self.emit_many(flushed)
            self.flush_outputs()
        return flushed

    def on_result_request(self, pattern: Pattern | None) -> None:
        """On-demand production: release buffered results, then forward."""
        if pattern is None:
            self.flush_buffered()
        else:
            keep: list[StreamTuple] = []
            for result in self._result_buffer:
                if pattern.matches(result):
                    self.emit(result)
                else:
                    keep.append(result)
            self._result_buffer = keep
        super().on_result_request(pattern)

    # ------------------------------------------------------------- feedback

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        """Enact the row of :attr:`characterization` the pattern falls in.

        A pattern no row classifies (group and value constrained at once),
        exploit level 1 (scheme F1) and a row that does not purge get the
        output guard alone, which Definition 1 always permits, and relay
        what translates to the input.
        """
        rule = self.characterization.classify_or_none(feedback.pattern)
        if (
            rule is None or self.exploit_level == 1
            or ExploitAction.PURGE_STATE not in rule.exploit
        ):
            return super().on_assumed(feedback)
        if rule.propagation is PropagationBehavior.STATE_DEPENDENT:
            return self._purge_certain(feedback)
        return self._purge_matching(feedback)

    def _planned(self, pattern: Pattern) -> list[tuple[int, Pattern]]:
        """What maps to the input: the pattern
        :meth:`_input_pattern_from_output` translates to, if any."""
        input_pattern = self._input_pattern_from_output(pattern)
        return [] if input_pattern is None else [(0, input_pattern)]

    def _purge_matching(self, feedback: FeedbackPunctuation) -> Response:
        """A mapped row: purge the pairs the pattern names, keep them from
        re-forming, and guard and relay the input pattern it translates
        to (none on a sliding window's window atom, Example 2)."""
        pattern = feedback.pattern
        actions = [ExploitAction.PURGE_STATE]
        purged = [
            key for key in self._state if self._key_matches(pattern, key)
        ]
        for key in purged:
            self._state.pop(key)
            self.metrics.shrink_state(purged=True)
        # Never accumulate guarded windows again (works for sliding too).
        self._window_guards.append(pattern)
        relays = self._planned(pattern)
        for _, input_pattern in relays:
            self.input_port(0).guards.install(
                input_pattern, origin=feedback, at=self.now()
            )
            actions.append(ExploitAction.GUARD_INPUT)
        self.output_guards.install(pattern, origin=feedback, at=self.now())
        actions.append(ExploitAction.GUARD_OUTPUT)
        return actions, relays

    def _key_matches(self, pattern: Pattern, key: tuple[int, tuple]) -> bool:
        return pattern.matches(self._output_values(key[0], key[1], None))

    def _purge_certain(self, feedback: FeedbackPunctuation) -> Response:
        """A state-dependent row: G is the pairs whose partial already
        satisfies the value atom, so their final value is certain to
        match.  Purge G, keep it from re-forming, and guard and relay at
        most 64 of its pairs."""
        pattern = feedback.pattern
        self.output_guards.install(pattern, origin=feedback, at=self.now())
        satisfied = pattern.atoms[-1].predicate()
        group_set = [
            key for key, state in self._state.items()
            if state.value(self.kind) is not None
            and satisfied(state.value(self.kind))
        ]
        if not group_set:
            return [ExploitAction.GUARD_OUTPUT], []
        for key in group_set:
            self._state.pop(key)
            self.metrics.shrink_state(purged=True)
        actions = [ExploitAction.PURGE_STATE, ExploitAction.GUARD_OUTPUT]
        port = self.input_port(0)
        relay_cap = 64
        relays = []
        for key in group_set[:relay_cap]:
            input_pattern = self._pair_input_pattern(key)
            if input_pattern is None:
                continue
            port.guards.install(input_pattern, origin=feedback, at=self.now())
            relays.append((0, input_pattern))
        if relays:
            actions.append(ExploitAction.GUARD_INPUT)
        # Stop matching windows from re-forming locally.
        for key in group_set:
            self._window_guards.append(
                Pattern.from_mapping(
                    self.output_schema,
                    {
                        self.window_name: key[0],
                        **{g: v for g, v in zip(self.group_by, key[1])},
                    },
                )
            )
        return actions, relays

    def _pair_input_pattern(self, key: tuple[int, tuple]) -> Pattern | None:
        """Input pattern for one (window, group) pair: ts range ∧ group."""
        if not self.tumbling:
            return None  # a tuple belongs to several windows (Example 2)
        start, end = self.window_bounds(key[0])
        constraints: dict[str, Any] = {
            self.window_attribute: Interval(start, end, hi_inclusive=False)
        }
        for name, value in zip(self.group_by, key[1]):
            constraints[name] = Equals(value)
        return Pattern.from_mapping(self.input_schema, constraints)

    # -- relaying --------------------------------------------------------------

    def _input_pattern_from_output(self, pattern: Pattern) -> Pattern | None:
        """Translate an output pattern to the input schema when sound.

        Group atoms map positionally; a window atom maps to a timestamp
        range (tumbling windows only); value atoms are untranslatable.
        """
        value_index = len(self.output_schema) - 1
        atoms: list[Atom] = [WILDCARD] * len(self.input_schema)
        for out_pos in pattern.constrained_indices():
            if out_pos == value_index:
                return None
            if out_pos == 0:  # window id
                if not self.tumbling:
                    return None
                translated = self.window_interval_atom(pattern.atoms[0])
                if translated is None:
                    return None
                atoms[self._ts_index] = translated
                continue
            group_offset = out_pos - 1
            atoms[self._group_indices[group_offset]] = pattern.atoms[out_pos]
        result = Pattern(atoms, schema=self.input_schema)
        return None if result.is_all_wildcard else result

    # -- demanded ---------------------------------------------------------------

    def on_demanded(self, feedback: FeedbackPunctuation) -> Response:
        """Unblock: emit current partials for matching open windows now,
        and relay what translates to the input."""
        pattern = feedback.pattern
        emitted = False
        for key, state in list(self._state.items()):
            if state.partial_emitted:
                continue
            value = state.value(self.kind)
            candidate = self._output_values(key[0], key[1], value)
            probe = self._output_values(key[0], key[1], None)
            if pattern.matches(candidate) or pattern.matches(probe):
                state.partial_emitted = True
                self.emit(
                    StreamTuple(self.output_schema, candidate)
                )
                emitted = True
        # Buffered (poll-mode) results matching the demand ship as well.
        keep: list[StreamTuple] = []
        for result in self._result_buffer:
            if pattern.matches(result):
                self.emit(result)
                emitted = True
            else:
                keep.append(result)
        self._result_buffer = keep
        if emitted:
            self.flush_outputs()  # "now" means now, not at page boundary
        actions = [ExploitAction.EMIT_PARTIAL] if emitted else []
        return actions, self._planned(feedback.pattern)
