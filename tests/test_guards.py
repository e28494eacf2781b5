"""Unit tests for guard machinery and punctuation-driven expiration."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeedbackPunctuation, GuardSet
from repro.errors import PatternError
from repro.punctuation import AtMost, InSet, Interval, Pattern, Punctuation
from repro.punctuation.atoms import WILDCARD
from repro.stream import Schema, StreamTuple
from test_property_patterns import any_atoms, any_value, reference_matches


@pytest.fixture
def schema():
    return Schema.of("ts", "seg")


def tup(schema, ts, seg=0):
    return StreamTuple(schema, (ts, seg))


class TestGuardSet:
    def test_blocks_matching_tuple(self, schema):
        guards = GuardSet("input")
        guards.install(Pattern.from_mapping(schema, {"seg": 3}))
        assert guards.blocks(tup(schema, 1.0, 3))
        assert not guards.blocks(tup(schema, 1.0, 4))

    def test_drop_counters(self, schema):
        guards = GuardSet()
        guard = guards.install(Pattern.from_mapping(schema, {"seg": 3}))
        guards.blocks(tup(schema, 1.0, 3))
        guards.blocks(tup(schema, 2.0, 3))
        guards.blocks(tup(schema, 2.0, 4))
        assert guard.drops == 2
        assert guards.total_drops == 2

    def test_would_block_does_not_count(self, schema):
        guards = GuardSet()
        guard = guards.install(Pattern.from_mapping(schema, {"seg": 3}))
        assert guards.would_block(tup(schema, 1.0, 3))
        assert guard.drops == 0

    def test_redundant_guard_not_installed(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"ts": AtMost(10)}))
        dup = guards.install(Pattern.from_mapping(schema, {"ts": AtMost(5)}))
        assert dup is None
        assert guards.active == 1

    def test_wider_guard_retires_narrower(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"ts": AtMost(5)}))
        guards.install(Pattern.from_mapping(schema, {"ts": AtMost(10)}))
        assert guards.active == 1
        assert guards.blocks(tup(schema, 8.0))

    def test_origin_recorded(self, schema):
        guards = GuardSet()
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"seg": 1})
        )
        guard = guards.install(fb.pattern, origin=fb, at=4.2)
        assert guard.origin is fb
        assert guard.enacted_at == 4.2


class TestExpiration:
    def test_punctuation_releases_covered_guard(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"ts": AtMost(10)}))
        punct = Punctuation.up_to(schema, "ts", 10.0)
        released = guards.expire_with(punct)
        assert len(released) == 1
        assert guards.active == 0
        assert guards.guards_expired == 1

    def test_partial_progress_keeps_guard(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"ts": AtMost(10)}))
        punct = Punctuation.up_to(schema, "ts", 5.0)
        assert guards.expire_with(punct) == []
        assert guards.active == 1

    def test_unrelated_attribute_keeps_guard(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"seg": 3}))
        punct = Punctuation.up_to(schema, "ts", 1e9)
        assert guards.expire_with(punct) == []
        assert guards.active == 1

    def test_released_guard_stops_blocking(self, schema):
        guards = GuardSet()
        guard = guards.install(Pattern.from_mapping(schema, {"ts": AtMost(10)}))
        guards.expire_with(Punctuation.up_to(schema, "ts", 10.0))
        assert not guard.blocks(tup(schema, 5.0))

    def test_clear(self, schema):
        guards = GuardSet()
        guards.install(Pattern.from_mapping(schema, {"seg": 1}))
        guards.clear()
        assert guards.active == 0


class TestFilterBatchIsBlocksPerElement:
    """``filter_batch(page)`` and a loop over ``blocks`` are one rule.

    Overlapping guards (first installed takes the drop), a guard already
    released by punctuation, and a tuple of the wrong arity.
    """

    #: Overlapping on purpose: seg 3 at ts <= 4 matches the first two.
    PATTERNS = (
        {"ts": AtMost(4)},
        {"seg": 3},
        {"ts": Interval(6, 8), "seg": InSet({1, 3})},
    )

    def _guard_sets(self, schema, n_guards, release_first):
        pair = []
        for _ in range(2):
            guards = GuardSet("input")
            installed = [
                guards.install(Pattern.from_mapping(schema, spec))
                for spec in self.PATTERNS[:n_guards]
            ]
            if release_first and installed:
                # ts <= 4 is complete: the first guard can never fire again.
                assert guards.expire_with(
                    Punctuation.up_to(schema, "ts", 4.0)
                ) == [installed[0]]
            pair.append((guards, installed))
        return pair

    @pytest.mark.parametrize("n_guards", [0, 1, 2, 3])
    @pytest.mark.parametrize("release_first", [False, True])
    def test_same_split_and_counters(self, schema, n_guards, release_first):
        page = [tup(schema, float(ts), seg)
                for ts in range(10) for seg in range(5)]
        (batched, b_guards), (looped, l_guards) = self._guard_sets(
            schema, n_guards, release_first
        )
        kept, dropped = batched.filter_batch(page)
        expect_kept, expect_dropped = [], []
        for element in page:
            (expect_dropped if looped.blocks(element)
             else expect_kept).append(element)
        assert kept == expect_kept
        assert dropped == expect_dropped
        assert [g.drops for g in b_guards] == [g.drops for g in l_guards]
        assert batched.total_drops == looped.total_drops == len(dropped)
        assert sum(g.drops for g in b_guards) == len(dropped)
        if n_guards == 0:
            assert kept is page  # nothing to do: the page comes back as-is

    def test_first_installed_guard_takes_the_drop(self, schema):
        (guards, installed), _ = self._guard_sets(schema, 2, False)
        _, dropped = guards.filter_batch([tup(schema, 1.0, 3)])
        assert len(dropped) == 1
        assert [g.drops for g in installed] == [1, 0]

    @pytest.mark.parametrize("call", ["filter_batch", "blocks", "would_block"])
    def test_arity_mismatch_raises(self, schema, call):
        (guards, _), _ = self._guard_sets(schema, 2, False)
        wide = StreamTuple(Schema.of("ts", "seg", "extra"), (1.0, 3, 0))
        with pytest.raises(PatternError):
            if call == "filter_batch":
                guards.filter_batch([tup(schema, 9.0, 0), wide])
            else:
                getattr(guards, call)(wide)


# -- run filters against the element rule --------------------------------------
#
# ``GuardSet.keep``, ``GuardSet.filter_batch`` and a pattern's run filters
# (``select``/``reject``) inline the element test's ``and``-chain into one
# comprehension.  Each is checked here against a loop of per-element
# answers: ``blocks`` on a twin guard set, and an atom-by-atom reference
# that shares no code with the generated source.

TRIPLE = Schema.of("ts", "seg", "v")


def same_objects(got, expected):
    return len(got) == len(expected) and all(map(operator.is_, got, expected))


def reference(pattern, element):
    return all(map(reference_matches, pattern.atoms, element.values))


@st.composite
def guarded_runs(draw):
    """1-4 guard patterns over every atom kind, perhaps one punctuation
    that releases some of them, and a run of tuples (some repeated)
    holding None, NaN, strings and lists among the numbers."""
    # Wildcards and small integers are drawn often, so that guards
    # overlap and tuples land on their bounds.
    atom = st.one_of(st.just(WILDCARD), any_atoms())
    value = st.one_of(st.integers(min_value=-3, max_value=3), any_value)
    patterns = draw(st.lists(
        st.lists(atom, min_size=3, max_size=3).map(Pattern),
        min_size=1, max_size=4,
    ))
    cut = draw(st.none() | st.integers(min_value=-6, max_value=6))
    pool = [
        StreamTuple(TRIPLE, values)
        for values in draw(st.lists(
            st.tuples(value, value, value), min_size=1, max_size=12,
        ))
    ]
    run = [pool[i] for i in draw(st.lists(
        st.integers(min_value=0, max_value=len(pool) - 1), max_size=40,
    ))]
    return patterns, cut, run


def guard_set(patterns, cut):
    """Install ``patterns`` in order (an install covered by an active
    guard is skipped, one covering active guards retires them), then let
    ``ts <= cut`` release what it covers."""
    guards = GuardSet("input")
    for pattern in patterns:
        guards.install(pattern)
    if cut is not None:
        guards.expire_with(Punctuation.up_to(TRIPLE, "ts", cut))
    return guards


class TestRunFiltersAreTheElementRule:
    @settings(max_examples=300, deadline=None)
    @given(guarded_runs())
    def test_keep_and_filter_batch_are_blocks_per_element(self, drawn):
        patterns, cut, run = drawn
        looped, kept_by, split_by = (guard_set(patterns, cut) for _ in range(3))
        # The expected split, twice over: the first active guard whose
        # pattern matches takes the drop.
        expect_kept, expect_dropped = [], []
        for element in run:
            (expect_dropped if looped.blocks(element)
             else expect_kept).append(element)
        first = [
            next((g for g in looped if reference(g.pattern, e)), None)
            for e in run
        ]
        assert same_objects(
            expect_kept, [e for e, g in zip(run, first) if g is None]
        )
        assert [g.drops for g in looped] == [
            sum(f is g for f in first) for g in looped
        ]

        kept, count = kept_by.keep(run)
        assert same_objects(kept, expect_kept)
        assert count == len(expect_dropped)
        assert [g.drops for g in kept_by] == [g.drops for g in looped]
        assert kept_by.total_drops == looped.total_drops == count

        kept, dropped = split_by.filter_batch(run)
        assert same_objects(kept, expect_kept)
        assert same_objects(dropped, expect_dropped)
        assert [g.drops for g in split_by] == [g.drops for g in looped]
        assert split_by.total_drops == looped.total_drops == len(dropped)

        if not expect_dropped:  # nothing matched: the run comes back as-is
            assert kept_by.keep(run)[0] is run
            assert split_by.filter_batch(run)[0] is run

    @settings(max_examples=300, deadline=None)
    @given(guarded_runs())
    def test_select_and_reject_are_matches_per_element(self, drawn):
        patterns, _cut, run = drawn
        for pattern in patterns:
            matched = [e for e in run if pattern.matches(e)]
            assert same_objects(
                matched, [e for e in run if reference(pattern, e)]
            )
            assert same_objects(pattern.select(run), matched)
            assert same_objects(
                pattern.reject(run),
                [e for e in run if not pattern.matches(e)],
            )

    @settings(max_examples=100, deadline=None)
    @given(guarded_runs(), st.integers(min_value=0, max_value=40))
    def test_wrong_arity_raises_from_every_entry_point(self, drawn, where):
        patterns, _cut, run = drawn
        guards = guard_set(patterns, None)  # at least one stays active
        too_wide = StreamTuple(
            Schema.of("ts", "seg", "v", "extra"), (0, 0, 0, 0)
        )
        run = run[:where] + [too_wide] + run[where:]
        entry_points = [
            guards.keep, guards.filter_batch,
            lambda r: guards.blocks(too_wide),
            lambda r: guards.would_block(too_wide),
        ]
        for pattern in patterns:
            entry_points += [
                pattern.select, pattern.reject,
                lambda r, p=pattern: p.matches(too_wide),
            ]
        for entry in entry_points:
            with pytest.raises(PatternError):
                entry(run)
