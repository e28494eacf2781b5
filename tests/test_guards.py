"""Unit tests for guard machinery and punctuation-driven expiration."""

import pytest

from repro.core import FeedbackPunctuation, GuardSet
from repro.errors import PatternError
from repro.punctuation import AtMost, InSet, Interval, Pattern, Punctuation
from repro.stream import Schema, StreamTuple


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
