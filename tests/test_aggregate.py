"""Unit tests for windowed aggregates: windows, punctuation, feedback."""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ExploitAction,
    FeedbackPunctuation,
    check_correct_exploitation,
)
from repro.engine.harness import OperatorHarness
from repro.errors import PlanError
from repro.operators import AggregateKind, WindowAggregate
from repro.operators.aggregate import _WindowState
from repro.punctuation import (
    AtLeast,
    AtMost,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    Pattern,
    Punctuation,
)
from repro.punctuation.atoms import NEG_INF, POS_INF
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([
    ("ts", "timestamp", True), ("seg", "int"), ("speed", "float"),
])


def tup(ts, seg=0, speed=50.0):
    return StreamTuple(SCHEMA, (ts, seg, speed))


def make(kind=AggregateKind.AVG, **kwargs):
    defaults = dict(
        window_attribute="ts", width=10.0,
        value_attribute=None if kind == AggregateKind.COUNT else "speed",
        group_by=("seg",),
    )
    defaults.update(kwargs)
    return WindowAggregate("agg", SCHEMA, kind=kind, **defaults)


def progress(bound):
    return Punctuation.up_to(SCHEMA, "ts", bound, inclusive=False)


class TestWindows:
    def test_window_assignment_tumbling(self):
        agg = make()
        assert list(agg.window_ids(0.0)) == [0]
        assert list(agg.window_ids(9.99)) == [0]
        assert list(agg.window_ids(10.0)) == [1]

    def test_window_assignment_sliding(self):
        agg = make(width=10.0, slide=5.0)
        assert list(agg.window_ids(12.0)) == [1, 2]

    def test_window_bounds(self):
        agg = make()
        assert agg.window_bounds(3) == (30.0, 40.0)

    def test_invalid_parameters(self):
        with pytest.raises(PlanError):
            make(width=-1)
        with pytest.raises(PlanError):
            make(slide=20.0)  # slide > width
        with pytest.raises(PlanError):
            WindowAggregate("x", SCHEMA, kind="median",
                            window_attribute="ts", width=1.0)
        with pytest.raises(PlanError):
            WindowAggregate("x", SCHEMA, kind="sum",
                            window_attribute="ts", width=1.0)  # no value attr
        with pytest.raises(PlanError):
            make(exploit_level=3)


class TestAggregation:
    @pytest.mark.parametrize("kind, expected", [
        (AggregateKind.COUNT, 3),
        (AggregateKind.SUM, 90.0),
        (AggregateKind.AVG, 30.0),
        (AggregateKind.MAX, 40.0),
        (AggregateKind.MIN, 20.0),
    ])
    def test_kinds(self, kind, expected):
        agg = make(kind)
        harness = OperatorHarness(agg)
        for speed in (20.0, 30.0, 40.0):
            harness.push(tup(1.0, seg=0, speed=speed))
        harness.finish()
        result = harness.emitted_tuples()[0]
        assert result.values[-1] == expected

    def test_grouping(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0))
        harness.push(tup(1.0, seg=1))
        harness.push(tup(2.0, seg=1))
        harness.finish()
        results = {r["seg"]: r["count"] for r in harness.emitted_tuples()}
        assert results == {0: 1, 1: 2}

    def test_sliding_window_tuple_in_multiple_windows(self):
        agg = make(AggregateKind.COUNT, width=10.0, slide=5.0)
        harness = OperatorHarness(agg)
        harness.push(tup(7.0))
        harness.finish()
        windows = sorted(r["window"] for r in harness.emitted_tuples())
        assert windows == [0, 1]


class TestPunctuationDriven:
    def test_progress_punctuation_closes_windows(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0))
        harness.push(tup(12.0))
        harness.push_punctuation(progress(10.0))
        out = harness.emitted_tuples()
        assert len(out) == 1 and out[0]["window"] == 0
        # Window 1 is still open.
        assert agg.metrics.state_size == 1

    def test_emits_window_punctuation_downstream(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0))
        harness.push_punctuation(progress(10.0))
        puncts = harness.emitted_punctuation()
        assert len(puncts) == 1
        assert puncts[0].pattern.matches((0, 99, 99))     # window 0 closed
        assert not puncts[0].pattern.matches((1, 99, 99))

    def test_group_punctuation_closes_group(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0))
        harness.push(tup(1.0, seg=1))
        harness.push_punctuation(
            Punctuation(Pattern.from_mapping(SCHEMA, {"seg": 0}))
        )
        out = harness.emitted_tuples()
        assert len(out) == 1 and out[0]["seg"] == 0
        assert agg.metrics.state_size == 1

    def test_all_wildcard_punctuation_closes_everything(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0))
        harness.push(tup(25.0))
        harness.push_punctuation(
            Punctuation(Pattern.all_wildcards(3, schema=SCHEMA))
        )
        assert len(harness.emitted_tuples()) == 2
        assert agg.metrics.state_size == 0


class TestGroupFeedback:
    def test_window_and_group_feedback_purges_and_guards(self):
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=1))
        harness.push(tup(1.0, seg=2))
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(agg.output_schema, {"window": 0, "seg": 1})
        )
        actions = harness.feedback(fb)
        assert ExploitAction.PURGE_STATE in actions
        assert ExploitAction.GUARD_INPUT in actions
        assert agg.metrics.state_purged == 1
        # Re-forming the purged window is prevented: on tumbling windows
        # the input guard intercepts the tuple before window assignment.
        harness.push(tup(2.0, seg=1))
        assert agg.metrics.input_guard_drops == 1
        harness.finish()
        results = harness.emitted_tuples()
        assert not [r for r in results if r["seg"] == 1 and r["window"] == 0]
        assert [r for r in results if r["seg"] == 2]

    def test_relay_translates_window_to_timestamp_range(self):
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(
                agg.output_schema, {"window": Interval(2, 4), "seg": 1}
            )
        )
        harness.feedback(fb)
        relayed = harness.upstream_feedback(0)
        assert len(relayed) == 1
        pattern = relayed[0].pattern
        assert pattern.matches((25.0, 1, 0.0))
        assert pattern.matches((49.9, 1, 0.0))
        assert not pattern.matches((50.0, 1, 0.0))
        assert not pattern.matches((25.0, 2, 0.0))

    def test_sliding_windows_forbid_input_guard_and_relay(self):
        """Example 2: a filter at the bottom of the plan is incorrect."""
        agg = make(AggregateKind.AVG, width=10.0, slide=5.0)
        harness = OperatorHarness(agg)
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(agg.output_schema, {"window": 3})
        )
        actions = harness.feedback(fb)
        assert ExploitAction.GUARD_INPUT not in actions
        assert harness.upstream_feedback(0) == []
        assert harness.input_guard_count() == 0
        # But the aggregate itself avoids the unneeded window: a tuple in
        # windows {2, 3} accumulates only into window 2.
        harness.push(tup(17.0))
        harness.finish()
        windows = sorted(r["window"] for r in harness.emitted_tuples())
        assert windows == [2]
        assert agg.windows_skipped == 1

    def test_exploit_level_1_output_guard_only(self):
        agg = make(AggregateKind.AVG, exploit_level=1)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=1))
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(agg.output_schema, {"seg": 1})
            )
        )
        assert actions == [ExploitAction.GUARD_OUTPUT,
                           ExploitAction.PROPAGATE]
        assert agg.metrics.state_purged == 0


class TestValueFeedback:
    def test_avg_value_feedback_output_guard_only(self):
        """Section 3.5: purging on partial average 51 would be a mistake."""
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, speed=51.0))
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(
                    agg.output_schema, {"avg_speed": AtLeast(50.0)}
                )
            )
        )
        assert actions == [ExploitAction.GUARD_OUTPUT]
        assert agg.metrics.state_purged == 0
        # A later small value drags the average below 50: result survives.
        harness.push(tup(2.0, speed=9.0))
        harness.finish()
        out = harness.emitted_tuples()
        assert len(out) == 1 and out[0]["avg_speed"] == 30.0

    def test_max_lower_bound_closes_certain_windows(self):
        """Section 3.5's MAX: partial >= bound is certain to match."""
        agg = make(AggregateKind.MAX)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0, speed=55.0))  # certain
        harness.push(tup(1.0, seg=1, speed=40.0))  # not certain
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(
                    agg.output_schema, {"max_speed": AtLeast(50.0)}
                )
            )
        )
        assert ExploitAction.PURGE_STATE in actions
        assert ExploitAction.GUARD_INPUT in actions
        # The guard stops the purged window from re-forming on value 40
        # (the paper's "incorrect partial aggregate" hazard).
        harness.push(tup(2.0, seg=0, speed=40.0))
        harness.finish()
        results = {r["seg"]: r["max_speed"] for r in harness.emitted_tuples()}
        assert 0 not in results           # certain window suppressed
        assert results[1] == 40.0         # uncertain window survives

    def test_max_late_bloomer_caught_by_output_guard(self):
        agg = make(AggregateKind.MAX)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=1, speed=40.0))
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(
                    agg.output_schema, {"max_speed": AtLeast(50.0)}
                )
            )
        )
        harness.push(tup(2.0, seg=1, speed=70.0))  # grows past the bound
        harness.finish()
        assert harness.emitted_tuples() == []  # suppressed at the output

    def test_count_state_dependent_relay(self):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        for _ in range(5):
            harness.push(tup(1.0, seg=2))
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(agg.output_schema, {"count": AtLeast(5)})
            )
        )
        relayed = harness.upstream_feedback(0)
        assert len(relayed) == 1
        # The propagated G names window 0 x segment 2 in input terms.
        assert relayed[0].pattern.matches((5.0, 2, 0.0))
        assert not relayed[0].pattern.matches((5.0, 3, 0.0))
        assert not relayed[0].pattern.matches((15.0, 2, 0.0))

    def test_min_symmetry_upper_bound_is_certain(self):
        agg = make(AggregateKind.MIN)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0, speed=10.0))
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(
                    agg.output_schema, {"min_speed": AtMost(20.0)}
                )
            )
        )
        assert ExploitAction.PURGE_STATE in actions

    def test_sum_is_never_certain(self):
        agg = make(AggregateKind.SUM)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, speed=100.0))
        for atom in (AtLeast(50.0), AtMost(500.0)):
            actions = harness.feedback(
                FeedbackPunctuation.assumed(
                    Pattern.from_mapping(
                        agg.output_schema, {"sum_speed": atom}
                    )
                )
            )
            assert ExploitAction.PURGE_STATE not in actions


#: Window atoms against the windows they admit (tumbling, width 10, so
#: ids 0..4 over timestamps 0..49); None where no window qualifies.
WINDOW_ATOMS = [
    (Interval(1, 3), {1, 2, 3}),  # Experiment 2's inclusive integer form
    (Interval(1, 3, hi_inclusive=False), {1, 2}),
    (Interval(1, 3, lo_inclusive=False), {2, 3}),
    (Interval(0.5, 2), {1, 2}),
    (Interval(NEG_INF, 2), {0, 1, 2}),
    (Interval(2, POS_INF), {2, 3, 4}),
    (AtLeast(2.5), {3, 4}),
    (GreaterThan(1.5), {2, 3, 4}),
    (AtMost(2.5), {0, 1, 2}),
    (LessThan(2), {0, 1}),
    (Equals(2), {2}),
    (InSet({1, 2}), {1, 2}),
    (Equals(2.5), None),
    (InSet({1, 3}), None),
    # Bounds no window id can be worked out from: left untranslated.
    (AtLeast(-math.inf), None),
    (AtLeast(math.nan), None),
    (LessThan("3"), None),
]


class TestWindowIdTranslation:
    """A window atom reaches the input as the timestamps of exactly the
    windows whose integer id it admits (Definition 1)."""

    ROWS = [tup(float(ts), seg=ts % 2) for ts in range(50)]

    def run(self, rows, feedback=None):
        agg = make(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        if feedback is not None:
            harness.feedback(feedback)
        harness.push_all(rows)
        harness.finish()
        return harness

    @pytest.mark.parametrize("atom,windows", WINDOW_ATOMS, ids=repr)
    def test_translation_admits_exactly_the_windows(self, atom, windows):
        agg = make(AggregateKind.COUNT)
        translated = agg.window_interval_atom(atom)
        if windows is None:
            assert translated is None
            return
        covered = {
            w for ts in range(50) if translated.matches(float(ts))
            for w in agg.window_ids(float(ts))
        }
        assert covered == windows

    def test_inclusive_integer_range_translates_as_before(self):
        translated = make(AggregateKind.COUNT).window_interval_atom(
            Interval(1, 3)
        )
        assert translated == Interval(10.0, 40.0, hi_inclusive=False)

    @pytest.mark.parametrize("atom,windows", WINDOW_ATOMS, ids=repr)
    def test_local_input_guard_is_correct(self, atom, windows):
        reference = self.run(self.ROWS).emitted_tuples()
        pattern = Pattern.from_mapping(
            make(AggregateKind.COUNT).output_schema, {"window": atom}
        )
        harness = self.run(self.ROWS, FeedbackPunctuation.assumed(pattern))
        report = check_correct_exploitation(
            reference, harness.emitted_tuples(), pattern
        )
        assert report.ok, report.summary()
        assert harness.input_guard_count() == (windows is not None)

    @pytest.mark.parametrize("atom,windows", WINDOW_ATOMS, ids=repr)
    def test_relayed_pattern_is_correct(self, atom, windows):
        reference = self.run(self.ROWS).emitted_tuples()
        pattern = Pattern.from_mapping(
            make(AggregateKind.COUNT).output_schema, {"window": atom}
        )
        relayed = self.run(
            [], FeedbackPunctuation.assumed(pattern)
        ).upstream_feedback(0)
        assert len(relayed) == (windows is not None)
        # The upstream honours the relay; this run takes no feedback.
        kept = [
            r for r in self.ROWS
            if not any(fb.pattern.matches(r) for fb in relayed)
        ]
        out = self.run(kept).emitted_tuples()
        report = check_correct_exploitation(reference, out, pattern)
        assert report.ok, report.summary()
        suppressed = {r["window"] for r in reference} - {
            r["window"] for r in out
        }
        assert suppressed == (windows or set())


class TestDemandedAndPolling:
    def test_demanded_emits_partial_now(self):
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0, speed=30.0))
        actions = harness.feedback(
            FeedbackPunctuation.demanded(
                Pattern.from_mapping(agg.output_schema, {"window": 0})
            )
        )
        assert actions[0] is ExploitAction.EMIT_PARTIAL
        out = harness.emitted_tuples()
        assert len(out) == 1 and out[0]["avg_speed"] == 30.0

    def test_demanded_matches_on_current_value_too(self):
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, speed=30.0))
        harness.feedback(
            FeedbackPunctuation.demanded(
                Pattern.from_mapping(
                    agg.output_schema, {"avg_speed": AtLeast(25.0)}
                )
            )
        )
        assert len(harness.emitted_tuples()) == 1

    def test_demanded_only_once_per_window(self):
        agg = make(AggregateKind.AVG)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, speed=30.0))
        fb = FeedbackPunctuation.demanded(
            Pattern.from_mapping(agg.output_schema, {"window": 0})
        )
        harness.feedback(fb)
        actions = harness.feedback(fb)
        assert ExploitAction.EMIT_PARTIAL not in actions

    def test_poll_mode_buffers_until_request(self):
        agg = make(AggregateKind.AVG, emit_on_close=False)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, speed=30.0))
        harness.push_punctuation(progress(10.0))
        assert harness.emitted_tuples() == []  # buffered
        agg.on_result_request(None)
        assert len(harness.emitted_tuples()) == 1

    def test_poll_with_pattern_releases_matching_only(self):
        agg = make(AggregateKind.AVG, emit_on_close=False)
        harness = OperatorHarness(agg)
        harness.push(tup(1.0, seg=0, speed=30.0))
        harness.push(tup(1.0, seg=1, speed=40.0))
        harness.push_punctuation(progress(10.0))
        agg.on_result_request(
            Pattern.from_mapping(agg.output_schema, {"seg": 1})
        )
        out = harness.emitted_tuples()
        assert len(out) == 1 and out[0]["seg"] == 1


# -- the accumulation kernel ----------------------------------------------------
#
# ``WindowAggregate.on_page`` accumulates a run in one loop with the window
# arithmetic and the accumulator written out.  The reference below is the
# per-tuple loop it replaced -- ``window_ids()`` per tuple, ``add()`` per
# window, counters touched as it goes -- kept here so the kernel stays
# pinned to it.

KERNEL_SCHEMA = Schema([
    ("ts", "timestamp", True), ("seg", "int"), ("lane", "int"),
    ("speed", "float"),
])
WIDTHS = (0.1, 0.3, 1 / 3, 1.0, 7.5)


def reference_add(state, value):
    state.count += 1
    if value is None:
        return
    state.total += value
    if state.maximum is None or value > state.maximum:
        state.maximum = value
    if state.minimum is None or value < state.minimum:
        state.minimum = value


def reference_on_page(op, batch):
    for tup in batch:
        values = tup.values
        timestamp = float(values[op._ts_index])
        group = tuple(values[i] for i in op._group_indices)
        value = (
            None if op._value_index is None else values[op._value_index]
        )
        for window_id in op.window_ids(timestamp):
            if op._window_guards and op._window_guarded(window_id, group):
                op.windows_skipped += 1
                continue
            key = (window_id, group)
            window_state = op._state.get(key)
            if window_state is None:
                window_state = _WindowState()
                op._state[key] = window_state
                op.metrics.grow_state()
            reference_add(
                window_state, None if value is None else float(value)
            )


def kernel_operator(kind, width, slide, origin, group_by, *, reference):
    op = WindowAggregate(
        "agg", KERNEL_SCHEMA, kind=kind, window_attribute="ts",
        width=width, slide=slide, origin=origin, group_by=group_by,
        value_attribute=None if kind == AggregateKind.COUNT else "speed",
    )
    if reference:
        op.on_page = lambda port, batch: reference_on_page(op, batch)
    return OperatorHarness(op)


@st.composite
def kernel_cases(draw):
    width = draw(st.sampled_from(WIDTHS))
    slide = draw(st.sampled_from([None, width / 2, width / 3, width * 0.7]))
    origin = draw(st.sampled_from([0.0, 0.25, -1.0, 100.0]))
    step = width if slide is None else slide
    timestamps = st.one_of(
        # float edges: exact multiples of the width / slide, both sides
        # of the origin, as a product and as a running sum would give them
        st.integers(min_value=-3, max_value=40).map(lambda k: k * width),
        st.integers(min_value=-3, max_value=40).map(
            lambda k: origin + k * step),
        st.floats(min_value=-2.0, max_value=40 * width, allow_nan=False),
        st.integers(min_value=-2, max_value=12),
    )
    speeds = st.one_of(
        st.integers(min_value=-5, max_value=200),
        st.floats(min_value=-50.0, max_value=200.0, allow_nan=False),
        st.none(),
    )
    rows = draw(st.lists(
        st.tuples(timestamps, st.integers(0, 3), st.integers(0, 1), speeds),
        max_size=80,
    ))
    group_by = draw(st.sampled_from([(), ("seg",), ("seg", "lane")]))
    windows = st.one_of(
        st.just("*"),
        st.integers(min_value=0, max_value=12),
        st.builds(Interval, st.integers(0, 4), st.integers(4, 12)),
        st.integers(min_value=0, max_value=12).map(AtLeast),
        st.sets(st.integers(0, 12), min_size=1, max_size=3).map(InSet),
    )
    guards = draw(st.lists(
        st.tuples(
            windows,
            st.one_of(st.just("*"), st.integers(0, 3),
                      st.sets(st.integers(0, 3), min_size=1).map(InSet)),
        ),
        max_size=2,
    ))
    return (
        draw(st.sampled_from(AggregateKind.ALL)), width, slide, origin,
        group_by, rows, guards, draw(st.integers(0, len(rows))),
    )


def observed(harness):
    op = harness.operator
    return (
        dict(op._state), op.windows_skipped,
        op.metrics.state_size, op.metrics.peak_state_size,
        op.metrics.input_guard_drops,
    )


class TestAccumulationKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_on_page_is_the_per_tuple_loop(self, case):
        kind, width, slide, origin, group_by, rows, guards, cut = case
        stream = [StreamTuple(KERNEL_SCHEMA, row) for row in rows]

        def run(run_length, *, reference=False):
            harness = kernel_operator(
                kind, width, slide, origin, group_by, reference=reference
            )
            schema = harness.operator.output_schema

            def feed(tuples):
                for start in range(0, len(tuples), run_length):
                    harness.push_page(tuples[start:start + run_length])

            feed(stream[:cut])
            for window, seg in guards:  # guards change between runs
                spec = {"window": window}
                if group_by:
                    spec["seg"] = seg
                pattern = Pattern.from_mapping(schema, spec)
                if not pattern.is_all_wildcard:
                    harness.feedback(FeedbackPunctuation.assumed(pattern))
            feed(stream[cut:])
            return harness

        expected = run(1, reference=True)
        for run_length in (1, 7, 64):
            harness = run(run_length)
            assert observed(harness) == observed(expected)
            # the snapshot carries the same state through a pickle
            clone = kernel_operator(
                kind, width, slide, origin, group_by, reference=False
            )
            clone.operator.restore_state(pickle.loads(pickle.dumps(
                harness.operator.snapshot_state()
            )))
            assert clone.operator._state == expected.operator._state
            assert (clone.operator.windows_skipped
                    == expected.operator.windows_skipped)
            harness.finish()
        expected.finish()
        assert (
            [t.values for t in harness.emitted_tuples()]
            == [t.values for t in expected.emitted_tuples()]
        )

    @pytest.mark.parametrize("width", [0.1, 0.3, 1 / 3])
    @pytest.mark.parametrize("slide", [None, 0.5])
    def test_inlined_window_arithmetic_is_window_ids(self, width, slide):
        """``0.3 / 0.1`` is 2.9999999999999996: the kernel must put a
        float-edge timestamp where the public helper says it goes."""
        slide = None if slide is None else width * slide
        for origin in (0.0, 0.7):
            op = make(width=width, slide=slide, origin=origin,
                      group_by=())
            for k in range(-3, 400):
                for ts in (k * width, origin + k * width,
                           math.nextafter(k * width, math.inf)):
                    op._state.clear()
                    op.on_page(0, [tup(ts)])
                    assert (sorted(w for w, _ in op._state)
                            == list(op.window_ids(ts))), (ts, origin)


# -- the fold, to the bit ---------------------------------------------------------------
#
# ``_WindowState`` equality cannot see NaN (never equal) or the sign of a
# zero (equal to its negation), so these compare every field by
# ``float.hex`` / ``repr``, in ``_state``'s order.

SPECIAL_SPEEDS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1.0, -1.0, 0.1, 0.2,
    3, -7, 2 ** 53 + 1, None,
)


def bits(value):
    return float.hex(value) if isinstance(value, float) else repr(value)


def fingerprint(op):
    return (
        [
            (repr(key), state.count, bits(state.total),
             bits(state.maximum), bits(state.minimum), state.partial_emitted)
            for key, state in op._state.items()
        ],
        op.windows_skipped,
        op.metrics.state_size, op.metrics.peak_state_size,
        op.metrics.input_guard_drops,
    )


@st.composite
def fold_cases(draw):
    width = draw(st.sampled_from(WIDTHS))
    slide = draw(st.sampled_from([None, width / 2, width / 3]))
    origin = draw(st.sampled_from([0.0, 0.25, -1.0]))
    step = width if slide is None else slide
    edge = st.integers(min_value=-3, max_value=12)
    timestamps = st.one_of(
        edge.map(lambda k: k * width),
        edge.map(lambda k: origin + k * step),
        edge.map(lambda k: math.nextafter(k * step, math.inf)),
        edge.map(lambda k: math.nextafter(origin + k * step, -math.inf)),
        st.integers(min_value=-2, max_value=6),
    )
    speeds = st.one_of(
        st.sampled_from(SPECIAL_SPEEDS),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    rows = draw(st.lists(
        st.tuples(timestamps, st.integers(0, 2), st.integers(0, 1), speeds),
        max_size=60,
    ))
    guards = draw(st.lists(
        st.tuples(st.integers(0, 12), st.one_of(st.just("*"),
                                                st.integers(0, 2))),
        max_size=2,
    ))
    return (
        draw(st.sampled_from(AggregateKind.ALL)), width, slide, origin,
        draw(st.sampled_from([(), ("seg",), ("seg", "lane")])), rows,
        guards, draw(st.integers(0, len(rows))),
        draw(st.sampled_from([2, 3, 7, 64])),
    )


def fed(kind, width, slide, origin, group_by, runs, guards=(), *,
        reference, trail=None):
    """A kernel operator fed ``runs`` (lists of rows) page by page; the
    guards arrive as feedback after the first run.  ``trail`` collects
    the operator's :func:`fingerprint` after every run."""
    harness = kernel_operator(
        kind, width, slide, origin, group_by, reference=reference
    )
    schema = harness.operator.output_schema
    for index, run in enumerate(runs):
        if index == 1:
            for window, seg in guards:
                spec = {"window": window}
                if group_by:
                    spec["seg"] = seg
                harness.feedback(FeedbackPunctuation.assumed(
                    Pattern.from_mapping(schema, spec)
                ))
        if run:
            harness.push_page([StreamTuple(KERNEL_SCHEMA, row) for row in run])
        if trail is not None:
            trail.append(fingerprint(harness.operator))
    return harness


class TestFoldToTheBit:
    @settings(max_examples=200, deadline=None)
    @given(fold_cases())
    def test_the_fold_is_the_per_tuple_loop(self, case):
        kind, width, slide, origin, group_by, rows, guards, cut, length = case
        head, tail = rows[:cut], rows[cut:]
        runs = [head] + [
            tail[start:start + length]
            for start in range(0, len(tail), length)
        ]
        trails = [], []  # the reference loops tuple by tuple whatever the run
        expected = fed(kind, width, slide, origin, group_by, runs, guards,
                       reference=True, trail=trails[0])
        harness = fed(kind, width, slide, origin, group_by, runs, guards,
                      reference=False, trail=trails[1])
        assert trails[1] == trails[0]
        harness.finish()
        expected.finish()
        assert (
            [[bits(v) for v in t.values] for t in harness.emitted_tuples()]
            == [[bits(v) for v in t.values] for t in expected.emitted_tuples()]
        )

    @pytest.mark.parametrize("kind", AggregateKind.ALL)
    @pytest.mark.parametrize("slide", [None, 0.5])
    def test_order_and_signs_survive_a_run(self, kind, slide):
        """Runs on which a re-associated sum, or an extreme taken over the
        bucket before the current one, reads different bits: ``1e16``
        then ``1.0 + 1.0`` (summed first they are no longer absorbed);
        ``1.0`` then ``nan, 2.0, 0.5`` (a bucket's own ``max`` / ``min``
        is the NaN that leads it); and zeros of both signs."""
        runs = [
            [(0.1, 0, 0, 1e16), (0.1, 1, 0, 1.0), (0.1, 2, 0, -0.0)],
            [(0.2, 0, 0, 1.0), (0.3, 0, 0, 1.0),
             (0.2, 1, 0, math.nan), (0.3, 1, 0, 2.0), (0.4, 1, 0, 0.5),
             (0.2, 2, 0, 0.0), (0.3, 2, 0, None), (0.4, 2, 0, -0.0)],
            [(0.5, 1, 0, math.inf), (0.6, 1, 0, -math.inf), (0.7, 0, 0, 3)],
        ]
        expected, seen = [], []
        fed(kind, 1.0, slide, 0.0, ("seg",), runs, reference=True,
            trail=expected)
        fed(kind, 1.0, slide, 0.0, ("seg",), runs, reference=False,
            trail=seen)
        assert seen == expected
