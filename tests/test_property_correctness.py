"""Property-based Definition 1 tests on live operators (hypothesis).

For randomly generated streams and randomly generated assumed feedback,
every feedback-aware operator must satisfy Definition 1:

    SR - subset(SR, f)  ⊆  S  ⊆  SR

where SR is the output of a reference run (no feedback) and S the output
of a run that received the feedback before any data.  The checks use
multiset containment via :func:`check_correct_exploitation`.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import FeedbackPunctuation, check_correct_exploitation
from repro.engine.harness import OperatorHarness
from repro.operators import (
    AggregateKind,
    Select,
    SymmetricHashJoin,
    WindowAggregate,
)
from repro.punctuation import (
    AtLeast,
    AtMost,
    Equals,
    InSet,
    Pattern,
)
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])

small_ints = st.integers(min_value=0, max_value=3)
speeds = st.integers(min_value=0, max_value=10)


@st.composite
def streams(draw):
    """A short in-order stream over SCHEMA."""
    n = draw(st.integers(min_value=0, max_value=24))
    rows = []
    ts = 0.0
    for _ in range(n):
        ts += draw(st.floats(min_value=0.1, max_value=3.0))
        rows.append(
            StreamTuple(SCHEMA, (ts, draw(small_ints), float(draw(speeds))))
        )
    return rows


@st.composite
def group_feedback_atoms(draw):
    """An atom over the seg attribute."""
    kind = draw(st.sampled_from(["eq", "in"]))
    if kind == "eq":
        return Equals(draw(small_ints))
    return InSet(draw(st.sets(small_ints, min_size=1, max_size=3)))


@st.composite
def value_feedback_atoms(draw):
    kind = draw(st.sampled_from(["ge", "le", "eq"]))
    bound = draw(st.integers(min_value=0, max_value=12))
    if kind == "ge":
        return AtLeast(bound)
    if kind == "le":
        return AtMost(bound)
    return Equals(bound)


def run_select(stream, feedback):
    select = Select("s", SCHEMA, lambda t: t["v"] >= 2)
    harness = OperatorHarness(select)
    if feedback is not None:
        harness.feedback(feedback)
    harness.push_all(stream)
    harness.finish()
    return harness.emitted_tuples()


class TestSelectDefinition1:
    @given(streams(), group_feedback_atoms())
    def test_select_group_feedback(self, stream, atom):
        pattern = Pattern.from_mapping(SCHEMA, {"seg": atom})
        reference = run_select(stream, None)
        exploited = run_select(stream, FeedbackPunctuation.assumed(pattern))
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()

    @given(streams(), value_feedback_atoms())
    def test_select_value_feedback(self, stream, atom):
        pattern = Pattern.from_mapping(SCHEMA, {"v": atom})
        reference = run_select(stream, None)
        exploited = run_select(stream, FeedbackPunctuation.assumed(pattern))
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()


def run_aggregate(kind, stream, feedback, *, slide=None):
    agg = WindowAggregate(
        "agg", SCHEMA, kind=kind,
        window_attribute="ts", width=5.0, slide=slide,
        value_attribute=None if kind == AggregateKind.COUNT else "v",
        group_by=("seg",),
    )
    harness = OperatorHarness(agg)
    if feedback is not None:
        harness.feedback(feedback)
    harness.push_all(stream)
    harness.finish()
    return agg, harness.emitted_tuples()


class TestAggregateDefinition1:
    @given(streams(), group_feedback_atoms(),
           st.sampled_from(AggregateKind.ALL))
    @settings(max_examples=60, deadline=None)
    def test_group_feedback_all_kinds(self, stream, atom, kind):
        agg, reference = run_aggregate(kind, stream, None)
        pattern = Pattern.from_mapping(agg.output_schema, {"seg": atom})
        _, exploited = run_aggregate(
            kind, stream, FeedbackPunctuation.assumed(pattern)
        )
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()

    @given(streams(), value_feedback_atoms(),
           st.sampled_from(AggregateKind.ALL))
    @settings(max_examples=60, deadline=None)
    def test_value_feedback_all_kinds(self, stream, atom, kind):
        agg, reference = run_aggregate(kind, stream, None)
        pattern = Pattern.from_mapping(
            agg.output_schema, {agg.value_name: atom}
        )
        _, exploited = run_aggregate(
            kind, stream, FeedbackPunctuation.assumed(pattern)
        )
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()

    @given(streams(), group_feedback_atoms())
    @settings(max_examples=40, deadline=None)
    def test_sliding_windows_group_feedback(self, stream, atom):
        """Example 2's hazard: sliding windows + group feedback."""
        agg, reference = run_aggregate(
            AggregateKind.COUNT, stream, None, slide=2.5
        )
        pattern = Pattern.from_mapping(agg.output_schema, {"seg": atom})
        _, exploited = run_aggregate(
            AggregateKind.COUNT, stream,
            FeedbackPunctuation.assumed(pattern), slide=2.5,
        )
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()


LEFT = Schema.of("a", "t", "id")
RIGHT = Schema.of("t", "id", "b")


@st.composite
def join_streams(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    left, right = [], []
    for _ in range(n):
        left.append(StreamTuple(
            LEFT, (draw(small_ints), draw(small_ints), draw(small_ints))
        ))
        right.append(StreamTuple(
            RIGHT, (draw(small_ints), draw(small_ints), draw(small_ints))
        ))
    return left, right


@st.composite
def join_feedback(draw):
    """Random assumed feedback over the join output (a, t, id, b)."""
    constraints = {}
    for name in ("a", "t", "id", "b"):
        if draw(st.booleans()):
            constraints[name] = Equals(draw(small_ints))
    if not constraints:
        constraints["a"] = Equals(draw(small_ints))
    return constraints


def run_join(pair, feedback, how="inner"):
    left_rows, right_rows = pair
    join = SymmetricHashJoin(
        "j", LEFT, RIGHT, on=[("t", "t"), ("id", "id")], how=how
    )
    harness = OperatorHarness(join)
    if feedback is not None:
        harness.feedback(feedback)
    # Interleave without truncation (the sides may have unequal length,
    # e.g. after the propagation-property test filters one of them).
    for index in range(max(len(left_rows), len(right_rows))):
        if index < len(left_rows):
            harness.push(left_rows[index], port=0)
        if index < len(right_rows):
            harness.push(right_rows[index], port=1)
    harness.finish()
    return join, harness.emitted_tuples()


class TestJoinDefinition1:
    @given(join_streams(), join_feedback())
    @settings(max_examples=80, deadline=None)
    def test_inner_join_random_feedback(self, pair, constraints):
        join, reference = run_join(pair, None)
        pattern = Pattern.from_mapping(join.output_schema, constraints)
        _, exploited = run_join(
            pair, FeedbackPunctuation.assumed(pattern)
        )
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()

    @given(join_streams(), join_feedback())
    @settings(max_examples=80, deadline=None)
    def test_left_outer_join_random_feedback(self, pair, constraints):
        join, reference = run_join(pair, None, how="left_outer")
        pattern = Pattern.from_mapping(join.output_schema, constraints)
        _, exploited = run_join(
            pair, FeedbackPunctuation.assumed(pattern), how="left_outer"
        )
        report = check_correct_exploitation(reference, exploited, pattern)
        assert report.ok, report.summary()


class TestSafePropagationProperty:
    @given(join_streams(), join_feedback())
    @settings(max_examples=60, deadline=None)
    def test_propagated_feedback_suppresses_only_covered_outputs(
        self, pair, constraints
    ):
        """Definition 2, operationally: enacting the *relayed* patterns as
        upstream filters must still satisfy Definition 1 for the original
        feedback."""
        join, reference = run_join(pair, None)
        pattern = Pattern.from_mapping(join.output_schema, constraints)
        fb = FeedbackPunctuation.assumed(pattern)
        relay_probe = OperatorHarness(SymmetricHashJoin(
            "probe", LEFT, RIGHT, on=[("t", "t"), ("id", "id")]
        ))
        relay_probe.feedback(fb)
        left_rows, right_rows = pair
        for sub in relay_probe.upstream_feedback(0):
            left_rows = [t for t in left_rows if not sub.pattern.matches(t)]
        for sub in relay_probe.upstream_feedback(1):
            right_rows = [t for t in right_rows if not sub.pattern.matches(t)]
        _, filtered_output = run_join((left_rows, right_rows), None)
        report = check_correct_exploitation(
            reference, filtered_output, pattern
        )
        assert report.ok, report.summary()
