"""Page-boundary invariance: join family and window aggregates.

``on_page`` is the one data hook (``docs/architecture.md``, "One data
path") and the page boundary carries no semantics: an operator must give
the same results whether a stream reaches it as pages of one or pages of
N.  These tests
pin that contract, through the one body, for :class:`SymmetricHashJoin`
(build/probe in bulk, outer padding in arrival order),
:class:`ThriftyJoin` / :class:`ImpatientJoin` (feedback production
preserved), and :class:`WindowAggregate` (hoisted accumulation), plus
engine-level invariance: the same flow run costed (metered: pages of
one), uncosted (whole pages) and threaded must produce identical result
multisets.
"""

from __future__ import annotations

import pytest

from repro.api import Flow, avg, count
from repro.core import FeedbackPunctuation
from repro.engine.harness import OperatorHarness
from repro.operators import (
    ImpatientJoin,
    SymmetricHashJoin,
    ThriftyJoin,
    WindowAggregate,
)
from repro.punctuation import Interval, Pattern, Punctuation
from repro.stream import Schema, StreamTuple

LEFT = Schema.of("a", "t", "id")
RIGHT = Schema.of("t", "id", "b")
#: Right schema overlapping LEFT only on the key ``t`` (single-key joins).
RIGHT_T = Schema.of("t", "b", "c")
TS_SCHEMA = Schema([("ts", "timestamp", True), ("g", "int"), ("v", "float")])


def l(a, t, id_):
    return StreamTuple(LEFT, (a, t, id_))


def r(t, id_, b):
    return StreamTuple(RIGHT, (t, id_, b))


def rt(t, b, c):
    return StreamTuple(RIGHT_T, (t, b, c))


def tvals(harness):
    return [tuple(t.values) for t in harness.emitted_tuples()]


def paired_harnesses(make):
    """Two identical operators: one fed pages of one, one whole pages."""
    return OperatorHarness(make()), OperatorHarness(make())


class TestJoinBatchEquivalence:
    def interleaved(self):
        left = [l(i, i % 4, 100 + i % 3) for i in range(40)]
        right = [r(i % 4, 100 + i % 3, i) for i in range(40)]
        return left, right

    def test_inner_join_batch_matches_elementwise(self):
        left, right = self.interleaved()

        def make():
            return SymmetricHashJoin(
                "join", LEFT, RIGHT, on=[("t", "t"), ("id", "id")]
            )

        by_element, by_page = paired_harnesses(make)
        for chunk in (left[:25], left[25:]):
            for tup in chunk:
                by_element.push(tup, port=0)
            by_page.push_page(chunk, port=0)
        for chunk in (right[:10], right[10:]):
            for tup in chunk:
                by_element.push(tup, port=1)
            by_page.push_page(chunk, port=1)
        assert tvals(by_element) == tvals(by_page)
        assert (
            by_element.operator.metrics.tuples_out
            == by_page.operator.metrics.tuples_out
        )
        assert (
            by_element.operator.metrics.state_size
            == by_page.operator.metrics.state_size
        )

    def test_residual_condition_batch(self):
        def make():
            return SymmetricHashJoin(
                "join", LEFT, RIGHT_T, on=[("t", "t")],
                condition=lambda lt, rtup: lt["a"] % 2 == 0,
            )

        left = [l(i, i % 3, i) for i in range(20)]
        right = [rt(i % 3, i, i * 10) for i in range(20)]
        by_element, by_page = paired_harnesses(make)
        for tup in left:
            by_element.push(tup, port=0)
        by_page.push_page(left, port=0)
        for tup in right:
            by_element.push(tup, port=1)
        by_page.push_page(right, port=1)
        assert tvals(by_element) == tvals(by_page)

    def test_left_outer_padding_order_preserved(self):
        """Padding due after the right side closed interleaves in arrival
        order with join results, wherever the page boundaries fall."""
        def make():
            return SymmetricHashJoin(
                "join", LEFT, RIGHT_T, on=[("t", "t")], how="left_outer"
            )

        by_element, by_page = paired_harnesses(make)
        for h in (by_element, by_page):
            h.push(rt(0, 100, 7), port=1)
            # Close the right input: later unmatched lefts pad eagerly.
            port = h.operator.inputs[1]
            port.done = True
            h.operator.on_input_done(1)
        batch = [l(i, i % 2, i) for i in range(12)]  # t=1 tuples pad
        for tup in batch:
            by_element.push(tup, port=0)
        by_page.push_page(batch, port=0)
        out_e, out_p = tvals(by_element), tvals(by_page)
        assert out_e == out_p
        assert any(values[-1] is None for values in out_p)  # padded rows

    def test_punctuation_mid_page_purges_identically(self):
        def make():
            return SymmetricHashJoin("join", LEFT, RIGHT_T, on=[("t", "t")])

        punct = Punctuation(Pattern.from_mapping(LEFT, {"t": 0}))
        page = [l(1, 0, 1), l(2, 1, 2), punct, l(3, 1, 3)]
        by_element, by_page = paired_harnesses(make)
        for h in (by_element, by_page):
            h.push(rt(0, 9, 9), port=1)
            h.push(rt(1, 8, 8), port=1)
        for element in page:
            by_element.push(element, port=0)
        by_page.push_page(page, port=0)
        assert tvals(by_element) == tvals(by_page)
        assert (
            by_element.operator.metrics.state_purged
            == by_page.operator.metrics.state_purged
        )


class TestFeedbackProducingJoinsBatch:
    def test_thrifty_empty_window_feedback_on_batch_path(self):
        def make():
            return ThriftyJoin(
                "tj", LEFT, RIGHT_T, on=[("t", "t")], probe_inputs=(0,)
            )

        by_element, by_page = paired_harnesses(make)
        batch = [l(1, 5, 1)]
        for tup in batch:
            by_element.push(tup, port=0)
        by_page.push_page(batch, port=0)
        # Probe side declares t=7 complete while holding nothing there.
        punct = Punctuation(Pattern.from_mapping(LEFT, {"t": 7}))
        for h in (by_element, by_page):
            h.push_punctuation(punct, port=0)
        assert (
            by_element.operator.empty_windows_detected
            == by_page.operator.empty_windows_detected
            > 0
        )
        assert len(by_element.upstream_feedback(1)) == len(
            by_page.upstream_feedback(1)
        )

    def test_impatient_desired_feedback_count_parity(self):
        def make():
            return ImpatientJoin("ij", LEFT, RIGHT_T, on=[("t", "t")])

        by_element, by_page = paired_harnesses(make)
        batch = [l(i, i % 3, i) for i in range(9)]
        for tup in batch:
            by_element.push(tup, port=0)
        by_page.push_page(batch, port=0)
        assert (
            by_element.operator.desired_sent
            == by_page.operator.desired_sent
            == 3
        )
        assert tvals(by_element) == tvals(by_page)


class TestWindowAggregateBatch:
    def drive(self, make, elements):
        by_element, by_page = paired_harnesses(make)
        for element in elements:
            by_element.push(element, port=0)
        by_page.push_page(elements, port=0)
        for h in (by_element, by_page):
            h.finish()
        return by_element, by_page

    def stream(self, n=60):
        return [
            StreamTuple(TS_SCHEMA, (float(i) / 2, i % 3, float(i)))
            for i in range(n)
        ]

    def test_tumbling_group_parity(self):
        def make():
            return WindowAggregate(
                "agg", TS_SCHEMA, kind="avg", window_attribute="ts",
                width=5.0, value_attribute="v", group_by=("g",),
            )

        by_element, by_page = self.drive(make, self.stream())
        assert tvals(by_element) == tvals(by_page)

    def test_sliding_window_parity(self):
        def make():
            return WindowAggregate(
                "agg", TS_SCHEMA, kind="count", window_attribute="ts",
                width=6.0, slide=2.0, group_by=("g",),
            )

        by_element, by_page = self.drive(make, self.stream())
        assert tvals(by_element) == tvals(by_page)
        assert (
            by_element.operator.metrics.peak_state_size
            == by_page.operator.metrics.peak_state_size
        )

    def test_window_guards_respected_on_batch_path(self):
        """Assumed feedback's window guards suppress accumulation in the
        hoisted batch loop exactly as per element.

        Sliding windows and a window-constrained pattern, deliberately:
        a pattern that translates to the input (any window-free group
        pattern, or a window on tumbling windows) is exploited by an
        *input* guard (dropped before any batch hook runs), while a
        sliding window's window atom must keep the guard check inside
        accumulation (Example 2) -- the exact check the batch loop hoists.
        """
        def make():
            return WindowAggregate(
                "agg", TS_SCHEMA, kind="avg", window_attribute="ts",
                width=6.0, slide=2.0, value_attribute="v", group_by=("g",),
            )

        feedback = FeedbackPunctuation.assumed(
            Pattern.from_mapping(
                Schema.of("window", "g", "avg_v"),
                {"window": Interval(2, 8), "g": 1},
            )
        )
        by_element, by_page = paired_harnesses(make)
        for h in (by_element, by_page):
            h.feedback(feedback)
        elements = self.stream()
        for element in elements:
            by_element.push(element, port=0)
        by_page.push_page(elements, port=0)
        for h in (by_element, by_page):
            h.finish()
        assert tvals(by_element) == tvals(by_page)
        assert (
            by_element.operator.windows_skipped
            == by_page.operator.windows_skipped
            > 0
        )


class TestEngineLevelBatchParity:
    """Costed (metered, per element) vs uncosted (batch) vs threaded."""

    def join_flow(self, join_cost=0.0):
        flow = Flow("join-parity", page_size=16)
        left = flow.source(
            LEFT,
            [(i * 0.01, l(i, i % 5, i % 7)) for i in range(120)],
            name="left",
        )
        right = flow.source(
            RIGHT,
            [(i * 0.01, r(i % 5, i % 7, i)) for i in range(120)],
            name="right",
        )
        left.join(
            right, on=[("t", "t"), ("id", "id")], name="join",
            tuple_cost=join_cost,
        ).collect("sink")
        return flow

    def window_flow(self, cost=0.0):
        flow = Flow("window-parity", page_size=16)
        (flow.source(
            TS_SCHEMA,
            [(i * 0.01, StreamTuple(TS_SCHEMA, (float(i), i % 4, float(i))))
             for i in range(200)],
            name="src",
        )
         .punctuate(on="ts", every=20.0)
         .window(avg("v"), by="g", on="ts", width=20.0, name="win",
                 tuple_cost=cost)
         .collect("sink"))
        return flow

    @staticmethod
    def sink_multiset(result):
        return sorted(tuple(t.values) for t in result.sink("sink").results)

    @pytest.mark.parametrize("builder", ["join_flow", "window_flow"])
    def test_costed_uncosted_and_threaded_agree(self, builder):
        make = getattr(self, builder)
        batch = make(0.0).run("simulated")
        metered = make(0.0005).run("simulated")
        threaded = make(0.0).run("threaded")
        assert (
            self.sink_multiset(batch)
            == self.sink_multiset(metered)
            == self.sink_multiset(threaded)
        )
        name = "join" if builder == "join_flow" else "win"
        assert batch.metrics.operator_metrics[name].pages_batched > 0
        assert metered.metrics.operator_metrics[name].pages_batched == 0

    def test_count_aggregate_batch_engine_parity(self):
        flow = Flow("count-parity", page_size=8)
        (flow.source(
            TS_SCHEMA,
            [(0.0, StreamTuple(TS_SCHEMA, (float(i) / 4, i % 2, 1.0)))
             for i in range(100)],
            name="src",
        )
         .punctuate(on="ts", every=5.0)
         .window(count(), by="g", on="ts", width=5.0, name="win")
         .collect("sink"))
        sim = flow.run("simulated")
        thr = flow.run("threaded")
        assert self.sink_multiset(sim) == self.sink_multiset(thr)
