"""Unit tests for Duplicate (multi-consumer agreement), Union and PACE."""

import pytest

from repro.core import ExploitAction, FeedbackPunctuation
from repro.engine.harness import OperatorHarness
from repro.operators import Duplicate, Pace, Union
from repro.operators.duplicate import agreed_patterns
from repro.punctuation import AtMost, Pattern, Punctuation
from repro.stream import Schema, StreamTuple


@pytest.fixture
def schema():
    return Schema([("ts", "timestamp", True), ("seg", "int")])


def tup(schema, ts, seg=0):
    return StreamTuple(schema, (ts, seg))


class TestDuplicate:
    def test_broadcasts_to_all_outputs(self, schema):
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=2)
        harness.push(tup(schema, 1.0))
        assert len(harness.emitted_tuples(output=0)) == 1
        assert len(harness.emitted_tuples(output=1)) == 1

    def test_single_consumer_feedback_enacted_directly(self, schema):
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=1)
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(schema, {"seg": 1})
            )
        )
        assert ExploitAction.GUARD_INPUT in actions
        harness.push(tup(schema, 0, seg=1))
        assert harness.emitted_tuples() == []

    def test_two_consumers_wait_for_agreement(self, schema):
        """One consumer's feedback alone must not suppress anything."""
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=2)
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"seg": 1})
        )
        actions = harness.feedback(fb, from_output=0)
        assert ExploitAction.GUARD_INPUT not in actions
        harness.push(tup(schema, 0, seg=1))
        # Both outputs still receive the tuple (identical outputs rule).
        assert len(harness.emitted_tuples(output=0)) == 1
        assert len(harness.emitted_tuples(output=1)) == 1

    def test_two_consumers_agree_on_intersection(self, schema):
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=2)
        fb0 = FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"seg": 1})
        )
        fb1 = FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"seg": 1, "ts": AtMost(10.0)})
        )
        harness.feedback(fb0, from_output=0)
        actions = harness.feedback(fb1, from_output=1)
        assert ExploitAction.GUARD_INPUT in actions
        # The agreed region is the intersection: seg=1 AND ts<=10.
        harness.push(tup(schema, 5.0, seg=1))    # in both -> dropped
        harness.push(tup(schema, 20.0, seg=1))   # only consumer 0 -> kept
        kept = harness.emitted_tuples(output=0)
        assert [t["ts"] for t in kept] == [20.0]

    def test_agreed_feedback_relays_upstream(self, schema):
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=2)
        pattern = Pattern.from_mapping(schema, {"seg": 2})
        harness.feedback(
            FeedbackPunctuation.assumed(pattern), from_output=0
        )
        assert harness.upstream_feedback(0) == []  # no agreement yet
        harness.feedback(
            FeedbackPunctuation.assumed(pattern), from_output=1
        )
        relayed = harness.upstream_feedback(0)
        assert len(relayed) == 1
        assert relayed[0].pattern.matches((0.0, 2))


    def test_periodic_feedback_keeps_declarations_bounded(self, schema):
        """Two viewers that each re-declare a growing region every period
        (Experiment 2's F3): 1,000 feedbacks leave one declaration per
        maximal region, not one per feedback, and the agreed region is
        what the walk over every declaration ever made would find."""
        dup = Duplicate("dup", schema)
        OperatorHarness(dup, outputs=2)
        history = ([], [])  # every pattern each consumer ever declared

        def unpruned(pattern, from_output):
            return [
                joint for other in history[1 - from_output]
                if (joint := pattern.intersect(other)) is not None
            ]

        def maximal(patterns):
            return {
                p for p in patterns
                if not any(q != p and q.subsumes(p) for q in patterns)
            }

        feedbacks = 0
        latest = {}  # (consumer, seg) -> bound last declared
        for step in range(250):
            for from_output in (0, 1):
                # Each declaration subsumes the consumer's previous one;
                # the consumers run half a period apart.
                bound = float(2 * step + from_output)
                for seg in (1, 2):
                    pattern = Pattern.from_mapping(
                        schema, {"seg": seg, "ts": AtMost(bound)}
                    )
                    agreed = agreed_patterns(
                        dup._declared, dup.outputs, pattern,
                        dup.outputs[from_output],
                    )
                    feedbacks += 1
                    if step < 15:  # the reference walk is quadratic
                        assert set(agreed) == maximal(
                            unpruned(pattern, from_output)
                        )
                        history[from_output].append(pattern)
                    other = latest.get((1 - from_output, seg))
                    assert agreed == ([] if other is None else [
                        Pattern.from_mapping(
                            schema,
                            {"seg": seg, "ts": AtMost(min(bound, other))},
                        )
                    ])
                    latest[from_output, seg] = bound
        assert feedbacks == 1000
        # Two maximal regions (seg 1, seg 2) per consumer.
        assert [len(d) for d in dup._declared.values()] == [2, 2]

    def test_operator_agreement_goes_through_the_bounded_walk(self, schema):
        dup = Duplicate("dup", schema)
        harness = OperatorHarness(dup, outputs=2)
        for bound in range(20):
            for from_output in (0, 1):
                harness.feedback(
                    FeedbackPunctuation.assumed(Pattern.from_mapping(
                        schema, {"seg": 1, "ts": AtMost(float(bound))}
                    )),
                    from_output=from_output,
                )
        assert [len(d) for d in dup._declared.values()] == [1, 1]
        harness.push(tup(schema, 19.0, seg=1))   # inside the agreed region
        harness.push(tup(schema, 19.5, seg=1))   # past it
        assert [t["ts"] for t in harness.emitted_tuples(output=1)] == [19.5]


class TestUnion:
    def test_interleaves_inputs(self, schema):
        union = Union("u", schema, arity=2)
        harness = OperatorHarness(union)
        harness.push(tup(schema, 1.0), port=0)
        harness.push(tup(schema, 2.0), port=1)
        assert len(harness.emitted_tuples()) == 2

    def test_punctuation_held_until_covered_on_all_inputs(self, schema):
        union = Union("u", schema, arity=2)
        harness = OperatorHarness(union)
        punct = Punctuation.up_to(schema, "ts", 10.0)
        harness.push_punctuation(punct, port=0)
        assert harness.emitted_punctuation() == []  # port 1 not covered yet
        harness.push_punctuation(punct, port=1)
        assert harness.emitted_punctuation() == [punct]

    def test_wider_punctuation_on_other_input_releases(self, schema):
        union = Union("u", schema, arity=2)
        harness = OperatorHarness(union)
        harness.push_punctuation(
            Punctuation.up_to(schema, "ts", 100.0), port=1
        )
        harness.push_punctuation(
            Punctuation.up_to(schema, "ts", 10.0), port=0
        )
        emitted = harness.emitted_punctuation()
        assert len(emitted) == 1  # the narrower one, now safe

    def test_done_input_counts_as_covered(self, schema):
        union = Union("u", schema, arity=2)
        harness = OperatorHarness(union)
        union.input_port(1).done = True
        union.on_input_done(1)
        harness.push_punctuation(
            Punctuation.up_to(schema, "ts", 10.0), port=0
        )
        assert len(harness.emitted_punctuation()) == 1

    def test_feedback_relays_to_all_inputs(self, schema):
        union = Union("u", schema, arity=3)
        harness = OperatorHarness(union)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(schema, {"seg": 1})
            )
        )
        for port in range(3):
            assert len(harness.upstream_feedback(port)) == 1


class TestPace:
    def make(self, schema, **kwargs):
        defaults = dict(
            timestamp_attribute="ts", tolerance=5.0, feedback_interval=1.0
        )
        defaults.update(kwargs)
        return Pace("pace", schema, **defaults)

    def test_timely_tuples_pass(self, schema):
        harness = OperatorHarness(self.make(schema))
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 7.0), port=1)  # within tolerance
        assert len(harness.emitted_tuples()) == 2

    def test_late_tuples_dropped(self, schema):
        pace = self.make(schema)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)  # 6 behind, tolerance 5
        assert len(harness.emitted_tuples()) == 1
        assert pace.late_drops == 1
        assert pace.late_drops_by_port[1] == 1

    def test_feedback_produced_with_watermark_bound(self, schema):
        pace = self.make(schema)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        sent = harness.upstream_feedback(1)
        assert len(sent) == 1
        assert sent[0].is_assumed
        # The paper's bound: everything behind the current high watermark.
        assert sent[0].pattern.matches((10.0, 0))
        assert not sent[0].pattern.matches((10.1, 0))

    def test_feedback_goes_to_lagging_input_only(self, schema):
        pace = self.make(schema)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        assert harness.upstream_feedback(0) == []
        assert len(harness.upstream_feedback(1)) == 1

    def test_no_feedback_when_disabled(self, schema):
        pace = self.make(schema, feedback_enabled=False)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        assert harness.upstream_feedback(1) == []
        assert pace.late_drops == 1  # policy still enforced

    def test_assumed_bound_drops_stragglers_without_new_feedback(self, schema):
        pace = self.make(schema)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)   # triggers ¬[ts<=10]
        assert pace.metrics.feedback_produced == 1
        harness.push(tup(schema, 9.0), port=1)   # behind assumed bound
        assert pace.metrics.feedback_produced == 1  # no escalation
        assert pace.late_drops == 2

    def test_assumed_progress_punctuation_emitted(self, schema):
        pace = self.make(schema)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        puncts = harness.emitted_punctuation()
        assert len(puncts) == 1
        assert puncts[0].covers(tup(schema, 9.9))

    def test_feedback_interval_rate_limits(self, schema):
        pace = self.make(schema, feedback_interval=100.0)
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        harness.push(tup(schema, 20.0), port=0)
        harness.push(tup(schema, 5.0), port=1)  # late again, bound +10 only
        assert pace.metrics.feedback_produced == 1

    def test_tolerance_policy_declares_smaller_region(self, schema):
        pace = self.make(schema, feedback_bound="tolerance")
        harness = OperatorHarness(pace)
        harness.push(tup(schema, 10.0), port=0)
        harness.push(tup(schema, 4.0), port=1)
        sent = harness.upstream_feedback(1)
        assert sent[0].pattern.matches((5.0, 0))
        assert not sent[0].pattern.matches((6.0, 0))

    def test_invalid_bound_policy_rejected(self, schema):
        with pytest.raises(ValueError):
            self.make(schema, feedback_bound="nonsense")


class TestBatchParity:
    """Page-boundary invariance for Union/Duplicate: a page of N must
    match the same elements as pages of one."""

    def elements(self, schema):
        data = [tup(schema, float(i), seg=i % 3) for i in range(20)]
        punct = Punctuation.up_to(schema, "ts", 10.0)
        return data[:10] + [punct] + data[10:]

    def test_union_page_matches_elements(self, schema):
        batched = Union("u_batch", schema, arity=2)
        h_batch = OperatorHarness(batched)
        elementwise = Union("u_elem", schema, arity=2)
        h_elem = OperatorHarness(elementwise)

        page = self.elements(schema)
        batched.process_page(0, page)
        for element in page:
            elementwise.process_page(0, [element])

        assert (
            [t.values for t in h_batch.emitted_tuples()]
            == [t.values for t in h_elem.emitted_tuples()]
        )
        assert batched.metrics.tuples_in == elementwise.metrics.tuples_in
        assert batched.metrics.tuples_out == elementwise.metrics.tuples_out
        assert (
            batched.metrics.punctuations_in
            == elementwise.metrics.punctuations_in
        )
        assert batched.metrics.pages_batched == 1

    def test_union_batch_respects_input_guards(self, schema):
        batched = Union("u_batch", schema, arity=2)
        h_batch = OperatorHarness(batched)
        elementwise = Union("u_elem", schema, arity=2)
        h_elem = OperatorHarness(elementwise)
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"seg": 1})
        )
        for union in (batched, elementwise):
            union.input_port(0).guards.install(fb.pattern, origin=fb, at=0.0)

        page = self.elements(schema)
        batched.process_page(0, page)
        for element in page:
            elementwise.process_page(0, [element])

        assert (
            [t.values for t in h_batch.emitted_tuples()]
            == [t.values for t in h_elem.emitted_tuples()]
        )
        assert (
            batched.metrics.input_guard_drops
            == elementwise.metrics.input_guard_drops
            > 0
        )

    def test_duplicate_page_matches_elements(self, schema):
        batched = Duplicate("d_batch", schema)
        h_batch = OperatorHarness(batched, outputs=2)
        elementwise = Duplicate("d_elem", schema)
        h_elem = OperatorHarness(elementwise, outputs=2)

        page = self.elements(schema)
        batched.process_page(0, page)
        for element in page:
            elementwise.process_page(0, [element])

        for output in (0, 1):
            assert (
                [t.values for t in h_batch.emitted_tuples(output=output)]
                == [t.values for t in h_elem.emitted_tuples(output=output)]
            )
        assert batched.metrics.tuples_out == elementwise.metrics.tuples_out
        assert batched.metrics.pages_batched == 1

    def test_pace_subclass_keeps_elementwise_semantics(self, schema):
        """PACE judges tuple by tuple inside a page (its own on_page, not
        the Union's bulk forward)."""
        pace = Pace(
            "pace", schema, timestamp_attribute="ts", tolerance=1.0,
        )
        harness = OperatorHarness(pace)
        page = [tup(schema, 10.0), tup(schema, 0.5)]  # second is deep-late
        pace.process_page(0, page)
        assert len(harness.emitted_tuples()) == 1
        assert pace.late_drops == 1
