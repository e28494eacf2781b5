"""Unit tests for PriorityBuffer, sources and sinks."""

import pytest

from repro.core import ExploitAction, FeedbackPunctuation
from repro.engine.harness import OperatorHarness
from repro.errors import WorkloadError
from repro.operators import (
    CollectSink,
    GeneratorSource,
    ListSource,
    OnDemandSink,
    PriorityBuffer,
    PunctuatedSource,
)
from repro.punctuation import Pattern, Punctuation
from repro.stream import Schema, StreamTuple


@pytest.fixture
def schema():
    return Schema([("ts", "timestamp", True), ("seg", "int")])


def tup(schema, ts, seg=0):
    return StreamTuple(schema, (ts, seg))


class TestPriorityBuffer:
    def test_fifo_below_capacity_holds(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=10)
        harness = OperatorHarness(buffer)
        harness.push(tup(schema, 1.0))
        assert harness.emitted_tuples() == []  # held

    def test_capacity_forces_release_in_order(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=3)
        harness = OperatorHarness(buffer)
        for i in range(5):
            harness.push(tup(schema, float(i)))
        out = harness.emitted_tuples()
        assert [t["ts"] for t in out] == [0.0, 1.0, 2.0]

    def test_desired_feedback_jumps_queue(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=100)
        harness = OperatorHarness(buffer)
        for i in range(5):
            harness.push(tup(schema, float(i), seg=i))
        actions = harness.feedback(
            FeedbackPunctuation.desired(
                Pattern.from_mapping(schema, {"seg": 3})
            )
        )
        # Prioritised locally and relayed upstream (desired feedback is
        # always safe to relay: it cannot change any result).
        assert ExploitAction.PRIORITIZE in actions
        assert ExploitAction.PROPAGATE in actions
        out = harness.emitted_tuples()
        assert [t["seg"] for t in out] == [3]
        assert buffer.priority_releases == 1

    def test_desire_guides_future_releases(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=3)
        harness = OperatorHarness(buffer)
        harness.feedback(
            FeedbackPunctuation.desired(
                Pattern.from_mapping(schema, {"seg": 9})
            )
        )
        harness.push(tup(schema, 0.0, seg=1))
        harness.push(tup(schema, 1.0, seg=9))
        harness.push(tup(schema, 2.0, seg=2))  # hits capacity -> release
        out = harness.emitted_tuples()
        assert [t["seg"] for t in out] == [9]  # the desired one, not FIFO

    def test_punctuation_flushes_covered_pending(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=100)
        harness = OperatorHarness(buffer)
        harness.push(tup(schema, 1.0))
        harness.push(tup(schema, 20.0))
        harness.push_punctuation(Punctuation.up_to(schema, "ts", 5.0))
        out = harness.emitted_tuples()
        assert [t["ts"] for t in out] == [1.0]
        assert len(harness.emitted_punctuation()) == 1

    def test_assumed_feedback_purges_pending(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=100)
        harness = OperatorHarness(buffer)
        harness.push(tup(schema, 1.0, seg=1))
        harness.push(tup(schema, 2.0, seg=2))
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(schema, {"seg": 1})
            )
        )
        harness.finish()
        assert [t["seg"] for t in harness.emitted_tuples()] == [2]

    def test_finish_drains(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=100)
        harness = OperatorHarness(buffer)
        harness.push(tup(schema, 1.0))
        harness.finish()
        assert len(harness.emitted_tuples()) == 1

    def test_max_desires_bounded(self, schema):
        buffer = PriorityBuffer("buf", schema, capacity=10, max_desires=2)
        harness = OperatorHarness(buffer)
        for seg in range(5):
            harness.feedback(
                FeedbackPunctuation.desired(
                    Pattern.from_mapping(schema, {"seg": seg})
                )
            )
        assert len(buffer._desires) == 2

    def test_bad_capacity(self, schema):
        with pytest.raises(ValueError):
            PriorityBuffer("buf", schema, capacity=0)


class TestSources:
    def test_list_source_replays_in_order(self, schema):
        timeline = [(0.0, tup(schema, 0.0)), (1.0, tup(schema, 1.0))]
        source = ListSource("src", schema, timeline)
        assert list(source.events()) == timeline

    def test_list_source_rejects_decreasing_times(self, schema):
        with pytest.raises(WorkloadError):
            ListSource("src", schema, [
                (1.0, tup(schema, 1.0)), (0.0, tup(schema, 0.0)),
            ])

    def test_generator_source_is_lazy(self, schema):
        calls = []

        def factory():
            calls.append(1)
            yield (0.0, tup(schema, 0.0))

        source = GeneratorSource("src", schema, factory)
        assert calls == []
        assert len(list(source.events())) == 1
        assert calls == [1]

    def test_punctuated_source_interleaves_progress(self, schema):
        timeline = [(float(i), tup(schema, float(i))) for i in range(25)]
        source = PunctuatedSource(
            "src", schema, timeline,
            punctuate_on="ts", punctuation_interval=10.0,
        )
        events = list(source.events())
        puncts = [e for _, e in events if e.is_punctuation]
        # Boundaries at 10 and 20, plus the final all-covering punctuation.
        assert len(puncts) == 3
        assert puncts[-1].pattern.is_all_wildcard

    def test_source_output_guard_suppresses_production(self, schema):
        source = ListSource("src", schema, [])
        harness = OperatorHarness(source)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(schema, {"seg": 1})
            )
        )
        assert not source.emit(tup(schema, 0.0, seg=1))
        assert source.emit(tup(schema, 0.0, seg=2))
        assert source.metrics.output_guard_drops == 1


class TestSinks:
    def test_collect_sink_records_results_and_times(self, schema):
        sink = CollectSink("sink", schema)
        harness = OperatorHarness(sink, outputs=0)
        harness.tick(3.0)
        sink.process_page(0, [tup(schema, 1.0)])
        assert len(sink) == 1
        assert sink.arrivals[0][0] == 3.0

    def test_collect_sink_punctuation_kept_when_asked(self, schema):
        sink = CollectSink("sink", schema, keep_punctuation=True)
        OperatorHarness(sink, outputs=0)
        sink.process_page(0, [Punctuation.up_to(schema, "ts", 1.0)])
        assert len(sink.punctuations) == 1

    def test_on_demand_sink_poll_sends_result_request(self, schema):
        sink = OnDemandSink("client", schema)
        harness = OperatorHarness(sink, outputs=0)
        sink.poll()
        control = harness._in_controls[0]
        message = control.receive_upstream()
        assert message is not None
        assert message.kind.value == "result_request"
        assert sink.polls == 1

    def test_on_demand_sink_demand_sends_demanded_feedback(self, schema):
        sink = OnDemandSink("client", schema)
        harness = OperatorHarness(sink, outputs=0)
        sink.demand(Pattern.from_mapping(schema, {"seg": 1}))
        sent = harness.upstream_feedback(0)
        assert len(sent) == 1 and sent[0].is_demanded
        assert sink.demands == 1
