"""Tests for the Operator base-class plumbing and edge cases."""

import pytest

from repro.core import ExploitAction, FeedbackPunctuation
from repro.engine.harness import OperatorHarness
from repro.errors import FeedbackError, PlanError
from repro.operators import Duplicate, ListSource, Select
from repro.operators.base import Operator
from repro.punctuation import Pattern, Punctuation
from repro.stream import (
    ControlChannel,
    DataQueue,
    Schema,
    StreamTuple,
)

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int")])


def tup(ts, seg=0):
    return StreamTuple(SCHEMA, (ts, seg))


class TestWiring:
    def test_empty_name_rejected(self):
        with pytest.raises(PlanError):
            Select("", SCHEMA, lambda t: True)

    def test_port_out_of_range(self):
        op = Select("s", SCHEMA, lambda t: True)
        with pytest.raises(PlanError, match="out of range"):
            op.attach_input(5, DataQueue(), ControlChannel(), None)

    def test_double_connect_rejected(self):
        op = Select("s", SCHEMA, lambda t: True)
        op.attach_input(0, DataQueue(), ControlChannel(), None)
        with pytest.raises(PlanError, match="already connected"):
            op.attach_input(0, DataQueue(), ControlChannel(), None)

    def test_unconnected_port_lookup(self):
        op = Select("s", SCHEMA, lambda t: True)
        with pytest.raises(PlanError, match="not connected"):
            op.input_port(0)
        assert op.connected is False

    def test_source_rejects_tuples(self):
        source = ListSource("src", SCHEMA, [])
        with pytest.raises(PlanError):
            source.on_tuple(0, tup(0))


class TestEmission:
    def test_emit_to_targets_single_output(self):
        dup = Duplicate("d", SCHEMA)
        harness = OperatorHarness(dup, outputs=2)
        dup.emit_to(1, tup(1))
        assert harness.emitted_tuples(output=0) == []
        assert len(harness.emitted_tuples(output=1)) == 1

    def test_emit_counts_once_across_outputs(self):
        dup = Duplicate("d", SCHEMA)
        harness = OperatorHarness(dup, outputs=3)
        harness.push(tup(1))
        assert dup.metrics.tuples_out == 1  # one logical emission

    def test_emit_punctuation_expires_output_guards(self):
        op = Select("s", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        from repro.punctuation import AtMost
        op.output_guards.install(
            Pattern.from_mapping(SCHEMA, {"ts": AtMost(5.0)})
        )
        op.emit_punctuation(Punctuation.up_to(SCHEMA, "ts", 5.0))
        assert op.output_guards.active == 0

    def test_flush_outputs_ships_open_pages(self):
        op = Select("s", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        harness.push(tup(1))
        # The element sits in the open page until flushed.
        queue = op.outputs[0].queue
        assert queue.ready_pages == 0
        op.flush_outputs()
        assert queue.ready_pages == 1


class TestFeedbackPlumbing:
    def test_arity_mismatch_raises(self):
        op = Select("s", SCHEMA, lambda t: True)
        OperatorHarness(op)
        with pytest.raises(FeedbackError, match="arity"):
            op.receive_feedback(
                FeedbackPunctuation.assumed(Pattern.build(1))
            )

    def test_relay_disabled_stops_propagation(self):
        op = Select("s", SCHEMA, lambda t: True)
        op.relay_enabled = False
        harness = OperatorHarness(op)
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(SCHEMA, {"seg": 1})
            )
        )
        assert ExploitAction.PROPAGATE not in actions
        assert harness.upstream_feedback(0) == []

    def test_operator_without_mapping_does_not_relay(self):
        class Opaque(Operator):
            feedback_aware = True

            def on_tuple(self, port_index, t):
                self.emit(t)

        op = Opaque("opaque", SCHEMA)
        harness = OperatorHarness(op)
        actions = harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(SCHEMA, {"seg": 1})
            )
        )
        # Default exploitation (output guard), but nothing to relay.
        assert ExploitAction.GUARD_OUTPUT in actions
        assert harness.upstream_feedback(0) == []

    def test_default_output_guard_is_always_correct(self):
        class Opaque(Operator):
            feedback_aware = True

            def on_tuple(self, port_index, t):
                self.emit(t)

        pattern = Pattern.from_mapping(SCHEMA, {"seg": 1})
        op = Opaque("opaque", SCHEMA)
        harness = OperatorHarness(op)
        harness.feedback(FeedbackPunctuation.assumed(pattern))
        harness.push(tup(0, seg=1))
        harness.push(tup(1, seg=2))
        out = harness.emitted_tuples()
        assert [t["seg"] for t in out] == [2]

    def test_feedback_log_records_events(self):
        op = Select("s", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(SCHEMA, {"seg": 1})
            )
        )
        log = op.runtime.feedback_log
        assert len(log) == 1
        assert log.by_operator("s")
        assert log.with_action(ExploitAction.GUARD_INPUT)

    def test_desired_and_demanded_default_to_noop(self):
        op = Select("s", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        pattern = Pattern.from_mapping(SCHEMA, {"seg": 1})
        desired = harness.feedback(FeedbackPunctuation.desired(pattern))
        demanded = harness.feedback(FeedbackPunctuation.demanded(pattern))
        # Stateless select has nothing to reorder or partially emit, but
        # both are still relayed (they are harmless upstream).
        assert ExploitAction.GUARD_INPUT not in desired
        assert ExploitAction.GUARD_INPUT not in demanded

    def test_guarded_drop_hook_called(self):
        seen = []

        class Watchful(Select):
            def on_guarded_drops(self, port_index, dropped):
                seen.extend(dropped)

        op = Watchful("w", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(SCHEMA, {"seg": 1})
            )
        )
        harness.push(tup(0, seg=1))
        assert seen == [tup(0, seg=1)]

    def test_guards_expired_hook_called(self):
        seen = []

        class Watchful(Select):
            def on_guards_expired(self, port_index, punct, released):
                seen.extend(released)

        from repro.punctuation import AtMost
        op = Watchful("w", SCHEMA, lambda t: True)
        harness = OperatorHarness(op)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(SCHEMA, {"ts": AtMost(5.0)})
            )
        )
        harness.push_punctuation(Punctuation.up_to(SCHEMA, "ts", 10.0))
        assert len(seen) == 1
