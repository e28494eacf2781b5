"""Where feedback leaves an operator: what each intent hook relays.

An operator's intent hook (``on_assumed``, ``on_desired``,
``on_demanded``) returns its local actions and the ``(input, pattern)``
pairs it relays; ``Operator.receive_feedback`` sends them.  The pin below
fixes, for every feedback-aware operator kind, each intent and
``relay_enabled`` on and off, which input receives which pattern.  The
classes after it cover the relays that depend on state or on agreement:
a window aggregate's certain groups, a sliding window's group pattern, a
DUPLICATE's agreed regions and a left-outer join's null-padded side.
"""

import pytest
from test_conformance_matrix import (
    LEFT,
    RIGHT,
    assert_correct,
    interleaved,
    join_port,
    reference,
    respond,
)

from repro.core import ExploitAction, FeedbackPunctuation
from repro.engine.harness import OperatorHarness
from repro.operators import (
    AggregateKind,
    ArchiveDB,
    Duplicate,
    Impute,
    Map,
    Partition,
    PriorityBuffer,
    Project,
    Router,
    Select,
    SymmetricHashJoin,
    Union,
    WindowAggregate,
)
from repro.punctuation import AtLeast, InSet, Pattern
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])
INTENTS = ("assumed", "desired", "demanded")


def aggregate(kind=AggregateKind.COUNT, **kwargs):
    return WindowAggregate(
        "agg", SCHEMA, kind=kind, window_attribute="ts", width=10.0,
        value_attribute=None if kind == AggregateKind.COUNT else "v",
        group_by=("seg",), **kwargs,
    )


def join(how="inner"):
    return SymmetricHashJoin(
        "join", LEFT, RIGHT, on=[("t", "t"), ("id", "id")], how=how
    )


def same(relays):
    """The same relays for every intent."""
    return dict.fromkeys(INTENTS, relays)


def hints(relays):
    """Relays for desired and demanded feedback only."""
    return {"assumed": {}, "desired": relays, "demanded": relays}


#: kind -> (operator factory, output edges, sending output, constraints on
#: the output schema, relays per intent: input -> relayed patterns).
PIN = {
    "select": (
        lambda: Select("op", SCHEMA, lambda t: True), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "project": (
        lambda: Project("op", SCHEMA, ["ts", "seg"]), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "map-carried": (
        lambda: Map.extending(
            "op", SCHEMA, [("w", "float")], lambda t: (t["v"] * 2,)
        ), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "map-computed": (
        lambda: Map.extending(
            "op", SCHEMA, [("w", "float")], lambda t: (t["v"] * 2,)
        ), 1, 0,
        {"w": 4.0}, same({}),
    ),
    "impute": (
        lambda: Impute(
            "op", SCHEMA, ArchiveDB(lambda t: t["seg"], "v"),
            value_attribute="v", lookup_cost=0.0,
        ), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "union": (
        lambda: Union("op", SCHEMA, arity=2), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"], 1: ["[*, 1, *]"]}),
    ),
    # One consumer of two asks: an assumed region waits for agreement, and
    # a demand is not relayed (its partials would reach both consumers).
    "duplicate": (
        lambda: Duplicate("op", SCHEMA), 2, 0,
        {"seg": 1},
        {"assumed": {}, "desired": {0: ["[*, 1, *]"]}, "demanded": {}},
    ),
    # The route of output 0 is seg in {0, 1}: the assumed relay is scoped,
    # and a demand is not relayed (seg=2 partials would reach output 1).
    "router": (
        lambda: Router(
            "op", SCHEMA,
            [
                Pattern.from_mapping(SCHEMA, {"seg": InSet({0, 1})}),
                Pattern.from_mapping(SCHEMA, {"seg": 2}),
            ],
        ), 2, 0,
        {"seg": InSet({1, 2})},
        {
            "assumed": {0: ["[*, in{1}, *]"]},
            "desired": {0: ["[*, in{1,2}, *]"]},
            "demanded": {},
        },
    ),
    # seg=1 routes to lane 1 of two: key-routed from that lane.
    "partition": (
        lambda: Partition("op", SCHEMA, key="seg", fanout=2), 2, 1,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "partition-unrouted": (
        lambda: Partition("op", SCHEMA, key="seg", fanout=2), 2, 1,
        {"v": 1.0}, hints({0: ["[*, *, 1.0]"]}),
    ),
    "priority-buffer": (
        lambda: PriorityBuffer("op", SCHEMA), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "tumbling-window": (
        aggregate, 1, 0,
        {"window": 1, "seg": 1}, same({0: ["[[10.0..20.0), 1, *]"]}),
    ),
    "tumbling-value": (
        aggregate, 1, 0, {"count": AtLeast(3)}, same({}),
    ),
    "sliding-group": (
        lambda: aggregate(slide=5.0), 1, 0,
        {"seg": 1}, same({0: ["[*, 1, *]"]}),
    ),
    "sliding-window": (
        lambda: aggregate(slide=5.0), 1, 0,
        {"window": 1, "seg": 1}, same({}),
    ),
    "inner-join": (
        join, 1, 0,
        {"t": 1, "id": 2}, same({0: ["[*, 1, 2]"], 1: ["[1, 2, *]"]}),
    ),
    "inner-left": (
        join, 1, 0, {"a": 45}, same({0: ["[45, *, *]"]}),
    ),
    "inner-right": (
        join, 1, 0, {"b": 55}, same({1: ["[*, *, 55]"]}),
    ),
    "inner-both-sides": (
        join, 1, 0, {"a": 45, "b": 55}, same({}),
    ),
    "left-outer-join": (
        lambda: join("left_outer"), 1, 0,
        {"t": 1, "id": 2}, same({0: ["[*, 1, 2]"], 1: ["[1, 2, *]"]}),
    ),
    "left-outer-left": (
        lambda: join("left_outer"), 1, 0,
        {"a": 45}, same({0: ["[45, *, *]"]}),
    ),
    "left-outer-right": (
        lambda: join("left_outer"), 1, 0, {"b": 55}, same({}),
    ),
}


def pin_cases():
    for kind in PIN:
        for intent in INTENTS:
            for relay in (True, False):
                yield pytest.param(
                    kind, intent, relay,
                    id=f"{kind}-{intent}-{'relay' if relay else 'quiet'}",
                )


class TestRelayPin:
    @pytest.mark.parametrize("kind,intent,relay", list(pin_cases()))
    def test_who_receives_what(self, kind, intent, relay):
        make, outputs, sender, constraints, expected = PIN[kind]
        op = make()
        op.relay_enabled = relay
        harness = OperatorHarness(op, outputs=outputs)
        pattern = Pattern.from_mapping(op.output_schema, constraints)
        feedback = getattr(FeedbackPunctuation, intent)(pattern)
        actions = harness.feedback(feedback, from_output=sender)
        relayed = {
            port: [repr(sub.pattern) for sub in harness.upstream_feedback(port)]
            for port in range(op.n_inputs)
        }
        want = expected[intent] if relay else {}
        assert {port: sent for port, sent in relayed.items() if sent} == want
        sent = sum(len(patterns) for patterns in want.values())
        assert op.metrics.feedback_relayed == sent
        assert (ExploitAction.PROPAGATE in actions) == bool(sent)
        (event,) = op.runtime.feedback_log.by_operator(op.name)
        assert list(event.actions) == actions


class TestAggregateRelay:
    """A window aggregate's state-dependent relays (Table 1's certain
    rows) leave through the same seam as every other relay."""

    def respond(self, relay, rows):
        agg = aggregate()
        agg.relay_enabled = relay
        harness = OperatorHarness(agg)
        harness.push_all(rows)
        pattern = Pattern.from_mapping(
            agg.output_schema, {"count": AtLeast(3)}
        )
        actions = harness.feedback(FeedbackPunctuation.assumed(pattern))
        return agg, harness, actions

    def five_of_one_segment(self):
        return [StreamTuple(SCHEMA, (float(i), 1, 0.0)) for i in range(5)]

    def test_relay_disabled_sends_nothing(self):
        agg, harness, actions = self.respond(False, self.five_of_one_segment())
        assert harness.upstream_feedback() == []
        assert agg.metrics.feedback_relayed == 0
        assert ExploitAction.PROPAGATE not in actions
        assert ExploitAction.PURGE_STATE in actions

    def test_relay_enabled_logs_propagate(self):
        agg, harness, actions = self.respond(True, self.five_of_one_segment())
        assert ExploitAction.PROPAGATE in actions
        (event,) = agg.runtime.feedback_log.by_operator("agg")
        assert ExploitAction.PROPAGATE in event.actions
        (relayed,) = harness.upstream_feedback()
        assert repr(relayed.pattern) == "[[0.0..10.0), 1, *]"
        assert relayed.hops == 1 and relayed.issuer == "agg"
        assert agg.metrics.feedback_relayed == 1

    def test_at_most_64_pairs_relay(self):
        rows = [
            StreamTuple(SCHEMA, (float(rep), seg, 0.0))
            for seg in range(70) for rep in range(3)
        ]
        agg, harness, actions = self.respond(True, rows)
        assert agg.metrics.feedback_relayed == 64
        assert len(harness.upstream_feedback()) == 64
        assert ExploitAction.PROPAGATE in actions


class TestSlidingGroupPattern:
    """A window-free group pattern translates to the input on any
    window, so a sliding window guards its input with it too."""

    @pytest.mark.parametrize("kind", [AggregateKind.COUNT, AggregateKind.SUM])
    def test_group_pattern_guards_the_input(self, kind):
        make = lambda: aggregate(kind, slide=5.0)  # noqa: E731
        rows = [
            StreamTuple(SCHEMA, (float(ts), seg, float(ts % 7)))
            for ts in range(40) for seg in (0, 1, 2)
        ]
        harness = OperatorHarness(make())
        harness.push_all(rows[:60])
        pattern = Pattern.from_mapping(
            harness.operator.output_schema, {"seg": 1}
        )
        actions = harness.feedback(FeedbackPunctuation.assumed(pattern))
        assert ExploitAction.GUARD_INPUT in actions
        harness.push_all(rows[60:])
        harness.finish()
        assert harness.operator.metrics.input_guard_drops > 0
        assert_correct(reference(make, rows), harness.emitted_tuples(), pattern)


class TestDuplicateAgreement:
    """DUPLICATE enacts and relays every region all consumers agree on."""

    KV = Schema.of("k", "v")

    def test_every_agreed_region_relays(self):
        harness = OperatorHarness(Duplicate("dup", self.KV), outputs=2)
        rows = [StreamTuple(self.KV, (k, k % 4)) for k in range(16)]
        harness.push_all(rows[:8])
        declared = [
            (0, {"v": 1}), (0, {"v": 2}), (1, {"v": InSet({1, 2})}),
        ]
        for output, constraints in declared:
            harness.feedback(
                FeedbackPunctuation.assumed(
                    Pattern.from_mapping(self.KV, constraints)
                ),
                from_output=output,
            )
        relayed = harness.upstream_feedback()
        assert [repr(sub.pattern) for sub in relayed] == ["[*, in{1}]", "[*, in{2}]"]
        harness.push_all(
            [r for r in rows[8:] if not any(
                sub.pattern.matches(r) for sub in relayed
            )]
        )
        harness.finish()
        unneeded = Pattern.from_mapping(self.KV, {"v": InSet({1, 2})})
        for output in (0, 1):
            assert_correct(
                rows, harness.emitted_tuples(output=output), unneeded
            )


class TestLeftOuterExploitation:
    """Definition 1 on a left-outer join, whose right side pads."""

    def test_right_exclusive_pattern_neither_relays_nor_purges(self):
        make = lambda: join("left_outer")  # noqa: E731
        pattern = Pattern.from_mapping(make().output_schema, {"b": 55})
        rows = interleaved()
        actions, relayed, out = respond(
            make, pattern, rows[:12], rows[12:], port_of=join_port
        )
        assert relayed == {0: [], 1: []}
        assert ExploitAction.PURGE_STATE not in actions
        assert_correct(
            reference(make, rows, port_of=join_port), out, pattern
        )

    def test_join_attribute_pattern_relays_to_both_sides(self):
        make = lambda: join("left_outer")  # noqa: E731
        pattern = Pattern.from_mapping(
            make().output_schema, {"t": 1, "id": 1}
        )
        rows = interleaved()
        actions, relayed, out = respond(
            make, pattern, rows[:12], rows[12:], port_of=join_port
        )
        assert [repr(sub.pattern) for sub in relayed[0]] == ["[*, 1, 1]"]
        assert [repr(sub.pattern) for sub in relayed[1]] == ["[1, 1, *]"]
        assert ExploitAction.PURGE_STATE in actions
        assert_correct(
            reference(make, rows, port_of=join_port), out, pattern
        )
