"""Tables 1-2 against the live operators: one conformance matrix.

For every row of a windowed aggregate's table (COUNT, SUM, AVG, MAX and
MIN on tumbling windows) and of the inner join's Table 2, a pattern of
the row's shape meets a live operator mid-stream, in a state where a
state-dependent row's G is non-empty.  The response must be the row:

* the local actions, ``PROPAGATE`` aside, are the row's exploit set;
* the inputs relayed to are the row's propagation targets (none for a
  ``NONE`` row);
* the output passes Definition 1 against a run without feedback, with
  the upstream honouring what was relayed (the rest of the input loses
  the tuples a relayed pattern matches).

The cases outside the rows -- empty G, group and value constrained at
once, exploit level 1, sliding windows -- each have a test of their own,
and ``TestTheTableDecides`` pins that the operator reads its table.
"""

from dataclasses import replace

import pytest

from repro.core import (
    ExploitAction,
    FeedbackPunctuation,
    PropagationBehavior,
    check_correct_exploitation,
    join_characterization,
)
from repro.core.characterization import ConstraintShape
from repro.engine.harness import OperatorHarness
from repro.operators import AggregateKind, SymmetricHashJoin, WindowAggregate
from repro.punctuation import (
    AtLeast,
    AtMost,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    Pattern,
)
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])

#: Four tumbling windows of width 10, two segments; segment 1 carries two
#: tuples per timestamp, so partial counts differ; values are signed, so
#: a partial SUM or AVG can still cross any bound.
ROWS = [
    StreamTuple(SCHEMA, (float(ts), seg, float((ts * 7 + seg * 5 + rep * 3) % 17) - 8.0))
    for ts in range(40)
    for seg in (0, 1)
    for rep in range(1 + seg)
]


def split(rows):
    """Feedback arrives after the first half of every window, so every
    (window, group) pair is open and partial when it does."""
    return (
        [r for r in rows if r["ts"] % 10 < 5],
        [r for r in rows if r["ts"] % 10 >= 5],
    )


def make_aggregate(kind, **kwargs):
    return WindowAggregate(
        "agg", SCHEMA, kind=kind, window_attribute="ts", width=10.0,
        value_attribute=None if kind == AggregateKind.COUNT else "v",
        group_by=("seg",), **kwargs,
    )


def partials(make):
    """The sorted distinct partial aggregates when feedback arrives."""
    harness = OperatorHarness(make())
    harness.push_all(split(ROWS)[0])
    harness.finish()
    return sorted({r[-1] for r in harness.emitted_tuples()})


def respond(make, pattern, before, after, *, port_of=lambda row: 0):
    """Feed ``before``, deliver ``pattern`` as assumed feedback, feed what
    the upstream still sends of ``after``, finish.

    Returns ``(actions, relayed, output)``: the actions without
    ``PROPAGATE``, the relayed feedback per input, the emitted tuples.
    """
    harness = OperatorHarness(make())
    for row in before:
        harness.push(row, port=port_of(row))
    actions = harness.feedback(FeedbackPunctuation.assumed(pattern))
    inputs = range(harness.operator.n_inputs)
    relayed = {port: harness.upstream_feedback(port) for port in inputs}
    for row in after:
        port = port_of(row)
        if not any(fb.pattern.matches(row) for fb in relayed[port]):
            harness.push(row, port=port)
    harness.finish()
    actions = set(actions) - {ExploitAction.PROPAGATE}
    return actions, relayed, harness.emitted_tuples()


def reference(make, rows, *, port_of=lambda row: 0):
    harness = OperatorHarness(make())
    for row in rows:
        harness.push(row, port=port_of(row))
    harness.finish()
    return harness.emitted_tuples()


def assert_correct(reference_out, out, pattern):
    report = check_correct_exploitation(reference_out, out, pattern)
    assert report.ok, report.summary()


# -- drawing a pattern of a row's shape ------------------------------------------

#: Group-row patterns (``g`` is ANY): the group alone, the window alone,
#: and Experiment 2's viewer (window range and segment set).
GROUP_PATTERNS = {
    "seg": {"seg": 1},
    "window": {"window": 1},
    "viewer": {"window": Interval(0, 1), "seg": InSet({0})},
}


def value_atoms(shape, x):
    """Atoms of one value shape around ``x``, a partial when feedback
    arrives."""
    return {
        ConstraintShape.EXACT: [Equals(x)],
        ConstraintShape.LOWER: [AtLeast(x), GreaterThan(x - 0.5)],
        ConstraintShape.UPPER: [AtMost(x), LessThan(x + 0.5)],
    }[shape]


def aggregate_cases():
    for kind in AggregateKind.ALL:
        agg = make_aggregate(kind)
        for rule in agg.characterization.rules:
            shape = rule.condition.get("a")
            if shape is None:
                for name in GROUP_PATTERNS:
                    yield pytest.param(kind, rule, name, id=f"{kind}-group-{name}")
                continue
            for index in range(len(value_atoms(shape, 0))):
                yield pytest.param(
                    kind, rule, index, id=f"{kind}-{shape.value}-{index}"
                )


def aggregate_pattern(make, rule, which):
    schema = make().output_schema
    shape = rule.condition.get("a")
    if shape is None:
        return Pattern.from_mapping(schema, GROUP_PATTERNS[which])
    values = partials(make)
    atom = value_atoms(shape, values[len(values) // 2])[which]
    return Pattern.from_mapping(schema, {schema[-1].name: atom})


# -- the matrix -------------------------------------------------------------------


class TestAggregateRows:
    @pytest.mark.parametrize("kind,rule,which", list(aggregate_cases()))
    def test_live_response_is_the_row(self, kind, rule, which):
        make = lambda: make_aggregate(kind)  # noqa: E731
        pattern = aggregate_pattern(make, rule, which)
        before, after = split(ROWS)
        actions, relayed, out = respond(make, pattern, before, after)
        assert actions == set(rule.exploit)
        targets = {port for port, sent in relayed.items() if sent}
        assert targets == set(rule.propagation_targets)
        if rule.propagation is PropagationBehavior.NONE:
            assert targets == set()
        assert_correct(reference(make, ROWS), out, pattern)

    def test_every_kind_has_every_row_shape(self):
        labels = {
            kind: [r.label for r in make_aggregate(kind).characterization.rules]
            for kind in AggregateKind.ALL
        }
        assert len({tuple(sorted(v)) for v in labels.values()}) == 1
        assert len(labels["count"]) == 4


LEFT = Schema.of("a", "t", "id")
RIGHT = Schema.of("t", "id", "b")
JOIN_ROWS = [
    StreamTuple(LEFT, (40 + i, i % 4, i % 3)) for i in range(12)
] + [
    StreamTuple(RIGHT, (i % 4, i % 3, 50 + i)) for i in range(12)
]
JOIN_TABLE = join_characterization(
    Schema.of("a", "t", "id", "b"), ["a"], ["t", "id"], ["b"]
)
#: One pattern per Table 2 row, naming tuples stored before feedback.
JOIN_PATTERNS = {
    "¬[*, j∈J, *]": {"t": 1, "id": 1},
    "¬[l∈L, *, *]": {"a": 45},
    "¬[*, *, r∈R]": {"b": 55},
    "¬[l∈L, *, r∈R]": {"a": 49, "b": 50},
}


def make_join():
    return SymmetricHashJoin("join", LEFT, RIGHT, on=[("t", "t"), ("id", "id")])


def join_port(row):
    return 0 if row.schema is LEFT else 1


def interleaved():
    lefts, rights = JOIN_ROWS[:12], JOIN_ROWS[12:]
    return [row for pair in zip(lefts, rights) for row in pair]


class TestJoinRows:
    @pytest.mark.parametrize(
        "rule", JOIN_TABLE.rules,
        ids=["+".join(sorted(r.condition)) for r in JOIN_TABLE.rules],
    )
    def test_live_response_is_the_row(self, rule):
        pattern = Pattern.from_mapping(
            make_join().output_schema, JOIN_PATTERNS[rule.label]
        )
        assert JOIN_TABLE.classify(pattern) is rule
        rows = interleaved()
        actions, relayed, out = respond(
            make_join, pattern, rows[:12], rows[12:], port_of=join_port
        )
        assert actions == set(rule.exploit)
        targets = {port for port, sent in relayed.items() if sent}
        assert targets == set(rule.propagation_targets)
        assert_correct(
            reference(make_join, rows, port_of=join_port), out, pattern
        )

    def test_each_action_is_listed_once(self):
        harness = OperatorHarness(make_join())
        for row in interleaved():
            harness.push(row, port=join_port(row))
        actions = harness.feedback(FeedbackPunctuation.assumed(
            Pattern.from_mapping(harness.operator.output_schema, {"t": 1, "id": 1})
        ))
        assert actions == [
            ExploitAction.PURGE_STATE, ExploitAction.GUARD_INPUT,
            ExploitAction.GUARD_OUTPUT, ExploitAction.PROPAGATE,
        ]


# -- outside the rows: the output guard alone -------------------------------------


CERTAIN_ROWS = [
    (AggregateKind.COUNT, AtLeast),
    (AggregateKind.MAX, AtLeast),
    (AggregateKind.MIN, AtMost),
]


class TestOutputGuardOnly:
    @pytest.mark.parametrize("kind,atom", CERTAIN_ROWS)
    def test_empty_g(self, kind, atom):
        """No partial satisfies the bound yet: nothing is certain."""
        make = lambda: make_aggregate(kind)  # noqa: E731
        values = partials(make)
        beyond = values[-1] + 1 if atom is AtLeast else values[0] - 1
        schema = make().output_schema
        pattern = Pattern.from_mapping(schema, {schema[-1].name: atom(beyond)})
        before, after = split(ROWS)
        actions, relayed, out = respond(make, pattern, before, after)
        assert actions == {ExploitAction.GUARD_OUTPUT}
        assert relayed == {0: []}
        assert_correct(reference(make, ROWS), out, pattern)

    @pytest.mark.parametrize("kind,atom", CERTAIN_ROWS)
    def test_group_and_value_at_once(self, kind, atom):
        make = lambda: make_aggregate(kind)  # noqa: E731
        schema = make().output_schema
        values = partials(make)
        pattern = Pattern.from_mapping(schema, {
            "seg": 1, schema[-1].name: atom(values[len(values) // 2]),
        })
        assert make().characterization.classify_or_none(pattern) is None
        before, after = split(ROWS)
        actions, relayed, out = respond(make, pattern, before, after)
        assert actions == {ExploitAction.GUARD_OUTPUT}
        assert relayed == {0: []}
        assert_correct(reference(make, ROWS), out, pattern)

    @pytest.mark.parametrize("kind,rule,which", list(aggregate_cases()))
    def test_exploit_level_1(self, kind, rule, which):
        make = lambda: make_aggregate(kind, exploit_level=1)  # noqa: E731
        pattern = aggregate_pattern(make, rule, which)
        before, after = split(ROWS)
        actions, _, out = respond(make, pattern, before, after)
        assert actions == {ExploitAction.GUARD_OUTPUT}
        assert_correct(reference(make, ROWS), out, pattern)


class TestSlidingWindows:
    """Example 2: a tuple of a useless window feeds other windows too, so
    sliding windows take the row without its input guard and relay no
    window or pair."""

    @pytest.mark.parametrize(
        "kind,rule,which",
        [
            case for case in aggregate_cases()
            if case.values[2] != "seg"  # a window-free pattern is no window
        ],
    )
    def test_row_without_input_guard(self, kind, rule, which):
        make = lambda: make_aggregate(kind, slide=5.0)  # noqa: E731
        pattern = aggregate_pattern(make, rule, which)
        before, after = split(ROWS)
        actions, relayed, out = respond(make, pattern, before, after)
        if rule.propagation is PropagationBehavior.STATE_DEPENDENT:
            # G differs from the tumbling run; this draw keeps it non-empty.
            assert ExploitAction.PURGE_STATE in actions
        assert actions == set(rule.exploit) - {ExploitAction.GUARD_INPUT}
        assert relayed == {0: []}
        assert_correct(reference(make, ROWS), out, pattern)


# -- the operator reads its table -------------------------------------------------


class TestTheTableDecides:
    def lower_bound_feedback(self, agg):
        name = agg.output_schema[-1].name
        return FeedbackPunctuation.assumed(
            Pattern.from_mapping(agg.output_schema, {name: AtLeast(10)})
        )

    def test_swapped_row_changes_the_response(self):
        agg = make_aggregate(AggregateKind.COUNT)
        rules = agg.characterization.rules
        index = next(
            i for i, r in enumerate(rules)
            if r.propagation is PropagationBehavior.STATE_DEPENDENT
        )
        rules[index] = replace(
            rules[index], exploit=(ExploitAction.GUARD_OUTPUT,),
            propagation=PropagationBehavior.NONE, propagation_targets=(),
        )
        harness = OperatorHarness(agg)
        harness.push_all(split(ROWS)[0])
        actions = harness.feedback(self.lower_bound_feedback(agg))
        assert actions == [ExploitAction.GUARD_OUTPUT]
        assert agg.metrics.state_purged == 0
        assert harness.upstream_feedback(0) == []

    def test_unswapped_row_purges(self):
        agg = make_aggregate(AggregateKind.COUNT)
        harness = OperatorHarness(agg)
        harness.push_all(split(ROWS)[0])
        actions = harness.feedback(self.lower_bound_feedback(agg))
        assert ExploitAction.PURGE_STATE in actions
        assert agg.metrics.state_purged > 0
        assert harness.upstream_feedback(0) != []
