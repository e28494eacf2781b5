"""Table 1: the characterization of COUNT, rendered and verified live.

The bench (a) prints the machine-readable Table 1 exactly as the paper
lays it out and (b) runs a *conformance* pass: a live windowed COUNT
operator receives feedback from every row's class, and the actions it
takes (state purged? input guarded? output guarded? what was relayed?)
are checked against the table.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ExploitAction,
    FeedbackPunctuation,
    PropagationBehavior,
    aggregate_characterization,
)
from repro.engine.harness import OperatorHarness
from repro.operators import AggregateKind, WindowAggregate
from repro.punctuation import AtLeast, AtMost, GreaterThan, LessThan, Pattern
from repro.stream import Schema, StreamTuple

from conftest import run_once

INPUT_SCHEMA = Schema([
    ("timestamp", "timestamp", True), ("segment", "int"), ("speed", "float"),
])


def make_count() -> WindowAggregate:
    return WindowAggregate(
        "count", INPUT_SCHEMA,
        kind=AggregateKind.COUNT,
        window_attribute="timestamp",
        width=10.0,
        group_by=("segment",),
    )


def seeded_harness(rows: int = 30) -> OperatorHarness:
    """COUNT with live state: three segments, tuples in window 0."""
    count = make_count()
    harness = OperatorHarness(count)
    for i in range(rows):
        harness.push(
            StreamTuple(INPUT_SCHEMA, (float(i % 9), i % 3, 50.0 + i))
        )
    return harness


def test_table1_rendering(report):
    char = aggregate_characterization(
        "count", Schema.of("window", "segment", "count"),
        ["window", "segment"], "count",
    )
    table = char.render_table()
    report.append(table)
    assert "¬[g, *]" in table and "¬[*, >=a]" in table


def test_row1_group_feedback_purges_and_propagates(report):
    """¬[g,*]: remove group from state, guard input, propagate g."""
    harness = seeded_harness()
    count = harness.operator
    out = count.output_schema
    actions = harness.feedback(
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(out, {"window": 0, "segment": 1})
        )
    )
    assert ExploitAction.PURGE_STATE in actions
    assert ExploitAction.GUARD_INPUT in actions
    assert ExploitAction.PROPAGATE in actions
    relayed = harness.upstream_feedback(0)
    assert len(relayed) == 1
    # Propagated "in terms of input schema": window -> timestamp range.
    assert relayed[0].pattern.matches((5.0, 1, 99.0))
    assert not relayed[0].pattern.matches((5.0, 2, 99.0))
    assert not relayed[0].pattern.matches((15.0, 1, 99.0))
    # State for (window 0, segment 1) is gone: its result never appears.
    harness.finish()
    results = harness.emitted_tuples()
    assert not [r for r in results if r["segment"] == 1 and r["window"] == 0]
    report.append("row ¬[g,*]: purge+guard+propagate confirmed")


def test_row2_exact_count_output_guard_only():
    """¬[*,a]: only an output guard; counts may still reach a later."""
    harness = seeded_harness()
    count = harness.operator
    actions = harness.feedback(
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(count.output_schema, {"count": 10})
        )
    )
    assert actions == [ExploitAction.GUARD_OUTPUT]
    assert harness.upstream_feedback(0) == []
    assert harness.input_guard_count() == 0


@pytest.mark.parametrize("atom", [AtLeast(9), GreaterThan(8)])
def test_row3_lower_bound_state_dependent(atom, report):
    """¬[*,>=a]: purge certain groups G, guard input (G), propagate G."""
    harness = seeded_harness(rows=30)  # 10 tuples per segment in window 0
    count = harness.operator
    actions = harness.feedback(
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(count.output_schema, {"count": atom})
        )
    )
    assert ExploitAction.PURGE_STATE in actions
    assert ExploitAction.GUARD_INPUT in actions
    relayed = harness.upstream_feedback(0)
    assert relayed, "G must be propagated in terms of the input schema"
    # A count already >= bound can only grow: its windows were purged and
    # the result is suppressed even if more tuples arrive.
    harness.push(StreamTuple(INPUT_SCHEMA, (1.0, 0, 42.0)))
    harness.finish()
    for result in harness.emitted_tuples():
        assert result["count"] < 9 or not atom.matches(result["count"])
    report.append(f"row ¬[*,{atom!r}]: state-dependent exploitation confirmed")


@pytest.mark.parametrize("atom", [AtMost(100), LessThan(100)])
def test_row4_upper_bound_output_guard_only(atom):
    """¬[*,<=a]: purge would be wrong (count grows); output guard only."""
    harness = seeded_harness()
    count = harness.operator
    actions = harness.feedback(
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(count.output_schema, {"count": atom})
        )
    )
    assert actions == [ExploitAction.GUARD_OUTPUT]
    assert harness.input_guard_count() == 0
    # State survives: a count below the bound now could exceed it later,
    # so nothing was purged.
    assert count.metrics.state_purged == 0


def test_table1_classification_agrees_with_characterization():
    """The shape classifier assigns each probe to the right table row."""
    out = Schema.of("window", "segment", "count")
    char = aggregate_characterization(
        "count", out, ["window", "segment"], "count"
    )
    probes = {
        "¬[g, *]": Pattern.from_mapping(out, {"segment": 3}),
        "¬[*, a]": Pattern.from_mapping(out, {"count": 5}),
        "¬[*, >=a] / ¬[*, >a]": Pattern.from_mapping(out, {"count": AtLeast(5)}),
        "¬[*, <=a] / ¬[*, <a]": Pattern.from_mapping(out, {"count": LessThan(5)}),
    }
    for expected_label, pattern in probes.items():
        assert char.classify(pattern).label == expected_label


def test_count_feedback_handling_throughput(benchmark):
    """Micro: cost of one full Table 1 row-3 exploitation on live state."""
    def scenario():
        harness = seeded_harness(rows=60)
        harness.feedback(
            FeedbackPunctuation.assumed(
                Pattern.from_mapping(
                    harness.operator.output_schema, {"count": AtLeast(15)}
                )
            )
        )
        return harness

    run_once(benchmark, scenario)
