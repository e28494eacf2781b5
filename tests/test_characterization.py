"""Unit tests for the Table 1 / Table 2 characterization encodings."""

import pytest

from repro.core import (
    ConstraintShape,
    ExploitAction,
    PropagationBehavior,
    SchemaPartition,
    aggregate_characterization,
    join_characterization,
)
from repro.errors import FeedbackError
from repro.punctuation import (
    AtLeast,
    AtMost,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    Pattern,
)
from repro.stream import Schema


@pytest.fixture
def count_schema():
    return Schema.of("segment", "cnt")


@pytest.fixture
def count_char(count_schema):
    return aggregate_characterization(
        "count", count_schema, ["segment"], "cnt"
    )


@pytest.fixture
def join_schema():
    # (L, J, R) = (a | t, id | b) from section 4.2.
    return Schema.of("a", "t", "id", "b")


@pytest.fixture
def join_char(join_schema):
    return join_characterization(join_schema, ["a"], ["t", "id"], ["b"])


class TestShapes:
    def test_atom_shapes(self):
        from repro.punctuation import Equals, Interval, WILDCARD
        assert ConstraintShape.of_atom(WILDCARD) is ConstraintShape.NONE
        assert ConstraintShape.of_atom(Equals(3)) is ConstraintShape.EXACT
        assert ConstraintShape.of_atom(InSet({1, 2})) is ConstraintShape.EXACT
        assert ConstraintShape.of_atom(AtLeast(5)) is ConstraintShape.LOWER
        assert ConstraintShape.of_atom(GreaterThan(5)) is ConstraintShape.LOWER
        assert ConstraintShape.of_atom(AtMost(5)) is ConstraintShape.UPPER
        assert ConstraintShape.of_atom(LessThan(5)) is ConstraintShape.UPPER
        assert ConstraintShape.of_atom(Interval(1, 5)) is ConstraintShape.RANGE
        assert ConstraintShape.of_atom(Interval(5, 5)) is ConstraintShape.EXACT

    def test_partition_validation(self, count_schema):
        with pytest.raises(FeedbackError, match="unknown"):
            SchemaPartition(count_schema, {"g": ("nope",), "a": ("cnt",)})
        with pytest.raises(FeedbackError, match="two partition groups"):
            SchemaPartition(
                count_schema, {"g": ("segment",), "a": ("segment", "cnt")}
            )
        with pytest.raises(FeedbackError, match="cover"):
            SchemaPartition(count_schema, {"g": ("segment",)})


class TestTable1Count:
    def test_group_feedback_purges_and_guards(self, count_char, count_schema):
        rule = count_char.classify(
            Pattern.from_mapping(count_schema, {"segment": 5})
        )
        assert rule.label == "¬[g, *]"
        assert ExploitAction.PURGE_STATE in rule.exploit
        assert ExploitAction.GUARD_INPUT in rule.exploit
        assert rule.propagation is PropagationBehavior.MAPPED

    def test_exact_count_guards_output_only(self, count_char, count_schema):
        rule = count_char.classify(
            Pattern.from_mapping(count_schema, {"cnt": 7})
        )
        assert rule.label == "¬[*, a]"
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
        assert rule.propagation is PropagationBehavior.NONE

    @pytest.mark.parametrize("atom", [AtLeast(10), GreaterThan(10)])
    def test_lower_bounded_count_purges_state_dependent(
        self, count_char, count_schema, atom
    ):
        rule = count_char.classify(
            Pattern.from_mapping(count_schema, {"cnt": atom})
        )
        assert rule.label.startswith("¬[*, >=a]")
        assert ExploitAction.PURGE_STATE in rule.exploit
        assert rule.propagation is PropagationBehavior.STATE_DEPENDENT

    @pytest.mark.parametrize("atom", [AtMost(10), LessThan(10)])
    def test_upper_bounded_count_guards_output_only(
        self, count_char, count_schema, atom
    ):
        rule = count_char.classify(
            Pattern.from_mapping(count_schema, {"cnt": atom})
        )
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
        assert rule.propagation is PropagationBehavior.NONE

    def test_set_valued_group_is_exact(self, count_char, count_schema):
        rule = count_char.classify(
            Pattern.from_mapping(count_schema, {"segment": InSet({1, 2})})
        )
        assert rule.label == "¬[g, *]"

    def test_exp2_viewer_pattern_is_the_group_row(self):
        # Experiment 2's viewer: a window range and a segment set, so the
        # group constraint mixes shapes.
        schema = Schema.of("window", "segment", "avg_speed")
        char = aggregate_characterization(
            "avg", schema, ["window", "segment"], "avg_speed"
        )
        rule = char.classify(Pattern.from_mapping(
            schema, {"window": Interval(3, 5), "segment": InSet({1, 2})}
        ))
        assert rule.label == "¬[g, *]"

    def test_unclassifiable_pattern_raises(self, count_char, count_schema):
        # Constraining both g and a at once is not in Table 1.
        pattern = Pattern.from_mapping(
            count_schema, {"segment": 1, "cnt": 2}
        )
        with pytest.raises(FeedbackError):
            count_char.classify(pattern)
        assert count_char.classify_or_none(pattern) is None

    def test_render_contains_all_rows(self, count_char):
        table = count_char.render_table()
        assert "COUNT" in table
        for label in ("¬[g, *]", "¬[*, a]", "¬[*, >=a]", "¬[*, <=a]"):
            assert label in table


class TestTable2Join:
    def test_join_attr_feedback(self, join_char, join_schema):
        rule = join_char.classify(
            Pattern.from_mapping(join_schema, {"t": 3, "id": 4})
        )
        assert rule.label == "¬[*, j∈J, *]"
        assert rule.propagation_targets == (0, 1)
        assert ExploitAction.PURGE_STATE in rule.exploit

    def test_left_only_feedback(self, join_char, join_schema):
        rule = join_char.classify(Pattern.from_mapping(join_schema, {"a": 50}))
        assert rule.label == "¬[l∈L, *, *]"
        assert rule.propagation_targets == (0,)

    def test_right_only_feedback(self, join_char, join_schema):
        rule = join_char.classify(Pattern.from_mapping(join_schema, {"b": 50}))
        assert rule.label == "¬[*, *, r∈R]"
        assert rule.propagation_targets == (1,)

    def test_both_sides_guard_output_no_propagation(
        self, join_char, join_schema
    ):
        rule = join_char.classify(
            Pattern.from_mapping(join_schema, {"a": 50, "b": 50})
        )
        assert rule.label == "¬[l∈L, *, r∈R]"
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
        assert rule.propagation is PropagationBehavior.NONE

    def test_render(self, join_char):
        table = join_char.render_table()
        assert "JOIN" in table and "¬[l∈L, *, r∈R]" in table


class TestMaxAndSum:
    def test_max_lower_bound_closes_windows(self):
        schema = Schema.of("minute", "max_speed")
        char = aggregate_characterization(
            "max", schema, ["minute"], "max_speed"
        )
        rule = char.classify(
            Pattern.from_mapping(schema, {"max_speed": AtLeast(50)})
        )
        assert ExploitAction.PURGE_STATE in rule.exploit
        assert ExploitAction.GUARD_INPUT in rule.exploit

    def test_max_upper_bound_only_guards_output(self):
        schema = Schema.of("minute", "max_speed")
        char = aggregate_characterization(
            "max", schema, ["minute"], "max_speed"
        )
        rule = char.classify(
            Pattern.from_mapping(schema, {"max_speed": AtMost(50)})
        )
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)

    def test_sum_value_feedback_always_output_guard(self):
        schema = Schema.of("minute", "total")
        char = aggregate_characterization(
            "sum", schema, ["minute"], "total"
        )
        for atom in (AtLeast(5), AtMost(5), GreaterThan(5), LessThan(5)):
            rule = char.classify(
                Pattern.from_mapping(schema, {"total": atom})
            )
            assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
            assert rule.propagation is PropagationBehavior.NONE

    def test_unknown_aggregate_has_no_table(self):
        with pytest.raises(FeedbackError, match="median"):
            aggregate_characterization(
                "median", Schema.of("minute", "m"), ["minute"], "m"
            )

    def test_sum_group_feedback_purges(self):
        schema = Schema.of("minute", "total")
        char = aggregate_characterization(
            "sum", schema, ["minute"], "total"
        )
        rule = char.classify(Pattern.from_mapping(schema, {"minute": 9}))
        assert ExploitAction.PURGE_STATE in rule.exploit
