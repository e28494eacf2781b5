"""Tests for the AVG and MIN characterizations."""

import pytest

from repro.core import (
    ExploitAction,
    PropagationBehavior,
    aggregate_characterization,
)
from repro.punctuation import AtLeast, AtMost, GreaterThan, LessThan, Pattern
from repro.stream import Schema

OUT = Schema.of("window", "seg", "value")


class TestAvgCharacterization:
    @pytest.fixture
    def char(self):
        return aggregate_characterization(
            "avg", OUT, ["window", "seg"], "value"
        )

    def test_group_feedback_purges(self, char):
        rule = char.classify(Pattern.from_mapping(OUT, {"seg": 1}))
        assert ExploitAction.PURGE_STATE in rule.exploit
        assert rule.propagation is PropagationBehavior.MAPPED

    @pytest.mark.parametrize(
        "atom", [AtLeast(5), AtMost(5), GreaterThan(5), LessThan(5)]
    )
    def test_every_value_shape_is_output_guard_only(self, char, atom):
        rule = char.classify(Pattern.from_mapping(OUT, {"value": atom}))
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
        assert rule.propagation is PropagationBehavior.NONE

    def test_render(self, char):
        assert "AVG" in char.render_table()


class TestMinCharacterization:
    @pytest.fixture
    def char(self):
        return aggregate_characterization(
            "min", OUT, ["window", "seg"], "value"
        )

    @pytest.mark.parametrize("atom", [AtMost(5), LessThan(5)])
    def test_upper_bound_is_certain(self, char, atom):
        rule = char.classify(Pattern.from_mapping(OUT, {"value": atom}))
        assert ExploitAction.PURGE_STATE in rule.exploit
        assert rule.propagation is PropagationBehavior.STATE_DEPENDENT

    @pytest.mark.parametrize("atom", [AtLeast(5), GreaterThan(5)])
    def test_lower_bound_guards_output_only(self, char, atom):
        rule = char.classify(Pattern.from_mapping(OUT, {"value": atom}))
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)

    def test_exact_value_guards_output(self, char):
        rule = char.classify(Pattern.from_mapping(OUT, {"value": 5}))
        assert rule.exploit == (ExploitAction.GUARD_OUTPUT,)
