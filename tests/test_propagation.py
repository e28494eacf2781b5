"""Unit tests for safe propagation (paper Definition 2 and section 4.2).

The section 4.2 example is reproduced literally: streams A(a, t, id) and
B(t, id, b) equi-joined on (t, id) with output C(a, t, id, b).
"""

import pytest

from repro.core import FeedbackPunctuation, PropagationPlanner
from repro.engine.harness import OperatorHarness
from repro.operators import SymmetricHashJoin
from repro.punctuation import Pattern
from repro.stream import Schema, SchemaMapping


@pytest.fixture
def join_mapping(stream_a_schema, stream_b_schema):
    return SchemaMapping.for_join(
        stream_a_schema, stream_b_schema, [("t", "t"), ("id", "id")]
    )


@pytest.fixture
def planner(join_mapping):
    return PropagationPlanner(join_mapping)


class TestJoinPropagation:
    def test_join_attrs_propagate_to_both_inputs(self, planner):
        # f = ¬[*, 3, 4, *]  ->  ¬[*, 3, 4] to A and ¬[3, 4, *] to B.
        plan = planner.plan(Pattern.build("*", 3, 4, "*"))
        assert set(plan.per_input) == {0, 1}
        assert repr(plan.per_input[0]) == "[*, 3, 4]"
        assert repr(plan.per_input[1]) == "[3, 4, *]"

    def test_left_exclusive_attr_propagates_left_only(self, planner):
        # f = ¬[50, *, *, *]  ->  only ¬[50, *, *] to A.
        plan = planner.plan(Pattern.build(50, "*", "*", "*"))
        assert set(plan.per_input) == {0}
        assert repr(plan.per_input[0]) == "[50, *, *]"

    def test_right_exclusive_attr_propagates_right_only(self, planner):
        plan = planner.plan(Pattern.build("*", "*", "*", 50))
        assert set(plan.per_input) == {1}
        assert repr(plan.per_input[1]) == "[*, *, 50]"

    def test_both_exclusive_sides_has_no_safe_propagation(self, planner):
        # The paper's ¬[50, *, *, 50]: propagating either projection could
        # suppress <49, 2, 3, 50>, which the feedback does not cover.
        plan = planner.plan(Pattern.build(50, "*", "*", 50))
        assert not plan.propagatable
        assert plan.blocked_inputs[0] == "b"
        assert plan.blocked_inputs[1] == "a"

    def test_mixed_join_and_exclusive(self, planner):
        # Constrains a (left-only) and t (join attr): safe only to the left.
        plan = planner.plan(Pattern.build(50, 3, "*", "*"))
        assert set(plan.per_input) == {0}
        assert repr(plan.per_input[0]) == "[50, 3, *]"

    def test_all_wildcard_propagates_nowhere(self, planner):
        assert not planner.plan(Pattern.all_wildcards(4)).propagatable


class TestComputedAttributes:
    def test_computed_attribute_blocks_propagation(self):
        # AVERAGE's output (minute, avg_speed): avg is computed, so feedback
        # on it cannot be mapped upstream (section 3.5's ¬[*, >=50] case).
        out = Schema.of("minute", "avg_speed")
        inp = Schema.of("timestamp", "speed")
        from repro.stream import AttributeOrigin
        mapping = SchemaMapping(
            out, (inp,),
            {"minute": (), "avg_speed": ()},
        )
        planner = PropagationPlanner(mapping)
        from repro.punctuation import AtLeast
        plan = planner.plan(Pattern.build("*", AtLeast(50)))
        assert not plan.propagatable

    def test_inexact_origin_blocks_propagation(self):
        out = Schema.of("scaled")
        inp = Schema.of("raw")
        from repro.stream import AttributeOrigin
        mapping = SchemaMapping(
            out, (inp,),
            {"scaled": (AttributeOrigin(0, "raw", exact=False),)},
        )
        plan = PropagationPlanner(mapping).plan(Pattern.build(5))
        assert not plan.propagatable


class TestSelfJoinCollisions:
    def test_two_output_attrs_mapping_to_one_input_attr_intersect(self):
        # Output (x, y) where both derive exactly from input attr v.
        from repro.stream import AttributeOrigin
        out = Schema.of("x", "y")
        inp = Schema.of("v")
        mapping = SchemaMapping(
            out, (inp,),
            {
                "x": (AttributeOrigin(0, "v"),),
                "y": (AttributeOrigin(0, "v"),),
            },
        )
        planner = PropagationPlanner(mapping)
        plan = planner.plan(Pattern.build(5, 5))
        assert plan.propagatable
        assert plan.per_input[0].matches((5,))
        # Conflicting constraints have empty intersection: nothing to send.
        assert not planner.plan(Pattern.build(5, 6)).propagatable


class TestPropagateWrapper:
    def test_propagate_wraps_feedback(self, stream_a_schema, stream_b_schema):
        """A relay leaves the operator wrapped one hop further upstream,
        with the planner's per-input pattern."""
        join = SymmetricHashJoin(
            "join", stream_a_schema, stream_b_schema,
            on=[("t", "t"), ("id", "id")],
        )
        harness = OperatorHarness(join)
        fb = FeedbackPunctuation.assumed(
            Pattern.build("*", 3, 4, "*"), issuer="sink"
        )
        harness.feedback(fb)
        relayed = {
            port: harness.upstream_feedback(port) for port in (0, 1)
        }
        assert [repr(sub.pattern) for sub in relayed[0]] == ["[*, 3, 4]"]
        assert [repr(sub.pattern) for sub in relayed[1]] == ["[3, 4, *]"]
        for (sub,) in relayed.values():
            assert sub.hops == 1
            assert sub.intent is fb.intent
            assert sub.issuer == "join"
