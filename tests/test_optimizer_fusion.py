"""Optimizer unit tests: rewrite primitives, pass mechanics, rendering.

The differential harness (``tests/test_optimizer_equivalence.py``)
proves whole-plan equivalence; this file pins the pieces: the
``QueryPlan`` rewrite API, the fusibility criteria and recorded
declines, guard pushdown and projection pruning in isolation, composite
construction errors, and honest ``describe()``/``to_dot()`` rendering
(including the ``(cap=N)`` queue-configuration regression).
"""

from __future__ import annotations

import pytest

from repro import (
    Flow,
    FusedOperator,
    Pattern,
    QueryPlan,
    Schema,
    Select,
    StreamTuple,
)
from repro.errors import PlanError
from repro.operators import ListSource, PassThrough, Project
from repro.optimizer import OptimizationReport, optimize
from repro.optimizer.fusion import fusible_reason, shard_bound_names
from repro.optimizer.pruning import prune_projections
from repro.optimizer.pushdown import push_guards

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])


def rows(n=40):
    return [
        (i * 0.1, StreamTuple(SCHEMA, (i * 0.1, i % 4, float(i))))
        for i in range(n)
    ]


def chain_flow():
    flow = Flow("unit")
    (
        flow.source(SCHEMA, rows(), name="src")
        .punctuate(on="ts", every=1.0)
        .where(lambda t: t["sensor"] != 3, name="keep")
        .extend([("double", "float")], lambda t: (t["value"] * 2,),
                name="ext")
        .where(lambda t: t["double"] >= 0.0, name="clip")
        .collect("sink")
    )
    return flow


def pushdown(plan):
    """Guard pushdown alone."""
    report = OptimizationReport()
    push_guards(plan, report)
    return report


def prune(plan):
    """Projection pruning alone."""
    report = OptimizationReport()
    prune_projections(plan, report)
    return report


class TestRewritePrimitives:
    def build(self):
        plan = QueryPlan("rw")
        src = plan.add(ListSource("src", SCHEMA, rows()))
        mid = plan.add(PassThrough("mid", SCHEMA))
        sink_flow = plan.add(PassThrough("tail", SCHEMA))
        e1 = plan.connect(src, mid, capacity=16, page_size=8)
        e2 = plan.connect(mid, sink_flow)
        return plan, src, mid, sink_flow, e1, e2

    def test_disconnect_frees_both_endpoints(self):
        plan, src, mid, _, e1, _ = self.build()
        plan.disconnect(e1)
        assert e1 not in src.outputs
        assert mid.inputs[0] is None
        assert e1 not in plan.edges

    def test_disconnect_unknown_edge_rejected(self):
        plan, *_, e1, _ = self.build()
        plan.disconnect(e1)
        with pytest.raises(PlanError):
            plan.disconnect(e1)

    def test_remove_operator_requires_full_unwiring(self):
        plan, _, mid, _, e1, e2 = self.build()
        with pytest.raises(PlanError):
            plan.remove_operator("mid")
        plan.disconnect(e1)
        with pytest.raises(PlanError):
            plan.remove_operator("mid")
        plan.disconnect(e2)
        assert plan.remove_operator("mid") is mid
        assert "mid" not in [op.name for op in plan]

    def test_connect_like_carries_queue_configuration(self):
        plan, src, _, tail, e1, e2 = self.build()
        plan.disconnect(e1)
        plan.disconnect(e2)
        plan.remove_operator("mid")
        new_edge = plan.connect_like(src, tail, e1)
        assert new_edge.queue.capacity == 16
        assert new_edge.queue.low_water == 8
        assert new_edge.queue.page_size == 8

    def test_connect_like_unbounded_edge_stays_unbounded(self):
        plan, src, _, tail, e1, e2 = self.build()
        plan.disconnect(e1)
        plan.disconnect(e2)
        plan.remove_operator("mid")
        new_edge = plan.connect_like(src, tail, e2)
        assert new_edge.queue.capacity is None

    def test_producer_of(self):
        plan, src, mid, _, e1, e2 = self.build()
        assert plan.producer_of(e1) is src
        assert plan.producer_of(e2) is mid


class TestFusibilityCriteria:
    def test_reasons(self):
        plan = chain_flow().build()
        shard_bound = shard_bound_names(plan)
        reasons = {
            op.name: fusible_reason(op, shard_bound) for op in plan
        }
        assert reasons["keep"] is None
        assert reasons["ext"] is None
        assert reasons["clip"] is None
        assert reasons["src"] == "source"
        assert "Sink" in reasons["sink"]

    def test_metered_stage_declines(self):
        flow = Flow("metered")
        (
            flow.source(SCHEMA, rows(), name="src")
            .where(lambda t: True, name="a", tuple_cost=0.001)
            .where(lambda t: True, name="b")
            .collect("sink")
        )
        plan = flow.build()
        report = optimize(plan)
        assert report.fused == []
        assert ("a", "cost-metered (virtual-time charging is per operator)"
                ) in report.declined

    def test_fanout_breaks_the_chain(self):
        """A split in the middle of a stateless run keeps the branch
        point materialized; only unary segments fuse."""
        flow = Flow("fanout")
        stem = (
            flow.source(SCHEMA, rows(), name="src")
            .where(lambda t: True, name="a")
            .extend([("d", "float")], lambda t: (t["value"],), name="b")
        )
        left, right = stem.split(2)
        left.where(lambda t: t["sensor"] == 0, name="l").collect("ls")
        right.where(lambda t: t["sensor"] != 0, name="r").collect("rs")
        plan = flow.build()
        report = optimize(plan)
        assert [name for name, _ in report.fused] == ["a+b"]

    def test_fused_composite_is_not_refused(self):
        """optimize() is idempotent: a second run leaves the plan alone."""
        plan = chain_flow().build()
        first = optimize(plan)
        assert first.changed
        second = optimize(plan)
        assert not second.changed
        assert any(
            "keep+ext+clip" == name and "stateful" in reason
            for name, reason in second.declined
        )


class TestCompositeConstruction:
    def unwired(self):
        return [
            Select("a", SCHEMA, lambda t: True),
            PassThrough("b", SCHEMA),
        ]

    def test_needs_two_stages(self):
        with pytest.raises(PlanError, match="at least two"):
            FusedOperator(self.unwired()[:1])

    def test_rejects_wired_stages(self):
        plan = QueryPlan("wired")
        a, b = (plan.add(op) for op in self.unwired())
        plan.connect(a, b)
        with pytest.raises(PlanError, match="still wired"):
            FusedOperator([a, b])

    def test_name_and_schema(self):
        fused = FusedOperator(self.unwired())
        assert fused.name == "a+b"
        assert fused.stage_names == ("a", "b")
        assert fused.output_schema == SCHEMA

    def test_composite_is_not_checkpoint_capable(self):
        """Stages are stateless, so the composite must not advertise
        snapshot state -- epoch completion skips it accordingly."""
        from repro.engine.plan import checkpoint_capable

        assert not checkpoint_capable(FusedOperator)


class TestPushdownUnit:
    def test_select_pushed_past_extend(self):
        flow = Flow("push")
        (
            flow.source(SCHEMA, rows(), name="src")
            .extend([("double", "float")], lambda t: (t["value"] * 2,),
                    name="ext")
            .where(Pattern.from_mapping(
                SCHEMA.concat(Schema([("double", "float")])),
                {"sensor": 1},
            ), name="guard")
            .collect("sink")
        )
        plan = flow.build()
        report = pushdown(plan)
        assert report.pushed == [("guard", "ext")]
        guard = plan.operator("guard")
        # The rebuilt guard now reads the *source* schema and feeds ext.
        assert guard.output_schema == SCHEMA
        assert plan.operator("ext").inputs[0].producer is guard

    def test_callable_select_stays_put(self):
        plan = chain_flow().build()
        report = pushdown(plan)
        assert report.pushed == []

    def test_pattern_on_derived_attribute_stays_put(self):
        """A guard constraining an attribute the upstream stage computes
        cannot move above it."""
        flow = Flow("derived")
        out_schema = SCHEMA.concat(Schema([("double", "float")]))
        (
            flow.source(SCHEMA, rows(), name="src")
            .extend([("double", "float")], lambda t: (t["value"] * 2,),
                    name="ext")
            .where(Pattern.from_mapping(out_schema, {"double": 4.0}),
                   name="guard")
            .collect("sink")
        )
        plan = flow.build()
        report = pushdown(plan)
        assert report.pushed == []

    def test_two_constraints_on_one_origin_intersect(self):
        """``a <- x``, ``b <- x``: a guard on both ``a`` and ``b`` pushed
        above the MAP constrains ``x`` by both ranges, not the last one."""
        from repro import CollectSink, Interval, Map, SchemaMapping, Simulator
        from repro.stream import AttributeOrigin

        x_schema = Schema([("x", "int")])
        ab_schema = Schema([("a", "int"), ("b", "int")])
        guard = Pattern.from_mapping(
            ab_schema, {"a": Interval(0, 5), "b": Interval(3, 10)}
        )

        def delivered(optimized):
            plan = QueryPlan("same-origin")
            source = plan.add(ListSource("src", x_schema, [
                (float(x), StreamTuple(x_schema, (x,))) for x in range(12)
            ]))
            twice = Map("twice", SchemaMapping(ab_schema, (x_schema,), {
                "a": (AttributeOrigin(0, "x"),),
                "b": (AttributeOrigin(0, "x"),),
            }), lambda t: StreamTuple(ab_schema, (t["x"], t["x"])))
            sink = CollectSink("sink", ab_schema)
            plan.chain(source, twice, Select("guard", ab_schema, guard),
                       sink)
            if optimized:
                assert pushdown(plan).pushed == [("guard", "twice")]
            Simulator(plan).run()
            return sorted(t["a"] for t in sink.results)

        assert delivered(False) == [3, 4, 5]
        assert delivered(True) == [3, 4, 5]


class TestPruningUnit:
    def test_adjacent_projections_compose(self):
        flow = Flow("prune")
        (
            flow.source(SCHEMA, rows(), name="src")
            .select("ts", "sensor", "value")
            .select("ts", "value", name="narrow")
            .collect("sink")
        )
        plan = flow.build()
        report = prune(plan)
        assert report.pruned  # at least one projection went away
        narrow = plan.operator("narrow")
        assert isinstance(narrow, Project)
        assert narrow.output_schema.names == ("ts", "value")
        # And it now reads the source schema directly.
        assert narrow.inputs[0].producer.name == "src"

    def test_identity_projection_eliminated(self):
        flow = Flow("identity")
        (
            flow.source(SCHEMA, rows(), name="src")
            .select("ts", "sensor", "value", name="noop")
            .where(lambda t: True, name="keep")
            .collect("sink")
        )
        plan = flow.build()
        report = prune(plan)
        assert "noop" in report.pruned
        assert "noop" not in [op.name for op in plan]


class TestRendering:
    def test_describe_shows_fused_trailer(self):
        plan = chain_flow().build()
        optimize(plan)
        text = plan.describe()
        assert "keep+ext+clip" in text
        assert "fused 'keep+ext+clip': keep (Select) -> ext (Map) " \
               "-> clip (Select)" in text

    def test_dot_renders_cluster_with_stage_nodes(self):
        plan = chain_flow().build()
        optimize(plan)
        dot = plan.to_dot()
        assert "cluster_fused_0" in dot
        assert '"keep+ext+clip::keep"' in dot
        assert '"keep+ext+clip::clip"' in dot
        # External edges attach to the head/tail stage nodes, never to a
        # bare composite node.
        assert '"src" -> "keep+ext+clip::keep"' in dot
        assert '"keep+ext+clip::clip" -> "sink"' in dot
        assert '"keep+ext+clip" ->' not in dot

    def test_capacity_label_survives_fusion(self):
        """Regression: per-edge queue configuration must be carried
        through optimizer rewrites and keep rendering as ``(cap=N)``."""
        flow = Flow("cap")
        (
            flow.source(SCHEMA, rows(), name="src")
            .where(lambda t: True, name="a", queue_capacity=64)
            .where(lambda t: True, name="b", queue_capacity=64)
            .collect("sink")
        )
        plan = flow.build()
        assert "(cap=64)" in plan.describe()
        optimize(plan)
        text = plan.describe()
        assert "a+b" in text
        assert "(cap=64)" in text
        feed = plan.operator("a+b").inputs[0]
        assert feed.queue.capacity == 64
