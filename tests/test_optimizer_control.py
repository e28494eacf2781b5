"""Control plane under fusion: explicit regressions.

The equivalence harness proves behaviour statistically; this suite pins
the specific control-plane interactions the ISSUE names: pause/resume
watermarks through a fused composite, cross-shard feedback broadcast
with ``optimize=True``, and checkpoint marker alignment (epoch
completion requires state under the composite's *own* name).
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro import (
    FeedbackIntent,
    FeedbackPunctuation,
    Flow,
    FusedOperator,
    Pattern,
    Schema,
    StreamTuple,
)
from repro.durability import MemoryCheckpointStore
from repro.engine import engine_factory
from repro.optimizer import optimize

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])

ENGINES = ["simulated", "threaded", "asyncio"]


def rows(n=400, dt=0.01):
    return [
        (i * dt, StreamTuple(SCHEMA, (i * dt, i % 4, float(i))))
        for i in range(n)
    ]


def chain_flow(n=400, *, keep_punctuation=False):
    """source -> where -> extend -> where: a 3-stage fusible chain."""
    flow = Flow("control")
    (
        flow.source(SCHEMA, rows(n), name="src")
        .punctuate(on="ts", every=0.5)
        .where(lambda t: t["sensor"] != 3, name="keep")
        .extend([("double", "float")], lambda t: (t["value"] * 2,),
                name="ext")
        .where(lambda t: t["double"] >= 0.0, name="clip")
        .collect("sink", keep_punctuation=keep_punctuation)
    )
    return flow


def data(result):
    return Counter(tuple(t.values) for t in result.sink("sink").results)


class TestPauseResumeThroughFusion:
    """Bounded queues pause and resume the composite as one unit."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_watermark_parity_and_bounded_peak(self, engine):
        base = chain_flow().run(engine, queue_capacity=32)
        opt = chain_flow().run(engine, queue_capacity=32, optimize=True)
        assert data(base) == data(opt)
        # The fused plan's queues are bounded and actually exercised:
        # occupancy stays near the watermark instead of absorbing the
        # whole burst, so backpressure survived the rewrite.
        for key, queue in opt.metrics.queue_metrics.items():
            assert queue.capacity == 32, key
            assert queue.peak_occupancy <= 32 + 64, key  # cap + one page

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_operator_received_the_pauses(self, engine):
        """The sink takes no page until its producer -- the composite --
        has been paused, so the cap-32 queue between them must fill on
        every engine, however fast the sink would drain it."""

        class GatedSink(engine_factory(engine)):
            gate = threading.Event()

            def is_paused(self, operator):
                if operator.name == "sink" and not self.gate.is_set():
                    return True
                return super().is_paused(operator)

            def _on_paused(self, operator, at):
                super()._on_paused(operator, at)
                sink = self.plan.operator("sink")
                if sink in (edge.consumer for edge in operator.outputs):
                    self.gate.set()
                    self._on_resumed(sink, at)

        plan = chain_flow().build(queue_capacity=32)
        optimize(plan)
        opt = GatedSink(plan).run()
        fused = opt.metrics.operator_metrics["keep+ext+clip"]
        source = opt.metrics.operator_metrics["src"]
        assert fused.pauses_received > 0 and fused.resumes_received > 0
        assert source.pauses_received + fused.pauses_received > 0
        assert source.resumes_received + fused.resumes_received > 0
        assert data(opt) == data(chain_flow().run(engine))


class TestFeedbackThroughFusion:
    def test_feedback_reaches_source_through_composite(self):
        out_schema = SCHEMA.concat(Schema([("double", "float")]))
        feedback = FeedbackPunctuation(
            FeedbackIntent.ASSUMED,
            Pattern.from_mapping(out_schema, {"sensor": 1}),
        )
        base = chain_flow().run(
            "simulated", feedback=[(1.0, "sink", feedback)]
        )
        opt = chain_flow().run(
            "simulated", feedback=[(1.0, "sink", feedback)],
            optimize=True,
        )
        assert data(base) == data(opt)
        for name in ("src",):
            b = base.metrics.operator_metrics[name]
            o = opt.metrics.operator_metrics[name]
            assert b.feedback_received == o.feedback_received > 0
            assert b.output_guard_drops == o.output_guard_drops > 0
        # The composite folded its stages' metrics into the report.
        assert "keep+ext+clip::keep" in opt.metrics.operator_metrics
        stage = opt.metrics.operator_metrics["keep+ext+clip::keep"]
        assert stage.feedback_received > 0

    def test_cross_shard_feedback_broadcast_with_optimize(self):
        """Lane interiors fuse (boundaries stay), the region record is
        rewritten to name the composites, and feedback still broadcasts
        across the region identically."""

        def shard_flow():
            flow = Flow("sharded")
            (
                flow.source(SCHEMA, rows(200, dt=0.05), name="src")
                .punctuate(on="ts", every=1.0)
                .shard(
                    2, key="sensor", name="region",
                    pipeline=lambda lane: lane
                    .where(lambda t: t["value"] >= 0.0)
                    .extend([("double", "float")],
                            lambda t: (t["value"] * 2,)),
                )
                .collect("sink")
            )
            return flow

        plan = shard_flow().build()
        report = optimize(plan)
        assert sorted(name for name, _ in report.fused) == [
            "where+map", "where_2+map_2"
        ]  # one composite per lane interior
        # The boundaries stay materialized (they anchor the region's
        # control plane) and the region record now names the composites.
        reasons = dict(report.declined)
        assert "Partition" in reasons["region"]
        assert "ShardMerge" in reasons["region_merge"]
        region = next(g for g in plan.shard_groups if g.name == "region")
        assert region.lanes == (("where+map",), ("where_2+map_2",))

        out_schema = SCHEMA.concat(Schema([("double", "float")]))
        feedback = FeedbackPunctuation(
            FeedbackIntent.ASSUMED,
            Pattern.from_mapping(out_schema, {"sensor": 1}),
        )
        base = shard_flow().run(
            "simulated", feedback=[(2.0, "sink", feedback)]
        )
        opt = shard_flow().run(
            "simulated", feedback=[(2.0, "sink", feedback)],
            optimize=True,
        )
        assert data(base) == data(opt)
        assert (
            base.metrics.operator_metrics["src"].output_guard_drops
            == opt.metrics.operator_metrics["src"].output_guard_drops
        )


class TestCheckpointsThroughFusion:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_marker_alignment_and_epoch_completion(self, engine):
        store = MemoryCheckpointStore()
        base = chain_flow().run(engine, checkpoint_every=100)
        opt = chain_flow().run(
            engine, checkpoint_every=100, checkpoint_store=store,
            optimize=True,
        )
        assert data(base) == data(opt)
        assert (
            opt.metrics.checkpoint_epochs
            == base.metrics.checkpoint_epochs
            == 4
        )
        # Epoch completion requires state per operator *name*: the
        # composite snapshots under its deterministic fused name.
        assert store.has_state(1, "keep+ext+clip")
        assert store.has_state(1, "sink")

    def test_markers_align_through_fused_union_arms(self):
        """Two fused arms into a union: the union still aligns markers
        arriving through the composites."""

        def union_flow():
            flow = Flow("aligned")
            a = (
                flow.source(SCHEMA, rows(120, dt=0.05), name="a")
                .punctuate(on="ts", every=1.0)
                .where(lambda t: t["sensor"] != 3, name="fa")
                .extend([("tag", "int")], lambda t: (0,), name="ea")
            )
            b = (
                flow.source(SCHEMA, rows(120, dt=0.05), name="b")
                .punctuate(on="ts", every=1.0)
                .where(lambda t: t["sensor"] != 2, name="fb")
                .extend([("tag", "int")], lambda t: (1,), name="eb")
            )
            a.union(b, name="merge").collect("sink")
            return flow

        base = union_flow().run(checkpoint_every=40)
        opt = union_flow().run(checkpoint_every=40, optimize=True)
        assert data(base) == data(opt)
        assert (
            opt.metrics.checkpoint_epochs
            == base.metrics.checkpoint_epochs
            >= 1
        )


class TestCompositeProtocolDirect:
    """FusedOperator unit behaviour that engine runs exercise only
    indirectly."""

    def test_set_now_reaches_stages(self):
        plan = chain_flow().build()
        optimize(plan)
        fused = plan.operator("keep+ext+clip")
        assert isinstance(fused, FusedOperator)
        fused.set_now(42.0)
        assert all(s.now() == 42.0 for s in fused.fused_stages)

    def test_stage_metrics_report(self):
        opt = chain_flow().run(optimize=True)
        fused_plan_metrics = opt.metrics.operator_metrics
        composite = fused_plan_metrics["keep+ext+clip"]
        stages = {
            name: fused_plan_metrics[f"keep+ext+clip::{name}"]
            for name in ("keep", "ext", "clip")
        }
        # Data flowed through every stage, and the composite's own
        # tuples_in matches the head stage's.
        assert composite.tuples_in == stages["keep"].tuples_in > 0
        assert stages["ext"].tuples_in == stages["keep"].tuples_out
        assert stages["clip"].tuples_in == stages["ext"].tuples_out

    def test_feedback_unaware_tail_stops_feedback(self):
        """A composite ending in a feedback-unaware stage ignores
        feedback exactly as the materialized chain would."""
        from repro.operators import PassThrough

        def flow_with_passthrough():
            flow = Flow("pt")
            (
                flow.source(SCHEMA, rows(50, dt=0.05), name="src")
                .punctuate(on="ts", every=1.0)
                .where(lambda t: t["sensor"] != 3, name="keep")
                .apply(lambda: PassThrough("pt", SCHEMA))
                .collect("sink")
            )
            return flow

        feedback = FeedbackPunctuation(
            FeedbackIntent.ASSUMED,
            Pattern.from_mapping(SCHEMA, {"sensor": 1}),
        )
        base = flow_with_passthrough().run(
            "simulated", feedback=[(1.0, "sink", feedback)]
        )
        opt = flow_with_passthrough().run(
            "simulated", feedback=[(1.0, "sink", feedback)],
            optimize=True,
        )
        assert data(base) == data(opt)
        assert (
            base.metrics.operator_metrics["src"].output_guard_drops
            == opt.metrics.operator_metrics["src"].output_guard_drops
            == 0  # the unaware stage stopped the relay in both plans
        )
