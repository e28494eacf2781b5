"""Partition-parallel sharded plans: data, punctuation, control, metrics.

The shard region (``flow.shard(n, key=...)`` -> ``Partition`` fan-out +
``ShardMerge`` fan-in) must preserve the paper's semantics across the
parallelism boundary:

* sharded and unsharded runs produce the same result **multiset** on both
  engines, and ``n=1`` compiles to a plan byte-identical to unsharded;
* a region punctuation passes the merge only when **every** replica has
  reported it, and then exactly once;
* feedback injected downstream of the merge **broadcasts** to every
  replica and -- once all replicas agree (or the pattern carries the
  partition key: **key routing**) -- crosses the partition toward the
  source;
* backpressure is **per lane**: one congested replica pauses only the
  partitioner's lane to it, not the whole source, until the lane stash
  fills (``stash_limit``) and the pause turns transitive;
* unknown control kinds still forward hop-by-hop through both boundary
  operators;
* routing is one static rule, ``key_digest(key) % fanout``;
* queue metrics key by ``(producer, consumer, port)`` so replicated
  edges report distinctly, and shard groups roll up per lane with a skew
  report.
"""

from __future__ import annotations

from zlib import crc32

import pytest

from repro.api import Flow, avg
from repro.core import FeedbackPunctuation
from repro.engine import QueryPlan, Simulator, fork_available
from repro.engine.harness import OperatorHarness
from repro.errors import FlowError, PlanError, SchemaError
from repro.operators import (
    CollectSink,
    ListSource,
    Partition,
    ShardMerge,
    Union,
)
from repro.operators.partition import key_digest
from repro.punctuation import Pattern, Punctuation
from repro.stream import Schema, StreamTuple
from repro.stream.control import ControlMessage, ControlMessageKind, Direction

SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])

#: The multiprocess engine rides the same parity legs as the in-process
#: engines wherever the plan crosses a shard region -- each lane becomes a
#: worker process, so these tests double as serialization-boundary tests.
MULTIPROCESS = pytest.param(
    "multiprocess",
    marks=pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    ),
)


def tup(ts, k, v):
    return StreamTuple(SCHEMA, (float(ts), k, float(v)))


def timeline(n, keys=7, spacing=0.05):
    return [(i * spacing, tup(i, i % keys, i)) for i in range(n)]


def shard_flow(n, *, tuples=200, lane_cost=None, queue_capacity=None,
               stash_limit=256, punctuate_every=25.0, spacing=0.05,
               shard_queue_capacity=None):
    """source -> punctuate -> shard(n, where+window) -> sink."""
    flow = Flow(f"shard-{n}")

    def pipeline(lane, index):
        cost = 0.0 if lane_cost is None else lane_cost(index)
        return (lane
                .where(lambda t: t["v"] >= 0.0, tuple_cost=cost,
                       queue_capacity=queue_capacity)
                .window(avg("v"), by="k", on="ts", width=punctuate_every))

    (flow.source(SCHEMA, timeline(tuples, spacing=spacing), name="src")
         .punctuate(on="ts", every=punctuate_every)
         .shard(n, key="k", pipeline=pipeline, stash_limit=stash_limit,
                queue_capacity=shard_queue_capacity)
         .collect("sink", keep_punctuation=True))
    return flow


def sink_multiset(result):
    return sorted(tuple(t.values) for t in result.sink("sink").results)


def lanes_by_key(fanout, keys=range(100)):
    """Map lane -> example keys, using Partition's stable hash."""
    probe = Partition("probe", SCHEMA, key="k", fanout=fanout)
    lanes: dict[int, list] = {}
    for k in keys:
        lanes.setdefault(probe.lane_of_key(k), []).append(k)
    return lanes


# ----------------------------------------------------------------- routing


class TestStaticRouting:
    """One routing rule: ``key_digest(key) % fanout``.  Virtual-time
    results and checkpoint restores depend on it byte for byte."""

    @pytest.mark.parametrize("fanout", [2, 4, 16])
    def test_lane_is_the_key_digest_modulo_fanout(self, fanout):
        probe = Partition("probe", SCHEMA, key="k", fanout=fanout)
        for k in range(256):
            lane = probe.lane_of_key(k)
            assert lane == key_digest((k,)) % fanout
            # crc32 over the key's repr: the same lane on every host.
            assert lane == crc32(repr(k).encode("utf-8")) % fanout
            assert probe.lane_of(tup(0, k, 0)) == lane
        assert (
            probe.lane_of_key(1)
            == probe.lane_of_key(1.0)
            == probe.lane_of_key(True)
        )

    @pytest.mark.parametrize("fanout", [2, 4, 16])
    def test_composite_key_digests_the_whole_key(self, fanout):
        probe = Partition("probe", SCHEMA, key=("k", "v"), fanout=fanout)
        for k in range(32):
            for v in (0.0, 1.5, 2.0):
                lane = probe.lane_of(tup(0, k, v))
                assert lane == key_digest((k, v)) % fanout
                assert lane == probe.lane_of_key(k, v)

    @pytest.mark.parametrize("fanout", [2, 4, 16])
    def test_string_keys_route_by_their_repr(self, fanout):
        schema = Schema([("ts", "timestamp", True), ("s", "str")])
        probe = Partition("probe", schema, key="s", fanout=fanout)
        for i in range(64):
            s = f"sensor-{i}"
            lane = probe.lane_of(StreamTuple(schema, (0.0, s)))
            assert lane == crc32(repr(s).encode("utf-8")) % fanout

    @pytest.mark.parametrize("fanout", [2, 3, 4, 8])
    @pytest.mark.parametrize(
        "engine", ["simulated", "threaded", "asyncio", MULTIPROCESS]
    )
    def test_each_lane_sees_exactly_its_own_keys(self, fanout, engine):
        """At run time, on every engine, the lane a tuple is processed in
        is the one the routing rule names, and no tuple is lost."""
        flow = Flow(f"tagged-{fanout}")
        (flow.source(SCHEMA, timeline(120, keys=13), name="src")
             .punctuate(on="ts", every=25.0)
             .shard(fanout, key="k",
                    pipeline=lambda lane, index: lane.extend(
                        [("lane", "int")], lambda t, i=index: (i,)
                    ))
             .collect("sink"))
        rows = [tuple(t.values) for t in flow.run(engine).sink("sink").results]
        assert sorted(row[:3] for row in rows) == sorted(
            tuple(t.values) for _, t in timeline(120, keys=13)
        )
        for _, k, _, lane in rows:
            assert lane == key_digest((k,)) % fanout
        assert len({lane for *_, lane in rows}) == fanout


# ------------------------------------------------------------- equivalence


class TestShardedEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize(
        "engine", ["simulated", "threaded", "asyncio", MULTIPROCESS]
    )
    def test_sharded_matches_unsharded_multiset(self, n, engine):
        base = shard_flow(1).run("simulated")
        sharded = shard_flow(n).run(engine)
        assert sink_multiset(sharded) == sink_multiset(base)

    def test_n1_compiles_byte_identical_to_unsharded(self):
        unsharded = Flow("shard-1")
        (unsharded.source(SCHEMA, timeline(200), name="src")
                  .punctuate(on="ts", every=25.0)
                  .where(lambda t: t["v"] >= 0.0, tuple_cost=0.0)
                  .window(avg("v"), by="k", on="ts", width=25.0)
                  .collect("sink", keep_punctuation=True))
        sharded = shard_flow(1)
        assert sharded.describe() == unsharded.describe()
        assert sharded.describe() == sharded.build().describe()
        left = sharded.run("simulated")
        right = unsharded.run("simulated")
        assert (
            [tuple(t.values) for t in left.sink("sink").results]
            == [tuple(t.values) for t in right.sink("sink").results]
        )

    @pytest.mark.parametrize("n", [2, 4])
    def test_region_punctuation_exactly_once_downstream(self, n):
        base = shard_flow(1).run("simulated")
        sharded = shard_flow(n).run("simulated")
        base_patterns = [p.pattern for p in base.sink("sink").punctuations]
        patterns = [p.pattern for p in sharded.sink("sink").punctuations]
        assert len(patterns) == len(set(patterns))  # exactly once each
        assert set(patterns) == set(base_patterns)  # and none lost

    def test_numerically_equal_keys_route_to_one_lane(self):
        """1, 1.0 and True are one group to an unsharded group-by, so
        they must be one lane to the partitioner (regression: repr-based
        hashing used to split them across replicas)."""
        probe = Partition("probe", SCHEMA, key="k", fanout=4)
        assert (
            probe.lane_of_key(1)
            == probe.lane_of_key(1.0)
            == probe.lane_of_key(True)
        )
        events = [
            (i * 0.01, StreamTuple(SCHEMA, (float(i), k, 1.0)))
            for i, k in enumerate([1, 1.0, 2, 2.0, 1, 2] * 20)
        ]

        def build(n):
            flow = Flow(f"mixed-{n}")
            (flow.source(SCHEMA, events, name="src")
                 .punctuate(on="ts", every=30.0)
                 .shard(n, key="k", pipeline=lambda lane: lane
                        .window(avg("v"), by="k", on="ts", width=30.0))
                 .collect("sink"))
            return flow

        base = build(1).run("simulated")
        sharded = build(4).run("simulated")
        assert sink_multiset(sharded) == sink_multiset(base)

    def test_simulator_runs_are_deterministic(self):
        first = shard_flow(4).run("simulated")
        second = shard_flow(4).run("simulated")
        assert (
            [(time, tuple(tup.values))
             for time, tup in first.sink("sink").arrivals]
            == [(time, tuple(tup.values))
                for time, tup in second.sink("sink").arrivals]
        )


# ------------------------------------------------------------ flow surface


class TestShardFlowSurface:
    def test_describe_and_dot_render_the_region(self):
        flow = shard_flow(2)
        described = flow.describe()
        assert "shard 'shard' x2 by (k): shard -> shard_merge" in described
        assert "lane 0:" in described and "lane 1:" in described
        assert flow.describe() == flow.build().describe()
        dot = flow.to_dot()
        assert "subgraph cluster_shard_0" in dot
        assert flow.to_dot() == flow.build().to_dot()

    def test_shard_group_registered_in_plan(self):
        plan = shard_flow(2).build()
        [group] = plan.shard_groups
        assert group.partition == "shard"
        assert group.merge == "shard_merge"
        assert group.n == 2
        assert group.key == ("k",)
        assert len(group.lanes) == 2
        for lane in group.lanes:
            assert len(lane) == 2  # where + window per replica

    def test_failing_pipeline_leaves_flow_untouched(self):
        flow = Flow("atomic")
        handle = flow.source(SCHEMA, timeline(5), name="src")
        with pytest.raises(FlowError):
            handle.shard(2, key="k", pipeline=lambda lane: lane)
        # The source handle is reusable and the flow has no orphan stages.
        assert [node.name for node in flow._nodes] == ["src"]
        out = handle.shard(
            2, key="k",
            pipeline=lambda lane: lane.where(lambda t: True),
        )
        assert out.name == "shard_merge"

    def test_bad_arguments(self):
        flow = Flow("bad")
        handle = flow.source(SCHEMA, timeline(5), name="src")
        with pytest.raises(FlowError):
            handle.shard(0, key="k", pipeline=lambda lane: lane)
        with pytest.raises(FlowError):
            handle.shard(2, key="k", pipeline="not-callable")
        with pytest.raises(SchemaError):
            handle.shard(2, key="missing",
                         pipeline=lambda lane: lane.where(lambda t: True))
        # Failed attempts left the handle consumable.
        assert [node.name for node in flow._nodes] == ["src"]

    def test_register_shard_group_validates_names(self):
        from repro.engine import ShardGroup

        plan = QueryPlan("p")
        src = ListSource("src", SCHEMA, timeline(1))
        sink = CollectSink("sink", SCHEMA)
        plan.connect(src, sink)
        with pytest.raises(PlanError):
            plan.register_shard_group(
                ShardGroup("g", "ghost", "sink", ("k",), 1, (("src",),))
            )


# --------------------------------------------------------- merge semantics


class TestShardMergeHoldsRegions:
    def drive_merge(self):
        merge = ShardMerge("merge", SCHEMA, arity=2)
        return merge, OperatorHarness(merge)

    def test_region_held_until_every_replica_reports(self):
        merge, harness = self.drive_merge()
        punct = Punctuation(Pattern.from_mapping(SCHEMA, {"ts": 10}))
        harness.push_punctuation(punct, port=0)
        assert harness.emitted_punctuation() == []
        assert merge.regions_held == 1
        harness.push_punctuation(
            Punctuation(Pattern.from_mapping(SCHEMA, {"ts": 10})), port=1
        )
        assert len(harness.emitted_punctuation()) == 1
        assert merge.regions_released == 1

    def test_closed_replica_counts_as_covering(self):
        merge, harness = self.drive_merge()
        port = merge.inputs[1]
        port.done = True
        merge.on_input_done(1)
        harness.push_punctuation(
            Punctuation(Pattern.from_mapping(SCHEMA, {"ts": 10})), port=0
        )
        assert len(harness.emitted_punctuation()) == 1

    def test_tuples_interleave_unheld(self):
        merge, harness = self.drive_merge()
        harness.push(tup(0, 1, 1.0), port=0)
        harness.push(tup(0, 2, 2.0), port=1)
        assert len(harness.emitted_tuples()) == 2

    def test_merge_is_a_union_subclass_with_batch_path(self):
        merge = ShardMerge("merge", SCHEMA, arity=2)
        assert isinstance(merge, Union)
        harness = OperatorHarness(merge)
        harness.push_page([tup(0, 1, 1.0), tup(0, 2, 2.0)], port=0)
        assert len(harness.emitted_tuples()) == 2
        assert merge.metrics.pages_batched == 1


# ----------------------------------------------------- feedback broadcast


class TestFeedbackAcrossShards:
    def test_broadcast_reaches_every_replica_and_the_source(self):
        n = 4
        flow = Flow("fb")

        def pipeline(lane):
            return lane.where(lambda t: True)

        (flow.source(SCHEMA, timeline(400), name="src")
             .shard(n, key="k", pipeline=pipeline)
             .collect("sink"))
        unneeded = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"v": 399.0})
        )
        result = flow.run(
            "simulated", feedback=[(0.0, "sink", unneeded)]
        )
        metrics = result.metrics.operator_metrics
        # The merge relayed the sink's feedback to every replica...
        assert metrics["shard_merge"].feedback_received == 1
        assert metrics["shard_merge"].feedback_relayed == n
        lanes = ["where", "where_2", "where_3", "where_4"]
        for name in lanes:
            assert metrics[name].feedback_received == 1
        # ...each replica relayed it to the partition, which reached
        # agreement across all lanes and relayed once to the source.
        assert metrics["shard"].feedback_received == n
        assert metrics["shard"].feedback_relayed == 1
        assert metrics["src"].feedback_received == 1
        # The source exploited it: the matching tuple never entered the
        # plan (guards installed before the stream drained).
        assert metrics["src"].output_guard_drops >= 1

    def test_key_routed_feedback_enacts_from_one_lane(self):
        partition = Partition("part", SCHEMA, key="k", fanout=2)
        harness = OperatorHarness(partition, outputs=2)
        owner = partition.lane_of_key(5)
        pinned = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": 5, "v": 1.0})
        )
        actions = harness.feedback(pinned, from_output=owner)
        assert actions  # enacted immediately, no agreement round needed
        assert partition.key_routed_feedback == 1
        assert harness.input_guard_count(0) == 1
        [relayed] = harness.upstream_feedback(0)
        assert relayed.pattern.atom_at("k").matches(5)

    def test_unpinned_feedback_waits_for_agreement(self):
        partition = Partition("part", SCHEMA, key="k", fanout=2)
        harness = OperatorHarness(partition, outputs=2)
        broad = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"v": 1.0})  # key unconstrained
        )
        assert harness.feedback(broad, from_output=0) == []
        assert harness.upstream_feedback(0) == []
        assert harness.input_guard_count(0) == 0
        # The sibling lane's matching declaration completes the agreement.
        actions = harness.feedback(broad, from_output=1)
        assert actions
        assert harness.input_guard_count(0) >= 1
        assert len(harness.upstream_feedback(0)) == 1

    def test_feedback_for_foreign_lane_key_is_not_enacted_alone(self):
        partition = Partition("part", SCHEMA, key="k", fanout=2)
        harness = OperatorHarness(partition, outputs=2)
        owner = partition.lane_of_key(5)
        pinned = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": 5})
        )
        # Issued by the lane that can never see key 5: not key-routable.
        assert harness.feedback(pinned, from_output=1 - owner) == []
        assert partition.key_routed_feedback == 0


# ------------------------------------------------------ per-lane pressure


class TestPerLaneBackpressure:
    def test_one_congested_replica_pauses_only_its_lane(self):
        """Burst input, slow lane 0: the pause stops at the partitioner.

        The whole stream lands before the slow replica can drain, so the
        lane queue crosses its high-water mark while the partition still
        has pages to route -- the paused lane's traffic goes to the stash
        while the fast sibling keeps receiving, and the source (whose
        edge is unbounded) never hears a pause.
        """
        flow = shard_flow(
            2, tuples=300, spacing=0.0,
            lane_cost=lambda index: 0.02 if index == 0 else 0.0,
            queue_capacity=8, stash_limit=10_000,
        )
        result = flow.run("simulated")
        metrics = result.metrics.operator_metrics
        partition = result.plan.operator("shard")
        # The slow lane pushed back on the partitioner...
        assert metrics["shard"].pauses_received > 0
        assert partition.tuples_stashed > 0
        assert partition.lane_pauses > 0
        # ...but the partition absorbed it: the source never paused, and
        # the fast sibling still processed its full share.
        assert metrics["src"].pauses_received == 0
        group = result.metrics.shard_metrics["shard"]
        assert all(lane.tuples_in > 0 for lane in group.lanes)
        assert sink_multiset(result) == sink_multiset(
            shard_flow(2, tuples=300).run("simulated")
        )

    def test_full_stash_turns_the_pause_transitive(self):
        """A bounded stash makes partition pressure reach the source.

        Paced input with a bounded source->partition edge: while the
        partition absorbs (large stash) the source never pauses; with a
        tiny stash the partition reports holding_pressure, stops
        draining, and the source edge's own watermark pauses the source.
        """
        def run(stash_limit):
            # The source edge's capacity (64) exceeds the page-flush
            # interval (punctuation every 25 elements), so its watermark
            # can only trip when the partition actually stops draining.
            flow = shard_flow(
                2, tuples=300, spacing=0.005,
                lane_cost=lambda index: 0.05 if index == 0 else 0.0,
                queue_capacity=8, stash_limit=stash_limit,
                shard_queue_capacity=64,
            )
            return flow.run("simulated")

        absorbing = run(10_000)
        assert absorbing.metrics.operator_metrics[
            "src"].pauses_received == 0
        holding = run(4)
        metrics = holding.metrics.operator_metrics
        assert metrics["shard"].pauses_received > 0
        assert metrics["src"].pauses_received > 0
        assert sink_multiset(holding) == sink_multiset(
            shard_flow(2, tuples=300).run("simulated")
        )

    @pytest.mark.parametrize(
        "engine", ["simulated", "threaded", "asyncio", MULTIPROCESS]
    )
    def test_bounded_sharded_run_completes_on_both_engines(self, engine):
        flow = shard_flow(
            2, tuples=200, spacing=0.0,
            lane_cost=lambda index: 0.001 if index == 0 else 0.0,
            queue_capacity=8, stash_limit=16, shard_queue_capacity=8,
        )
        result = flow.run(engine)
        assert sink_multiset(result) == sink_multiset(
            shard_flow(2, tuples=200).run("simulated")
        )


# ------------------------------------------------- unknown control kinds


class TestUnknownControlThroughShardBoundary:
    def test_forwards_hop_by_hop_partition_and_merge(self):
        flow = Flow("fwd")
        (flow.source(SCHEMA, timeline(60), name="src")
             .shard(2, key="k",
                    pipeline=lambda lane: lane.where(lambda t: True))
             .collect("sink", tuple_cost=0.01))
        plan = flow.build()
        engine = Simulator(plan)
        sink = plan.operator("sink")
        merge = plan.operator("shard_merge")

        def send_alien():
            sink.inputs[0].control.send(
                ControlMessage(
                    ControlMessageKind.SHUTDOWN,
                    Direction.UPSTREAM,
                    payload="client stop",
                    sender="sink",
                    sent_at=engine.now(),
                )
            )
            engine.notify_control(merge)

        engine.at(0.1, send_alien)
        engine.run()
        metrics = {op.name: op.metrics for op in plan}
        assert metrics["shard_merge"].control_forwarded == 1
        # Each replica forwarded its copy toward the partition...
        assert (
            metrics["where"].control_forwarded
            + metrics["where_2"].control_forwarded
            == 2
        )
        # ...and the partition forwarded each copy toward the source.
        assert metrics["shard"].control_forwarded == 2
        assert metrics["src"].control_forwarded == 2


# -------------------------------------------------------- metrics keying


class TestQueueMetricsKeying:
    def test_replicated_edges_report_distinct_metrics(self):
        result = shard_flow(4).run("simulated")
        queues = result.metrics.queue_metrics
        plan_edges = sum(len(op.outputs) for op in result.plan)
        assert len(queues) == plan_edges  # no entry collapsed another
        for lane, where in enumerate(
            ["where", "where_2", "where_3", "where_4"]
        ):
            entry = result.metrics.edge("shard", where)
            assert entry.producer == "shard"
            assert entry.consumer == where
            assert entry.port == 0
            assert entry.elements_enqueued > 0

    def test_multi_input_operator_edges_keyed_by_port(self):
        result = shard_flow(2).run("simulated")
        merge_in_0 = result.metrics.edge("window", "shard_merge", 0)
        merge_in_1 = result.metrics.edge("window_2", "shard_merge", 1)
        assert merge_in_0.port == 0 and merge_in_1.port == 1
        assert merge_in_0.edge_key != merge_in_1.edge_key

    def test_colliding_queue_names_cannot_collapse_entries(self):
        """Hand-built plans may reuse queue display names; the rollup
        keys by topology, so both edges still report."""
        plan = QueryPlan("dup-names")
        src = ListSource("src", SCHEMA, timeline(10))
        a = CollectSink("a", SCHEMA)
        b = CollectSink("b", SCHEMA)
        plan.connect(src, a)
        plan.connect(src, b)
        for edge in src.outputs:
            edge.queue.name = "same-name"
        result = Simulator(plan).run()
        assert len(result.metrics.queue_metrics) == 2
        assert result.metrics.edge("src", "a").name == "same-name"
        assert result.metrics.edge("src", "b").name == "same-name"


class TestShardMetricsRollup:
    def test_skew_report_structure(self):
        result = shard_flow(4).run("simulated")
        group = result.metrics.shard_metrics["shard"]
        assert group.n == 4
        assert len(group.lanes) == 4
        assert sum(lane.ingress for lane in group.lanes) > 0
        assert group.skew() >= 1.0
        report = result.metrics.shard_report()
        assert "shard 'shard' x4 by (k)" in report
        assert "lane" in report

    def test_balanced_keys_have_low_skew(self):
        lanes = lanes_by_key(2)
        # Build a stream sending the same volume to each lane.
        per_lane = [lanes[0][:1], lanes[1][:1]]
        events = []
        for i in range(100):
            for keys in per_lane:
                events.append((i * 0.01, tup(i, keys[0], i)))
        flow = Flow("balanced")
        (flow.source(SCHEMA, events, name="src")
             .shard(2, key="k",
                    pipeline=lambda lane: lane.where(lambda t: True))
             .collect("sink"))
        result = flow.run("simulated")
        assert result.metrics.shard_metrics["shard"].skew() == pytest.approx(
            1.0
        )

    def test_unsharded_plan_reports_no_groups(self):
        result = shard_flow(1).run("simulated")
        assert result.metrics.shard_metrics == {}
        assert result.metrics.shard_report() == "(no shard groups)"


class TestSkewedStaticRegion:
    """Every hot key routed to lane 0: the static region keeps its
    answer and shows the imbalance rather than correcting it."""

    @staticmethod
    def hot_keys(n):
        return [k for k in range(200) if key_digest((k,)) % n == 0][:4]

    def skewed_flow(self, n, keys):
        events = [
            (i * 0.001, tup(i * 0.001, keys[i % 4], 1.0)) for i in range(400)
        ]
        flow = Flow(f"skewed-{n}")
        (flow.source(SCHEMA, events, name="src")
             .punctuate(on="ts", every=0.05)
             .shard(n, key="k", pipeline=lambda lane: lane
                    .window(avg("v"), by="k", on="ts", width=0.05),
                    queue_capacity=16, stash_limit=32)
             .collect("sink", keep_punctuation=True))
        return flow

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize(
        "engine", ["simulated", "threaded", "asyncio", MULTIPROCESS]
    )
    def test_one_hot_lane_matches_unsharded(self, n, engine):
        keys = self.hot_keys(n)
        base = self.skewed_flow(1, keys).run("simulated")
        result = self.skewed_flow(n, keys).run(engine)
        assert sink_multiset(result) == sink_multiset(base)
        lanes = result.metrics.shard_metrics["shard"].lanes
        assert lanes[0].tuples_in > 0
        assert all(lane.tuples_in == 0 for lane in lanes[1:])


# ------------------------------------------------- metrics across composites


def sensor_rows(n):
    return [(i * 0.05, tup(i * 0.05, i % 4, i)) for i in range(n)]


class TestFusedLaneMetrics:
    def test_fused_stage_metrics_carry_their_lane(self):
        flow = Flow("fuse-lane")
        (flow.source(SCHEMA, sensor_rows(80), name="src")
             .punctuate(on="ts", every=1.0)
             .shard(2, key="k", name="region",
                    pipeline=lambda lane: lane
                    .where(lambda t: t["v"] >= 0.0)
                    .extend([("d", "float")], lambda t: (t["v"],)))
             .collect("sink"))
        result = flow.run("simulated", optimize=True)
        lane_stage_keys = [
            name for name in result.metrics.operator_metrics
            if name.startswith("region[") and "::" in name
        ]
        assert "region[0]::where+map::where" in lane_stage_keys
        assert "region[1]::where_2+map_2::map_2" in lane_stage_keys
        # Lane rollups resolve the composite: ingress counted per lane.
        group = result.metrics.shard_metrics["region"]
        assert len(group.lanes) == 2
        assert sum(lane.tuples_in for lane in group.lanes) > 0

    def test_unsharded_composites_keep_the_plain_key(self):
        flow = Flow("fuse-flat")
        (flow.source(SCHEMA, sensor_rows(40), name="src")
             .punctuate(on="ts", every=1.0)
             .where(lambda t: True, name="keep")
             .extend([("d", "float")], lambda t: (t["v"],), name="ext")
             .collect("sink"))
        result = flow.run("simulated", optimize=True)
        assert "keep+ext::keep" in result.metrics.operator_metrics
