"""What the simulator's virtual clock says about sharding, durability
and backpressure.

Each subsystem makes one quantitative claim that does not depend on the
host: the simulator gives every operator its own busy horizon (one
virtual CPU per operator, NiagaraST's thread-per-operator architecture)
and charges modeled per-tuple costs, so a makespan, a queue peak or a
checkpoint count is a deterministic function of the plan and its input.
Those claims are pinned here, at one fixed size each and on the simulated
engine only.  A wall-clock figure is never asserted in this file; those
come from ``bench/run.py`` and the layer ladder under ``bench/``.
"""

from __future__ import annotations

from repro.api import Flow, avg
from repro.durability import MemoryCheckpointStore
from repro.stream import Schema, StreamTuple

KEYED = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])


def values(result, name="sink"):
    return [tuple(t.values) for t in result.sink(name).results]


def punctuation_patterns(result, name="sink"):
    return [p.pattern for p in result.sink(name).punctuations]


# -- sharding ------------------------------------------------------------------


class TestShardSpeedup:
    """A CPU-bound ``where -> window`` pipeline behind ``shard(n)``: the
    makespan shrinks near-linearly in ``n`` and the output does not move."""

    TUPLES = 2400
    KEYS = 64
    WINDOW = 100.0
    TUPLE_COST = 0.0005

    def timeline(self):
        return [
            (0.0, StreamTuple(KEYED, (float(i), i % self.KEYS, float(i % 97))))
            for i in range(self.TUPLES)
        ]

    def stages(self, handle, tuple_cost):
        return (handle
                .where(lambda t: True, tuple_cost=tuple_cost)
                .window(avg("v"), by="k", on="ts", width=self.WINDOW))

    def sharded(self, n, tuple_cost=0.0):
        flow = Flow("sharded", page_size=64)
        (flow.source(KEYED, self.timeline(), name="src")
             .punctuate(on="ts", every=self.WINDOW)
             .shard(n, key="k",
                    pipeline=lambda lane: self.stages(lane, tuple_cost))
             .collect("sink", keep_punctuation=True))
        return flow

    def test_makespan_scales_with_fanout(self):
        base = self.sharded(1).run("simulated")
        makespan = {}
        for n in (1, 2, 4, 8):
            run = self.sharded(n, self.TUPLE_COST).run("simulated")
            assert sorted(values(run)) == sorted(values(base))
            # Region punctuation crosses the merge exactly once.
            patterns = punctuation_patterns(run)
            assert len(patterns) == len(set(patterns))
            assert set(patterns) == set(punctuation_patterns(base))
            makespan[n] = run.makespan
        speedup = {n: makespan[1] / makespan[n] for n in makespan}
        assert speedup[4] >= 2.0
        assert speedup[8] > speedup[2]

    def test_one_lane_is_the_unsharded_plan(self):
        unsharded = Flow("sharded", page_size=64)
        self.stages(
            unsharded.source(KEYED, self.timeline(), name="src")
                     .punctuate(on="ts", every=self.WINDOW),
            0.0,
        ).collect("sink", keep_punctuation=True)
        assert self.sharded(1).describe() == unsharded.describe()
        assert values(self.sharded(1).run("simulated")) == values(
            unsharded.run("simulated")
        )


# -- durability ----------------------------------------------------------------


class TestCheckpointCost:
    """Markers ride the data plane and snapshots happen at epoch
    boundaries: the checkpointed makespan is the uncheckpointed one, and
    an epoch's snapshot does not grow with what the run has delivered."""

    TUPLES = 8000
    SENSORS = Schema([
        ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
    ])

    def windowed(self):
        timeline = [
            (i * 0.01,
             StreamTuple(self.SENSORS, (i * 0.01, i % 16, float(i % 100))))
            for i in range(self.TUPLES)
        ]
        flow = Flow("checkpointed")
        (flow.source(self.SENSORS, timeline, name="source")
             .punctuate(on="ts", every=5.0)
             .where(lambda t: t["value"] >= 0.0, name="keep",
                    tuple_cost=0.0002)
             .window(avg("value"), by="sensor", width=5.0, on="ts",
                     name="windows")
             .collect("sink"))
        return flow

    def test_makespan_unchanged_and_snapshots_flat(self):
        plain = self.windowed().run("simulated")
        store = MemoryCheckpointStore()
        durable = self.windowed().run(
            "simulated", checkpoint_every=1000, checkpoint_store=store
        )
        assert values(durable) == values(plain)
        # Flush-on-punctuation at a marker can shift a page boundary by
        # a hair; nothing else may move.
        assert abs(durable.makespan / plain.makespan - 1) < 1e-3
        assert durable.metrics.checkpoint_epochs >= self.TUPLES // 1000
        assert durable.metrics.checkpoint_bytes > 0

        snapshotting = [
            name for name, entry in durable.metrics.operator_metrics.items()
            if entry.checkpoints
        ]
        snapshot_bytes = [
            sum(len(store.load_state(epoch, name) or b"")
                for name in snapshotting)
            for epoch in store.epochs()
        ]
        assert len(snapshot_bytes) >= 2
        # Window state comes and goes with the punctuation; the sink
        # contributes its cut into the delivery log, never its results.
        assert snapshot_bytes[-1] <= 2 * snapshot_bytes[0]


# -- backpressure --------------------------------------------------------------


class TestBoundedQueues:
    """The whole timeline arrives at t=0 and the consumer pays per tuple:
    unbounded, the head queue holds the stream; bounded, it holds the
    high-water mark -- at the same makespan, since the consumer binds."""

    TUPLES = 5000
    PAGE_SIZE = 16
    HEAD = "source->keep[0]"
    BURST = Schema([("ts", "timestamp", True), ("v", "float")])

    def burst(self, queue_capacity):
        timeline = [
            (0.0, StreamTuple(self.BURST, (float(i), float(i))))
            for i in range(self.TUPLES)
        ]
        flow = Flow("burst", page_size=self.PAGE_SIZE)
        (flow.source(self.BURST, timeline)
             .where(lambda t: True, name="keep", tuple_cost=0.0005)
             .collect("sink"))
        return flow.run("simulated", queue_capacity=queue_capacity)

    def test_bounded_peak_at_unchanged_makespan(self):
        unbounded, bounded = self.burst(None), self.burst(64)
        # Flow control changes timing, never content.
        assert values(bounded) == values(unbounded)
        assert unbounded.metrics.queue_metrics[
            self.HEAD
        ].peak_occupancy == self.TUPLES
        assert bounded.metrics.queue_metrics[
            self.HEAD
        ].peak_occupancy <= 64 + self.PAGE_SIZE
        source = bounded.metrics.operator_metrics["source"]
        assert source.pauses_received > 0
        # The last pause may be resolved by end-of-stream instead of a
        # resume (a source is allowed to finish while paused).
        assert source.resumes_received in (
            source.pauses_received, source.pauses_received - 1
        )
        assert bounded.makespan <= unbounded.makespan * 1.10

    def test_peak_tracks_the_capacity_not_the_stream(self):
        for capacity in (32, 128, 512):
            head = self.burst(capacity).metrics.queue_metrics[self.HEAD]
            assert head.peak_occupancy <= capacity + self.PAGE_SIZE
