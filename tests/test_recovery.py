"""Kill-and-resume recovery: crash injection on every engine.

The acceptance property for durable feeds: a run that crashes mid-stream
and is resumed with ``flow.run(recover_from=...)`` produces, under
exactly-once ingestion, byte-identical sink output to an uninterrupted
run -- on every engine.

Crash injection is engine-specific: in-process engines (simulated,
threaded, asyncio) blow up a predicate mid-stream; the multiprocess
engine hard-kills a worker process (``os._exit``), exercising the
dead-worker detection path.  Crash points are drawn at seeded-random
epochs so the recovered epoch varies across positions in the stream.
"""

from __future__ import annotations

import os
import pickle
import random
from collections import Counter

import pytest

from repro import Flow, Schema, StreamTuple
from repro.api import count
from repro.core.feedback import CheckpointPunctuation
from repro.durability import (
    CheckpointCoordinator,
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
    ReplayableSource,
    as_checkpoint_store,
)
from repro.engine import fork_available
from repro.errors import DurabilityError

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])

N = 200


def rows(n=N):
    return [
        (i * 0.1, StreamTuple(SCHEMA, (i * 0.1, i % 3, float(i % 50))))
        for i in range(n)
    ]


def linear_flow(bomb_at=None, *, hard_kill=False, calls=None):
    """source -> punctuate -> where -> sink, with optional crash bomb."""
    flow = Flow("recovery")
    calls = calls if calls is not None else {"n": 0}

    def pred(t):
        if bomb_at is not None:
            calls["n"] += 1
            if calls["n"] >= bomb_at:
                if hard_kill:
                    os._exit(1)
                raise RuntimeError("injected crash")
        return t["value"] >= 0.0

    (flow.source(SCHEMA, rows(), name="source")
         .punctuate(on="ts", every=2.0)
         .where(pred, name="stage")
         .collect("sink"))
    return flow


def union_flow(bomb_at=None, *, calls=None):
    """Two sources through a union: exercises marker alignment."""
    flow = Flow("recovery-union")
    calls = calls if calls is not None else {"n": 0}
    half = rows(120)
    other = [
        (i * 0.1 + 0.05,
         StreamTuple(SCHEMA, (i * 0.1 + 0.05, i % 3, float(i + 1000))))
        for i in range(120)
    ]

    def pred(t):
        if bomb_at is not None:
            calls["n"] += 1
            if calls["n"] >= bomb_at:
                raise RuntimeError("injected crash")
        return True

    a = flow.source(SCHEMA, half, name="a").punctuate(on="ts", every=2.0)
    b = flow.source(SCHEMA, other, name="b").punctuate(on="ts", every=2.0)
    a.union(b, name="merge").where(pred, name="stage").collect("sink")
    return flow


def values(result, name="sink"):
    return [tuple(t.values) for t in result.sink(name).results]


ENGINES = ["simulated", "threaded", "asyncio"]

# Seeded so the crash epochs vary across the stream but stay
# reproducible run to run.
CRASH_POINTS = sorted(random.Random(7).sample(range(40, 190), 3))


@pytest.mark.parametrize("engine", ENGINES)
class TestKillAndResume:
    @pytest.mark.parametrize("bomb_at", CRASH_POINTS)
    def test_exactly_once_parity(self, engine, bomb_at):
        expect = values(linear_flow().run(engine))
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            linear_flow(bomb_at=bomb_at).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        recovered = linear_flow().run(
            engine, recover_from=store, checkpoint_every=50
        )
        assert values(recovered) == expect

    def test_a_resumed_run_that_crashes_resumes_again(self, engine):
        """Exactly-once across two crashes: the resumed run keeps
        checkpointing into the store it recovered from, and a second
        resume starts from its newer cut."""
        expect = values(linear_flow().run(engine))
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            linear_flow(bomb_at=70).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        with pytest.raises(Exception):
            linear_flow(bomb_at=90).run(
                engine, recover_from=store, checkpoint_every=50
            )
        recovered = linear_flow().run(
            engine, recover_from=store, checkpoint_every=50
        )
        assert values(recovered) == expect

    def test_union_alignment_parity(self, engine):
        expect = Counter(values(union_flow().run(engine)))
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            union_flow(bomb_at=150).run(
                engine, checkpoint_every=40, checkpoint_store=store
            )
        recovered = union_flow().run(
            engine, recover_from=store, checkpoint_every=40
        )
        assert Counter(values(recovered)) == expect

    def test_recovered_epoch_reported(self, engine):
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            linear_flow(bomb_at=150).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        result = linear_flow().run(
            engine, recover_from=store, checkpoint_every=50
        )
        assert result.checkpoint_store is store
        assert result.metrics.checkpoint_epochs >= 1


def push_flow(published, bomb_at=None, *, retain, n=400):
    """source -> where -> select(sensor, value) -> push.  The projection
    drops ``ts``, so delivered results *repeat* (150 distinct keys): a
    dedup key left armed past its replay window swallows a later, fresh
    result.  ``published`` stands in for the hub."""
    flow = Flow("recovery-push")
    calls = {"n": 0}

    def pred(t):
        if bomb_at is not None:
            calls["n"] += 1
            if calls["n"] >= bomb_at:
                raise RuntimeError("injected crash")
        return True

    (flow.source(SCHEMA, rows(n), name="source")
         .punctuate(on="ts", every=2.0)
         .where(pred, name="stage")
         .select("sensor", "value", name="drop_ts")
         .push("out", retain=retain,
               configure=lambda op: setattr(op, "publish", published.extend)))
    return flow


class TestTrimmedSinkRecovery:
    """Exactly-once behind a ``PushSink`` that trims its local history:
    the cut is the sink's ``delivered`` count, not a list length."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("retain", [None, 16])
    def test_push_kill_and_resume_parity(self, engine, retain):
        expect = []
        push_flow(expect, retain=retain).run(engine)
        store = MemoryCheckpointStore()
        published = []
        with pytest.raises(Exception):
            push_flow(published, bomb_at=330, retain=retain).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        assert len(published) < len(expect)
        recovered = push_flow(published, retain=retain).run(
            engine, recover_from=store, checkpoint_every=50
        )
        assert Counter(published) == Counter(expect)
        assert recovered.sink("out")._ckpt_dedup is None

    def test_replay_window_starts_at_the_stored_cut(self):
        """No engine: snapshot a sink 20 deliveries in, log 10 more, and
        restore -- the armed window is the 10 past the cut even though
        the sink retained only 4 results when it was snapshotted."""
        store = MemoryCheckpointStore()
        plan = push_flow([], retain=4).build()
        sink = plan.operator("out")
        sink._ckpt_writer = store.delivery_writer("out")
        schema = sink.output_schema
        tuples = [StreamTuple(schema, (i % 3, float(i % 5)))
                  for i in range(30)]
        sink.process_page(0, tuples[:20])
        assert len(sink.results) == 4 and sink.delivered == 20
        store.record_offset(1, "source", 20)
        for op in plan:
            if op.name != "source":
                CheckpointCoordinator(plan, store).snapshot(
                    op, CheckpointPunctuation(1, source="source", offset=20)
                )
        sink.process_page(0, tuples[20:])

        fresh = push_flow([], retain=4).build()
        coordinator = CheckpointCoordinator(fresh, store)
        assert coordinator.restore(store) == 1
        restored = fresh.operator("out")
        assert restored._ckpt_dedup == Counter(tuples[20:])
        assert restored.delivered == 30 == len(
            store.read_delivery_log("out")
        )
        # The reload keeps what the sink retains, not the whole log.
        assert len(restored.arrivals) <= 4
        assert restored.arrivals == [
            (entry[0], entry[1])
            for entry in store.read_delivery_log("out")[-4:]
        ]


    def test_cut_taken_while_the_replay_window_is_open(self):
        """Sink ``a`` drains the whole stream while its sibling ``b``
        crawls; the run dies, is resumed, and dies again one epoch
        later.  The epoch completed in between holds a snapshot ``a``
        took mid-replay: its cut is how far replay had got, not the end
        of the log the first run left behind."""
        def flow(out_a, out_b, bomb_at=None):
            calls = {"n": 0}

            def slow(t):
                calls["n"] += 1
                if bomb_at is not None and calls["n"] >= bomb_at:
                    raise RuntimeError("injected crash")
                return True

            built = Flow("ran-ahead", page_size=1)
            a, b = built.source(SCHEMA, rows(400), name="source").split(2)
            for handle, name, out in (
                (a, "a", out_a),
                (b.where(slow, name="slow", tuple_cost=0.5), "b", out_b),
            ):
                handle.select("sensor", "value").push(
                    name, retain=None,
                    configure=lambda op, out=out: setattr(
                        op, "publish", out.extend
                    ),
                )
            return built

        expect_a, expect_b = [], []
        flow(expect_a, expect_b).run()
        store = MemoryCheckpointStore()
        got_a, got_b = [], []
        with pytest.raises(RuntimeError):
            flow(got_a, got_b, bomb_at=130).run(
                checkpoint_every=50, checkpoint_store=store
            )
        assert len(got_a) == 400 and len(got_b) < 150
        with pytest.raises(RuntimeError):
            flow(got_a, got_b, bomb_at=60).run(
                checkpoint_every=50, recover_from=store
            )
        flow(got_a, got_b).run(checkpoint_every=50, recover_from=store)
        assert Counter(got_a) == Counter(expect_a)
        assert Counter(got_b) == Counter(expect_b)


def fusible_flow(bomb_at=None, *, calls=None):
    """source -> where -> extend -> where: the middle three stages fuse
    under ``optimize=True``, so the crash fires *inside* a composite."""
    flow = Flow("recovery-fused")
    calls = calls if calls is not None else {"n": 0}

    def pred(t):
        if bomb_at is not None:
            calls["n"] += 1
            if calls["n"] >= bomb_at:
                raise RuntimeError("injected crash")
        return t["sensor"] != 2

    (flow.source(SCHEMA, rows(), name="source")
         .punctuate(on="ts", every=2.0)
         .where(pred, name="keep")
         .extend([("double", "float")], lambda t: (t["value"] * 2,),
                 name="ext")
         .where(lambda t: t["double"] >= 0.0, name="clip")
         .collect("sink"))
    return flow


@pytest.mark.parametrize("engine", ENGINES)
class TestOptimizedRecovery:
    """``optimize=True`` composes with ``checkpoint_every=`` end to end:
    checkpoint cuts fall at composite boundaries (internal shims never
    buffer), and recovery addresses the composite by its fused name."""

    @pytest.mark.parametrize("bomb_at", CRASH_POINTS)
    def test_exactly_once_parity_with_fusion(self, engine, bomb_at):
        expect = values(fusible_flow().run(engine))
        assert expect == values(fusible_flow().run(engine, optimize=True))
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            fusible_flow(bomb_at=bomb_at).run(
                engine, checkpoint_every=50, checkpoint_store=store,
                optimize=True,
            )
        recovered = fusible_flow().run(
            engine, recover_from=store, checkpoint_every=50,
            optimize=True,
        )
        assert values(recovered) == expect

    def test_recovery_without_optimize_from_optimized_store(self, engine):
        """The store keys state by operator name; a plain re-run cannot
        consume epochs written under the fused name, so resuming must
        keep ``optimize=True``.  This pins the documented contract."""
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            fusible_flow(bomb_at=120).run(
                engine, checkpoint_every=50, checkpoint_store=store,
                optimize=True,
            )
        assert store.has_state(1, "keep+ext+clip")
        assert not store.has_state(1, "keep")


def sharded_flow(n, bomb_at=None):
    """source -> punctuate -> shard(n, where+window) -> sink.  The crash
    fires inside whichever lane holds the tuple at index ``bomb_at``;
    it keys on the timestamp, not a shared counter, so concurrent lanes
    cannot race it."""
    flow = Flow("recovery-sharded")

    def pred(t):
        if bomb_at is not None and t["ts"] >= bomb_at * 0.1 - 1e-9:
            raise RuntimeError("injected crash")
        return t["value"] >= 0.0

    (flow.source(SCHEMA, rows(), name="source")
         .punctuate(on="ts", every=2.0)
         .shard(n, key="sensor", name="region",
                pipeline=lambda lane: lane
                .where(pred)
                .window(count(), by="sensor", on="ts", width=2.0))
         .collect("sink"))
    return flow


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("engine", ENGINES)
class TestShardedRecovery:
    """Checkpoint cuts cross a static shard region: the partition's
    stash, every lane's window state and the merge's held regions are
    cut together, and routing is the same rule after the restore."""

    @pytest.mark.parametrize("bomb_at", CRASH_POINTS)
    def test_exactly_once_parity_through_the_region(
        self, engine, n, bomb_at
    ):
        expect = Counter(values(sharded_flow(1).run("simulated")))
        store = MemoryCheckpointStore()
        with pytest.raises(Exception):
            sharded_flow(n, bomb_at=bomb_at).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        assert store.epochs()  # the resume starts from a stored cut
        recovered = sharded_flow(n).run(
            engine, recover_from=store, checkpoint_every=50
        )
        assert Counter(values(recovered)) == expect

    def test_checkpointing_a_region_is_transparent(self, engine, n):
        expect = Counter(values(sharded_flow(n).run(engine)))
        result = sharded_flow(n).run(engine, checkpoint_every=50)
        assert Counter(values(result)) == expect
        assert result.metrics.checkpoint_epochs == 4
        lanes = result.metrics.shard_metrics["region"].lanes
        assert len(lanes) == n


@pytest.mark.skipif(
    not fork_available(), reason="multiprocess engine requires fork"
)
class TestMultiprocessRecovery:
    def test_hard_killed_worker_then_resume(self, tmp_path):
        expect = values(linear_flow().run("multiprocess"))
        store_dir = str(tmp_path / "ckpt")
        with pytest.raises(Exception):
            linear_flow(bomb_at=120, hard_kill=True).run(
                "multiprocess", checkpoint_every=50,
                checkpoint_store=store_dir,
            )
        recovered = linear_flow().run(
            "multiprocess", recover_from=store_dir, checkpoint_every=50
        )
        assert values(recovered) == expect
        assert recovered.metrics.checkpoint_epochs >= 1

    def test_memory_store_is_rejected(self):
        with pytest.raises(DurabilityError):
            linear_flow().run(
                "multiprocess", checkpoint_every=50,
                checkpoint_store=MemoryCheckpointStore(),
            )


class TestUninterruptedRuns:
    """Checkpointing on, no crash: output must not change at all."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpointing_is_transparent(self, engine):
        expect = values(linear_flow().run(engine))
        result = linear_flow().run(engine, checkpoint_every=50)
        assert values(result) == expect
        assert result.metrics.checkpoint_epochs == 4
        assert result.metrics.checkpoint_bytes > 0

    def test_resume_from_a_completed_store_changes_nothing(self):
        expect = values(linear_flow().run())
        store = MemoryCheckpointStore()
        linear_flow().run(checkpoint_every=50, checkpoint_store=store)
        recovered = linear_flow().run(recover_from=store)
        assert values(recovered) == expect

    def test_operator_snapshot_metrics_charged(self):
        result = linear_flow().run(checkpoint_every=50)
        stage = result.metrics.operator_metrics["stage"]
        assert stage.checkpoints == 4
        assert stage.snapshot_bytes > 0


class TestDirectoryStore:
    def test_round_trip_and_reopen(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "s")
        store.record_state(1, "op", b"blob")
        store.record_offset(1, "src", 50)
        store.record_finished("src", 210)
        writer = store.delivery_writer("sink")
        writer.append((0.5, "row"))
        writer.flush()
        reopened = DirectoryCheckpointStore(tmp_path / "s")
        assert reopened.load_state(1, "op") == b"blob"
        assert reopened.load_offset(1, "src") == 50
        assert reopened.load_finished("src") == 210
        assert reopened.read_delivery_log("sink") == [(0.5, "row")]
        assert reopened.epochs() == [1]

    def test_torn_delivery_tail_is_tolerated(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path / "s")
        writer = store.delivery_writer("sink")
        writer.append((0.1, "a"))
        writer.flush()
        log_path = next((tmp_path / "s").glob("delivery-*.log"))
        whole = log_path.read_bytes()
        log_path.write_bytes(whole + b"\x80\x04torn")
        assert store.read_delivery_log("sink") == [(0.1, "a")]

    def test_a_flush_is_one_frame_and_a_torn_one_is_dropped_whole(
        self, tmp_path
    ):
        """One pickle frame per flush, so a run's schema is written once;
        the reader flattens frames, and a flush cut short at any byte
        leaves exactly the flushes before it."""
        schema = Schema([("ts", "timestamp", True), ("k", "int")])
        store = DirectoryCheckpointStore(tmp_path / "s")
        writer = store.delivery_writer("sink")
        entries = [
            (0.1 * i, StreamTuple(schema, (float(i), i))) for i in range(7)
        ]
        for entry in entries[:3]:
            writer.append(entry)
        writer.flush()
        log_path = next((tmp_path / "s").glob("delivery-*.log"))
        first = log_path.read_bytes()
        with open(log_path, "rb") as log:
            assert pickle.load(log) == entries[:3]  # the whole flush
            assert log.read() == b""
        for entry in entries[3:]:
            writer.append(entry)
        writer.flush()
        whole = log_path.read_bytes()
        assert store.read_delivery_log("sink") == entries
        # The second frame shares nothing with the first, yet is smaller
        # per entry than seven frames of one would be.
        assert len(whole) < 7 * len(first) // 3
        for cut in range(len(first), len(whole)):
            log_path.write_bytes(whole[:cut])
            assert store.read_delivery_log("sink") == entries[:3], cut

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_delivery_log_holds_no_descriptor_between_flushes(self, tmp_path):
        """Regression: the delivery writer kept ``delivery-<sink>.log``
        open from its first flush until it was garbage-collected -- one
        descriptor per sink per checkpointed run (or supervised restart)
        for as long as the results were referenced."""
        held = []
        before = len(os.listdir("/proc/self/fd"))
        for i in range(8):
            held.append(linear_flow().run(
                "simulated", checkpoint_every=50,
                checkpoint_store=DirectoryCheckpointStore(tmp_path / str(i)),
            ))
        assert len(os.listdir("/proc/self/fd")) == before
        log = held[-1].checkpoint_store.read_delivery_log("sink")
        assert [tup for _arrival, tup in log] == held[-1].sink("sink").results

    def test_as_checkpoint_store_coercion(self, tmp_path):
        store = as_checkpoint_store(str(tmp_path / "s"))
        assert isinstance(store, DirectoryCheckpointStore)
        assert as_checkpoint_store(store) is store
        assert as_checkpoint_store(None) is None
        assert isinstance(store, CheckpointStore)
        assert store.shareable_across_processes


class TestReplayableSource:
    def test_factory_is_replayable(self):
        def timeline():
            for i in range(10):
                yield i * 0.1, StreamTuple(
                    SCHEMA, (i * 0.1, i % 3, float(i))
                )
        source = ReplayableSource("src", SCHEMA, timeline)
        first = list(source.events())
        second = list(source.events())
        assert [e[1].values for e in first] == [
            e[1].values for e in second
        ]

    def test_bare_generator_is_rejected(self):
        gen = (x for x in ())
        with pytest.raises(DurabilityError):
            ReplayableSource("src", SCHEMA, gen)


class TestRunOptionValidation:
    def test_bad_interval(self):
        with pytest.raises(DurabilityError):
            linear_flow().run(checkpoint_every=0)


class TestRendering:
    def test_describe_marks_checkpoint_capable_stages(self):
        flow = linear_flow()
        annotated = flow.describe(checkpoints=True)
        assert "CollectSink ⌖" in annotated
        assert flow.describe() == linear_flow().describe()
        assert "⌖" not in flow.describe()

    def test_plan_describe_and_dot_match_flow(self):
        flow = linear_flow()
        plan = flow.build()
        assert plan.describe(checkpoints=True) == flow.describe(
            checkpoints=True
        )
        assert "CollectSink ⌖" in plan.to_dot(checkpoints=True)
        assert "⌖" not in plan.to_dot()
