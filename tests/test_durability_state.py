"""Snapshot/restore round-trips for every stateful operator.

The durability contract (``docs/durability.md``) is that
``restore_state(pickle.loads(pickle.dumps(snapshot_state())))`` on a
fresh instance reproduces the captured state exactly: snapshotting the
restored instance yields an equivalent state, and driving the same
suffix of the stream into the original and the restored copy produces
identical output.  Property tests (hypothesis) drive each operator with
random streams; deterministic tests pin the operators whose snapshots
historically omitted in-flight state (a Partition's lane stash, a
ShardMerge's inherited union frontiers).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.operators
from repro import Flow
from repro.durability import MemoryCheckpointStore
from repro.engine.harness import OperatorHarness
from repro.engine.plan import checkpoint_annotation, checkpoint_capable
from repro.operators import (
    AggregateKind,
    CollectSink,
    ImpatientJoin,
    Pace,
    Partition,
    PriorityBuffer,
    SymmetricHashJoin,
    ThriftyJoin,
    Union,
    WindowAggregate,
)
from repro.operators.base import Operator
from repro.operators.partition import ShardMerge
from repro.optimizer.fusion import fusible_reason
from repro.punctuation import Equals, Pattern, Punctuation, WILDCARD
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])
RIGHT = Schema([("rts", "timestamp", True), ("seg", "int"), ("w", "float")])

small_ints = st.integers(min_value=0, max_value=3)


def canon(value):
    """Structural normal form for comparing snapshot states."""
    if isinstance(value, dict):
        return tuple(sorted(
            (repr(k), canon(v)) for k, v in value.items()
        ))
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(v) for v in value))
    if hasattr(value, "__slots__") and not isinstance(value, (str, bytes)):
        slots = getattr(type(value), "__slots__", ())
        if slots and not isinstance(value, (StreamTuple, Pattern)):
            return tuple(
                (s, canon(getattr(value, s, None))) for s in slots
            )
    return repr(value)


def roundtrip(original: Operator, fresh: Operator) -> Operator:
    """Snapshot ``original`` through pickle into ``fresh``; assert the
    restored snapshot is equivalent.  Returns ``fresh``."""
    state = original.snapshot_state()
    blob = pickle.dumps(state, protocol=4)
    fresh.restore_state(pickle.loads(blob))
    assert canon(fresh.snapshot_state()) == canon(state)
    return fresh


@st.composite
def streams(draw, schema=SCHEMA, n_max=20):
    n = draw(st.integers(min_value=0, max_value=n_max))
    rows, ts = [], 0.0
    for _ in range(n):
        ts += draw(st.floats(min_value=0.1, max_value=2.0))
        rows.append(StreamTuple(
            schema, (ts, draw(small_ints), float(draw(small_ints)))
        ))
    return rows


def seg_punct(schema, seg):
    pattern = Pattern(
        [WILDCARD, Equals(seg), WILDCARD], schema=schema
    )
    return Punctuation(pattern)


class TestJoinRoundTrip:
    def _make(self):
        return SymmetricHashJoin(
            "join", SCHEMA, RIGHT, [("seg", "seg")], how="inner"
        )

    @settings(max_examples=25, deadline=None)
    @given(left=streams(), right=streams(schema=RIGHT))
    def test_tables_and_frontiers_roundtrip(self, left, right):
        op = self._make()
        h = OperatorHarness(op)
        for tup in left:
            h.push(tup, port=0)
        for tup in right:
            h.push(tup, port=1)
        h.push_punctuation(seg_punct(SCHEMA, 0), port=0)
        restored = roundtrip(op, self._make())
        OperatorHarness(restored)  # wire ports for continued driving

    @settings(max_examples=25, deadline=None)
    @given(left=streams(), right=streams(schema=RIGHT),
           tail=streams(schema=RIGHT, n_max=8))
    def test_restored_join_continues_identically(self, left, right, tail):
        op = self._make()
        h = OperatorHarness(op)
        for tup in left:
            h.push(tup, port=0)
        for tup in right:
            h.push(tup, port=1)
        restored = roundtrip(op, self._make())
        h2 = OperatorHarness(restored)
        before = len(h.emitted_tuples())
        for tup in tail:
            h.push(tup, port=1)
            h2.push(tup, port=1)
        assert h.emitted_tuples()[before:] == h2.emitted_tuples()

    def test_thrifty_counter_rides_along(self):
        def make():
            return ThriftyJoin(
                "tj", SCHEMA, RIGHT, [("seg", "seg")], probe_inputs=(0,)
            )
        op = make()
        h = OperatorHarness(op)
        h.push_punctuation(seg_punct(SCHEMA, 2), port=0)
        assert op.empty_windows_detected == 1
        restored = roundtrip(op, make())
        assert restored.empty_windows_detected == 1

    def test_impatient_requested_keys_ride_along(self):
        def make():
            return ImpatientJoin(
                "ij", SCHEMA, RIGHT, [("seg", "seg")], eager_input=0
            )
        op = make()
        h = OperatorHarness(op)
        h.push(StreamTuple(SCHEMA, (1.0, 1, 5.0)), port=0)
        h.push(StreamTuple(SCHEMA, (2.0, 2, 5.0)), port=0)
        assert op._requested_keys == {(1,), (2,)}
        restored = roundtrip(op, make())
        assert restored._requested_keys == {(1,), (2,)}
        assert restored.desired_sent == op.desired_sent


class TestAggregateRoundTrip:
    def _make(self):
        return WindowAggregate(
            "agg", SCHEMA, kind=AggregateKind.AVG,
            window_attribute="ts", value_attribute="v",
            width=4.0, slide=4.0, group_by=("seg",),
        )

    @settings(max_examples=25, deadline=None)
    @given(rows=streams(), tail=streams(n_max=8))
    def test_window_state_roundtrip_and_continuation(self, rows, tail):
        op = self._make()
        h = OperatorHarness(op)
        for tup in rows:
            h.push(tup)
        restored = roundtrip(op, self._make())
        h2 = OperatorHarness(restored)
        before = len(h.emitted())
        for tup in tail:
            h.push(tup)
            h2.push(tup)
        h.finish()
        h2.finish()
        assert canon(h.emitted()[before:]) == canon(h2.emitted())


class TestBufferRoundTrip:
    def _make(self):
        return PriorityBuffer("buf", SCHEMA, capacity=8, max_desires=4)

    @settings(max_examples=25, deadline=None)
    @given(rows=streams(), tail=streams(n_max=8))
    def test_pending_and_desires_roundtrip(self, rows, tail):
        from repro.core import FeedbackPunctuation

        op = self._make()
        h = OperatorHarness(op)
        for tup in rows:
            h.push(tup)
        h.feedback(FeedbackPunctuation.desired(
            Pattern([WILDCARD, Equals(1), WILDCARD], schema=SCHEMA),
            issuer="t", issued_at=0.0,
        ))
        restored = roundtrip(op, self._make())
        h2 = OperatorHarness(restored)
        before = len(h.emitted())
        for tup in tail:
            h.push(tup)
            h2.push(tup)
        h.finish()
        h2.finish()
        assert canon(h.emitted()[before:]) == canon(h2.emitted())


class TestUnionPaceRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(a=streams(n_max=10), b=streams(n_max=10))
    def test_union_frontiers_roundtrip(self, a, b):
        def make():
            return Union("u", SCHEMA, arity=2)
        op = make()
        h = OperatorHarness(op)
        for tup in a:
            h.push(tup, port=0)
        for tup in b:
            h.push(tup, port=1)
        h.push_punctuation(seg_punct(SCHEMA, 1), port=0)
        roundtrip(op, make())

    @settings(max_examples=25, deadline=None)
    @given(a=streams(n_max=12), tail=streams(n_max=6))
    def test_pace_watermarks_roundtrip_and_continue(self, a, tail):
        def make():
            return Pace(
                "pace", SCHEMA, timestamp_attribute="ts",
                tolerance=1.0, arity=1, feedback_enabled=False,
            )
        op = make()
        h = OperatorHarness(op)
        for tup in a:
            h.push(tup)
        restored = roundtrip(op, make())
        assert restored.high_watermark == op.high_watermark
        assert restored.late_drops == op.late_drops
        h2 = OperatorHarness(restored)
        before = len(h.emitted())
        for tup in tail:
            h.push(tup)
            h2.push(tup)
        assert canon(h.emitted()[before:]) == canon(h2.emitted())


class TestPartitionRoundTrip:
    """The historical offenders: snapshots must carry in-flight state."""

    def _make(self):
        return Partition("part", SCHEMA, key="seg", fanout=3)

    def test_lane_stash_survives_roundtrip(self):
        op = self._make()
        h = OperatorHarness(op, outputs=3)
        rows = [
            StreamTuple(SCHEMA, (float(i), i % 3, float(i)))
            for i in range(9)
        ]
        lane = op.lane_of(rows[0])
        # Pause the first row's lane, so its tuples stash instead of
        # emitting -- exactly the in-flight state a crash must not lose.
        op.on_pause(None, op.outputs[lane])
        for tup in rows:
            h.push(tup)
        assert op._stash, "expected stashed tuples on the paused lane"
        fresh = self._make()
        OperatorHarness(fresh, outputs=3)
        restored = roundtrip(op, fresh)
        assert restored._paused_lanes == op._paused_lanes
        assert {
            lane: [t.values for t in pending]
            for lane, pending in restored._stash.items()
        } == {
            lane: [t.values for t in pending]
            for lane, pending in op._stash.items()
        }
        assert restored.tuples_stashed == op.tuples_stashed

    def test_declared_patterns_remap_to_new_edges(self):
        op = self._make()
        OperatorHarness(op, outputs=3)
        pattern = Pattern([WILDCARD, Equals(1), WILDCARD], schema=SCHEMA)
        op._declared[id(op.outputs[2])] = [pattern]
        fresh = self._make()
        # Wire before restoring, as recovery does on a built plan: the
        # declared patterns re-key onto the new process's edges.
        OperatorHarness(fresh, outputs=3)
        restored = roundtrip(op, fresh)
        state = restored.snapshot_state()
        assert state["declared"] == {2: [pattern]}

    def test_shard_merge_chains_union_frontiers(self):
        def make():
            return ShardMerge("merge", SCHEMA, arity=2)
        op = make()
        h = OperatorHarness(op)
        h.push_punctuation(seg_punct(SCHEMA, 0), port=0)
        assert op.regions_held == 1
        restored = roundtrip(op, make())
        assert restored.regions_held == 1
        # The inherited union frontier must survive: lane 1's matching
        # declaration releases the region exactly once after recovery.
        h2 = OperatorHarness(restored)
        h2.push_punctuation(seg_punct(SCHEMA, 0), port=1)
        assert restored.regions_released == 1
        assert len(h2.emitted_punctuation()) == 1


class TestSinkRoundTrip:
    def test_collect_sink_results_roundtrip(self):
        """No writer, no log: the state itself carries the lists (the
        multiprocess ship-back, a non-terminal collect stage)."""
        def make():
            return CollectSink("sink", SCHEMA)
        op = make()
        h = OperatorHarness(op, outputs=0)
        rows = [
            StreamTuple(SCHEMA, (float(i), i % 3, float(i)))
            for i in range(5)
        ]
        for tup in rows:
            h.push(tup)
        restored = roundtrip(op, make())
        assert [t.values for t in restored.results] == [
            t.values for t in rows
        ]
        assert len(restored.arrivals) == 5 == restored.delivered


def logged_flow(bomb_at=None, n=600, built=None):
    """source -> where -> collect; ``built`` captures each run's sink
    (an aborted run returns no result to reach it through)."""
    flow = Flow("logged")
    calls = {"n": 0}

    def pred(t):
        calls["n"] += 1
        if bomb_at is not None and calls["n"] >= bomb_at:
            raise RuntimeError("injected crash")
        return True

    rows = [(i * 0.1, StreamTuple(SCHEMA, (i * 0.1, i % 3, float(i))))
            for i in range(n)]
    (flow.source(SCHEMA, rows, name="source")
         .where(pred, name="stage")
         .collect("sink",
                  configure=None if built is None else built.append))
    return flow


class TestLoggedSinkSnapshot:
    """A terminal sink's delivery log is the durable copy of its output;
    its checkpoint holds the cut into that log, not a second copy."""

    def test_snapshot_is_the_cut_and_does_not_grow_with_output(self):
        store = MemoryCheckpointStore()
        result = logged_flow().run(checkpoint_every=50, checkpoint_store=store)
        blobs = [store.load_state(epoch, "sink") for epoch in store.epochs()]
        assert len(blobs) >= 10
        assert len(blobs[-1]) <= 2 * len(blobs[0])
        assert result.metrics.operator_metrics["sink"].snapshot_bytes == sum(
            len(blob) for blob in blobs
        )
        for number, blob in enumerate(blobs, start=1):
            state = pickle.loads(blob)
            assert isinstance(state, dict)
            assert "results" not in state and "arrivals" not in state
            assert state["delivered"] == 50 * number
        assert len(result.sink("sink").results) == 600

    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    def test_delivered_is_the_position_in_the_log(self, engine):
        store = MemoryCheckpointStore()
        clean = logged_flow(n=200).run(
            engine, checkpoint_every=50, checkpoint_store=store
        )
        sink = clean.sink("sink")
        assert sink.delivered == 200 == len(store.read_delivery_log("sink"))

        store = MemoryCheckpointStore()
        built = []
        with pytest.raises(Exception):
            logged_flow(bomb_at=130, n=200, built=built).run(
                engine, checkpoint_every=50, checkpoint_store=store
            )
        aborted = built[-1]
        assert aborted.delivered == len(store.read_delivery_log("sink"))
        assert aborted.delivered < 200

        recovered = logged_flow(n=200).run(
            engine, recover_from=store, checkpoint_every=50
        )
        sink = recovered.sink("sink")
        assert sink.delivered == 200 == len(store.read_delivery_log("sink"))
        assert len(sink.results) == 200


class TestCapabilityProbe:
    def test_stateful_operators_are_checkpoint_capable(self):
        for op_type in (
            SymmetricHashJoin, ThriftyJoin, ImpatientJoin,
            WindowAggregate, PriorityBuffer, Union, Pace,
            Partition, ShardMerge, CollectSink,
        ):
            assert checkpoint_capable(op_type), op_type.__name__

    def test_base_operator_is_not(self):
        assert not checkpoint_capable(Operator)


#: Every operator class the package exports, and whether a checkpoint of
#: it has anything to carry.  State is declared (``state_fields``) or,
#: where a value needs translating, snapshotted by hand; which of the two
#: a class does must not change what it answers here.
STATEFUL = {
    "AwaitableSink", "CollectSink", "ImpatientJoin", "Impute",
    "OnDemandSink", "Pace", "Partition", "PriorityBuffer", "PushSink",
    "ShardMerge", "SymmetricHashJoin", "ThriftyJoin", "Union",
    "WindowAggregate",
}
OPERATOR_TYPES = sorted(
    (
        member for member in vars(repro.operators).values()
        if isinstance(member, type) and issubclass(member, Operator)
    ),
    key=lambda op_type: op_type.__name__,
)


class TestStateIsDeclaredOnce:
    @pytest.mark.parametrize(
        "op_type", OPERATOR_TYPES, ids=lambda op_type: op_type.__name__
    )
    def test_capability_answers(self, op_type):
        stateful = op_type.__name__ in STATEFUL
        assert checkpoint_capable(op_type) is stateful
        assert checkpoint_annotation(op_type, True) == (
            " ⌖" if stateful else ""
        )
        assert checkpoint_annotation(op_type, False) == ""

    def test_the_fusion_decline_reads_it_too(self):
        join = SymmetricHashJoin(
            "join", SCHEMA, RIGHT, [("seg", "seg")], how="inner"
        )
        assert "stateful" in fusible_reason(join, set())
        sink = CollectSink("sink", SCHEMA)
        OperatorHarness(sink)
        assert fusible_reason(sink, set()) is not None

    def test_only_translating_classes_write_the_pair_by_hand(self):
        by_hand = {
            op_type.__name__ for op_type in OPERATOR_TYPES
            if "snapshot_state" in vars(op_type)
            or "restore_state" in vars(op_type)
        }
        # The partition remaps id(edge) keys to lanes; the collect sink
        # stores its cut into the delivery log.  (Operator is the seam.)
        assert by_hand == {"Operator", "Partition", "CollectSink"}
