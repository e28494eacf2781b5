"""Tests for the threaded (NiagaraST-style) runtime and engine parity."""

import sys
import threading

import pytest

from repro.api import Flow, avg
from repro.core import FeedbackPunctuation
from repro.engine import QueryPlan, Simulator, ThreadedRuntime
from repro.errors import EngineError
from repro.operators import (
    AggregateKind,
    CollectSink,
    ListSource,
    Select,
    WindowAggregate,
)
from repro.punctuation import Pattern, ProgressPunctuator
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])


def build_plan():
    """A deterministic plan: source -> select -> count -> sink."""
    punctuator = ProgressPunctuator(SCHEMA, "ts", interval=10.0)
    timeline = []
    for i in range(200):
        ts = i * 0.5
        tup = StreamTuple(SCHEMA, (ts, i % 4, float(i)))
        timeline.append((0.0, tup))
        for punct in punctuator.observe(ts):
            timeline.append((0.0, punct))
    timeline.append((0.0, punctuator.final()))

    plan = QueryPlan("parity")
    source = ListSource("src", SCHEMA, timeline)
    keep = Select("keep", SCHEMA, lambda t: t["seg"] != 3)
    count = WindowAggregate(
        "count", SCHEMA,
        kind=AggregateKind.COUNT,
        window_attribute="ts",
        width=10.0,
        group_by=("seg",),
    )
    sink = CollectSink("sink", count.output_schema)
    plan.add(source)
    plan.chain(source, keep, count, sink)
    return plan, sink


class TestThreadedRuntime:
    def test_runs_to_completion(self):
        plan, sink = build_plan()
        result = ThreadedRuntime(plan, timeout=30.0).run()
        assert len(sink.results) > 0
        assert result.metrics.operator_metrics["sink"].tuples_in > 0

    def test_parity_with_simulator(self):
        """Same plan, same results, on both engines (order-insensitive)."""
        plan_sim, sink_sim = build_plan()
        Simulator(plan_sim).run()
        plan_thr, sink_thr = build_plan()
        ThreadedRuntime(plan_thr, timeout=30.0).run()
        assert sorted(t.values for t in sink_sim.results) == sorted(
            t.values for t in sink_thr.results
        )

    def test_feedback_works_in_threads(self):
        """Feedback sent mid-run through the threaded control channels."""
        plan, sink = build_plan()
        count = plan.operator("count")
        runtime = ThreadedRuntime(plan, timeout=30.0)
        # Inject before start: the guard suppresses everything for seg 2.
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(count.output_schema, {"seg": 2})
        )
        sink.runtime = runtime
        # Send via the sink's upstream channel once running; simplest is
        # to piggyback on on_start.
        original_on_start = sink.on_start

        def patched_start():
            original_on_start()
            sink.inject_feedback(fb)

        sink.on_start = patched_start
        runtime.run()
        assert not [r for r in sink.results if r["seg"] == 2]
        assert count.metrics.feedback_received == 1

    def test_single_use(self):
        plan, _ = build_plan()
        runtime = ThreadedRuntime(plan, timeout=30.0)
        runtime.run()
        from repro.errors import EngineError
        with pytest.raises(EngineError):
            runtime.run()


class TestWatchdog:
    def test_expiry_stops_the_threads_it_gave_up_on(self):
        """The watchdog fails the run like any other error: every thread
        stops, and nothing reaches the sink once ``run()`` has raised."""
        release = threading.Event()
        rows = [(0.0, StreamTuple(SCHEMA, (float(i), i % 4, 0.0)))
                for i in range(400)]
        flow = Flow("stuck", page_size=8)
        (flow.source(SCHEMA, rows, name="src")
             .where(lambda t: release.wait(10.0), name="blocked")
             .collect("sink"))
        plan = flow.build()
        sink = plan.operator("sink")
        before = set(threading.enumerate())
        with pytest.raises(EngineError, match="did not finish"):
            ThreadedRuntime(plan, timeout=0.3).run()
        held = len(sink.results)
        left = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("op-")
        ]
        release.set()
        for thread in left:
            thread.join(10.0)
        assert not [thread.name for thread in left if thread.is_alive()]
        assert len(sink.results) == held


class TestOneClock:
    def test_clock_entries_under_thread_churn(self):
        """Forty actions, more operator threads than cores, a short
        switch interval and pauses in flight under ``control_latency``
        (a slow sink backs the plan up to the source): every action
        fires once, in due order, and no wake-up for delayed control is
        lost -- a lost resume would leave the source asleep until the
        watchdog."""
        gate = threading.Event()
        data = [(0.0, StreamTuple(SCHEMA, (float(i), i % 4, float(i))))
                for i in range(400)]
        fired = []

        def events():
            yield from data[:40]
            assert gate.wait(10.0)
            yield from data[40:]

        def fire(index):
            def action(plan):
                fired.append(index)
                if index == 39:
                    gate.set()
            return action

        flow = Flow("churn", page_size=2)
        (flow.generate(SCHEMA, events, name="source")
             .shard(4, key="seg", name="region",
                    pipeline=lambda lane: lane.where(lambda t: True))
             .collect("sink", tuple_cost=0.0002))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = flow.run(
                "threaded", actions=[(0.002 * i, fire(i)) for i in range(40)],
                queue_capacity=4, control_latency=0.002, emulate_costs=True,
                timeout=30.0,
            )
        finally:
            sys.setswitchinterval(switch)
        assert fired == list(range(40))
        assert sorted(t["v"] for t in result.sink("sink").results) == [
            float(i) for i in range(400)
        ]
        assert result.metrics.operator_metrics["source"].pauses_received



# -- the step rule ---------------------------------------------------------------------
#
# On bounded edges a threaded step takes every ready page of one input
# that fits the room its bounded output edges leave, and a source run
# ends at the high-water room.  However much a step carries, the results
# are the simulator's and a bounded edge overshoots its capacity by no
# more than one step's emission.


def speedmap_flow(page_size):
    """The speed-map plan: source -> punctuate(60 s) -> sigma_q
    (speed < 120) -> window avg(speed) by segment, 20 s -> sink."""
    from repro.workloads.traffic import DETECTOR_SCHEMA, TrafficWorkload

    rows = TrafficWorkload(horizon=300.0, seed=3).detector_timeline()
    flow = Flow("speedmap", page_size=page_size)
    (flow.source(DETECTOR_SCHEMA, rows, name="punctuate")
         .punctuate(on="timestamp", every=60.0)
         .where(lambda t: t["speed"] < 120.0, name="sigma_q")
         .window(avg("speed"), on="timestamp", width=20.0, by="segment",
                 name="average")
         .collect("sink", keep_punctuation=True))
    return flow


def sink_view(result):
    sink = result.sink("sink")
    return (
        sorted(t.values for t in sink.results),
        [repr(p.pattern) for p in sink.punctuations],
    )


def gated_chain(page_size):
    """``src -> fast -> hold -> sink`` in which ``fast``'s steps must find
    several ready pages.

    ``hold`` lets nothing through until ``fast`` has received its first
    pause, so ``fast``'s output fills to high water and its input backs
    up behind it; once ``hold`` drains that output to low water, ``fast``
    resumes with room for several of the pages waiting on its input.  A
    wait that times out lets the run go on and the caller's assertions
    fail.
    """
    paused = threading.Event()
    rows = [
        (0.0, StreamTuple(SCHEMA, (i * 0.01, i % 4, float(i))))
        for i in range(2000)
    ]

    def release_when_paused(fast):
        fast.on_pause = lambda punct, from_edge: paused.set()

    flow = Flow("gated", page_size=page_size)
    (flow.source(SCHEMA, rows, name="src")
         .punctuate(on="ts", every=1.0)
         .where(lambda t: t["seg"] != 3, name="fast",
                configure=release_when_paused)
         .where(lambda t: paused.wait(20.0), name="hold")
         .collect("sink"))
    return flow


class TestStepRule:
    @pytest.mark.parametrize("page_size", [1, 7, 64])
    @pytest.mark.parametrize("capacity", [8, 64, 1024])
    def test_speedmap_parity_with_the_simulator(self, capacity, page_size):
        flow = speedmap_flow(page_size)
        expected = sink_view(flow.run("simulated", queue_capacity=capacity))
        threaded = flow.run("threaded", queue_capacity=capacity, timeout=60.0)
        assert sink_view(threaded) == expected
        assert threaded.metrics.operator_metrics["average"].tuples_in == (
            flow.run("simulated").metrics.operator_metrics["average"].tuples_in
        )

    @pytest.mark.parametrize("capacity, page_size", [(32, 4), (64, 7)])
    def test_a_bounded_edge_overshoots_by_one_step_at_most(
        self, capacity, page_size
    ):
        result = gated_chain(page_size).run(
            "threaded", queue_capacity=capacity, timeout=60.0
        )
        metrics = result.metrics
        for queue in metrics.queue_metrics.values():
            # A step starts below high water and emits at most what it
            # took: the room, or one page when less than a page is left.
            assert queue.peak_occupancy <= capacity + page_size, queue
        fast = metrics.operator_metrics["fast"]
        into_fast = metrics.queue_metrics["src->fast[0]"]
        assert fast.pauses_received > 0
        assert fast.pages_in < into_fast.pages_flushed  # steps merged pages
        assert len(result.sink("sink").results) == 1500

    @pytest.mark.parametrize("capacity", [64, 256])
    def test_a_join_steps_one_page_at_a_time(self, capacity):
        """A join's emission is not bounded by what it takes: each left
        tuple here meets four stored right tuples.  Its steps stay one
        page, so its output edge overshoots by one page's matches however
        large the capacity.

        The left stream waits until the join holds every right tuple;
        ``hold`` then lets nothing through until the join has been paused,
        so the left pages back up behind it and it resumes with room for
        several of them."""
        page_size, fan_out, keys = 4, 4, 200
        primed = threading.Event()
        paused = threading.Event()
        left = [(0.0, StreamTuple(SCHEMA, (float(i), i, float(i))))
                for i in range(keys)]
        right_schema = Schema(
            [("rts", "timestamp", True), ("seg", "int"), ("w", "float")]
        )
        right = [(0.0, StreamTuple(right_schema, (float(i), i, float(n))))
                 for i in range(keys) for n in range(fan_out)]

        def watch(join):
            join.on_pause = lambda punct, from_edge: paused.set()
            on_page = join.on_page

            def counting(port_index, batch):
                on_page(port_index, batch)
                if len(join._tables[1]) == keys:
                    primed.set()
            join.on_page = counting

        flow = Flow("fan-out", page_size=page_size)
        gated = flow.source(SCHEMA, left, name="left").where(
            lambda t: primed.wait(20.0), name="gate")
        right_stream = flow.source(right_schema, right, name="right")
        (gated.join(right_stream, on=[("seg", "seg")], name="join",
                    configure=watch)
              .where(lambda t: paused.wait(20.0), name="hold")
              .collect("sink"))
        result = flow.run("threaded", queue_capacity=capacity, timeout=60.0)
        metrics = result.metrics
        assert metrics.operator_metrics["join"].pauses_received > 0
        assert len(result.sink("sink").results) == keys * fan_out
        out = metrics.queue_metrics["join->hold[0]"]
        assert out.peak_occupancy <= capacity + fan_out * page_size, out

    @pytest.mark.parametrize("capacity", [64, 256])
    def test_a_step_carries_one_punctuation(self, capacity):
        """Each punctuation closes sixteen windows (four groups, four
        sliding windows a group) for four tuples taken: a step that ends at
        its first punctuation overshoots by one close, however many
        punctuations wait on its input."""
        groups, per_close = 4, 16
        paused = threading.Event()
        rows = [
            (0.0, StreamTuple(SCHEMA, (float(second), seg, 1.0)))
            for second in range(150) for seg in range(groups)
        ]

        def release_when_paused(window):
            window.on_pause = lambda punct, from_edge: paused.set()

        flow = Flow("closes", page_size=4)
        (flow.source(SCHEMA, rows, name="src")
             .punctuate(on="ts", every=1.0)
             .window(avg("v"), on="ts", width=1.0, slide=0.25, by="seg",
                     name="average", configure=release_when_paused)
             .where(lambda t: paused.wait(20.0), name="hold")
             .collect("sink"))
        result = flow.run("threaded", queue_capacity=capacity, timeout=60.0)
        metrics = result.metrics
        assert metrics.operator_metrics["average"].pauses_received > 0
        out = metrics.queue_metrics["average->hold[0]"]
        # One close and the punctuation it forwards.
        assert out.peak_occupancy <= capacity + per_close + 1, out
        # Windows start at 0: the first second opens one a group, not four.
        assert len(result.sink("sink").results) == (150 * 4 - 3) * groups

    @pytest.mark.parametrize("capacity", [64, 256])
    def test_a_buffer_overshoots_by_its_own_capacity_at_most(self, capacity):
        """A priority buffer emits what it takes plus, at a punctuation,
        the pending tuples it covers: a step that fits the room overshoots
        by the buffer's own capacity at most."""
        held = 8
        paused = threading.Event()
        rows = [
            (0.0, StreamTuple(SCHEMA, (i * 0.25, i % 4, float(i))))
            for i in range(1200)
        ]

        def release_when_paused(buffer):
            buffer.on_pause = lambda punct, from_edge: paused.set()

        flow = Flow("buffered", page_size=4)
        (flow.source(SCHEMA, rows, name="src")
             .punctuate(on="ts", every=1.0)
             .buffer(capacity=held, name="buffer",
                     configure=release_when_paused)
             .where(lambda t: paused.wait(20.0), name="hold")
             .collect("sink"))
        result = flow.run("threaded", queue_capacity=capacity, timeout=60.0)
        metrics = result.metrics
        assert metrics.operator_metrics["buffer"].pauses_received > 0
        out = metrics.queue_metrics["buffer->hold[0]"]
        assert out.peak_occupancy <= capacity + held, out
        assert len(result.sink("sink").results) == 1200

    def test_a_marker_ending_a_merged_step_resumes_exactly_once(
        self, monkeypatch
    ):
        """Kill and resume a two-source region (a union) whose consumer's
        steps carry several pages and end at checkpoint markers.

        ``hold`` lets nothing through until ``stage`` has been paused, so
        the union's output backs up; ``stage`` then resumes with room for
        several pages of four, and a marker ends at most every fourth
        page of a source (``checkpoint_every=10``).  A step ends at its
        first punctuation or marker, so a marker is always its last
        element."""
        from collections import Counter

        from repro.core.feedback import CheckpointPunctuation
        from repro.durability import MemoryCheckpointStore
        from repro.operators.base import Operator

        merged_at_marker = []
        process_page = Operator.process_page

        def spying(operator, port_index, page, **kwargs):
            if operator.name == "stage":
                elements = list(page)
                marks = [isinstance(e, CheckpointPunctuation)
                         for e in elements]
                assert not any(marks[:-1])  # nothing after a marker
                merged_at_marker.append(len(elements) > 4 and marks[-1])
            return process_page(operator, port_index, page, **kwargs)

        monkeypatch.setattr(Operator, "process_page", spying)

        def flow(bomb_at=None):
            calls = {"n": 0}
            paused = threading.Event()
            left = [
                (i * 0.1, StreamTuple(SCHEMA, (i * 0.1, i % 3, float(i))))
                for i in range(300)
            ]
            right = [
                (i * 0.1 + 0.05,
                 StreamTuple(SCHEMA, (i * 0.1 + 0.05, i % 3, 1000.0 + i)))
                for i in range(300)
            ]

            def bomb(t):
                calls["n"] += 1
                if bomb_at is not None and calls["n"] >= bomb_at:
                    raise RuntimeError("injected crash")
                return True

            def release_when_paused(stage):
                stage.on_pause = lambda punct, from_edge: paused.set()

            built = Flow("merged-markers", page_size=4)
            a = built.source(SCHEMA, left, name="a").punctuate(
                on="ts", every=2.0)
            b = built.source(SCHEMA, right, name="b").punctuate(
                on="ts", every=2.0)
            (a.union(b, name="merge")
              .where(bomb, name="stage", configure=release_when_paused)
              .where(lambda t: paused.wait(20.0), name="hold")
              .collect("sink"))
            return built

        options = {
            "queue_capacity": 64, "checkpoint_every": 10, "timeout": 60.0,
        }
        expect = Counter(
            tuple(t.values)
            for t in flow().run("threaded", **options).sink("sink").results
        )
        store = MemoryCheckpointStore()
        with pytest.raises(RuntimeError, match="injected crash"):
            flow(bomb_at=450).run(
                "threaded", checkpoint_store=store, **options
            )
        recovered = flow().run("threaded", recover_from=store, **options)
        assert recovered.metrics.checkpoint_epochs >= 1
        assert any(merged_at_marker)
        assert Counter(
            tuple(t.values) for t in recovered.sink("sink").results
        ) == expect
