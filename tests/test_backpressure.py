"""Backpressure: bounded queues with runtime pause/resume flow control.

The first *runtime-generated* use of the paper's feedback channel: when a
bounded :class:`~repro.stream.queues.DataQueue` crosses its high-water
mark, the consumer's runtime sends a pause
:class:`~repro.core.feedback.FlowControlPunctuation` upstream on the
ordinary control channel; when the queue drains to its low-water mark it
sends resume.  These tests cover

* the queue's occupancy/watermark accounting,
* bounded peak occupancy under a fast producer / slow consumer,
* engine parity (identical sink output on ``simulated`` and ``threaded``),
* the finish-while-paused termination regression,
* transitive pressure through intermediate operators,
* the forward-unknown-control bugfix (no silent drops), and
* ``PriorityBuffer``'s absorb-while-held behaviour.
"""

import multiprocessing
import threading

import pytest

from repro.api import Flow
from repro.core import FlowControlKind, FlowControlPunctuation
from repro.engine import QueryPlan, Simulator, ThreadedRuntime, fork_available
from repro.engine.harness import OperatorHarness
from repro.errors import EngineError
from repro.operators import (
    CollectSink,
    GeneratorSource,
    ListSource,
    PassThrough,
)
from repro.operators.buffer import PriorityBuffer
from repro.stream import Schema, StreamTuple
from repro.stream.control import ControlMessage, ControlMessageKind, Direction
from repro.stream.queues import DataQueue

SCHEMA = Schema([("ts", "timestamp", True), ("v", "float")])


def tuples(n):
    return [StreamTuple(SCHEMA, (float(i), float(i))) for i in range(n)]


def timeline(n, spacing=0.0):
    return [(i * spacing, tup) for i, tup in enumerate(tuples(n))]


def linear_flow(n=500, *, page_size=8, sink_cost=0.0, collect_cost=0.0):
    flow = Flow("bp", page_size=page_size)
    (flow.source(SCHEMA, timeline(n))
         .where(lambda t: True, name="keep", tuple_cost=sink_cost)
         .collect("sink", tuple_cost=collect_cost))
    return flow


# ---------------------------------------------------------------- queue unit


class TestQueueWatermarks:
    def test_unbounded_by_default(self):
        queue = DataQueue("q")
        assert queue.capacity is None
        assert not queue.bounded
        assert not queue.above_high_water
        for tup in tuples(100):
            queue.put(tup)
        assert not queue.above_high_water  # never, when unbounded

    def test_occupancy_tracks_put_and_get(self):
        queue = DataQueue("q", page_size=4, capacity=8)
        for tup in tuples(6):
            queue.put(tup)
        assert queue.occupancy == 6
        assert queue.pending_elements() == 6
        page = queue.get_page()
        assert len(page) == 4
        assert queue.occupancy == 2
        assert queue.peak_occupancy == 6

    def test_put_many_and_flush_accounting(self):
        queue = DataQueue("q", page_size=4, capacity=16)
        queue.put_many(tuples(10))
        assert queue.occupancy == 10
        queue.flush()
        assert queue.occupancy == 10  # flush moves, never drops
        drained = list(queue.drain_elements())
        assert len(drained) == 10
        assert queue.occupancy == 0
        assert queue.peak_occupancy == 10

    def test_watermark_flags(self):
        queue = DataQueue("q", page_size=1, capacity=4)
        for tup in tuples(4):
            queue.put(tup)
        assert queue.above_high_water
        assert not queue.below_low_water
        queue.get_page()
        assert queue.occupancy == 3
        assert not queue.above_high_water
        assert not queue.below_low_water
        queue.get_page()
        assert queue.below_low_water

    def test_default_low_water_is_half_capacity(self):
        queue = DataQueue("q", capacity=10)
        assert queue.low_water == 5

    @pytest.mark.parametrize("capacity", [1, 2, 3, 9])
    def test_relief_comes_at_half_the_capacity(self, capacity):
        """Full at ``capacity``, relieved at ``capacity // 2`` and not a
        page before -- odd capacities round the mark down, and a queue
        of one must drain empty."""
        queue = DataQueue("q", page_size=1, capacity=capacity)
        for tup in tuples(capacity):
            assert not queue.above_high_water
            queue.put(tup)
        assert queue.above_high_water
        while queue.occupancy > capacity // 2:
            assert not queue.below_low_water
            queue.get_page()
        assert queue.below_low_water
        assert not queue.above_high_water

    def test_validation(self):
        with pytest.raises(EngineError):
            DataQueue("q", capacity=0)

    def test_plan_connect_passes_capacity(self):
        plan = QueryPlan("p")
        src = ListSource("src", SCHEMA, timeline(1))
        sink = CollectSink("sink", SCHEMA)
        edge = plan.connect(src, sink, capacity=32)
        assert edge.queue.capacity == 32
        assert edge.queue.low_water == 16


# -------------------------------------------------------- punctuation object


class TestFlowControlPunctuation:
    def test_constructors_and_predicates(self):
        pause = FlowControlPunctuation.pause("a->b[0]", occupancy=64)
        resume = FlowControlPunctuation.resume("a->b[0]", occupancy=3)
        assert pause.is_pause and not pause.is_resume
        assert resume.is_resume and not resume.is_pause
        assert pause.kind is FlowControlKind.PAUSE
        assert pause.edge == "a->b[0]"
        assert pause.occupancy == 64
        assert not pause.is_punctuation  # never embedded in data pages
        assert "a->b[0]" in repr(pause)

    def test_immutable(self):
        pause = FlowControlPunctuation.pause("e")
        with pytest.raises(AttributeError):
            pause.edge = "other"


# ----------------------------------------------------------- bounded runs


class TestBoundedOccupancy:
    def test_simulator_peak_bounded_by_high_water(self):
        capacity = 32
        bounded = linear_flow(sink_cost=0.002).run(
            "simulated", queue_capacity=capacity
        )
        unbounded = linear_flow(sink_cost=0.002).run("simulated")
        head = "source->keep[0]"
        assert unbounded.metrics.queue_metrics[head].peak_occupancy == 500
        assert bounded.metrics.queue_metrics[head].peak_occupancy <= capacity
        assert len(bounded.sink("sink").results) == 500

    def test_pause_resume_counts_match_and_time_paused(self):
        result = linear_flow(sink_cost=0.002).run(
            "simulated", queue_capacity=32
        )
        source = result.metrics.operator_metrics["source"]
        keep = result.metrics.operator_metrics["keep"]
        assert source.pauses_received > 0
        # The final pause may be resolved by end-of-stream instead of a
        # resume (a source may finish while paused), so the counts match
        # exactly or differ by one.
        assert source.resumes_received in (
            source.pauses_received, source.pauses_received - 1
        )
        assert source.time_paused > 0.0
        assert keep.pauses_issued > 0
        assert keep.resumes_issued in (
            keep.pauses_issued, keep.pauses_issued - 1
        )

    def test_throughput_unchanged_by_backpressure(self):
        """Pausing the source must not slow the (binding) consumer."""
        bounded = linear_flow(sink_cost=0.002).run(
            "simulated", queue_capacity=32
        )
        unbounded = linear_flow(sink_cost=0.002).run("simulated")
        assert bounded.makespan == pytest.approx(
            unbounded.makespan, rel=0.10
        )

    def test_default_run_has_no_flow_control(self):
        result = linear_flow(sink_cost=0.002).run("simulated")
        for metrics in result.metrics.operator_metrics.values():
            assert metrics.pauses_issued == 0
            assert metrics.pauses_received == 0
            assert metrics.time_paused == 0.0

    def test_transitive_pressure_reaches_the_source(self):
        flow = Flow("chain", page_size=8)
        (flow.source(SCHEMA, timeline(400))
             .where(lambda t: True, name="w1")
             .where(lambda t: True, name="w2", tuple_cost=0.002)
             .collect("sink"))
        result = flow.run("simulated", queue_capacity=32)
        peaks = {
            name: q.peak_occupancy
            for name, q in result.metrics.queue_metrics.items()
        }
        assert peaks["source->w1[0]"] <= 32
        assert peaks["w1->w2[0]"] <= 32
        assert result.metrics.operator_metrics["source"].pauses_received > 0
        assert result.metrics.operator_metrics["w1"].pauses_received > 0
        assert len(result.sink("sink").results) == 400

    def test_per_verb_capacity_overrides_run_default(self):
        flow = Flow("mixed", page_size=8)
        (flow.source(SCHEMA, timeline(300))
             .where(lambda t: True, name="w1", queue_capacity=16)
             .where(lambda t: True, name="w2", tuple_cost=0.002)
             .collect("sink"))
        result = flow.run("simulated", queue_capacity=64)
        queues = result.metrics.queue_metrics
        assert queues["source->w1[0]"].capacity == 16  # per-verb wins
        assert queues["w1->w2[0]"].capacity == 64     # run default
        assert queues["source->w1[0]"].peak_occupancy <= 16

    def test_plan_metrics_helper(self):
        result = linear_flow(sink_cost=0.002).run(
            "simulated", queue_capacity=32
        )
        assert result.metrics.peak_queue_occupancy() <= 32


# ----------------------------------------------------------- engine parity


def gated_flow(n, paused, *, page_size):
    """``source -> keep -> hold -> sink`` in which ``keep`` *must* be paused.

    Nothing here sleeps to make a pause likely; ``paused`` (an ``Event``)
    makes it a fact.  ``hold`` lets no tuple through until the event is
    set, so ``keep``'s bounded output edge can only fill; the source stops
    half-way until the event is set, so ``keep`` cannot finish first (a
    pause toward a finished operator is dropped); and the event is set by
    ``keep`` receiving its first pause.  A wait that times out lets the run
    go on and the caller's ``pauses_received`` assertion fail.
    """
    data = timeline(n)

    def events():
        yield from data[:n // 2]
        paused.wait(20.0)
        yield from data[n // 2:]

    def release_when_paused(keep):
        keep.on_pause = lambda punct, from_edge: paused.set()

    flow = Flow("bp-gated", page_size=page_size)
    (flow.generate(SCHEMA, events, name="source")
         .where(lambda t: True, name="keep", configure=release_when_paused)
         .where(lambda t: paused.wait(20.0), name="hold")
         .collect("sink"))
    return flow


class TestEngineParity:
    def test_pause_resume_identical_sink_output(self):
        """Backpressure changes timing, never content or order.

        The two cooperative legs are decided by event order, not by the
        wall clock: every source tuple is due at time zero, so the source
        runs until its bounded edge is at high water before any consumer
        is scheduled.  The two preemptive legs race real threads and
        processes, so they run :func:`gated_flow`, where the consumer
        waits for the pause instead of sleeping and hoping for one.
        """
        runs = {}
        for engine, paused_op, options in (
            ("simulated", "source", {"queue_capacity": 16}),
            ("threaded", "keep",
             {"queue_capacity": 16, "timeout": 30.0}),
            # The asyncio leg emulates the consumer's cost: a consumer
            # that is never busy is drained by the same step that filled
            # it, but a modeled-slow consumer must trigger real pauses.
            ("asyncio", "source",
             {"queue_capacity": 16, "timeout": 30.0,
              "emulate_costs": True}),
            # The multiprocess leg exercises pause/resume *across the
            # process boundary*: ``hold`` and the sink sit in their own
            # worker, the bounded inbox there trips, and the pause rides a
            # control frame back to ``keep``'s worker, which sets the
            # fork-inherited event both workers wait on.
            *([("multiprocess", "keep",
                {"queue_capacity": 16, "timeout": 60.0,
                 "groups": [["source", "keep"], ["hold", "sink"]]})]
              if fork_available() else []),
        ):
            if engine == "threaded":
                flow = gated_flow(200, threading.Event(), page_size=4)
            elif engine == "multiprocess":
                flow = gated_flow(
                    200, multiprocessing.get_context("fork").Event(),
                    page_size=4,
                )
            else:
                flow = linear_flow(200, page_size=4, sink_cost=0.002)
            result = flow.run(engine, **options)
            paused = result.metrics.operator_metrics[paused_op]
            assert paused.pauses_received > 0, f"{engine}: no pause fired"
            runs[engine] = [
                tuple(t.values) for t in result.sink("sink").results
            ]
        reference = runs.pop("simulated")
        assert len(reference) == 200
        for engine, rows in runs.items():
            assert rows == reference, f"{engine}: diverged from simulated"

    @pytest.mark.parametrize("engine,options", [
        ("threaded", {"timeout": 30.0}),
        ("asyncio", {"timeout": 30.0}),
        pytest.param(
            "multiprocess", {"timeout": 60.0},
            marks=pytest.mark.skipif(
                not fork_available(),
                reason="fork start method unavailable",
            ),
        ),
    ])
    def test_bounded_matches_unbounded_content(self, engine, options):
        flow = linear_flow(200, page_size=4)
        bounded = flow.run(engine, queue_capacity=16, **options)
        unbounded = linear_flow(200, page_size=4).run(engine, **options)
        assert (
            [tuple(t.values) for t in bounded.sink("sink").results]
            == [tuple(t.values) for t in unbounded.sink("sink").results]
        )


# ------------------------------------------------- termination regressions


class TestTerminationWhilePaused:
    @pytest.mark.parametrize("engine,options", [
        ("simulated", {}),
        ("threaded", {"timeout": 15.0}),
        ("asyncio", {"timeout": 15.0, "emulate_costs": True}),
        pytest.param(
            "multiprocess", {"timeout": 60.0},
            marks=pytest.mark.skipif(
                not fork_available(),
                reason="fork start method unavailable",
            ),
        ),
    ])
    def test_source_finishing_while_paused_terminates(self, engine, options):
        """A source that runs dry under an active pause must still close.

        Capacity equals the stream length's page, so the pause lands just
        as the timeline ends; completion depends on the runtime's rule
        that exhausted operators may finish while paused.
        """
        flow = Flow("finish", page_size=4)
        (flow.source(SCHEMA, timeline(10))
             .where(lambda t: True, tuple_cost=0.05)
             .collect("sink"))
        result = flow.run(engine, queue_capacity=4, **options)
        assert len(result.sink("sink").results) == 10

    def test_tiny_capacity_deep_chain_terminates(self):
        flow = Flow("deep", page_size=2)
        handle = flow.source(SCHEMA, timeline(50))
        for i in range(5):
            handle = handle.where(lambda t: True, name=f"w{i}",
                                  tuple_cost=0.01)
        handle.collect("sink")
        result = flow.run("simulated", queue_capacity=2)
        assert len(result.sink("sink").results) == 50

    def test_resume_to_finished_source_is_dropped(self):
        """Slow relief after the source closed must not wedge the run."""
        flow = Flow("late", page_size=2)
        (flow.source(SCHEMA, timeline(8))
             .where(lambda t: True, tuple_cost=0.2)
             .collect("sink"))
        result = flow.run("simulated", queue_capacity=2,
                          control_latency=0.5)
        assert len(result.sink("sink").results) == 8


# ------------------------------------------- forward-unknown-control bugfix


class TestForwardUnknownControl:
    def _plan(self):
        plan = QueryPlan("fwd")
        src = ListSource("src", SCHEMA, timeline(40, spacing=0.025))
        mid = PassThrough("mid", SCHEMA)
        sink = CollectSink("sink", SCHEMA, tuple_cost=0.01)
        plan.chain(src, mid, sink)
        return plan, src, mid, sink

    def test_shutdown_message_is_relayed_upstream(self):
        """An unhandled control kind must hop the whole path, not vanish."""
        plan, src, mid, sink = self._plan()
        engine = Simulator(plan)

        def send_shutdown():
            sink.inputs[0].control.send(
                ControlMessage(
                    ControlMessageKind.SHUTDOWN,
                    Direction.UPSTREAM,
                    payload="client stop",
                    sender="sink",
                    sent_at=engine.now(),
                )
            )
            engine.notify_control(mid)

        engine.at(0.2, send_shutdown)
        engine.run()
        assert mid.metrics.control_forwarded == 1
        assert src.metrics.control_forwarded == 1  # no inputs: logged only

    def test_unrecognised_feedback_payload_is_relayed(self):
        """A FEEDBACK payload this operator predates is forwarded verbatim."""
        plan, src, mid, sink = self._plan()
        engine = Simulator(plan)
        marker = object()

        def send_alien_feedback():
            sink.inputs[0].control.send(
                ControlMessage(
                    ControlMessageKind.FEEDBACK,
                    Direction.UPSTREAM,
                    payload=marker,
                    sender="sink",
                    sent_at=engine.now(),
                )
            )
            engine.notify_control(mid)

        engine.at(0.2, send_alien_feedback)
        engine.run()
        assert mid.metrics.control_forwarded == 1
        assert mid.metrics.feedback_received == 0  # not mistaken for semantic

    def test_threaded_forwards_unknown_kinds_too(self):
        """Wall-clock variant, with a gated source holding the run open."""
        import threading

        gate = threading.Event()
        data = timeline(20)

        def events():
            yield from data[:10]
            gate.wait(10.0)  # hold the stream open for the injection
            yield from data[10:]

        plan = QueryPlan("fwd-threaded")
        src = GeneratorSource("src", SCHEMA, events)
        mid = PassThrough("mid", SCHEMA)
        sink = CollectSink("sink", SCHEMA)
        plan.chain(src, mid, sink)
        engine = ThreadedRuntime(plan, timeout=15.0)

        def send_shutdown():
            sink.inputs[0].control.send(
                ControlMessage(
                    ControlMessageKind.SHUTDOWN,
                    Direction.UPSTREAM,
                    payload="client stop",
                    sender="sink",
                    sent_at=engine.now(),
                )
            )
            engine.notify_control(mid)
            gate.set()

        engine.at(0.05, send_shutdown)
        engine.run()
        assert mid.metrics.control_forwarded == 1


# -------------------------------------------------------- operator hooks


class TestPriorityBufferHold:
    def test_buffer_absorbs_while_held(self):
        buffer = PriorityBuffer("buf", SCHEMA, capacity=4)
        harness = OperatorHarness(buffer)
        buffer.on_pause(FlowControlPunctuation.pause("buf->x[0]"), None)
        harness.push_all(tuples(10))
        assert harness.emitted_tuples() == []  # everything absorbed
        assert len(buffer._pending) == 10
        buffer.on_resume(FlowControlPunctuation.resume("buf->x[0]"), None)
        # Released back down below the configured depth, FIFO order.
        released = harness.emitted_tuples()
        assert [t["ts"] for t in released] == [float(i) for i in range(7)]
        assert len(buffer._pending) == 3

    def test_buffer_batch_path_respects_hold(self):
        buffer = PriorityBuffer("buf", SCHEMA, capacity=4)
        harness = OperatorHarness(buffer)
        buffer.on_pause(FlowControlPunctuation.pause("buf->x[0]"), None)
        buffer.process_page(0, tuples(8))
        assert harness.emitted_tuples() == []
        buffer.on_resume(FlowControlPunctuation.resume("buf->x[0]"), None)
        assert len(harness.emitted_tuples()) == 5  # down to capacity - 1

    def test_engine_run_with_buffer_stays_bounded(self):
        flow = Flow("buffered", page_size=8)
        (flow.source(SCHEMA, timeline(300))
             .buffer(capacity=16)
             .where(lambda t: True, tuple_cost=0.002)
             .collect("sink"))
        result = flow.run("simulated", queue_capacity=32)
        # The buffer's resume burst may overshoot by up to its own depth;
        # the point is bounded-vs-unbounded, not an exact ceiling.
        assert result.metrics.peak_queue_occupancy() <= 32 + 16
        unbounded = 300
        assert result.metrics.peak_queue_occupancy() < unbounded / 4
        assert len(result.sink("sink").results) == 300


# ------------------------------------------------------------- rendering


class TestTopologyRendering:
    def test_describe_shows_capacities(self):
        flow = Flow("render", page_size=8)
        (flow.source(SCHEMA, timeline(4))
             .where(lambda t: True, name="keep", queue_capacity=32)
             .collect("sink"))
        text = flow.describe()
        assert "keep[0] (cap=32)" in text
        assert "sink[0] (cap=" not in text  # unbounded edge: unchanged

    def test_describe_matches_compiled_plan_with_capacities(self):
        flow = Flow("render2", page_size=8)
        (flow.source(SCHEMA, timeline(4))
             .where(lambda t: True, name="keep", queue_capacity=32)
             .collect("sink"))
        assert flow.describe() == flow.build().describe()
        flow2 = Flow("render3", page_size=8)
        (flow2.source(SCHEMA, timeline(4))
              .where(lambda t: True, name="keep", queue_capacity=32)
              .collect("sink"))
        assert flow2.to_dot() == flow2.build().to_dot()

    def test_to_dot_marks_backpressure_edges(self):
        flow = Flow("dotted", page_size=8)
        (flow.source(SCHEMA, timeline(4))
             .where(lambda t: True, name="keep", queue_capacity=32)
             .collect("sink"))
        dot = flow.to_dot()
        assert "cap=32" in dot
        assert "arrowtail=tee" in dot

    def test_unbounded_rendering_is_unchanged(self):
        flow = Flow("plain", page_size=8)
        (flow.source(SCHEMA, timeline(4))
             .where(lambda t: True, name="keep")
             .collect("sink"))
        assert "cap=" not in flow.describe()
        assert "arrowtail" not in flow.to_dot()
