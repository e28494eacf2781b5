"""Tests for the threaded (NiagaraST-style) runtime and engine parity."""

import sys
import threading

import pytest

from repro.api import Flow
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

