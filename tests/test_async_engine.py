"""The asyncio engine: the simulator's scheduler on the wall clock.

Covers what the cross-engine parity suites (test_engine_core,
test_api_flow, test_backpressure, test_sharding -- all of which now run
an ``asyncio`` leg) do not: the async-native surface itself.

* ``Flow.run(engine="asyncio")`` from synchronous code, and
  ``AsyncioEngine.arun()`` awaited from inside a loop;
* ``run()`` inside a running loop is an error (it would deadlock the
  loop on itself), and engines are single-use like every backend;
* ``Flow.from_async_iterable`` ingests async generators on *all three*
  engines with identical content, and concurrent slow feeds overlap on
  one loop (the reason this backend exists);
* ``AwaitableSink`` resolves for concurrent client coroutines and after
  synchronous runs on every engine;
* scheduled actions (``at()``/declarative feedback) fire when due,
  their errors re-raise, and ``control_latency`` defers delivery on the
  wall clock exactly as on the threaded runtime;
* ``emulate_costs`` charges the cost model as wall-clock busy horizons
  -- operators and sources -- and records it as ``busy_time``;
* sharing the loop: the driver yields under a saturating source, an
  idle feed costs no steps, a run owns one pump task per async source
  and nothing else, and cancelling it cancels them all;
* the run-level watchdog turns a wedged plan into ``EngineError``.
"""

from __future__ import annotations

import asyncio
import gc
import time

import pytest

from repro.api import Flow
from repro.core import FeedbackPunctuation
from repro.engine import AsyncioEngine, QueryPlan, create_engine
from repro.errors import EngineError
from repro.operators import (
    AsyncIterableSource,
    AwaitableSink,
    CollectSink,
    ListSource,
)
from repro.punctuation import Pattern
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])


def tup(i, keys=5):
    return StreamTuple(SCHEMA, (float(i), i % keys, float(i)))


def timeline(n):
    return [(0.0, tup(i)) for i in range(n)]


def feed(n, *, delay=0.0, keys=5):
    """Factory for an async generator of (arrival, element) pairs."""

    async def events():
        for i in range(n):
            if delay:
                await asyncio.sleep(delay)
            yield float(i), tup(i, keys)

    return events


def linear_flow(n=100):
    flow = Flow("aio")
    (flow.source(SCHEMA, timeline(n))
         .where(lambda t: t["v"] >= 0.0, name="keep")
         .collect("sink"))
    return flow


# ------------------------------------------------------------ entry points


class TestEntryPoints:
    def test_flow_run_by_name(self):
        result = linear_flow().run(engine="asyncio")
        assert len(result.sink("sink").results) == 100

    def test_arun_awaited_inside_a_loop(self):
        async def main():
            engine = create_engine("asyncio", linear_flow().build())
            return await engine.arun()

        result = asyncio.run(main())
        assert len(result.sink("sink").results) == 100

    def test_run_inside_a_running_loop_is_an_error(self):
        async def main():
            engine = create_engine("asyncio", linear_flow().build())
            with pytest.raises(EngineError, match="arun"):
                engine.run()

        asyncio.run(main())

    def test_engines_are_single_use(self):
        engine = AsyncioEngine(linear_flow().build())
        engine.run()
        with pytest.raises(EngineError, match="single-use"):
            engine.run()

    def test_at_after_start_rejected(self):
        engine = AsyncioEngine(linear_flow().build())
        engine.run()
        with pytest.raises(EngineError, match="before calling run"):
            engine.at(0.0, lambda: None)


# --------------------------------------------------------- async ingestion


class TestAsyncIterableSource:
    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    def test_same_content_on_every_engine(self, engine):
        flow = Flow("ingest")
        flow.from_async_iterable(SCHEMA, feed(40)).collect("sink")
        result = flow.run(engine)
        assert (
            [t["v"] for t in result.sink("sink").results]
            == [float(i) for i in range(40)]
        )

    def test_concurrent_feeds_overlap_on_one_loop(self):
        """Two feeds of N delays each finish in ~N delays, not ~2N: the
        loop parks one coroutine per feed instead of serialising them."""
        n, delay = 10, 0.01
        flow = Flow("overlap")
        a = flow.from_async_iterable(SCHEMA, feed(n, delay=delay), name="a")
        b = flow.from_async_iterable(SCHEMA, feed(n, delay=delay), name="b")
        a.union(b).collect("sink")
        start = time.perf_counter()
        result = flow.run("asyncio", timeout=30.0)
        wall = time.perf_counter() - start
        assert len(result.sink("sink").results) == 2 * n
        # Generous bound: well under the 2*n*delay a serial replay needs.
        assert wall < 1.75 * n * delay

    def test_factory_must_return_async_iterable(self):
        source = AsyncIterableSource("bad", SCHEMA, lambda: [1, 2, 3])
        with pytest.raises(Exception, match="not an async iterable"):
            source.aevents()

    def test_abandoned_sync_bridge_runs_async_cleanup(self):
        """Closing events() mid-stream (an engine aborting) must still
        drive the async generator's awaited cleanup -- a websocket-style
        'finally: await close()' cannot be skipped."""
        closed = []

        async def events():
            try:
                for i in range(100):
                    yield float(i), tup(i)
            finally:
                await asyncio.sleep(0)  # cleanup that genuinely awaits
                closed.append(True)

        source = AsyncIterableSource("feed", SCHEMA, lambda: events())
        bridge = source.events()
        assert next(bridge)[1]["v"] == 0.0
        bridge.close()  # abandonment, not exhaustion
        assert closed == [True]

    def test_feedback_reaches_async_source(self):
        """Assumed feedback installs an output guard on the async source
        exactly as on replayed sources."""
        flow = Flow("fb")
        flow.from_async_iterable(
            SCHEMA, feed(60, delay=0.002), name="src"
        ).where(lambda t: True, name="keep").collect("sink")
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": 2})
        )
        result = flow.run("asyncio", feedback=[(0.02, "sink", fb)],
                          timeout=30.0)
        source = result.metrics.operator_metrics["src"]
        assert source.feedback_received == 1
        assert source.output_guard_drops > 0
        late = [t for t in result.sink("sink").results
                if t["k"] == 2 and t["ts"] > 40]
        assert not late


# ---------------------------------------------------------- awaitable sink


class TestAwaitableSink:
    def test_awaited_concurrently_with_arun(self):
        flow = Flow("client")
        flow.from_async_iterable(
            SCHEMA, feed(20, delay=0.001)
        ).collect_awaitable("sink")

        async def main():
            plan = flow.build()
            engine = create_engine("asyncio", plan)
            run = asyncio.ensure_future(engine.arun())
            rows = await plan.operator("sink")  # AwaitableSink.__await__
            result = await run
            return rows, result

        rows, result = asyncio.run(main())
        assert [t["v"] for t in rows] == [float(i) for i in range(20)]
        assert result.sink("sink").results == rows or len(rows) == 20

    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    def test_resolves_after_synchronous_run(self, engine):
        flow = Flow("after")
        flow.source(SCHEMA, timeline(15)).collect_awaitable("sink")
        result = flow.run(engine)
        sink = result.sink("sink")
        assert isinstance(sink, AwaitableSink)
        rows = asyncio.run(sink.results_async())
        assert len(rows) == 15

    def test_threaded_run_resolves_waiting_loop(self):
        """The threaded runtime finishes the sink on an operator thread;
        completion must hop to the waiting loop via call_soon_threadsafe."""
        plan = QueryPlan("x-thread")
        source = ListSource("src", SCHEMA, timeline(25))
        sink = AwaitableSink("sink", SCHEMA)
        plan.add(source)
        plan.chain(source, sink)

        async def main():
            waiter = asyncio.ensure_future(sink.results_async())
            result = await asyncio.to_thread(
                create_engine("threaded", plan, timeout=30.0).run
            )
            rows = await waiter
            return rows, result

        rows, _result = asyncio.run(main())
        assert len(rows) == 25


# ----------------------------------------------- actions, latency, costs


class TestScheduledActions:
    def test_declarative_feedback_flows_upstream(self):
        flow = Flow("declared")
        flow.from_async_iterable(
            SCHEMA, feed(50, delay=0.002), name="src"
        ).collect("sink")
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": 1})
        )
        result = flow.run("asyncio", feedback=[(0.0, "sink", fb)],
                          timeout=30.0)
        assert result.metrics.operator_metrics["src"].feedback_received == 1

    def test_action_errors_re_raise_after_the_run(self):
        flow = linear_flow(500)

        def boom(_plan):
            raise RuntimeError("action exploded")

        with pytest.raises(RuntimeError, match="action exploded"):
            flow.run("asyncio", actions=[(0.0, boom)], timeout=30.0)

    @pytest.mark.parametrize("engine", ["threaded", "asyncio"])
    def test_action_after_drain_never_fires(self, engine):
        """Both wall-clock engines keep the action as a heap entry; the
        run drains in milliseconds and the entry never falls due."""
        fired = []
        runtime = create_engine(engine, linear_flow(5).build())
        runtime.at(30.0, lambda: fired.append(True))
        runtime.run()
        assert fired == []

    def test_control_latency_defers_delivery_on_the_wall_clock(self):
        """Feedback in flight for 50ms lands mid-stream: the guard then
        suppresses later matching tuples (mirrors the threaded test)."""
        flow = Flow("latency", page_size=1)
        flow.from_async_iterable(
            SCHEMA, feed(20, delay=0.01, keys=2), name="src",
        ).collect("sink")
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": 1})
        )
        result = flow.run(
            "asyncio", feedback=[(0.0, "sink", fb)],
            control_latency=0.05, timeout=30.0,
        )
        source = result.metrics.operator_metrics["src"]
        assert source.feedback_received == 1
        assert source.output_guard_drops > 0
        emitted_matching = [
            t for t in result.sink("sink").results if t["k"] == 1
        ]
        assert len(emitted_matching) < 10


class TestEmulatedCosts:
    def test_costs_slept_and_recorded_as_busy_time(self):
        flow = Flow("costs")
        (flow.source(SCHEMA, timeline(40))
             .where(lambda t: True, name="keep", tuple_cost=0.002)
             .collect("sink"))
        start = time.perf_counter()
        result = flow.run("asyncio", emulate_costs=True, timeout=30.0)
        wall = time.perf_counter() - start
        keep = result.metrics.operator_metrics["keep"]
        assert keep.busy_time == pytest.approx(40 * 0.002, rel=0.05)
        assert wall >= keep.busy_time * 0.9

    def test_costs_overlap_across_operator_coroutines(self):
        """Two independent costed branches sleep concurrently: makespan
        tracks one branch, not the sum (the threaded engine's modeled-
        cost parallelism, on coroutines)."""
        per_branch = 40 * 0.002
        flow = Flow("parallel-costs")
        a = flow.source(SCHEMA, timeline(40), name="sa")
        b = flow.source(SCHEMA, timeline(40), name="sb")
        a = a.where(lambda t: True, name="ka", tuple_cost=0.002)
        b = b.where(lambda t: True, name="kb", tuple_cost=0.002)
        a.union(b).collect("sink")
        start = time.perf_counter()
        flow.run("asyncio", emulate_costs=True, timeout=30.0)
        wall = time.perf_counter() - start
        assert wall < 1.8 * per_branch  # serial would be ~2x + overhead

    @pytest.mark.parametrize("engine", ["threaded", "asyncio"])
    def test_source_cost_is_charged_and_sources_overlap(self, engine):
        """A costed source is busy ``cost_of(element)`` before each
        element on both wall-clock engines, and two costed sources are
        busy concurrently."""
        n, cost = 40, 0.002

        def run(names):
            flow = Flow("costed-sources")
            feeds = [
                flow.source(SCHEMA, timeline(n), name=name, tuple_cost=cost)
                for name in names
            ]
            (feeds[0].union(*feeds[1:]) if feeds[1:] else feeds[0]).collect(
                "sink"
            )
            start = time.perf_counter()
            result = flow.run(engine, emulate_costs=True, timeout=30.0)
            return result, time.perf_counter() - start

        one, wall_one = run(["a"])
        busy = one.metrics.operator_metrics["a"].busy_time
        assert busy == pytest.approx(n * cost, rel=0.05)
        assert wall_one >= 0.9 * n * cost
        two, wall_two = run(["a", "b"])
        assert len(two.sink("sink").results) == 2 * n
        assert wall_two < 1.8 * wall_one  # serial would be ~2x


class TestSharingTheLoop:
    """What one cooperative scheduler owes the loop it runs on."""

    def test_saturating_source_does_not_starve_the_loop(self):
        """A heartbeat beside a 50k-tuple synchronous replay keeps
        ticking: the driver yields once per time slice.

        Gaps are read off this process's CPU clock: what the driver owes
        the loop is that it never *computes* for long without yielding.
        A wall-clock gap also counts the time a loaded box keeps the
        whole process off the CPU, which no scheduler of ours controls.

        Nor does it control a full garbage collection, which holds the
        loop for as long as it takes to walk every object the process
        keeps.  In a full test run that is whatever earlier tests left
        behind: a gen-2 pass over 2M such objects held this loop 0.18 s
        on its own.  So the heap that predates the run is frozen out of
        the collector, and the collections charged here are over what
        the run itself allocates.
        """
        engine = create_engine(
            "asyncio", linear_flow(50_000).build(), timeout=60.0
        )

        async def main():
            gaps = []

            async def heartbeat():
                last = time.process_time()
                while True:
                    await asyncio.sleep(0.001)
                    now = time.process_time()
                    gaps.append(now - last)
                    last = now

            beat = asyncio.ensure_future(heartbeat())
            start = time.process_time()
            result = await engine.arun()
            busy = time.process_time() - start
            beat.cancel()
            return result, busy, gaps

        gc.collect()
        gc.freeze()
        try:
            result, busy, gaps = asyncio.run(main())
        finally:
            gc.unfreeze()
        assert len(result.sink("sink").results) == 50_000
        assert max(gaps) < 0.1
        assert len(gaps) >= busy / 0.010  # a tick per 10 ms, on average

    def test_idle_feed_costs_no_events(self):
        """A feed that sleeps between elements parks its pump; the
        scheduler does not poll while it waits."""

        def events_processed(gap):
            async def feed_():
                yield 0.0, tup(0)
                await asyncio.sleep(gap)
                yield 1.0, tup(1)

            flow = Flow("idle")
            flow.from_async_iterable(SCHEMA, feed_).collect("sink")
            result = flow.run("asyncio", timeout=30.0)
            assert len(result.sink("sink").results) == 2
            return result.metrics.events_processed

        assert events_processed(0.3) <= events_processed(0.0) + 2

    def test_one_driver_and_one_pump_per_async_source(self):
        """No task per operator or per action."""
        started = []
        both_started = asyncio.Event()
        release = asyncio.Event()

        def gated_feed(name):
            async def events():
                # Pumping has begun; hold the feed open until the census.
                started.append(name)
                if len(started) == 2:
                    both_started.set()
                await release.wait()
                for i in range(5):
                    yield float(i), tup(i)

            return events

        flow = Flow("tasks")
        a = flow.from_async_iterable(SCHEMA, gated_feed("a"), name="a")
        b = flow.from_async_iterable(SCHEMA, gated_feed("b"), name="b")
        c = flow.source(SCHEMA, timeline(5), name="c")
        a.union(b, c).where(lambda t: True, name="keep").collect("sink")
        engine = create_engine("asyncio", flow.build(), timeout=30.0)
        engine.at(0.01, lambda: None)

        async def main():
            before = asyncio.all_tasks()
            run = asyncio.ensure_future(engine.arun())
            await asyncio.wait_for(both_started.wait(), timeout=30.0)
            during = asyncio.all_tasks() - before - {run}
            release.set()
            result = await run
            return sorted(task.get_name() for task in during), result

        names, result = asyncio.run(main())
        assert names == ["pump-a", "pump-b"]
        assert len(result.sink("sink").results) == 15

    def test_cancelling_arun_cancels_every_pump(self):
        aborted = []
        arrived = asyncio.Event()

        class Probe(CollectSink):
            def on_page(self, port_index, batch):
                super().on_page(port_index, batch)
                arrived.set()

            def on_run_aborted(self, error):
                aborted.append((self.name, type(error)))

        plan = QueryPlan("cancel")
        source = AsyncIterableSource("src", SCHEMA, feed(10_000, delay=0.001))
        sink = Probe("sink", SCHEMA)
        plan.add(source)
        plan.chain(source, sink, page_size=1)
        engine = AsyncioEngine(plan, timeout=30.0)

        async def main():
            before = asyncio.all_tasks()
            run = asyncio.ensure_future(engine.arun())
            await asyncio.wait_for(arrived.wait(), timeout=30.0)
            run.cancel()
            with pytest.raises(asyncio.CancelledError):
                await run
            return asyncio.all_tasks() - before

        assert asyncio.run(main()) == set()
        assert 0 < len(sink.results) < 10_000
        assert aborted == [("sink", asyncio.CancelledError)]


class TestWatchdog:
    @staticmethod
    def _stuck_plan(sink):
        async def never():
            await asyncio.sleep(3600)
            yield  # pragma: no cover

        plan = QueryPlan("stuck")
        source = AsyncIterableSource("src", SCHEMA, never)
        plan.add(source)
        plan.chain(source, sink)
        return plan

    def test_wedged_plan_raises_engine_error(self):
        engine = AsyncioEngine(
            self._stuck_plan(CollectSink("sink", SCHEMA)), timeout=0.2
        )
        with pytest.raises(EngineError, match="did not finish"):
            engine.run()

    def test_aborted_run_fails_awaitable_sink_waiters(self):
        """A failed run must fail parked client coroutines, not leave
        them awaiting an on_finish that will never come."""
        sink = AwaitableSink("sink", SCHEMA)
        engine = AsyncioEngine(self._stuck_plan(sink), timeout=0.2)

        async def main():
            run = asyncio.ensure_future(engine.arun())
            waiter = asyncio.ensure_future(sink.results_async())
            with pytest.raises(EngineError, match="did not finish"):
                await run
            with pytest.raises(EngineError, match="aborted"):
                # Bounded: the abort settles the waiter; no hang.
                await asyncio.wait_for(waiter, timeout=5.0)

        asyncio.run(main())

    def test_results_async_after_failed_sync_run_raises(self):
        sink = AwaitableSink("sink", SCHEMA)
        engine = AsyncioEngine(self._stuck_plan(sink), timeout=0.2)
        with pytest.raises(EngineError):
            engine.run()
        with pytest.raises(EngineError, match="aborted"):
            asyncio.run(sink.results_async())
