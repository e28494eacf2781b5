"""Async ingestion benchmark: many slow feeds on one event loop.

What the asyncio engine is for: ingesting N independent rate-limited
feeds (async generators sleeping between elements -- the shape of
websockets, HTTP streams, broker subscriptions) costs one *parked pump
task* per feed, so the makespan tracks a single feed's replay time
instead of the sum of all feeds -- and no OS thread is spent per
operator.

Three measurements:

* **asyncio** -- ``Flow.from_async_iterable`` feeds unioned into one
  sink, run on ``engine="asyncio"``: the N feeds' sleeps overlap on the
  loop (the enforced >= 0.5 * N speedup over serial replay at full
  scale);
* **threaded** -- the identical flow on the threaded engine for
  context: its sync bridge pumps each feed on a private loop inside an
  OS thread, so it overlaps too but pays a thread (and a nested event
  loop) per feed;
* **serial bound** -- ``feeds * tuples * delay``, the time a
  one-at-a-time replay of every feed would need.

Content is asserted engine-independently at every scale: the asyncio
run's multiset must equal the deterministic simulated run of the same
flow.

Scale knobs: ``REPRO_BENCH_ASYNC_FEEDS`` (default 8),
``REPRO_BENCH_ASYNC_TUPLES`` (default 150 per feed; below the default
the timing assertions are skipped -- the CI ``bench-smoke`` job runs
exactly that way), ``REPRO_BENCH_ASYNC_DELAY`` (default 0.002s).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.api import Flow
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("feed", "int"), ("v", "float")])
N_FEEDS = int(os.environ.get("REPRO_BENCH_ASYNC_FEEDS", "8"))
N_TUPLES = int(os.environ.get("REPRO_BENCH_ASYNC_TUPLES", "150"))
DELAY = float(os.environ.get("REPRO_BENCH_ASYNC_DELAY", "0.002"))
FULL_SCALE = N_TUPLES >= 150
SERIAL_BOUND = N_FEEDS * N_TUPLES * DELAY


def feed(feed_id: int):
    async def events():
        for i in range(N_TUPLES):
            await asyncio.sleep(DELAY)  # the remote endpoint's pace
            yield float(i), StreamTuple(
                SCHEMA, (float(i), feed_id, float(i))
            )

    return events


def ingest_flow() -> Flow:
    flow = Flow("async-bench")
    handles = [
        flow.from_async_iterable(SCHEMA, feed(n), name=f"feed_{n}")
        for n in range(N_FEEDS)
    ]
    handles[0].union(*handles[1:], name="merged").collect("sink")
    return flow


def run_engine(engine: str):
    flow = ingest_flow()
    start = time.perf_counter()
    result = flow.run(engine, timeout=max(60.0, 4.0 * SERIAL_BOUND))
    wall = time.perf_counter() - start
    return result, wall


def sink_multiset(result):
    return sorted(tuple(t.values) for t in result.sink("sink").results)


class TestAsyncIngestion:
    def test_feeds_overlap_on_one_loop(self, report):
        asyncio_result, asyncio_wall = run_engine("asyncio")
        threaded_result, threaded_wall = run_engine("threaded")

        # Correctness at every scale: all feeds fully ingested, multiset
        # equal to the deterministic engine's run of the same flow.
        expected = N_FEEDS * N_TUPLES
        assert len(asyncio_result.sink("sink").results) == expected
        assert len(threaded_result.sink("sink").results) == expected
        simulated = ingest_flow().run("simulated")
        assert sink_multiset(asyncio_result) == sink_multiset(simulated)

        speedup = SERIAL_BOUND / max(asyncio_wall, 1e-9)
        if FULL_SCALE:
            # The headline: the loop overlaps the feeds' sleeps.  A
            # serial replay needs feeds * tuples * delay; demand at
            # least half the ideal N-fold overlap to stay CI-robust.
            assert asyncio_wall < SERIAL_BOUND / (N_FEEDS / 2), (
                f"asyncio ingest {asyncio_wall:.3f}s vs serial bound "
                f"{SERIAL_BOUND:.3f}s: feeds did not overlap"
            )

        report.append(
            f"async ingest: {N_FEEDS} feeds x {N_TUPLES} tuples @ "
            f"{DELAY * 1000:.1f}ms -> asyncio {asyncio_wall:.3f}s, "
            f"threaded {threaded_wall:.3f}s, serial bound "
            f"{SERIAL_BOUND:.3f}s ({speedup:.1f}x overlap)"
        )

    def test_async_flow_runs_on_the_deterministic_engine(self, report):
        """The bridge keeps async-sourced flows testable on virtual time."""
        result = ingest_flow().run("simulated")
        assert len(result.sink("sink").results) == N_FEEDS * N_TUPLES
        report.append(
            f"  bridge: simulated run ingested {N_FEEDS * N_TUPLES} "
            f"tuples from {N_FEEDS} async feeds"
        )
