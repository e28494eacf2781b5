"""Async ingestion on the asyncio engine: many slow feeds, one loop.

Three "network" feeds (async generators pausing between elements, the
shape of a websocket or HTTP stream) are unioned, windowed, and served
through an awaitable sink -- all on a single event loop: one engine
driver plus one small pump task per feed (``docs/engines.md``).  The run demonstrates:

* ``Flow.from_async_iterable``: async-native sources, awaited natively
  by ``engine="asyncio"`` (and bridged on the other engines -- the same
  flow runs on the deterministic simulator for testing);
* concurrency without threads: the three feeds' delays overlap, so the
  makespan tracks one feed, not the sum of all three;
* ``collect_awaitable`` + ``AsyncioEngine.arun()``: a client coroutine
  awaits the sink's results on the same loop the engine runs on.

Run: ``PYTHONPATH=src python examples/async_ingest.py``
"""

from __future__ import annotations

import asyncio
import time

from repro import Flow, Schema, StreamTuple, create_engine
from repro.api import avg

SCHEMA = Schema([("ts", "timestamp", True), ("feed", "int"), ("v", "float")])

N_PER_FEED = 25
DELAY = 0.004  # per-element "network" latency inside each feed


def feed(feed_id: int):
    async def events():
        for i in range(N_PER_FEED):
            await asyncio.sleep(DELAY)  # the remote endpoint is slow
            yield float(i), StreamTuple(
                SCHEMA, (float(i), feed_id, float(i * (feed_id + 1)))
            )

    return events


def build() -> Flow:
    flow = Flow("async-ingest")
    feeds = [
        flow.from_async_iterable(SCHEMA, feed(n), name=f"feed_{n}")
        for n in range(3)
    ]
    merged = feeds[0].union(*feeds[1:], name="merged")
    (merged.window(avg("v"), by="feed", on="ts", width=10.0, name="avg10")
           .collect_awaitable("out"))
    return flow


def main() -> None:
    # 1) The one-liner: a synchronous run that owns its own loop.
    start = time.perf_counter()
    result = build().run(engine="asyncio")
    wall = time.perf_counter() - start
    rows = result.sink("out").results
    serial = 3 * N_PER_FEED * DELAY
    print(f"sync run: {len(rows)} window averages from 3 feeds "
          f"in {wall:.3f}s (serial replay would need ~{serial:.3f}s)")
    assert len(rows) == 9  # 3 windows x 3 feeds
    assert wall < serial, "feeds should overlap on one loop"

    # 2) Async client code: await the sink alongside the running engine.
    async def client():
        plan = build().build()
        engine = create_engine("asyncio", plan)
        run = asyncio.ensure_future(engine.arun())
        rows = await plan.operator("out")  # AwaitableSink resolves at EOS
        await run
        return rows

    rows = asyncio.run(client())
    print(f"awaited sink: {len(rows)} rows, e.g. "
          f"{[tuple(t.values) for t in rows[:3]]}")

    # 3) The same flow is testable on the deterministic engine.
    simulated = build().run(engine="simulated")
    assert (
        sorted(tuple(t.values) for t in simulated.sink("out").results)
        == sorted(tuple(t.values) for t in rows)
    )
    print("simulated run produced the identical multiset -- ok")


if __name__ == "__main__":
    main()
