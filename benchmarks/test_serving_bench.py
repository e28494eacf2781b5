"""Serving-layer benchmark: multiplexed websocket clients vs the bare engine.

The serving tentpole's measurable claim: pushing a plan behind sockets,
admission control and a supervisor must not cost the plan its
throughput.  Two runs over the *same* logical plan
(``ingest -> where -> deliver``) and the same paced workload:

* **served** -- :func:`repro.serving.loadgen.run_load` drives a
  :class:`~repro.serving.server.StreamServer` with ``CLIENTS`` paced
  websocket ingest connections plus one subscriber draining the push
  hub; latency is measured end-to-end from send-side timestamps.
* **floor** -- the identical tuple schedule replayed through a bare
  :class:`~repro.engine.async_engine.AsyncioEngine` via
  ``Flow.from_async_iterable`` (no sockets, no JSON, no admission):
  the throughput ceiling the serving stack is held to.

Asserted at full scale (the recorded serving numbers are the wall-clock
harness's ``serve_ws_saturate`` / ``serve_http_burst`` workloads,
``bench/run.py``; this module keeps the assertions):

* zero drops and zero duplicates across every client (checked inside
  ``run_load``: each (client, seq) must be delivered exactly once);
* served throughput >= 0.8x the bare-engine floor;
* bounded server buffers: the ingest channel and push hub peaks stay at
  their configured bounds however many clients multiplex.

Scale knobs: ``REPRO_BENCH_SERVING_CLIENTS`` (default 32; the CI
``bench-smoke`` job sets it small, which skips the timing assertions),
``REPRO_BENCH_SERVING_MESSAGES`` (default 30 per client),
``REPRO_BENCH_SERVING_RATE`` (default 15 msg/s per client).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.api import Flow
from repro.serving import FlowSupervisor, StreamServer, TenantPolicy
from repro.serving.loadgen import run_load
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([
    ("client", "str"), ("seq", "int"), ("sent_at", "float"),
])
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVING_CLIENTS", "32"))
MESSAGES = int(os.environ.get("REPRO_BENCH_SERVING_MESSAGES", "30"))
RATE = float(os.environ.get("REPRO_BENCH_SERVING_RATE", "15.0"))
FULL_SCALE = CLIENTS >= 32
CHANNEL_CAPACITY = 64
HIGH_WATER = 64
QUEUE_CAPACITY = 64


def keep(tup: StreamTuple) -> bool:
    return tup["seq"] >= 0


def served_run() -> dict:
    async def main() -> dict:
        flow = Flow("bench")
        flow.ingest(
            SCHEMA, name="in", capacity=CHANNEL_CAPACITY
        ).where(keep).push("out", high_water=HIGH_WATER)
        supervisor = FlowSupervisor(queue_capacity=QUEUE_CAPACITY)
        supervisor.admit(
            flow,
            policy=TenantPolicy(
                rate=max(1e6, 10 * CLIENTS * RATE),
                burst=1e6,
                max_flows=1,
            ),
        )
        server = StreamServer(supervisor)
        host, port = await server.start()
        try:
            report = await run_load(
                host, port, "bench",
                clients=CLIENTS,
                rate_per_client=RATE,
                messages_per_client=MESSAGES,
            )
        finally:
            await server.aclose(drain=True)
        payload = report.as_dict()
        payload["channel_peak_backlog"] = flow.channel().peak_backlog
        payload["hub_peak_backlog"] = flow.hub().peak_backlog
        payload["per_client_p99_ms"] = report.per_client_p99_ms
        return payload

    return asyncio.run(main())


def floor_run() -> dict:
    """The bare asyncio engine on the same plan and the same pacing.

    One async source replays the aggregate schedule -- CLIENTS x
    MESSAGES tuples at the combined offered rate -- straight into
    ``where -> collect``; no sockets, no JSON codec, no admission.
    """
    total = CLIENTS * MESSAGES
    interval = 1.0 / (CLIENTS * RATE)

    async def paced():
        next_at = time.perf_counter()
        for index in range(total):
            next_at += interval
            delay = next_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            yield float(index), StreamTuple(
                SCHEMA,
                (f"c{index % CLIENTS:03d}", index // CLIENTS,
                 time.perf_counter()),
            )

    flow = Flow("floor")
    flow.from_async_iterable(
        SCHEMA, paced, name="in"
    ).where(keep).collect_awaitable("sink")

    start = time.perf_counter()
    result = flow.run("asyncio", queue_capacity=QUEUE_CAPACITY,
                      timeout=max(60.0, 10.0 * total * interval))
    wall = time.perf_counter() - start
    delivered = len(result.sink("sink").results)
    return {
        "delivered": delivered,
        "duration_s": round(wall, 4),
        "throughput_per_s": round(delivered / wall, 2),
    }


class TestServingBench:
    def test_serving_throughput_tracks_bare_engine(self, benchmark, report):
        served = benchmark.pedantic(
            served_run, rounds=1, iterations=1, warmup_rounds=0
        )
        floor = floor_run()

        # zero drops / zero duplicates at every scale -- run_load raised
        # on duplicates already, the counter seals the other side
        assert served["dropped"] == 0
        assert served["received"] == CLIENTS * MESSAGES
        assert floor["delivered"] == CLIENTS * MESSAGES

        # bounded server buffers regardless of client count
        assert served["channel_peak_backlog"] <= CHANNEL_CAPACITY
        assert served["hub_peak_backlog"] <= (
            HIGH_WATER + CHANNEL_CAPACITY + QUEUE_CAPACITY
        )

        ratio = served["throughput_per_s"] / floor["throughput_per_s"]
        report.append(
            f"serving: {CLIENTS} clients x {MESSAGES} msgs @ {RATE}/s -> "
            f"{served['throughput_per_s']:.0f}/s served vs "
            f"{floor['throughput_per_s']:.0f}/s bare engine "
            f"(ratio {ratio:.2f}); p50 {served['latency_p50_ms']:.1f} ms, "
            f"p99 {served['latency_p99_ms']:.1f} ms"
        )
        if FULL_SCALE:
            assert ratio >= 0.8, (
                f"serving throughput {served['throughput_per_s']:.0f}/s "
                f"fell below 0.8x the bare-engine floor "
                f"{floor['throughput_per_s']:.0f}/s"
            )
            assert served["latency_p99_ms"] < 5_000.0
