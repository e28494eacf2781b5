"""Load generator: N simulated clients at T msg/s against one flow.

The "heavy traffic" scenario as a measurable harness
(``benchmarks/test_serving_bench.py``): ``run_load`` opens one websocket *ingest*
connection per simulated client plus a single *subscribe* connection
collecting every pushed result, paces each client at the target rate,
and stamps a send-side ``perf_counter`` into every payload so end-to-end
latency (client socket → parse → admission → channel → plan → hub →
push socket → client) is measured from real timestamps, not inferred.

The driven flow's schema must carry the three correlation attributes
``client``/``seq``/``sent_at`` through to the push sink (extra
attributes are free).  Delivery is verified exactly: every (client, seq)
sent must be received once, so a run that drops or duplicates under
load fails loudly rather than reporting flattering latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ServingError
from repro.serving.client import WebSocketClient

__all__ = ["LoadReport", "run_load"]


@dataclass
class LoadReport:
    """One load run's outcome, ready for a BENCH payload."""

    clients: int
    rate_per_client: float
    duration: float          # wall seconds, first send → last receive
    sent: int
    received: int
    dropped: int             # sent but never delivered (must be 0)
    throughput: float        # delivered results / second
    p50_ms: float
    p99_ms: float
    max_ms: float
    per_client_p99_ms: dict[str, float]

    def as_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients,
            "rate_per_client": self.rate_per_client,
            "offered_rate": self.clients * self.rate_per_client,
            "duration_s": round(self.duration, 4),
            "sent": self.sent,
            "received": self.received,
            "dropped": self.dropped,
            "throughput_per_s": round(self.throughput, 2),
            "latency_p50_ms": round(self.p50_ms, 3),
            "latency_p99_ms": round(self.p99_ms, 3),
            "latency_max_ms": round(self.max_ms, 3),
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


async def run_load(
    host: str,
    port: int,
    flow: str,
    *,
    clients: int = 32,
    rate_per_client: float = 15.0,
    messages_per_client: int = 30,
    payload_extra: dict[str, Any] | None = None,
    receive_timeout: float = 30.0,
) -> LoadReport:
    """Drive ``flow`` with paced websocket clients; collect every result.

    Each client sends ``messages_per_client`` JSON messages at
    ``rate_per_client`` msg/s over its own ``?mode=ingest`` websocket;
    one ``?mode=subscribe`` websocket drains the push hub and matches
    results back to their send timestamps.
    """
    if clients < 1:
        raise ServingError(f"need >= 1 client, got {clients}")
    expected = clients * messages_per_client
    path = f"/v1/flows/{flow}/ws"
    extra = payload_extra or {}

    subscriber = WebSocketClient(host, port, path + "?mode=subscribe")
    await subscriber.connect()

    latencies: list[float] = []
    by_client: dict[str, list[float]] = {}
    seen: set[tuple[str, int]] = set()
    received = 0
    last_receive = time.perf_counter()

    async def collect() -> None:
        nonlocal received, last_receive
        while received < expected:
            message = await subscriber.receive_json()
            if message is None:
                return
            key = (message["client"], message["seq"])
            if key in seen:
                raise ServingError(f"duplicate delivery for {key}")
            seen.add(key)
            now = time.perf_counter()
            latency = now - message["sent_at"]
            latencies.append(latency)
            by_client.setdefault(message["client"], []).append(latency)
            received += 1
            last_receive = now

    async def drive(client_id: str) -> int:
        sent = 0
        async with WebSocketClient(
            host, port, path + "?mode=ingest"
        ) as socket:
            interval = 1.0 / rate_per_client
            next_at = time.perf_counter()
            for seq in range(messages_per_client):
                next_at += interval
                delay = next_at - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                await socket.send_json(
                    {
                        "client": client_id,
                        "seq": seq,
                        "sent_at": time.perf_counter(),
                        **extra,
                    }
                )
                sent += 1
        return sent

    started = time.perf_counter()
    collector = asyncio.ensure_future(collect())
    try:
        sent_counts = await asyncio.gather(
            *(drive(f"c{i:03d}") for i in range(clients))
        )
        await asyncio.wait_for(collector, receive_timeout)
    finally:
        if not collector.done():
            collector.cancel()
            await asyncio.gather(collector, return_exceptions=True)
        await subscriber.close()

    sent = sum(sent_counts)
    duration = max(last_receive - started, 1e-9)
    latencies.sort()
    return LoadReport(
        clients=clients,
        rate_per_client=rate_per_client,
        duration=duration,
        sent=sent,
        received=received,
        dropped=sent - received,
        throughput=received / duration,
        p50_ms=_percentile(latencies, 0.50) * 1e3,
        p99_ms=_percentile(latencies, 0.99) * 1e3,
        max_ms=max(latencies, default=0.0) * 1e3,
        per_client_p99_ms={
            client: round(_percentile(sorted(vals), 0.99) * 1e3, 3)
            for client, vals in sorted(by_client.items())
        },
    )
