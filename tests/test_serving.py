"""End-to-end serving battery: loopback clients against a live server.

Every test runs the real stack -- :class:`~repro.serving.server.
StreamServer` bound to an ephemeral loopback port, a
:class:`~repro.serving.supervisor.FlowSupervisor` multiplexing flows on
the same event loop, and the byte-level clients from
:mod:`repro.serving.client` -- so the assertions cover the full chain
the paper's feedback story extends to the network boundary:

* backpressure reaches the socket: a subscriber that stops reading
  bounds the server's buffers and defers the ingesting client's HTTP
  response (no drops, no unbounded queues);
* tenant isolation: one tenant's burst is converted into that tenant's
  own delay, leaving another tenant's latency untouched;
* supervision: an injected operator crash restarts the flow under
  bounded backoff with channels, hubs and subscribers riding through,
  and a crash loop beyond the budget lands in FAILED + 503;
* clean drain: shutdown processes every admitted element, and the
  delivery log written through the durability seam matches what the
  subscriber saw, entry for entry.
"""

from __future__ import annotations

import asyncio
import socket as socketlib
import time

import pytest

from repro.api import Flow
from repro.durability import DirectoryCheckpointStore, MemoryCheckpointStore
from repro.engine.registry import create_engine
from repro.errors import ServingError
from repro.serving import (
    FlowState,
    FlowSupervisor,
    ServingConfig,
    StreamServer,
    TenantPolicy,
)
from repro.serving.client import (
    WebSocketClient,
    get_json,
    get_text,
    post_json,
    sse_subscribe,
)
from repro.stream import Attribute, Schema, StreamTuple


def make_schema() -> Schema:
    return Schema([
        Attribute("client", "str"),
        Attribute("seq", "int"),
        Attribute("value", "float"),
    ])


def echo_flow(
    name: str,
    *,
    capacity: int = 8,
    high_water: int = 8,
    predicate=None,
) -> tuple[Flow, Schema]:
    """ingest -> (optional where) -> push, the canonical serving shape."""
    schema = make_schema()
    flow = Flow(name)
    handle = flow.ingest(schema, name="in", capacity=capacity)
    if predicate is not None:
        handle = handle.where(predicate)
    handle.push("out", high_water=high_water)
    return flow, schema


def poison_predicate(tup: StreamTuple) -> bool:
    if tup["value"] < 0:
        raise ValueError("poison tuple")
    return True


async def wait_until(condition, *, timeout: float = 5.0, step: float = 0.01):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(step)


# ---------------------------------------------------------------------------
# basics: ingest over HTTP, delivery over SSE and websocket, observability
# ---------------------------------------------------------------------------


class TestServingBasics:
    def test_http_ingest_to_sse_delivery(self):
        async def main():
            flow, _schema = echo_flow("pipe")
            supervisor = FlowSupervisor(queue_capacity=8)
            supervisor.admit(flow)
            server = StreamServer(supervisor)
            host, port = await server.start()

            status, body = await get_json(host, port, "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["flows"]["pipe"] == "running"

            events = []

            async def subscriber():
                stream = sse_subscribe(
                    host, port, "/v1/flows/pipe/stream?limit=3"
                )
                async for event in stream:
                    events.append(event)

            subscription = asyncio.ensure_future(subscriber())
            await wait_until(lambda: flow.hub().subscribers == 1)

            payload = [
                {"client": "a", "seq": i, "value": i * 0.5} for i in range(3)
            ]
            status, body = await post_json(
                host, port, "/v1/flows/pipe/ingest", payload
            )
            assert status == 202
            assert body == {"admitted": 3}

            await asyncio.wait_for(subscription, 10)
            assert [event["seq"] for event in events] == [0, 1, 2]
            assert events[0]["client"] == "a"

            status, listing = await get_json(host, port, "/v1/flows")
            assert status == 200
            assert listing["pipe"]["ingested"] == 3

            status, text = await get_text(host, port, "/metrics")
            assert status == 200
            assert "repro_flow_up" in text
            assert "repro_operator_tuples_in_total" in text
            assert "repro_tenant_reservations_total" in text

            await server.aclose(drain=True)
            assert supervisor.status()["pipe"]["state"] == "drained"

        asyncio.run(main())

    def test_websocket_duplex_roundtrip(self):
        async def main():
            flow, _schema = echo_flow("ws")
            supervisor = FlowSupervisor(queue_capacity=8)
            supervisor.admit(flow)
            server = StreamServer(supervisor)
            host, port = await server.start()

            async with WebSocketClient(
                host, port, "/v1/flows/ws/ws"
            ) as client:
                await client.send_json(
                    {"client": "w", "seq": 1, "value": 2.0}
                )
                echoed = await asyncio.wait_for(client.receive_json(), 10)
                assert echoed == {"client": "w", "seq": 1, "value": 2.0}

                # malformed payloads come back as in-band error frames
                await client.send_json({"bogus": True})
                error = await asyncio.wait_for(client.receive_json(), 10)
                assert "error" in error

            await server.aclose(drain=True)

        asyncio.run(main())

    def test_http_error_handling(self):
        async def main():
            flow, _schema = echo_flow("errs")
            supervisor = FlowSupervisor(queue_capacity=8)
            supervisor.admit(flow)
            server = StreamServer(supervisor)
            host, port = await server.start()

            status, body = await get_json(host, port, "/no/such/route")
            assert status == 404
            assert "no route" in body["error"]

            status, body = await post_json(
                host, port, "/v1/flows/ghost/ingest",
                {"client": "x", "seq": 0, "value": 0.0},
            )
            assert status == 400
            assert "ghost" in body["error"]

            status, body = await post_json(
                host, port, "/v1/flows/errs/ingest", {"wrong": "shape"}
            )
            assert status == 400
            assert server.counters["client_errors_total"] >= 2

            await server.aclose(drain=True)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# backpressure reaches the socket
# ---------------------------------------------------------------------------


class TestBackpressureToSocket:
    def test_slow_subscriber_bounds_buffers_and_defers_ingest(self):
        """A subscriber that stops reading stalls the ingesting client.

        The chain under test: the SSE writer's ``drain()`` blocks on the
        shrunken socket buffers, the subscription stops being consumed,
        the hub buffer hits ``high_water`` and closes its gate, and
        ``supervisor.ingest`` (hence the POST handler) awaits -- so the
        ingesting client's response is deferred while every server-side
        buffer stays bounded.  Disconnecting the slow subscriber releases
        the whole chain and the POST completes with nothing dropped.
        """

        async def main():
            total = 300
            flow, _schema = echo_flow("bp", capacity=8, high_water=8)
            supervisor = FlowSupervisor(queue_capacity=8)
            # A generous rate policy, so the only thing that can defer
            # the POST is the socket-backpressure chain itself.
            managed = supervisor.admit(
                flow,
                policy=TenantPolicy(rate=1e6, burst=1e6, max_flows=2),
            )
            server = StreamServer(
                supervisor,
                config=ServingConfig(write_buffer_high=1024, sndbuf=4096),
            )
            host, port = await server.start()

            # A deliberately slow consumer: tiny kernel receive buffer,
            # tiny client-side reader limit (so the transport stops
            # reading off the socket), reads only the response head.
            raw = socketlib.socket()
            raw.setsockopt(
                socketlib.SOL_SOCKET, socketlib.SO_RCVBUF, 4096
            )
            raw.connect((host, port))
            reader, writer = await asyncio.open_connection(
                sock=raw, limit=1024
            )
            writer.write(
                f"GET /v1/flows/bp/stream HTTP/1.1\r\n"
                f"host: {host}:{port}\r\n\r\n".encode()
            )
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            await wait_until(lambda: flow.hub().subscribers == 1)

            padding = "x" * 256  # ~300B per SSE event
            payload = [
                {"client": padding, "seq": i, "value": 0.0}
                for i in range(total)
            ]
            post = asyncio.ensure_future(
                post_json(host, port, "/v1/flows/bp/ingest", payload)
            )
            hub = flow.hub()

            # The steady stall: once the kernel buffers fill, the SSE
            # writer's drain() blocks for good, the hub gate closes, and
            # admissions freeze with the POST still pending.
            await wait_until(lambda: not hub.gate_open, timeout=10)
            stalled_at = None
            for _ in range(40):
                snapshot = managed.ingested
                await asyncio.sleep(0.25)
                if managed.ingested == snapshot and not hub.gate_open:
                    stalled_at = snapshot
                    break
            assert stalled_at is not None, "stall never settled"
            assert not post.done(), "overload must defer the POST response"
            assert stalled_at < total
            # Bounded server buffers: high_water + channel capacity +
            # queue capacity + a page in flight, nowhere near `total`.
            assert hub.peak_backlog <= 8 + 8 + 8 + 8
            assert flow.channel().peak_backlog <= 8

            # The slow subscriber disconnects: the subscription closes,
            # the gate reopens, and the deferred POST completes in full.
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), 5)
            except (OSError, asyncio.TimeoutError):
                pass
            status, body = await asyncio.wait_for(post, 30)
            assert status == 202
            assert body == {"admitted": total}
            assert managed.ingested == total  # delayed, never dropped

            await server.aclose(drain=True)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# tenant isolation
# ---------------------------------------------------------------------------


class TestTenantIsolation:
    def test_one_tenants_burst_does_not_starve_another(self):
        async def main():
            flow_a, _ = echo_flow("ta")
            flow_b, _ = echo_flow("tb")
            supervisor = FlowSupervisor(queue_capacity=16)
            supervisor.admit(
                flow_a, tenant="alice",
                policy=TenantPolicy(rate=100.0, burst=10.0, max_flows=2),
            )
            supervisor.admit(
                flow_b, tenant="bob",
                policy=TenantPolicy(rate=10_000.0, burst=100.0, max_flows=2),
            )
            server = StreamServer(supervisor)
            host, port = await server.start()

            flood = [
                {"client": "a", "seq": i, "value": 0.0} for i in range(100)
            ]
            flood_task = asyncio.ensure_future(
                post_json(host, port, "/v1/flows/ta/ingest", flood)
            )
            await asyncio.sleep(0.05)

            start = time.perf_counter()
            status, body = await post_json(
                host, port, "/v1/flows/tb/ingest",
                [{"client": "b", "seq": i, "value": 1.0} for i in range(20)],
            )
            elapsed = time.perf_counter() - start
            assert status == 202
            assert body == {"admitted": 20}
            assert elapsed < 0.5, (
                f"bob waited {elapsed:.3f}s behind alice's flood"
            )
            # alice's over-rate flood is still queued behind her own
            # allowance (100 elements at rate 100 needs ~0.9s)...
            assert not flood_task.done()
            # ...and completes in full: delayed, never dropped.
            status, body = await asyncio.wait_for(flood_task, 30)
            assert status == 202
            assert body == {"admitted": 100}

            snapshot = supervisor.admission.snapshot()
            assert snapshot["alice"]["delayed"] > 0
            assert snapshot["bob"]["delayed"] == 0
            # the throttle is on record as pause punctuation on alice's
            # virtual client edge -- and only alice's
            edges = {p.edge for p in supervisor.admission.control_log}
            assert "alice->serving" in edges
            assert "bob->serving" not in edges

            await server.aclose(drain=True)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# supervision: restart with backoff, crash budget, health reporting
# ---------------------------------------------------------------------------


class TestSupervision:
    def test_restart_after_crash_keeps_subscribers(self):
        async def main():
            flow, schema = echo_flow("rf", predicate=poison_predicate)
            supervisor = FlowSupervisor(
                queue_capacity=8, restart_limit=3,
                backoff_base=0.01, backoff_cap=0.05,
            )
            managed = supervisor.admit(flow)
            supervisor.start_all()
            await wait_until(lambda: managed.state is FlowState.RUNNING)

            subscription = supervisor.subscribe("rf")
            collected = []

            async def consume():
                async for tup in subscription:
                    collected.append(tup["seq"])

            consumer = asyncio.ensure_future(consume())

            await supervisor.ingest(
                "rf", StreamTuple(schema, ("p", 99, -1.0))
            )
            await wait_until(
                lambda: managed.restarts >= 1
                and managed.state is FlowState.RUNNING
            )
            assert "poison" in managed.crashes[0]
            assert supervisor.healthy()

            # channel and hub survived the rebuild: the same subscriber
            # sees elements ingested after the restart
            for i in range(3):
                await supervisor.ingest(
                    "rf", StreamTuple(schema, ("p", i, 1.0))
                )
            await supervisor.drain(timeout=10)
            assert managed.state is FlowState.DRAINED
            await asyncio.wait_for(consumer, 10)  # hub closed on drain
            assert collected == [0, 1, 2]

        asyncio.run(main())

    def test_crash_loop_beyond_budget_fails_and_503s(self):
        async def main():
            flow, schema = echo_flow("ff", predicate=poison_predicate)
            supervisor = FlowSupervisor(
                queue_capacity=8, restart_limit=1, backoff_base=0.01
            )
            managed = supervisor.admit(flow)
            server = StreamServer(supervisor)
            host, port = await server.start()

            await wait_until(lambda: managed.state is FlowState.RUNNING)
            await supervisor.ingest(
                "ff", StreamTuple(schema, ("p", 0, -1.0))
            )
            await wait_until(lambda: managed.restarts >= 1)
            # a second poison exhausts the restart budget of 1
            await supervisor.ingest(
                "ff", StreamTuple(schema, ("p", 1, -1.0))
            )
            await wait_until(lambda: managed.state is FlowState.FAILED)
            assert len(managed.crashes) == 2
            assert not supervisor.healthy()

            with pytest.raises(ServingError, match="failed"):
                await supervisor.ingest(
                    "ff", StreamTuple(schema, ("p", 2, 1.0))
                )

            status, body = await get_json(host, port, "/healthz")
            assert status == 503
            assert body["status"] == "degraded"
            assert body["flows"]["ff"] == "failed"

            await server.aclose(drain=False)

        asyncio.run(main())


# ---------------------------------------------------------------------------
# clean drain: exactly-once parity between the socket and the delivery log
# ---------------------------------------------------------------------------


class TestDrainParity:
    def test_drain_delivers_everything_and_log_matches_subscriber(self):
        async def main():
            store = MemoryCheckpointStore()
            flow, _schema = echo_flow("dur")
            supervisor = FlowSupervisor(
                queue_capacity=8,
                engine_options={"checkpoint_store": store},
            )
            supervisor.admit(flow)
            server = StreamServer(supervisor)
            host, port = await server.start()

            total = 25
            received = []

            async def subscriber():
                stream = sse_subscribe(
                    host, port, f"/v1/flows/dur/stream?limit={total}"
                )
                async for event in stream:
                    received.append((event["client"], event["seq"]))

            subscription = asyncio.ensure_future(subscriber())
            await wait_until(lambda: flow.hub().subscribers == 1)

            sent = [
                {"client": "d", "seq": i, "value": i / 2.0}
                for i in range(total)
            ]
            status, body = await post_json(
                host, port, "/v1/flows/dur/ingest", sent
            )
            assert status == 202
            assert body == {"admitted": total}

            await asyncio.wait_for(subscription, 10)
            await server.aclose(drain=True)
            assert supervisor.status()["dur"]["state"] == "drained"

            # exactly-once parity: the durable delivery log holds the
            # same sequence the socket subscriber observed, no gaps and
            # no duplicates
            assert received == [("d", i) for i in range(total)]
            log = store.read_delivery_log("out")
            logged = [(tup["client"], tup["seq"]) for _arrival, tup in log]
            assert logged == received

        asyncio.run(main())

    def test_abort_flushes_partial_delivery_log(self, tmp_path):
        """Regression: cancellation used to drop the buffered log tail.

        The directory store's delivery writer buffers entries and only
        makes them durable at ``flush()``; with no checkpoint marker in
        flight, a cancelled run would discard every pre-abort delivery.
        ``on_run_aborted`` now flushes the seam, so the partial log
        survives and recovery's replay-window dedup can do its job.
        """

        async def main():
            schema = make_schema()
            store = DirectoryCheckpointStore(tmp_path)
            flow = Flow("abort")
            flow.ingest(schema, name="in", capacity=8).collect_awaitable(
                "sink"
            )
            plan = flow.build(queue_capacity=8)
            engine = create_engine(
                "asyncio", plan, timeout=None, checkpoint_store=store
            )
            run = asyncio.ensure_future(engine.arun())
            sink = plan.operator("sink")

            channel = flow.channel()
            for i in range(5):
                await channel.put(StreamTuple(schema, ("a", i, 0.0)))
            await wait_until(lambda: len(sink.results) >= 5)

            # nothing flushed yet: the log is still buffered in the writer
            assert store.read_delivery_log("sink") == []

            run.cancel()
            await asyncio.gather(run, return_exceptions=True)

            log = store.read_delivery_log("sink")
            assert [tup["seq"] for _arrival, tup in log] == [0, 1, 2, 3, 4]

        asyncio.run(main())
