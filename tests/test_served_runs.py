"""The served path in runs: admit a run, feed a run, publish a page, one write.

A served tuple used to cross every hop at the socket on its own (one
``ingest``, one pump round trip, one ``publish``, one task, one ``send``);
each hop now carries whatever is already there.  Pinned here is everything
that batching could silently change:

* masking: the one big-integer XOR equals the per-byte reference;
* admission: a list of any size is delivered once and in order, the
  channel never holds more than its capacity, a closed gate still stalls
  the producer and drops nothing;
* the engine: a pause in the middle of a run stashes exactly the rest of
  it, and a checkpointed flow fed runs records the epochs and offsets it
  records fed singles, recovering exactly-once;
* delivery: ``?limit=N`` is exact, a vanished client releases its
  subscription, a single tuple into an idle flow comes out with no
  further input -- nothing waits to fill a batch -- and a closed hub
  ends each subscription once its backlog is taken;
* reading: the frames one socket read brought are one admission, however
  the bytes were cut on the way -- same tuples, same replies, same order,
  nothing held while the socket is awaited -- and the three frames RFC
  6455 forbids end the connection after what preceded them is admitted;
* structure: one ``FlowSupervisor.ingest``, no task per result, and a
  ``Subscription`` is a ``Channel`` with the one ``ready``.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import json
import os
import struct
from collections import Counter

import pytest

from repro import AsyncioEngine, CollectSink, QueryPlan, Select
from repro.api import Flow
from repro.durability import MemoryCheckpointStore
from repro.operators.source import AsyncIterableSource
from repro.errors import ServingError
from repro.serving import (
    FlowState,
    FlowSupervisor,
    StreamServer,
    TenantPolicy,
)
from repro.serving import server as server_module
from repro.serving.client import post_json, sse_subscribe
from repro.serving.wire import (
    WS_CLOSE,
    WS_CONT,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    FrameBuffer,
    websocket_accept,
    ws_encode,
    ws_read,
)
from repro.stream import Attribute, Schema, StreamTuple

SCHEMA = Schema([
    Attribute("client", "str"),
    Attribute("seq", "int"),
    Attribute("value", "float"),
])
OPEN = TenantPolicy(rate=1e9, burst=1e9, max_flows=4)


def tuples(start: int, count: int, client: str = "c") -> list[StreamTuple]:
    return [
        StreamTuple(SCHEMA, (client, seq, seq / 2.0))
        for seq in range(start, start + count)
    ]


def echo_flow(name: str, *, capacity: int, high_water: int, predicate=None):
    flow = Flow(name)
    handle = flow.ingest(SCHEMA, name="in", capacity=capacity)
    if predicate is not None:
        handle = handle.where(predicate, name="keep")
    handle.push("out", high_water=high_water)
    return flow


async def wait_until(condition, *, timeout: float = 10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


# -- masking -------------------------------------------------------------------


def reference_mask(payload: bytes, key: bytes) -> bytes:
    """RFC 6455 section 5.3, one byte at a time."""
    return bytes(b ^ key[i % 4] for i, b in enumerate(payload))


def reference_frame(payload: bytes, opcode: int, fin: bool, key: bytes) -> bytes:
    head = bytes([(0x80 if fin else 0) | opcode])
    n = len(payload)
    if n < 126:
        head += bytes([0x80 | n])
    else:
        head += bytes([0x80 | 126]) + struct.pack("!H", n)
    return head + key + reference_mask(payload, key)


def read_all(wire: bytes, count: int) -> list:
    async def drain():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return [await ws_read(reader) for _ in range(count)]

    return asyncio.run(drain())


class TestUnmaskWithOneXor:
    KEYS = [bytes([0x37, 0xFA, 0x21, 0x3D]), b"\x00\x00\x00\x00",
            b"\xff\x01\x80\x7f"]

    def test_whole_frames_of_every_length(self):
        payloads = [os.urandom(n) for n in range(301)]
        wire = b"".join(
            reference_frame(payload, WS_TEXT, True, self.KEYS[n % 3])
            for n, payload in enumerate(payloads)
        )
        assert read_all(wire, len(payloads)) == [
            (WS_TEXT, payload) for payload in payloads
        ]

    @pytest.mark.parametrize("alignment", [0, 1, 2, 3])
    def test_fragments_restart_the_key_at_every_alignment(self, alignment):
        """A fragment of length 4k + alignment leaves the key mid-cycle;
        the next frame's key starts over at its own first byte."""
        frames, expected = [], []
        for n in range(alignment, 301, 7):
            payload = os.urandom(n)
            cut = alignment + 4 * ((n - alignment) // 8)
            frames.append(reference_frame(
                payload[:alignment], WS_PING, True, self.KEYS[1]))
            frames.append(reference_frame(
                payload[:cut], WS_TEXT, False, self.KEYS[0]))
            frames.append(reference_frame(
                payload[cut:], WS_CONT, True, self.KEYS[2]))
            expected += [(WS_PING, payload[:alignment]), (WS_TEXT, payload)]
        assert read_all(b"".join(frames), len(expected)) == expected

    @pytest.mark.parametrize("pieces", [2, 3])
    def test_control_frames_between_fragments_lose_nothing(self, pieces):
        """RFC 6455 section 5.4: a ping or pong may arrive between the
        fragments of a message.  Each is handed over as it comes and the
        message still arrives whole -- at every split of the payload."""
        payload = bytes(range(12))
        for cut in itertools.combinations(
            range(len(payload) + 1), pieces - 1
        ):
            bounds = (0, *cut, len(payload))
            parts = [payload[a:b] for a, b in zip(bounds, bounds[1:])]
            for control in (WS_PING, WS_PONG):
                frames, expected = [], []
                for index, part in enumerate(parts):
                    if index:
                        frames.append(reference_frame(
                            b"hb", control, True, self.KEYS[1]))
                        expected.append((control, b"hb"))
                    frames.append(reference_frame(
                        part, WS_CONT if index else WS_TEXT,
                        index == len(parts) - 1, self.KEYS[index % 3]))
                expected.append((WS_TEXT, payload))
                expected.append((WS_TEXT, b"next"))
                frames.append(reference_frame(
                    b"next", WS_TEXT, True, self.KEYS[0]))
                assert read_all(b"".join(frames), len(expected)) == expected

    def test_partial_messages_belong_to_their_connection(self):
        async def interleave():
            readers = [asyncio.StreamReader(), asyncio.StreamReader()]
            for reader, word in zip(readers, (b"left", b"right")):
                reader.feed_data(
                    reference_frame(word[:2], WS_TEXT, False, self.KEYS[0])
                    + reference_frame(b"", WS_PING, True, self.KEYS[1])
                    + reference_frame(word[2:], WS_CONT, True, self.KEYS[2])
                )
                reader.feed_eof()
            first = [await ws_read(reader) for reader in readers]
            second = [await ws_read(reader) for reader in readers]
            third = [await ws_read(reader) for reader in readers]
            return first, second, third

        first, second, third = asyncio.run(interleave())
        assert first == [(WS_PING, b""), (WS_PING, b"")]
        assert second == [(WS_TEXT, b"left"), (WS_TEXT, b"right")]
        assert third == [None, None]

    def test_encode_masks_as_the_reference_does(self):
        for n in range(301):
            payload = os.urandom(n)
            frame = ws_encode(payload, mask=True)
            head = 2 if n < 126 else 4
            key, body = frame[head:head + 4], frame[head + 4:]
            assert reference_mask(body, key) == payload
            assert read_all(frame, 1) == [(WS_TEXT, payload)]


# -- admit a run ---------------------------------------------------------------


class TestIngestRuns:
    def test_lists_of_every_size_arrive_once_and_in_order(self):
        async def main():
            flow = echo_flow("runs", capacity=256, high_water=4096)
            supervisor = FlowSupervisor(queue_capacity=64)
            managed = supervisor.admit(flow, policy=OPEN)
            supervisor.start_all()
            subscription = supervisor.subscribe("runs")
            received = []

            async def collect():
                async for tup in subscription:
                    received.append((tup["client"], tup["seq"]))

            collector = asyncio.ensure_future(collect())
            sent = 0
            for size in (1, 63, 64, 65, 1000, 1):
                last = await supervisor.ingest("runs", tuples(sent, size))
                sent += size
                assert last == sent  # the last element's sequence number
                await asyncio.sleep(0)  # let the pump see this run's shape
            assert await supervisor.ingest("runs", []) == sent
            await supervisor.ingest("runs", tuples(sent, 1)[0])  # a tuple
            sent += 1
            await supervisor.drain()
            await asyncio.wait_for(collector, 10)
            assert received == [("c", seq) for seq in range(sent)]
            assert managed.ingested == sent
            channel = flow.channel()
            assert channel.admitted == channel.delivered == sent
            assert channel.peak_backlog <= channel.capacity

        asyncio.run(main())

    def test_a_reader_that_stops_closes_the_gate_and_nothing_is_lost(self):
        async def main():
            flow = echo_flow("stall", capacity=8, high_water=8)
            supervisor = FlowSupervisor(queue_capacity=8)
            managed = supervisor.admit(flow, policy=OPEN)
            supervisor.start_all()
            subscription = supervisor.subscribe("stall")
            hub, channel = flow.hub(), flow.channel()
            total = 1000
            ingest = asyncio.ensure_future(
                supervisor.ingest("stall", tuples(0, total))
            )
            await wait_until(lambda: not hub.gate_open)
            stalled = managed.ingested
            await asyncio.sleep(0.2)
            assert not ingest.done() and not hub.gate_open
            assert managed.ingested == stalled == 0  # counted when all are in
            assert channel.admitted < total
            # high water + what was in flight behind the gate: the channel,
            # one run in the pump and the plan's queues -- nowhere near 1000.
            assert hub.peak_backlog <= 8 + 8 + 8 + 8 + 8
            received = []
            while len(received) < total:
                assert await asyncio.wait_for(subscription.ready(), 10)
                received += subscription.take(len(subscription))
            await asyncio.wait_for(ingest, 10)
            assert [tup["seq"] for tup in received] == list(range(total))
            assert managed.ingested == total
            assert channel.peak_backlog <= channel.capacity
            assert hub.pauses >= 1 and hub.pauses == hub.resumes
            await supervisor.stop()

        asyncio.run(main())

    def test_rate_limit_debits_one_token_per_element(self):
        async def main():
            flow = echo_flow("paced", capacity=64, high_water=64)
            clock = [100.0]
            supervisor = FlowSupervisor(clock=lambda: clock[0])
            supervisor.admit(
                flow, policy=TenantPolicy(rate=1000.0, burst=10.0, max_flows=1)
            )
            supervisor.start_all()
            loop = asyncio.get_running_loop()
            started = loop.time()
            await supervisor.ingest("paced", tuples(0, 30))
            elapsed = loop.time() - started
            state = supervisor.admission.snapshot()["default"]
            # 30 tokens from a bucket of 10 at 1000/s: 20 ms of delay,
            # slept once.
            assert elapsed >= 0.018
            assert state["delayed"] == 20
            await supervisor.stop()

        asyncio.run(main())


# -- feed a run ----------------------------------------------------------------


class TestPauseMidRun:
    def test_the_stash_is_exactly_the_rest_of_the_run(self):
        """A capacity-4 edge takes a fed run four tuples at a time; each
        cut reaches high water, the pause lands before the remainder's
        turn, and the remainder -- all of it, nothing else -- waits in the
        stash for the resume."""
        first, second = tuples(0, 40), tuples(40, 5)
        stashes = []

        class Watched(AsyncioEngine):
            def _handle_source(self, payload):
                super()._handle_source(payload)
                pending = self._paused_source_pending.get("src")
                if pending is not None:
                    stashes.append(
                        (payload[0].metrics.tuples_out, list(pending))
                    )

        async def feed():
            yield 1.0, first
            yield 2.0, second

        plan = QueryPlan("pause-mid-run")
        source = plan.add(AsyncIterableSource("src", SCHEMA, feed))
        keep = plan.add(Select("keep", SCHEMA, lambda tup: True))
        sink = plan.add(CollectSink("sink", SCHEMA))
        plan.connect(source, keep, page_size=64, capacity=4)
        plan.connect(keep, sink)
        result = Watched(plan, timeout=10.0).run()

        assert [tup["seq"] for tup in sink.results] == list(range(45))
        assert result.metrics.operator_metrics["keep"].pauses_issued >= 9
        assert stashes, "the run was never interrupted"
        for emitted, pending in stashes:
            rest_of_run = first[emitted:] if emitted < 40 else second[emitted - 40:]
            assert pending == rest_of_run
        assert result.metrics.queue_metrics[
            "src->keep[0]"
        ].peak_occupancy <= 4
        assert result.metrics.events_processed >= 45

    def test_a_run_under_emulated_costs_enters_element_by_element(self):
        async def feed():
            yield 1.0, tuples(0, 6)

        plan = QueryPlan("costed")
        source = plan.add(
            AsyncIterableSource("src", SCHEMA, feed, tuple_cost=0.001)
        )
        sink = plan.add(CollectSink("sink", SCHEMA))
        plan.connect(source, sink)
        AsyncioEngine(plan, timeout=10.0, emulate_costs=True).run()
        assert [tup["seq"] for tup in sink.results] == list(range(6))
        assert source.metrics.busy_time == pytest.approx(0.006)

    @pytest.mark.parametrize("engine", ["simulated", "threaded"])
    def test_bridged_engines_see_a_run_element_by_element(self, engine):
        async def feed():
            yield 1.0, tuples(0, 3)
            yield 2.0, tuples(3, 1)[0]
            yield 3.0, tuples(4, 70)

        flow = Flow("bridged")
        flow.from_async_iterable(SCHEMA, feed, name="in").collect("sink")
        result = flow.run(engine)
        assert [t["seq"] for t in result.sink("sink").results] == list(
            range(74)
        )


class TestCheckpointedRuns:
    SIZES = (1, 63, 64, 65, 37)   # 230 tuples: epochs at 50..200

    def served(self, store, *, bomb_at=None, recover=False, singles=False):
        """Feed the same 230 tuples, as runs or one by one, through a
        checkpointing supervisor; return what a subscriber saw."""
        calls = {"n": 0}

        def keep(tup):
            calls["n"] += 1
            if bomb_at is not None and calls["n"] >= bomb_at:
                raise RuntimeError("injected crash")
            return True

        async def main():
            flow = echo_flow(
                "durable", capacity=1024, high_water=4096, predicate=keep
            )
            options = {"checkpoint_every": 50}
            options["recover_from" if recover else "checkpoint_store"] = store
            supervisor = FlowSupervisor(
                queue_capacity=64, restart_limit=0, engine_options=options
            )
            managed = supervisor.admit(flow, policy=OPEN)
            supervisor.start_all()
            subscription = supervisor.subscribe("durable")
            sent = 0
            for size in self.SIZES:
                run = tuples(sent, size)
                sent += size
                if managed.state is FlowState.FAILED:
                    break
                if singles:
                    for tup in run:
                        await supervisor.ingest("durable", tup)
                        await asyncio.sleep(0)
                else:
                    await supervisor.ingest("durable", run)
                    await asyncio.sleep(0)
            if bomb_at is None:
                await supervisor.drain()
            else:
                await wait_until(lambda: managed.state is FlowState.FAILED)
            return [
                tup["seq"] for tup in subscription.take(len(subscription))
            ]

        return asyncio.run(main())

    def recorded(self, store):
        return {
            "epochs": store.epochs(),
            "offsets": [store.load_offset(e, "in") for e in store.epochs()],
            "finished": store.load_finished("in"),
            "log": [tup["seq"] for _at, tup in store.read_delivery_log("out")],
        }

    def test_runs_record_what_singles_record(self):
        by_runs, by_singles = MemoryCheckpointStore(), MemoryCheckpointStore()
        assert self.served(by_runs) == list(range(230))
        assert self.served(by_singles, singles=True) == list(range(230))
        assert self.recorded(by_runs) == self.recorded(by_singles)
        assert self.recorded(by_runs)["offsets"] == [50, 100, 150, 200]
        assert self.recorded(by_runs)["finished"] == 230

    def test_kill_and_resume_is_exactly_once(self):
        store = MemoryCheckpointStore()
        before = self.served(store, bomb_at=140)
        assert 0 < len(before) < 230
        after = self.served(store, recover=True, singles=True)
        assert Counter(before + after) == Counter(range(230))
        log = [tup["seq"] for _at, tup in store.read_delivery_log("out")]
        assert Counter(log) == Counter(range(230))


# -- deliver a write -----------------------------------------------------------


async def serving(name: str, *, capacity: int = 1024, high_water: int = 1024):
    flow = echo_flow(name, capacity=capacity, high_water=high_water)
    supervisor = FlowSupervisor(queue_capacity=64)
    supervisor.admit(flow, policy=OPEN)
    server = StreamServer(supervisor)
    host, port = await server.start()
    return flow, server, host, port


def rows(count: int, pad: str = "p") -> list[dict]:
    return [{"client": pad, "seq": i, "value": 0.0} for i in range(count)]


class TestDelivery:
    @pytest.mark.parametrize("limit", [1, 64, 65])
    def test_limit_is_exact(self, limit):
        async def main():
            flow, server, host, port = await serving("lim")
            events = []

            async def subscriber():
                async for event in sse_subscribe(
                    host, port, f"/v1/flows/lim/stream?limit={limit}"
                ):
                    events.append(event["seq"])

            reading = asyncio.ensure_future(subscriber())
            await wait_until(lambda: flow.hub().subscribers == 1)
            status, _ = await post_json(
                host, port, "/v1/flows/lim/ingest", rows(200)
            )
            assert status == 202
            await asyncio.wait_for(reading, 10)  # the server ended the stream
            assert events == list(range(limit))
            await wait_until(lambda: flow.hub().subscribers == 0)
            assert server.counters["pushed_total"] == limit
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_one_tuple_into_an_idle_flow_comes_out_alone(self):
        async def main():
            flow, server, host, port = await serving("idle")
            events = []

            async def subscriber():
                async for event in sse_subscribe(
                    host, port, "/v1/flows/idle/stream?limit=1"
                ):
                    events.append(event["seq"])

            reading = asyncio.ensure_future(subscriber())
            await wait_until(lambda: flow.hub().subscribers == 1)
            await asyncio.sleep(0.1)  # everything parked
            await post_json(host, port, "/v1/flows/idle/ingest", rows(1))
            await asyncio.wait_for(reading, 2)  # no flush timer to wait for
            assert events == [0]
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_a_client_gone_mid_batch_releases_its_subscription(self):
        async def main():
            flow, server, host, port = await serving("gone")
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                f"GET /v1/flows/gone/stream HTTP/1.1\r\n"
                f"host: {host}:{port}\r\n\r\n".encode()
            )
            await reader.readuntil(b"\r\n\r\n")
            await wait_until(lambda: flow.hub().subscribers == 1)
            post = asyncio.ensure_future(post_json(
                host, port, "/v1/flows/gone/ingest", rows(900, "x" * 400)
            ))
            await reader.readuntil(b"\n\n")  # mid-stream ...
            writer.transport.abort()         # ... and gone
            status, body = await asyncio.wait_for(post, 10)
            assert (status, body) == (202, {"admitted": 900})
            await wait_until(lambda: flow.hub().subscribers == 0)
            assert flow.hub().gate_open
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_results_share_writes_and_tasks(self):
        """500 results reach the subscriber in far fewer tasks than
        results: the per-result path creates none."""

        async def main():
            flow, server, host, port = await serving("few")
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            events = []

            async def subscriber():
                async for event in sse_subscribe(
                    host, port, "/v1/flows/few/stream?limit=500"
                ):
                    events.append(event["seq"])

            reading = asyncio.ensure_future(subscriber())
            await wait_until(lambda: flow.hub().subscribers == 1)
            loop.set_task_factory(factory)
            try:
                await post_json(host, port, "/v1/flows/few/ingest", rows(500))
                await asyncio.wait_for(reading, 10)
            finally:
                loop.set_task_factory(None)
            assert events == list(range(500))
            assert len(created) < 50, Counter(created)
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_a_closed_hub_ends_its_subscriptions_after_their_backlog(self):
        from repro.stream.channels import Broadcast

        async def main():
            hub = Broadcast("out", high_water=4)
            kept, left = hub.subscribe(), hub.subscribe()
            hub.publish_page([1, 2, 3, 4, 5])
            assert not hub.gate_open and hub.pauses == 1
            left.close()                      # a client disconnected
            assert hub.subscribers == 1 and not hub.gate_open
            assert kept.take(4) == [1, 2, 3, 4]   # drained to low water
            assert hub.gate_open and hub.resumes == 1
            hub.close()
            assert hub.subscribers == 0 and kept.closed
            assert [element async for element in kept] == [5]
            assert not await kept.ready()
            assert (kept.admitted, kept.delivered, kept.peak_backlog) == (
                5, 5, 5)
            kept.close()                      # after the hub: harmless
            assert (hub.pauses, hub.resumes) == (1, 1)

        asyncio.run(main())

    @pytest.mark.parametrize("high_water", [1, 4, 9])
    def test_a_hub_reopens_at_a_quarter_of_its_high_water(self, high_water):
        from repro.stream.channels import Broadcast

        async def main():
            hub = Broadcast("out", high_water=high_water)
            slow, fast = hub.subscribe(), hub.subscribe()
            hub.publish_page(list(range(high_water)))
            assert not hub.gate_open and hub.pauses == 1
            fast.take(high_water)             # the slowest buffer decides
            assert not hub.gate_open
            while len(slow) > high_water // 4:
                assert not hub.gate_open
                slow.take(1)
            assert hub.gate_open and hub.resumes == 1
            await asyncio.wait_for(hub.wait_open(), 1)

        asyncio.run(main())


# -- read a run ----------------------------------------------------------------

KEY = bytes([0x37, 0xFA, 0x21, 0x3D])


def text_frame(seq: int) -> bytes:
    body = json.dumps({"client": "c", "seq": seq, "value": 0.5}).encode()
    return reference_frame(body, WS_TEXT, True, KEY)


class Chunks:
    """A reader that hands out exactly these reads, then end of stream."""

    def __init__(self, chunks) -> None:
        self.chunks = [chunk for chunk in chunks if chunk]

    async def read(self, _n: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""


def read_messages(make_reader) -> list:
    """Every message ``ws_read`` finds, then ``None`` or the refusal."""

    async def drain():
        reader = make_reader()
        seen = []
        while True:
            try:
                seen.append(await ws_read(reader))
            except (ServingError, asyncio.IncompleteReadError) as exc:
                return seen + [(type(exc), str(exc))]
            if seen[-1] is None:
                return seen

    return asyncio.run(drain())


def bare(wire: bytes):
    def make() -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return reader

    return make


def buffered(*chunks: bytes):
    return lambda: FrameBuffer(Chunks(chunks))


#: One of everything a connection may carry, in an order that matters:
#: two malformed bodies (the second fragmented around a ping), a message
#: in three fragments around another ping, frames the server ignores.
SEQUENCE = (
    text_frame(0) + text_frame(1)
    + reference_frame(b"a", WS_PING, True, KEY)
    + reference_frame(b'{"client": "c", "seq"', WS_TEXT, True, KEY)
    + text_frame(2)
    + reference_frame(b'{"client": "\xff', WS_TEXT, False, KEY)
    + reference_frame(b"b", WS_PING, True, KEY)
    + reference_frame(b'"}', WS_CONT, True, KEY)
    + reference_frame(b'{"client": "c", ', WS_TEXT, False, KEY)
    + reference_frame(b'"seq": 3, ', WS_CONT, False, KEY)
    + reference_frame(b"c", WS_PING, True, KEY)
    + reference_frame(b'"value": 0.5}', WS_CONT, True, KEY)
    + reference_frame(b"unasked", WS_PONG, True, KEY)
    + reference_frame(os.urandom(200), 0x2, True, KEY)
    + text_frame(4)
    + reference_frame(b"\x03\xe8", WS_CLOSE, True, KEY)
)
AFTER_CLOSE = text_frame(5)


class TestFrameBuffer:
    def test_any_cut_of_the_bytes_reads_as_the_whole_does(self):
        whole = read_messages(bare(SEQUENCE))
        assert whole[-1] is None and len(whole) == 14
        cuts = [[k] for k in range(1, len(SEQUENCE))]
        cuts += [list(range(1, len(SEQUENCE))), [7, 8, 9, 300], []]
        for cut in cuts:
            bounds = [0, *cut, len(SEQUENCE)]
            pieces = [SEQUENCE[a:b] for a, b in zip(bounds, bounds[1:])]
            assert read_messages(buffered(*pieces)) == whole, cut

    def test_a_message_is_taken_without_a_read_or_needs_one(self):
        whole = read_messages(bare(SEQUENCE))
        for step in (1, 3, 50, len(SEQUENCE)):
            source = Chunks(
                SEQUENCE[a:a + step] for a in range(0, len(SEQUENCE), step)
            )
            reader = FrameBuffer(source)

            async def drain():
                seen = []
                while True:
                    frame = reader.take()
                    if frame is None:
                        left = len(source.chunks)
                        frame = await ws_read(reader)
                        # Nothing to take means the socket was needed.
                        assert len(source.chunks) < left or not left
                    seen.append(frame)
                    if frame is None:
                        return seen

            assert asyncio.run(drain()) == whole, step

    def test_end_of_stream_inside_a_frame_is_an_incomplete_read(self):
        frame = text_frame(0)
        for reader in (bare(frame[:9]), buffered(frame[:5], frame[5:9])):
            (kind, _message), = read_messages(reader)
            assert kind is asyncio.IncompleteReadError
        assert read_messages(buffered(b"\x81")) == [None]

    def test_a_frame_too_long_to_arrive_is_never_taken_but_refused(self):
        head = bytes([0x81, 0x80 | 127]) + (1 << 62).to_bytes(8, "big") + KEY
        reader = FrameBuffer(Chunks([text_frame(0) + head]))

        async def main():
            assert reader.take() is None        # nothing read yet
            assert (await ws_read(reader))[0] == WS_TEXT
            # A head, no payload: under a limit it fits, nothing to take...
            assert reader.take(max_message=1 << 63) is None
            # ... and under the real one it is refused without its payload.
            with pytest.raises(ServingError, match="exceeds"):
                reader.take()

        asyncio.run(main())


#: What RFC 6455 forbids and ``ws_read`` used to take.
FORBIDDEN = {
    "a control frame over 125 bytes": (
        reference_frame(b"p" * 126, WS_PING, True, KEY),
        "control frame of 126 bytes exceeds the 125-byte limit",
    ),
    "a megabyte of ping, refused unread": (
        bytes([0x89, 0x80 | 127]) + (1 << 20).to_bytes(8, "big") + KEY,
        "control frame of 1048576 bytes exceeds the 125-byte limit",
    ),
    "a control frame without FIN": (
        reference_frame(b"hb", WS_PING, False, KEY),
        "control frame is fragmented",
    ),
    "a close frame without FIN": (
        reference_frame(b"", WS_CLOSE, False, KEY),
        "control frame is fragmented",
    ),
    "a data frame inside an unfinished message": (
        reference_frame(b"ab", WS_TEXT, False, KEY)
        + reference_frame(b"cd", WS_TEXT, True, KEY),
        "data frame inside an unfinished fragmented message",
    ),
    "... even behind an interleaved ping": (
        reference_frame(b"ab", WS_TEXT, False, KEY)
        + reference_frame(b"", WS_PING, True, KEY)
        + reference_frame(b"cd", 0x2, True, KEY),
        "data frame inside an unfinished fragmented message",
    ),
}


class TestFrameRules:
    @pytest.mark.parametrize("case", FORBIDDEN)
    def test_forbidden_frames_are_refused_at_the_wire(self, case):
        wire, message = FORBIDDEN[case]
        for reader in (bare(text_frame(0) + wire),
                       buffered(text_frame(0) + wire)):
            seen = read_messages(reader)
            assert seen[0][0] == WS_TEXT
            assert seen[-1] == (ServingError, "websocket " + message)
            assert all(frame[0] == WS_PING for frame in seen[1:-1])

    def test_the_largest_control_frame_still_passes(self):
        wire = reference_frame(b"p" * 125, WS_PING, True, KEY)
        assert read_messages(bare(wire)) == [(WS_PING, b"p" * 125), None]

    @pytest.mark.parametrize("case", FORBIDDEN)
    def test_over_a_socket_they_end_the_connection_and_lose_nothing(
        self, case, monkeypatch
    ):
        wire, _message = FORBIDDEN[case]

        async def main():
            flow, server, host, port = await serving("strict")
            taps = tap_server(monkeypatch, server)
            reader, writer = await open_websocket(host, port, "strict")
            writer.write(text_frame(0) + text_frame(1) + wire + text_frame(2))
            frames = []
            while (frame := await asyncio.wait_for(ws_read(reader), 5)):
                frames.append(frame)
            # The server hung up; what preceded the frame was admitted,
            # what followed it was not.
            assert all(opcode == WS_PONG for opcode, _ in frames)
            assert [e for e in taps[-1].events if e[0] == "run"] == [
                ("run", [0, 1])
            ]
            assert flow.channel().admitted == 2
            writer.close()
            await server.aclose(drain=True)

        asyncio.run(main())


class Tap:
    """One websocket connection as its handler saw it."""

    def __init__(self) -> None:
        self.reads: list[int] = []      # bytes each socket read returned
        self.waiting = False            # parked in a socket read
        self.events: list[tuple] = []   # ("run", seqs) / ("reply", ...)

    @property
    def consumed(self) -> int:
        return sum(self.reads)

    def in_order(self) -> list:
        """Events with every run spelled tuple by tuple."""
        flat = []
        for event in self.events:
            if event[0] == "run":
                flat += [("tuple", seq) for seq in event[1]]
            else:
                flat.append(event)
        return flat


class TappedReader:
    def __init__(self, reader: asyncio.StreamReader, tap: Tap) -> None:
        self.reader, self.tap = reader, tap

    async def read(self, n: int) -> bytes:
        self.tap.waiting = True
        try:
            chunk = await self.reader.read(n)
        finally:
            self.tap.waiting = False
        self.tap.reads.append(len(chunk))
        return chunk


def tap_server(monkeypatch, server: StreamServer) -> list[Tap]:
    """Record, per websocket connection, each socket read, each run
    admitted and each reply framed -- in the order the handler did them.
    The three names are patched where the handler looks them up."""
    taps: list[Tap] = []

    def buffer(reader):
        taps.append(Tap())
        return FrameBuffer(TappedReader(reader, taps[-1]))

    def encode(payload, *, opcode=WS_TEXT):
        taps[-1].events.append(("reply", opcode, payload))
        return ws_encode(payload, opcode=opcode)

    admit = server.supervisor.ingest

    async def ingest(name, run):
        taps[-1].events.append(("run", [tup["seq"] for tup in run]))
        return await admit(name, run)

    monkeypatch.setattr(server_module, "FrameBuffer", buffer)
    monkeypatch.setattr(server_module, "ws_encode", encode)
    monkeypatch.setattr(server.supervisor, "ingest", ingest)
    return taps


async def open_websocket(host, port, flow, mode="ingest"):
    reader, writer = await asyncio.open_connection(host, port)
    key = "cmVhZC1hLXJ1bi10ZXN0cw=="
    writer.write(
        f"GET /v1/flows/{flow}/ws?mode={mode} HTTP/1.1\r\n"
        f"host: {host}:{port}\r\nupgrade: websocket\r\n"
        f"connection: Upgrade\r\nsec-websocket-version: 13\r\n"
        f"sec-websocket-key: {key}\r\n\r\n".encode()
    )
    head = await reader.readuntil(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 101") and (
        websocket_accept(key).encode() in head
    )
    return reader, writer


class TestReadARun:
    async def deliver(self, host, port, taps, wire, cuts, tail=b""):
        """Send ``wire`` cut at ``cuts``, each piece only once the handler
        has taken the one before and is back waiting on the socket
        (``tail`` rides with the last piece); returns what the handler
        did and the frames it sent back, both in order."""
        connections = len(taps)
        reader, writer = await open_websocket(host, port, "cuts")
        while len(taps) == connections:
            await asyncio.sleep(0)
        tap = taps[-1]
        bounds = [0, *cuts, len(wire)]
        for a, b in zip(bounds, bounds[1:]):
            last = b == len(wire)
            writer.write(wire[a:b] + (tail if last else b""))
            while not last and not (tap.waiting and tap.consumed == b):
                await asyncio.sleep(0)
        replies = []
        while (frame := await asyncio.wait_for(ws_read(reader), 5)):
            replies.append(frame)
        writer.close()
        return tap, replies

    def test_however_the_bytes_are_cut_the_handler_does_the_same(
        self, monkeypatch
    ):
        async def main():
            flow, server, host, port = await serving("cuts")
            taps = tap_server(monkeypatch, server)
            whole, replies = await self.deliver(
                host, port, taps, SEQUENCE, [], AFTER_CLOSE
            )
            refused = [
                json.dumps({"error": message}) for message in (
                    "ingest body is not valid JSON: Expecting ':' delimiter: "
                    "line 1 column 22 (char 21)",
                    "ingest body is not valid JSON: 'utf-8' codec can't "
                    "decode byte 0xff in position 12: invalid start byte",
                )
            ]
            assert whole.in_order() == [
                ("tuple", 0), ("tuple", 1),
                ("reply", WS_PONG, b"a"),
                ("reply", WS_TEXT, refused[0]),
                ("tuple", 2),
                ("reply", WS_PONG, b"b"),
                ("reply", WS_TEXT, refused[1]),
                ("reply", WS_PONG, b"c"),
                ("tuple", 3), ("tuple", 4),
                ("reply", WS_CLOSE, b"\x03\xe8"),
            ]
            assert replies == [
                (event[1], event[2].encode() if event[1] == WS_TEXT
                 else event[2])
                for event in whole.events if event[0] == "reply"
            ]
            assert whole.reads == [len(SEQUENCE + AFTER_CLOSE)]
            # One read, so one admission per stretch between replies.
            assert [e[1] for e in whole.events if e[0] == "run"] == [
                [0, 1], [2], [3, 4]
            ]
            cuts = [[k] for k in range(1, len(SEQUENCE))]
            cuts.append(list(range(1, len(SEQUENCE))))   # byte by byte
            for cut in cuts:
                tap, got = await self.deliver(
                    host, port, taps, SEQUENCE, cut, AFTER_CLOSE
                )
                assert tap.in_order() == whole.in_order(), cut
                assert got == replies, cut
                assert len(tap.reads) == len(cut) + 1, cut
            # Nothing after a close frame was admitted, on any delivery.
            assert flow.channel().admitted == 5 * (len(cuts) + 1)
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_whole_frames_are_delivered_while_half_a_frame_waits(self):
        async def main():
            flow, server, host, port = await serving("half")
            results, subscriber = await open_websocket(
                host, port, "half", "subscribe"
            )
            await wait_until(lambda: flow.hub().subscribers == 1)
            _unused, writer = await open_websocket(host, port, "half")

            async def received(count):
                return [
                    json.loads((await asyncio.wait_for(
                        ws_read(results), 5))[1])["seq"]
                    for _ in range(count)
                ]

            for k in (1, 7):
                frames = [text_frame(seq) for seq in range(k + 1)]
                half = len(frames[k]) // 2
                writer.write(b"".join(frames[:k]) + frames[k][:half])
                # The k results are the event: they arrive although the
                # frame behind them is still half on the client's side.
                assert await received(k) == list(range(k))
                admitted = flow.channel().admitted
                writer.write(frames[k][half:])
                assert await received(1) == [k]
                assert flow.channel().admitted == admitted + 1
            writer.close()
            subscriber.close()
            await server.aclose(drain=True)

        asyncio.run(main())

    def test_one_admission_per_wake_up_not_per_frame(self, monkeypatch):
        async def main():
            flow, server, host, port = await serving("wake")
            taps = tap_server(monkeypatch, server)
            _unused, writer = await open_websocket(host, port, "wake")
            while not taps:
                await asyncio.sleep(0)
            tap = taps[-1]
            frames = [text_frame(seq) for seq in range(90)]
            ends = list(itertools.accumulate(map(len, frames)))
            sent = 0
            for burst in (frames[:1], frames[1:41], frames[41:]):
                writer.write(b"".join(burst))
                sent += sum(map(len, burst))
                while not (tap.waiting and tap.consumed == sent):
                    await asyncio.sleep(0)
            # Whatever the kernel made of three writes: each read that
            # completed any frame is one run of all it completed.
            expected, start = [], 0
            for size in tap.reads:
                done = [seq for seq, end in enumerate(ends)
                        if start < end <= start + size]
                start += size
                if done:
                    expected.append(done)
            assert [e[1] for e in tap.events] == expected
            assert len(expected) <= len(tap.reads) < len(frames)
            assert expected[0] == [0]     # one frame is a run of one
            assert flow.channel().admitted == 90
            writer.close()
            await server.aclose(drain=True)

        asyncio.run(main())


class TestStructure:
    def test_one_ingest_method(self):
        assert [
            name for name in dir(FlowSupervisor) if "ingest" in name
        ] == ["ingest"]

    def test_the_per_result_path_creates_no_task(self):
        for path in (StreamServer._write_buffered, StreamServer._ws_push):
            body = inspect.getsource(path)
            assert "ensure_future" not in body
            assert "create_task" not in body
            assert "asyncio.wait" not in body

    def test_the_one_element_forms_are_views_of_the_run_forms(self):
        from repro.stream.channels import Broadcast, Channel, Subscription

        for view, run_form in (
            (Channel.put, "put_run"),
            (Channel.stream, "runs"),
            (Broadcast.publish, "publish_page"),
            (Subscription.__anext__, "take"),
        ):
            assert f"self.{run_form}(" in inspect.getsource(view)
        assert not hasattr(Channel, "offer")

    def test_a_subscription_is_a_channel(self):
        """One async buffer: the hub publishes into a channel, and the
        consumer's wait is written once."""
        import ast

        from repro.stream import channels
        from repro.stream.channels import Channel, Subscription

        assert issubclass(Subscription, Channel)
        tree = ast.parse(inspect.getsource(channels))
        readies = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "ready"
        ]
        assert len(readies) == 1
        assert Subscription.ready is Channel.ready
        assert "self.ready(" in inspect.getsource(Channel.runs)
        assert "self.take(" in inspect.getsource(Channel.runs)

    def test_push_sink_hands_over_its_page(self):
        from repro.engine.harness import OperatorHarness
        from repro.operators.sink import PushSink

        pages = []
        sink = PushSink("out", SCHEMA, publish=pages.append)
        OperatorHarness(sink, outputs=0).push_page(tuples(0, 5))
        assert pages == [tuples(0, 5)]
