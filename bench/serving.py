"""The two serving workloads: a server child and the load that drives it.

The system under test is a child process (this module run as a script)
hosting ``ingest(capacity 1024) -> where -> push(high_water 1024)``
under ``FlowSupervisor(queue_capacity=1024)`` + ``StreamServer`` with an
unthrottled tenant, pinned to the SUT's CPU.  The load generator runs in
the calling process on the other CPU, over two connections, and shares
nothing with the program but bytes on the sockets: it speaks the wire
protocols itself rather than through ``repro.serving.client``.

* ``serve_ws_saturate`` -- closed loop: 256 one-tuple masked websocket
  frames in flight on one ``?mode=ingest`` socket, results read from one
  ``?mode=subscribe`` socket; each result received sends the next frame.
* ``serve_http_burst`` -- open loop: every 80 ms one keep-alive ``POST``
  with a 200-tuple JSON list, results read from one SSE stream; each
  tuple is timed from the instant its burst was *due*.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # child entry: import `bench` as a package
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env, oracle, spans

FLOW = "bench"
CHANNEL_CAPACITY = 1024
HIGH_WATER = 1024
QUEUE_CAPACITY = 1024
WINDOW = 256               # frames in flight, below every server bound
BURST_TUPLES = 200
BURST_EVERY = 0.080        # s; 2,500 tuples/s, about a third of capacity
#: Results per measured segment: ~0.3 s of saturated traffic (matched to
#: the in-process rep), and exactly one burst -- shorter samples reach
#: further into the quiet tail, and a burst is the natural unit there.
SEGMENT = {"serve_ws_saturate": 6000, "serve_http_burst": BURST_TUPLES}
DRAIN_TIMEOUT = 5.0
MASK_KEY = bytes([0x37, 0xFA, 0x21, 0x3D])


# == server child ==============================================================


def build_server(recorder: "spans.Recorder | None" = None):
    env.require_program()
    from repro.api import Flow
    from repro.serving import FlowSupervisor, StreamServer, TenantPolicy
    from repro.stream import Schema

    if recorder is not None:
        _trace_serving(recorder)
    schema = Schema([("client", "str"), ("seq", "int"), ("value", "float")])
    flow = Flow(FLOW)
    flow.ingest(schema, name="in", capacity=CHANNEL_CAPACITY).where(
        lambda tup: tup["seq"] >= 0, name="keep"
    ).push("out", high_water=HIGH_WATER)
    supervisor = FlowSupervisor(queue_capacity=QUEUE_CAPACITY)
    supervisor.admit(
        flow, policy=TenantPolicy(rate=1e9, burst=1e9, max_flows=1)
    )
    return StreamServer(supervisor)


def _trace_serving(recorder: "spans.Recorder") -> None:
    """Wrap the calls the connection handlers make into each layer.

    ``repro.serving.server`` looks these names up in its own module
    namespace at call time, so rebinding them there traces the handlers
    without editing them.
    """
    import repro.serving.server as server
    from repro.serving.supervisor import FlowSupervisor

    for name in ("ws_read", "read_request"):
        setattr(server, name,
                recorder.wrap_async(getattr(server, name), name))
    for name in ("tuples_from_body", "tuple_to_json", "ws_encode",
                 "sse_event"):
        setattr(server, name, recorder.wrap(getattr(server, name), name))
    FlowSupervisor.ingest = recorder.wrap_async(
        FlowSupervisor.ingest, "ingest"
    )


async def _serve(config: dict) -> dict:
    recorder = (
        spans.Recorder(config["run_id"], time.perf_counter_ns)
        if config.get("trace") else None
    )
    server = build_server(recorder)
    host, port = await server.start()
    print(json.dumps({"port": port,
                      "pinned_to": sorted(os.sched_getaffinity(0))}),
          flush=True)
    # Serve until the parent closes our stdin.
    loop = asyncio.get_running_loop()
    closed = asyncio.Event()

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            closed.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    await closed.wait()
    loop.remove_reader(sys.stdin.fileno())
    await server.aclose(drain=True)
    report = {"peak_rss_mb": env.vm_hwm_mb()}
    if recorder is not None:
        report["self_ms"] = recorder.self_ms()
        report["span_counts"] = recorder.counts()
        if config.get("spans_path"):
            recorder.dump(Path(config["spans_path"]))
    return report


def server_main(config: dict) -> None:
    env.pin(config["cpu"])
    print(json.dumps(asyncio.run(_serve(config))), flush=True)


class ServerChild:
    """Start, address and stop one pinned server child."""

    def __init__(self, cpu: int, *, trace: bool = False,
                 run_id: str = "", spans_path: str | None = None) -> None:
        self.config = {"cpu": cpu, "trace": trace, "run_id": run_id,
                       "spans_path": spans_path}
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0
        self.pinned_to: list[int] = []
        self.spawned = 0.0          # time.monotonic() just before the spawn

    async def start(self) -> None:
        self.spawned = time.monotonic()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable, str(Path(__file__).resolve()),
            json.dumps(self.config),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=child_env(),
        )
        line = await self.process.stdout.readline()
        if not line:
            await self.process.wait()
            raise RuntimeError("server child exited before listening")
        hello = json.loads(line)
        self.port = hello["port"]
        self.pinned_to = hello["pinned_to"]

    @property
    def pid(self) -> int:
        return self.process.pid

    async def stop(self) -> dict:
        """Close the child's stdin, read its report, wait for it to end."""
        process = self.process
        process.stdin.close()
        try:
            out = await asyncio.wait_for(process.stdout.read(), 30.0)
            await asyncio.wait_for(process.wait(), 30.0)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
            raise RuntimeError("server child did not shut down") from None
        if process.returncode != 0:
            raise RuntimeError(
                f"server child exited with {process.returncode}"
            )
        return json.loads(out.splitlines()[-1])

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


def child_env() -> dict:
    """The children's environment: fixed hash seed, nothing else changed."""
    return {**os.environ, "PYTHONHASHSEED": "0"}


# == load generator ============================================================


def mask(payload: bytes) -> bytes:
    """RFC 6455 client masking, via one big-integer XOR."""
    n = len(payload)
    key = (MASK_KEY * (n // 4 + 1))[:n]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(key, "big")
    ).to_bytes(n, "big")


def ws_frame(payload: bytes) -> bytes:
    """One masked FIN text frame carrying ``payload`` (< 64 KiB)."""
    n = len(payload)
    if n < 126:
        head = bytes([0x81, 0x80 | n])
    else:
        head = bytes([0x81, 0x80 | 126]) + n.to_bytes(2, "big")
    return head + MASK_KEY + mask(payload)


def tuple_json(client: str, seq: int, value: float) -> str:
    return f'{{"client":"{client}","seq":{seq},"value":{value!r}}}'


async def _open(host: str, port: int, request: str, expect: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(request.encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    if not head.startswith(expect):
        writer.close()
        raise RuntimeError(f"unexpected response: {head[:80]!r}")
    return reader, writer


async def open_websocket(host: str, port: int, mode: str):
    return await _open(
        host, port,
        f"GET /v1/flows/{FLOW}/ws?mode={mode} HTTP/1.1\r\n"
        f"host: {host}:{port}\r\nupgrade: websocket\r\n"
        f"connection: Upgrade\r\nsec-websocket-version: 13\r\n"
        f"sec-websocket-key: YmVuY2gtbG9hZGdlbi1rZXk=\r\n\r\n",
        b"HTTP/1.1 101",
    )


async def close_quietly(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass


class Receipts:
    """What came back, when, and what the server had burned by then."""

    def __init__(self, capacity: int, server_pid: int, segment: int) -> None:
        self.counts = bytearray(capacity)
        self.latencies: list[float] = []
        self.received = 0
        self.segment = segment
        self.server_pid = server_pid
        #: (results so far, perf_counter, server on-CPU ns) per boundary.
        self.marks: list[tuple[int, float, int]] = []

    def mark(self, now: float) -> None:
        self.marks.append((self.received, now, env.cpu_ns(self.server_pid)))

    def add(self, seq: int, latency: float, now: float) -> None:
        if self.counts[seq] < 255:
            self.counts[seq] += 1
        self.latencies.append(latency)
        self.received += 1
        if self.received % self.segment == 0:
            self.mark(now)


def _seq_of(payload: bytes) -> int:
    # Results are the tuple rendered by tuple_to_json: ..."seq":N,...
    start = payload.index(b'"seq":') + 6
    end = start
    while payload[end] in b"0123456789":
        end += 1
    return int(payload[start:end])


async def ws_saturate(
    host: str, port: int, server_pid: int, seconds: float, seed: int,
    segment: int,
) -> dict:
    """Closed loop at ``WINDOW`` in flight for ``seconds``; then drain."""
    rng = random.Random(seed)
    # More frames than any plausible rate needs; the run ends on time.
    capacity = max(4 * WINDOW, int(seconds * 60_000))
    frames = [
        ws_frame(tuple_json("c0", seq, round(rng.random(), 6)).encode())
        for seq in range(capacity)
    ]
    sent_at = [0.0] * capacity
    _unused, ingest = await open_websocket(host, port, "ingest")
    results, subscribe = await open_websocket(host, port, "subscribe")
    receipts = Receipts(capacity, server_pid, segment)
    ready = time.monotonic()
    buffer = b""
    sent = 0
    try:
        started = time.perf_counter()
        receipts.mark(started)
        deadline = started + seconds
        for seq in range(WINDOW):
            sent_at[seq] = started
        ingest.write(b"".join(frames[:WINDOW]))
        sent = WINDOW
        sending = True
        while receipts.received < sent:
            try:
                chunk = await asyncio.wait_for(
                    results.read(65536), DRAIN_TIMEOUT
                )
            except asyncio.TimeoutError:
                break
            if not chunk:
                break
            now = time.perf_counter()
            buffer += chunk
            offset, arrived = 0, 0
            while len(buffer) - offset >= 2:
                n = buffer[offset + 1] & 0x7F
                head = 2
                if n == 126:
                    if len(buffer) - offset < 4:
                        break
                    n = int.from_bytes(buffer[offset + 2:offset + 4], "big")
                    head = 4
                if len(buffer) - offset < head + n:
                    break
                seq = _seq_of(buffer[offset + head:offset + head + n])
                receipts.add(seq, now - sent_at[seq], now)
                offset += head + n
                arrived += 1
            buffer = buffer[offset:]
            if sending and now >= deadline:
                sending = False
            if sending and arrived:
                upto = min(capacity, sent + arrived)
                for seq in range(sent, upto):
                    sent_at[seq] = now
                ingest.write(b"".join(frames[sent:upto]))
                sent = upto
        finished = time.perf_counter()
        receipts.mark(finished)
    finally:
        await close_quietly(ingest)
        await close_quietly(subscribe)
    return {"ready_monotonic": ready, "sent": sent, "receipts": receipts,
            "elapsed_s": finished - started}


async def http_burst(
    host: str, port: int, server_pid: int, seconds: float, seed: int,
    segment: int,
) -> dict:
    """Open loop: one burst every ``BURST_EVERY`` s for ``seconds``."""
    rng = random.Random(seed)
    bursts = max(2, int(seconds / BURST_EVERY))
    capacity = bursts * BURST_TUPLES
    requests = []
    for burst in range(bursts):
        body = "[" + ",".join(
            tuple_json(f"b{burst}", burst * BURST_TUPLES + i,
                       round(rng.random(), 6))
            for i in range(BURST_TUPLES)
        ) + "]"
        requests.append(
            f"POST /v1/flows/{FLOW}/ingest HTTP/1.1\r\n"
            f"host: {host}:{port}\r\ncontent-type: application/json\r\n"
            f"content-length: {len(body)}\r\n\r\n{body}".encode()
        )
    events, stream = await _open(
        host, port,
        f"GET /v1/flows/{FLOW}/stream HTTP/1.1\r\nhost: {host}:{port}\r\n"
        f"accept: text/event-stream\r\n\r\n",
        b"HTTP/1.1 200",
    )
    replies, post = await asyncio.open_connection(host, port)
    receipts = Receipts(capacity, server_pid, segment)
    due = [0.0] * bursts
    lateness: list[float] = []
    accepted = 0

    async def read_replies() -> None:
        nonlocal accepted
        for _ in range(bursts):
            head = await replies.readuntil(b"\r\n\r\n")
            length = int(
                head.lower().split(b"content-length:")[1].split(b"\r\n")[0]
            )
            await replies.readexactly(length)
            if head.startswith(b"HTTP/1.1 202"):
                accepted += 1

    async def read_events() -> None:
        while receipts.received < capacity:
            line = await events.readline()
            if not line:
                return
            if line.startswith(b"data:"):
                now = time.perf_counter()
                seq = _seq_of(line)
                receipts.add(seq, now - due[seq // BURST_TUPLES], now)

    ready = time.monotonic()
    replies_task = asyncio.ensure_future(read_replies())
    events_task = asyncio.ensure_future(read_events())
    try:
        started = time.perf_counter()
        receipts.mark(started)
        for burst in range(bursts):
            due[burst] = started + burst * BURST_EVERY
            delay = due[burst] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due[burst])
            post.write(requests[burst])
        await asyncio.wait_for(
            asyncio.gather(replies_task, events_task), DRAIN_TIMEOUT
        )
    except asyncio.TimeoutError:
        pass
    finally:
        finished = time.perf_counter()
        receipts.mark(finished)
        for task in (replies_task, events_task):
            task.cancel()
        await asyncio.gather(replies_task, events_task,
                             return_exceptions=True)
        await close_quietly(post)
        await close_quietly(stream)
    elapsed = finished - started
    return {"ready_monotonic": ready, "sent": capacity,
            "receipts": receipts, "lateness": lateness,
            "accepted_bursts": accepted, "bursts": bursts,
            "elapsed_s": elapsed,
            # An open loop completes what the schedule offers: per-segment
            # rates would only measure arrival jitter, so the whole run's
            # completed tuples per second stands for every segment.
            "completed_per_s": receipts.received / elapsed}


async def scrape_counters(host: str, port: int) -> dict:
    """The server's own counters, read from ``GET /metrics``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET /metrics HTTP/1.1\r\nhost: {host}:{port}\r\n"
            f"connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        text = (await reader.read()).decode()
    finally:
        await close_quietly(writer)
    wanted = {
        "repro_hub_pauses_total": "serving.hub_pauses",
        "repro_channel_peak_backlog": "serving.channel_peak_backlog",
        "repro_operator_pauses_issued_total": "engine.pauses_issued",
        "repro_queue_peak_occupancy": "stream.peak_queue_occupancy",
    }
    counters = dict.fromkeys(wanted.values(), 0.0)
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, value = line.rsplit(" ", 1)
        key = wanted.get(name.split("{", 1)[0])
        if key is None:
            continue
        if key == "stream.peak_queue_occupancy":
            counters[key] = max(counters[key], float(value))
        else:
            counters[key] += float(value)
    return counters


# == one set-up + measurement ==================================================

LOADS = {"serve_ws_saturate": ws_saturate, "serve_http_burst": http_burst}


def reduce_segments(outcome: dict) -> list[dict]:
    """Per measured segment: throughput, server CPU per tuple, latencies.

    The first tenth of the results is warm-up; what follows is cut at
    the marks :class:`Receipts` took every ``SEGMENT`` results.
    """
    receipts: Receipts = outcome["receipts"]
    skip = receipts.received // 10
    marks = [m for m in receipts.marks if m[0] >= skip and m[0] > 0]
    segments = []
    for (n0, t0, c0), (n1, t1, c1) in zip(marks, marks[1:]):
        count = n1 - n0
        if count != receipts.segment or t1 <= t0:
            continue  # the ragged tail after the last full segment
        window = sorted(receipts.latencies[n0:n1])
        segments.append({
            "throughput_per_s": count / (t1 - t0),
            "cpu_us_per_tuple": (c1 - c0) / 1e3 / count,
            "latency_p50_ms": env.percentile(window, 0.50) * 1e3,
            "latency_p90_ms": env.percentile(window, 0.90) * 1e3,
        })
    return segments


async def run_once(
    workload: str, pins: dict, seconds: float, seed: int, *,
    trace: bool = False, run_id: str = "", spans_path: str | None = None,
    segment: int | None = None,
) -> dict:
    """One server child, one load run, one verdict.

    ``segment`` overrides the results per measured segment (small runs).
    """
    child = ServerChild(pins["sut"], trace=trace, run_id=run_id,
                        spans_path=spans_path)
    await child.start()
    try:
        host = "127.0.0.1"
        cpu_before = env.cpu_ns(child.pid)
        outcome = await LOADS[workload](
            host, child.port, child.pid, seconds, seed,
            segment or SEGMENT[workload],
        )
        cpu_after = env.cpu_ns(child.pid)
        counters = await scrape_counters(host, child.port)
        report = await child.stop()
    except BaseException:
        await child.kill()
        raise
    receipts: Receipts = outcome["receipts"]
    verdict = oracle.check_delivery(
        outcome["sent"], receipts.counts, receipts.latencies
    )
    if workload == "serve_ws_saturate":
        verdict.merge(oracle.check_no_pauses(counters))
    if "accepted_bursts" in outcome:
        refused = outcome["bursts"] - outcome["accepted_bursts"]
        verdict.add(outcome["bursts"], refused,
                    f"{refused} bursts not answered 202")
    latencies = sorted(receipts.latencies)
    lateness = sorted(outcome.get("lateness", ()))
    segments = reduce_segments(outcome)
    if "completed_per_s" in outcome:
        for entry in segments:
            entry["throughput_per_s"] = outcome["completed_per_s"]
    return {
        "setup_s": outcome["ready_monotonic"] - child.spawned,
        "peak_rss_mb": report["peak_rss_mb"],
        "pinned_to": child.pinned_to,
        "segments": segments,
        "tuples": receipts.received,
        "elapsed_s": outcome["elapsed_s"],
        "server_cpu_us_per_tuple":
            (cpu_after - cpu_before) / 1e3 / max(1, receipts.received),
        "latency_p99_ms":
            env.percentile(latencies, 0.99) * 1e3 if latencies else 0.0,
        "lateness_p99_ms":
            env.percentile(lateness, 0.99) * 1e3 if lateness else 0.0,
        "counters": counters,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "notes": verdict.notes,
        "self_ms": report.get("self_ms", {}),
        "span_counts": report.get("span_counts", {}),
    }


if __name__ == "__main__":
    server_main(json.loads(sys.argv[1]))
