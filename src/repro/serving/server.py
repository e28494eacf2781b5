"""The network front-end: one asyncio server multiplexing every flow.

:class:`StreamServer` binds a single listening socket and speaks the
three client protocols over it (HTTP POST ingest, SSE push delivery,
websocket duplex), routing everything to a
:class:`~repro.serving.supervisor.FlowSupervisor`.  The whole service --
every socket handler, every flow's engine driver and source pumps -- runs
cooperatively on one event loop, which is what makes the end-to-end
backpressure story airtight: a slow subscriber blocks its writer's
``drain()``, the hub gate closes, ingest awaits, and the ingesting
client's TCP connection stalls.  No thread hops, no unbounded buffers,
no drops (docs/serving.md walks the chain).

Routes::

    GET  /healthz                  readiness (200 iff all flows live)
    GET  /metrics                  Prometheus text (engine + serving)
    GET  /v1/flows                 per-flow status JSON
    POST /v1/flows/{flow}/ingest   JSON object or list of objects
    GET  /v1/flows/{flow}/stream   SSE push delivery (?limit=N to bound)
    GET  /v1/flows/{flow}/ws       websocket: ingest frames in,
                                   pushed results out (?mode=ingest|
                                   subscribe|duplex)
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.errors import ServingError
from repro.serving.codec import tuple_to_json, tuples_from_body
from repro.serving.metrics import render_prometheus
from repro.serving.supervisor import FlowSupervisor
from repro.serving.wire import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    FrameBuffer,
    HttpRequest,
    read_request,
    response_bytes,
    sse_event,
    websocket_accept,
    ws_encode,
    ws_read,
)
from repro.stream.channels import Subscription
from repro.stream.tuples import StreamTuple

__all__ = ["ServingConfig", "StreamServer", "serve"]


@dataclass
class ServingConfig:
    """Tunables for one serving process."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral (tests, examples)
    max_body: int = 1 << 20          # per-request ingest bound (bytes)
    write_buffer_high: int = 16_384  # socket write buffer before drain()
                                     # blocks -- small, so slow-consumer
                                     # backpressure engages promptly
    sndbuf: int | None = None        # SO_SNDBUF per connection; the kernel
                                     # absorbs this much before drain() can
                                     # block, so tests shrink it to make
                                     # backpressure observable with little
                                     # data
    drain_timeout: float = 30.0      # graceful-shutdown budget


class StreamServer:
    """Serve a supervisor's flows over HTTP/SSE/websocket."""

    def __init__(
        self,
        supervisor: FlowSupervisor | None = None,
        *,
        config: ServingConfig | None = None,
    ) -> None:
        self.supervisor = supervisor or FlowSupervisor()
        self.config = config or ServingConfig()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self.counters: dict[str, int] = {
            "connections_open": 0,
            "connections_total": 0,
            "requests_total": 0,
            "ingested_total": 0,
            "pushed_total": 0,
            "client_errors_total": 0,
        }

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start every admitted flow.

        Returns the bound ``(host, port)`` -- with the default ephemeral
        port the caller learns the real one here.
        """
        if self._server is not None:
            raise ServingError("server already started")
        self.supervisor.start_all()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop listening, end client connections, shut flows down.

        ``drain=True`` is the graceful path: ingest channels close, the
        flows process their backlog to end of stream, hubs close, and
        subscriber connections end naturally before being reaped.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            await self.supervisor.drain(
                timeout=self.config.drain_timeout
            )
        else:
            await self.supervisor.stop()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()

    # -- connection handling -----------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        self.counters["connections_total"] += 1
        self.counters["connections_open"] += 1

        def reap(finished: asyncio.Task) -> None:
            self._connections.discard(finished)
            self.counters["connections_open"] -= 1
            if not finished.cancelled():
                finished.exception()  # retrieve, so nothing logs late

        task.add_done_callback(reap)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # A small write buffer makes a slow consumer block drain() after
        # a few frames -- the last hop of the backpressure chain.
        writer.transport.set_write_buffer_limits(
            high=self.config.write_buffer_high
        )
        if self.config.sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, self.config.sndbuf
                )
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body
                    )
                except ServingError as exc:
                    self.counters["client_errors_total"] += 1
                    writer.write(_error_response(400, str(exc), False))
                    await writer.drain()
                    return
                if request is None:
                    return
                self.counters["requests_total"] += 1
                if request.wants_websocket:
                    await self._handle_websocket(request, reader, writer)
                    return  # an upgraded connection never reverts
                streaming = await self._handle_http(request, reader, writer)
                if streaming or not request.keep_alive:
                    return
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- HTTP routes -------------------------------------------------------------

    async def _handle_http(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one request; True when the response was a stream."""
        route = self._route(request)
        if route is None:
            writer.write(
                _error_response(
                    404, f"no route for {request.method} {request.path}",
                    request.keep_alive,
                )
            )
            await writer.drain()
            return False
        try:
            return await route(request, reader, writer)
        except ServingError as exc:
            self.counters["client_errors_total"] += 1
            writer.write(
                _error_response(400, str(exc), request.keep_alive)
            )
            await writer.drain()
            return False

    def _route(
        self, request: HttpRequest
    ) -> Callable[..., Awaitable[bool]] | None:
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            return self._get_healthz
        if path == "/metrics" and method == "GET":
            return self._get_metrics
        if path == "/v1/flows" and method == "GET":
            return self._get_flows
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["v1", "flows"]:
            flow, action = parts[2], parts[3]
            if action == "ingest" and method == "POST":
                return self._bind_flow(self._post_ingest, flow)
            if action == "stream" and method == "GET":
                return self._bind_flow(self._get_stream, flow)
        return None

    @staticmethod
    def _bind_flow(
        handler: Callable[..., Awaitable[bool]], flow: str
    ) -> Callable[..., Awaitable[bool]]:
        async def bound(request, reader, writer):
            return await handler(flow, request, reader, writer)

        return bound

    async def _get_healthz(self, request, reader, writer) -> bool:
        healthy = self.supervisor.healthy()
        body = json.dumps(
            {
                "status": "ok" if healthy else "degraded",
                "flows": {
                    name: state["state"]
                    for name, state in self.supervisor.status().items()
                },
            }
        )
        writer.write(
            response_bytes(
                200 if healthy else 503, body,
                keep_alive=request.keep_alive,
            )
        )
        await writer.drain()
        return False

    async def _get_metrics(self, request, reader, writer) -> bool:
        text = render_prometheus(
            self.supervisor.live_metrics(),
            flow_states=self.supervisor.status(),
            tenants=self.supervisor.admission.snapshot(),
            server=self.counters,
        )
        writer.write(
            response_bytes(
                200, text,
                content_type="text/plain; version=0.0.4; charset=utf-8",
                keep_alive=request.keep_alive,
            )
        )
        await writer.drain()
        return False

    async def _get_flows(self, request, reader, writer) -> bool:
        writer.write(
            response_bytes(
                200, json.dumps(self.supervisor.status()),
                keep_alive=request.keep_alive,
            )
        )
        await writer.drain()
        return False

    async def _post_ingest(self, flow, request, reader, writer) -> bool:
        managed = self.supervisor._managed(flow)
        schema = managed.flow.channel().schema
        tuples = tuples_from_body(schema, request.body)
        # The full admission chain awaits here, once for the whole body
        # (token bucket, hub gate, bounded channel), so an overloaded
        # flow defers this client's *response* -- HTTP-shaped
        # backpressure.
        await self.supervisor.ingest(flow, tuples)
        self.counters["ingested_total"] += len(tuples)
        writer.write(
            response_bytes(
                202, json.dumps({"admitted": len(tuples)}),
                keep_alive=request.keep_alive,
            )
        )
        await writer.drain()
        return False

    async def _get_stream(self, flow, request, reader, writer) -> bool:
        limit = _int_query(request, "limit")
        subscription = self.supervisor.subscribe(flow)
        writer.write(
            response_bytes(
                200, b"",
                content_type="text/event-stream",
                headers={"cache-control": "no-cache"},
                keep_alive=False,
            )
        )
        sent = 0
        # Watch the read side too: a subscriber of a quiet flow that
        # disconnects would otherwise park this handler (and leak its
        # subscription) until the next event tries to write.
        disconnect = asyncio.ensure_future(reader.read(1))
        try:
            while (limit is None or sent < limit) and not disconnect.done():
                if not subscription.buffer:
                    # Nothing to write: one task for this idle wait,
                    # raced against the disconnect watch.
                    idle = asyncio.ensure_future(subscription.ready())
                    await asyncio.wait(
                        {idle, disconnect},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if not idle.done():
                        idle.cancel()
                        await asyncio.gather(idle, return_exceptions=True)
                        break
                    if not idle.result():
                        break
                sent += await self._write_buffered(
                    subscription, writer, _sse_frame,
                    None if limit is None else limit - sent,
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            disconnect.cancel()
            await asyncio.gather(disconnect, return_exceptions=True)
            subscription.close()
        return True

    async def _write_buffered(
        self,
        subscription: Subscription,
        writer: asyncio.StreamWriter,
        frame: Callable[[StreamTuple], bytes],
        limit: int | None,
    ) -> int:
        """Send what the subscription has buffered as one socket write.

        Results are framed and popped up to ``write_buffer_high`` encoded
        bytes (and ``limit`` results): what one write may put in the
        transport's buffer before ``drain()`` can block.  ``drain()``
        does block once the client stops reading: the subscription stops
        being consumed, its hub buffer grows to ``high_water``, and the
        gate closes -- backpressure reached the socket.
        """
        budget = self.config.write_buffer_high
        frames: list[bytes] = []
        for tup in subscription.buffer:
            data = frame(tup)
            frames.append(data)
            budget -= len(data)
            if budget <= 0 or len(frames) == limit:
                break
        subscription.take(len(frames))
        writer.write(b"".join(frames))
        await writer.drain()
        self.counters["pushed_total"] += len(frames)
        return len(frames)

    # -- websocket ---------------------------------------------------------------

    async def _handle_websocket(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = request.path.strip("/").split("/")
        valid = (
            len(parts) == 4
            and parts[:2] == ["v1", "flows"]
            and parts[3] == "ws"
        )
        key = request.header("sec-websocket-key")
        if not valid or not key:
            self.counters["client_errors_total"] += 1
            writer.write(
                _error_response(
                    400, "websocket endpoint is /v1/flows/{flow}/ws", False
                )
            )
            await writer.drain()
            return
        flow = parts[2]
        mode = request.query.get("mode", "duplex")
        if mode not in ("duplex", "ingest", "subscribe"):
            self.counters["client_errors_total"] += 1
            writer.write(
                _error_response(
                    400, f"unknown websocket mode {mode!r}", False
                )
            )
            await writer.drain()
            return
        managed = self.supervisor._managed(flow)
        schema = managed.flow.channel().schema
        writer.write(
            response_bytes(
                101, b"",
                headers={
                    "upgrade": "websocket",
                    "connection": "Upgrade",
                    "sec-websocket-accept": websocket_accept(key),
                },
            )
        )
        await writer.drain()

        subscription = (
            self.supervisor.subscribe(flow)
            if mode in ("duplex", "subscribe") else None
        )
        push_task = (
            asyncio.ensure_future(
                self._ws_push(subscription, writer)
            )
            if subscription is not None else None
        )
        # One socket read may bring many frames: they are taken from this
        # buffer without awaiting and their tuples admitted as one run --
        # before the socket is awaited again, before anything is written
        # back, and at end of stream, so nothing is ever held across a
        # wait.
        buffered = FrameBuffer(reader)
        take, max_message = buffered.take, self.config.max_body
        batch: list[StreamTuple] = []

        async def admit() -> None:
            # Awaiting here stops this coroutine reading more frames:
            # kernel buffers fill and the client's sends block --
            # websocket-shaped backpressure.
            nonlocal batch
            if batch:
                run, batch = batch, []
                await self.supervisor.ingest(flow, run)
                self.counters["ingested_total"] += len(run)

        try:
            while True:
                try:
                    frame = take(max_message)
                except ServingError:
                    await admit()  # what came before the bad frame counts
                    raise
                if frame is None:
                    await admit()
                    frame = await ws_read(buffered, max_message=max_message)
                    if frame is None:
                        break
                opcode, payload = frame
                if opcode == WS_TEXT and mode != "subscribe":
                    try:
                        batch += tuples_from_body(schema, payload)
                        continue
                    except ServingError as exc:
                        self.counters["client_errors_total"] += 1
                        payload = json.dumps({"error": str(exc)})
                elif opcode == WS_PING:
                    opcode = WS_PONG
                elif opcode != WS_CLOSE:
                    continue
                # A reply: the error, the pong, or the close echoed back.
                await admit()
                writer.write(ws_encode(payload, opcode=opcode))
                await writer.drain()
                if opcode == WS_CLOSE:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if subscription is not None:
                subscription.close()
            if push_task is not None:
                push_task.cancel()
                await asyncio.gather(push_task, return_exceptions=True)

    async def _ws_push(self, subscription, writer) -> None:
        try:
            while await subscription.ready():
                await self._write_buffered(
                    subscription, writer, _ws_frame, None
                )
        except (ConnectionResetError, BrokenPipeError):
            pass


# The codec names are looked up when a result is framed, not bound here:
# a tracer that rebinds them in this module's namespace sees every call.


def _sse_frame(tup: StreamTuple) -> bytes:
    return sse_event(tuple_to_json(tup))


def _ws_frame(tup: StreamTuple) -> bytes:
    return ws_encode(tuple_to_json(tup))


def _error_response(status: int, message: str, keep_alive: bool) -> bytes:
    return response_bytes(
        status, json.dumps({"error": message}), keep_alive=keep_alive
    )


def _int_query(request: HttpRequest, name: str) -> int | None:
    raw = request.query.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ServingError(
            f"query parameter {name}={raw!r} is not an integer"
        ) from None


def serve(
    server: StreamServer, *, ready: Callable[[str, int], None] | None = None
) -> None:
    """Run a server until interrupted (blocking convenience entry)."""

    async def main() -> None:
        host, port = await server.start()
        if ready is not None:
            ready(host, port)
        try:
            await asyncio.Event().wait()  # until cancelled / interrupted
        finally:
            await server.aclose(drain=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
