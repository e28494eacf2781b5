"""Loopback clients for the serving layer: HTTP, SSE and websocket.

These are real network clients -- they open TCP connections to a
:class:`~repro.serving.server.StreamServer` and speak the wire protocols
byte for byte -- but deliberately minimal: just enough for the e2e test
battery, the load generator and the docs snippets to drive a server the
way curl / EventSource / a browser websocket would.  They share the
frame codecs in :mod:`repro.serving.wire` (with client-side masking for
websocket frames, as RFC 6455 requires of clients).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator

from repro.errors import ServingError
from repro.serving.wire import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    WS_TEXT,
    FrameBuffer,
    websocket_accept,
    ws_encode,
    ws_read,
)

__all__ = [
    "WebSocketClient",
    "http_request",
    "get_json",
    "get_text",
    "post_json",
    "sse_subscribe",
]


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes = b"",
    content_type: str = "application/json",
) -> tuple[int, dict[str, str], bytes]:
    """One plain HTTP/1.1 exchange: ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"host: {host}:{port}\r\n"
            f"content-type: {content_type}\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status, headers = await _read_response_head(reader)
        payload = await _read_body(reader, headers)
        return status, headers, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def post_json(
    host: str, port: int, path: str, payload: Any
) -> tuple[int, Any]:
    """POST a JSON payload; returns ``(status, decoded_body)``."""
    status, _headers, body = await http_request(
        host, port, "POST", path, body=json.dumps(payload).encode()
    )
    return status, json.loads(body) if body else None


async def get_json(host: str, port: int, path: str) -> tuple[int, Any]:
    status, _headers, body = await http_request(host, port, "GET", path)
    return status, json.loads(body) if body else None


async def get_text(host: str, port: int, path: str) -> tuple[int, str]:
    status, _headers, body = await http_request(host, port, "GET", path)
    return status, body.decode()


async def _read_response_head(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str]]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ServingError(f"malformed status line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str]
) -> bytes:
    length = headers.get("content-length")
    if length is not None:
        return await reader.readexactly(int(length))
    return await reader.read()  # connection: close delimits the body


async def sse_subscribe(
    host: str, port: int, path: str
) -> AsyncIterator[dict[str, Any]]:
    """Subscribe to an SSE endpoint, yielding decoded JSON events.

    The iterator ends when the server closes the stream (flow drained,
    or a ``?limit=N`` reached).  Closing the generator closes the
    connection -- disconnect-mid-stream in tests is just ``aclose()``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nhost: {host}:{port}\r\n"
            f"accept: text/event-stream\r\n\r\n".encode()
        )
        await writer.drain()
        status, headers = await _read_response_head(reader)
        if status != 200:
            body = await _read_body(reader, headers)
            raise ServingError(
                f"SSE subscribe failed with {status}: {body.decode()!r}"
            )
        data_lines: list[str] = []
        while True:
            line = await reader.readline()
            if not line:
                return
            text = line.decode().rstrip("\n").rstrip("\r")
            if text.startswith("data:"):
                data_lines.append(text[5:].lstrip())
            elif not text and data_lines:
                yield json.loads("\n".join(data_lines))
                data_lines = []
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class WebSocketClient:
    """A masked-frame websocket client for one serving endpoint."""

    def __init__(self, host: str, port: int, path: str) -> None:
        self.host = host
        self.port = port
        self.path = path
        self._frames: FrameBuffer | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "WebSocketClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        key = "c2VydmluZy10ZXN0LWtleQ=="  # static 16-byte nonce, base64
        writer.write(
            f"GET {self.path} HTTP/1.1\r\n"
            f"host: {self.host}:{self.port}\r\n"
            f"upgrade: websocket\r\nconnection: Upgrade\r\n"
            f"sec-websocket-key: {key}\r\n"
            f"sec-websocket-version: 13\r\n\r\n".encode()
        )
        await writer.drain()
        status, headers = await _read_response_head(reader)
        if status != 101:
            body = await _read_body(reader, headers)
            raise ServingError(
                f"websocket handshake failed with {status}: "
                f"{body.decode()!r}"
            )
        expected = websocket_accept(key)
        if headers.get("sec-websocket-accept") != expected:
            raise ServingError("websocket handshake accept-key mismatch")
        self._frames = FrameBuffer(reader)

    async def send_json(self, payload: Any) -> None:
        assert self._writer is not None, "connect() first"
        self._writer.write(
            ws_encode(json.dumps(payload), opcode=WS_TEXT, mask=True)
        )
        await self._writer.drain()

    async def receive_json(self) -> Any | None:
        """The next pushed JSON message; ``None`` when the peer closed."""
        assert self._frames is not None, "connect() first"
        while True:
            frame = await ws_read(self._frames)
            if frame is None:
                return None
            opcode, payload = frame
            if opcode == WS_CLOSE:
                return None
            if opcode == WS_PING:
                assert self._writer is not None
                self._writer.write(
                    ws_encode(payload, opcode=WS_PONG, mask=True)
                )
                await self._writer.drain()
                continue
            if opcode == WS_TEXT:
                return json.loads(payload)

    async def close(self) -> None:
        writer = self._writer
        if writer is None:
            return
        self._writer = None
        try:
            writer.write(ws_encode(b"", opcode=WS_CLOSE, mask=True))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
