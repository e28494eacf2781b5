"""Minimal HTTP/1.1, SSE and RFC 6455 websocket wire helpers.

The container this library targets has no aiohttp/websockets, and the
serving layer needs only a narrow slice of each protocol: parse one
request line + headers, answer with framed responses, stream
``text/event-stream`` chunks, and exchange websocket data frames.  This
module implements exactly that slice over asyncio stream reader/writer
pairs -- ~300 lines instead of a framework dependency, and every byte
on the wire is visible to the tests.

One function per direction knows each protocol: :func:`read_request` for
HTTP, :func:`ws_read` / :func:`ws_encode` for websocket frames (what a
frame may be -- masking, fragmentation, the control-frame limits of RFC
6455 section 5.5 -- is decided in ``ws_read`` and nowhere else).
:class:`FrameBuffer` sits under ``ws_read`` on the server so that the
frames one socket read brought are parsed without going back to the
socket.

Scope notes (deliberate): HTTP/1.1 with ``Content-Length`` bodies only
(no chunked ingest), no TLS (front a real deployment with a terminating
proxy), websocket per-message-deflate not negotiated.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from dataclasses import dataclass
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ServingError

__all__ = [
    "FrameBuffer",
    "HttpRequest",
    "WS_CLOSE",
    "WS_PONG",
    "WS_TEXT",
    "read_request",
    "response_bytes",
    "sse_event",
    "websocket_accept",
    "ws_encode",
    "ws_read",
]

MAX_HEADER_BYTES = 16 * 1024
MAX_CONTROL_PAYLOAD = 125  # RFC 6455 section 5.5
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

# Websocket opcodes (RFC 6455 §5.2).
WS_CONT = 0x0
WS_TEXT = 0x1
WS_BINARY = 0x2
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA


@dataclass
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    keep_alive: bool = True

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.header("upgrade").lower()
            and "upgrade" in self.header("connection").lower()
        )


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = 1 << 20
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`~repro.errors.ServingError` for malformed requests
    and for bodies/headers over the configured bounds (the connection
    handler answers 400/413 and closes).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests (keep-alive close)
        raise ServingError("connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ServingError("request head exceeds the header limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ServingError("request head exceeds the header limit")

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ServingError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ServingError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    length = headers.get("content-length", "0")
    try:
        n_body = int(length)
    except ValueError:
        raise ServingError(f"bad Content-Length {length!r}") from None
    if n_body > max_body:
        raise ServingError(
            f"request body of {n_body} bytes exceeds the {max_body}-byte "
            f"ingest limit"
        )
    body = await reader.readexactly(n_body) if n_body else b""

    connection = headers.get("connection", "").lower()
    keep_alive = version != "HTTP/1.0" and "close" not in connection
    return HttpRequest(
        method=method.upper(),
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


_REASONS = {
    200: "OK",
    202: "Accepted",
    101: "Switching Protocols",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


def response_bytes(
    status: int,
    body: bytes | str = b"",
    *,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Frame a complete HTTP/1.1 response."""
    if isinstance(body, str):
        body = body.encode()
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    all_headers = {
        "content-type": content_type,
        "content-length": str(len(body)),
        "connection": "keep-alive" if keep_alive else "close",
    }
    if headers:
        all_headers.update({k.lower(): v for k, v in headers.items()})
    lines.extend(f"{name}: {value}" for name, value in all_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def sse_event(data: str, *, event: str | None = None) -> bytes:
    """Frame one Server-Sent Events message."""
    out = []
    if event is not None:
        out.append(f"event: {event}")
    out.extend(f"data: {line}" for line in data.split("\n"))
    return ("\n".join(out) + "\n\n").encode()


# -- RFC 6455 ------------------------------------------------------------------


def websocket_accept(key: str) -> str:
    """The Sec-WebSocket-Accept value for a client's handshake key."""
    digest = hashlib.sha1((key + _WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode()


def _mask(payload: bytes, key: bytes) -> bytes:
    """XOR ``payload`` with the 4-byte ``key`` repeated (RFC 6455 §5.3).

    Masking is its own inverse.  One big-integer XOR over the whole
    payload instead of one Python-level XOR per byte.
    """
    n = len(payload)
    return (
        int.from_bytes(payload, "big")
        ^ int.from_bytes((key * (n // 4 + 1))[:n], "big")
    ).to_bytes(n, "big")


def ws_encode(
    payload: bytes | str, *, opcode: int = WS_TEXT, mask: bool = False
) -> bytes:
    """Frame one complete (FIN) websocket message.

    Servers send unmasked frames; clients (the loopback test client and
    the load generator) set ``mask=True`` as RFC 6455 §5.3 requires.
    """
    if isinstance(payload, str):
        payload = payload.encode()
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
    n = len(payload)
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack("!H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack("!Q", n)
    if mask:
        key = os.urandom(4)
        head += key
        payload = _mask(payload, key)
    return bytes(head) + payload


class FrameBuffer:
    """What one socket read brought, handed to :func:`ws_read` piecewise.

    ``ws_read`` awaits ``readexactly`` three or four times a frame.  On a
    bare ``StreamReader`` every one of them trims the stream's buffer and
    looks at the transport's flow control, and a handler cannot tell
    whether the next frame is already here or a wait away.  This holds
    the bytes of one ``reader.read()`` instead: ``readexactly`` slices
    them and goes back to the socket only when they run out, and
    :meth:`frame_ready` says whether ``ws_read`` could return its next
    message without waiting -- which is what lets a handler collect the
    frames of one wake-up and admit them as one run.  It holds bytes, not
    protocol rules: it knows where a frame ends, not what a frame may be.
    """

    __slots__ = ("_reader", "_data", "_pos", "_ws_partial")

    READ_SIZE = 65536

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._data = b""
        self._pos = 0

    async def readexactly(self, n: int) -> bytes:
        """``StreamReader.readexactly``, refilling one read at a time."""
        end = self._pos + n
        while end > len(self._data):
            chunk = await self._reader.read(self.READ_SIZE)
            rest = self._data[self._pos:]
            if not chunk:
                self._data, self._pos = b"", 0
                raise asyncio.IncompleteReadError(rest, n)
            self._data, self._pos, end = rest + chunk, 0, n
        data = self._data[self._pos:end]
        self._pos = end
        return data

    def frame_ready(self) -> bool:
        """True when the next :func:`ws_read` would not touch the socket:
        every frame up to the next final or control frame is buffered."""
        data, pos = self._data, self._pos
        while len(data) - pos >= 2:
            b1, b2 = data[pos], data[pos + 1]
            pos += 2
            n = b2 & 0x7F
            if n >= 126:
                width = 2 if n == 126 else 8
                n = int.from_bytes(data[pos:pos + width], "big")
                pos += width
            pos += n + (4 if b2 & 0x80 else 0)  # payload and masking key
            if pos > len(data):
                return False
            if b1 & 0x80 or b1 & 0x0F >= WS_CLOSE:
                return True
        return False


async def ws_read(
    reader: "asyncio.StreamReader | FrameBuffer",
    *,
    max_message: int = 1 << 20,
) -> tuple[int, bytes] | None:
    """Read one websocket *message* (reassembling fragments).

    Returns ``(opcode, payload)``; ``None`` on EOF.  Control frames
    (ping/pong/close) are returned as-is -- they are never fragmented,
    but RFC 6455 section 5.4 lets a peer send one *between* the fragments
    of a message: the fragments read so far then wait on ``reader`` (the
    connection's own state) and the next call carries on from them.

    ``reader`` is anything with ``StreamReader``'s ``readexactly`` -- the
    server hands in a :class:`FrameBuffer` so that the reads of one
    frame, and of every frame that arrived with it, are served from one
    socket read.  This is the only place that knows what a frame may and
    may not be: a control frame that is fragmented or longer than 125
    bytes (section 5.5) and a new data frame inside an unfinished message
    (section 5.4) raise :class:`~repro.errors.ServingError`, as does
    anything over ``max_message``.
    """
    # Only read here: giving every reader an extra attribute (or popping
    # from its ``__dict__``) takes CPython's shared-key instances off
    # their fast path and costs ``readexactly`` ~20% -- so the attribute
    # exists only from an interleaved control frame to the next call.
    partial = getattr(reader, "_ws_partial", None)
    if partial is None:
        message_opcode: int | None = None
        message = bytearray()
    else:
        message_opcode, message = partial
        del reader._ws_partial  # type: ignore[attr-defined]
    while True:
        try:
            b1, b2 = await reader.readexactly(2)
        except asyncio.IncompleteReadError:
            return None
        fin, opcode = b1 & 0x80, b1 & 0x0F
        masked, n = b2 & 0x80, b2 & 0x7F
        if n == 126:
            (n,) = struct.unpack("!H", await reader.readexactly(2))
        elif n == 127:
            (n,) = struct.unpack("!Q", await reader.readexactly(8))
        if n > max_message:
            raise ServingError(
                f"websocket frame of {n} bytes exceeds the "
                f"{max_message}-byte limit"
            )
        if opcode >= WS_CLOSE:  # refused before the payload is read
            if not fin:
                raise ServingError("websocket control frame is fragmented")
            if n > MAX_CONTROL_PAYLOAD:
                raise ServingError(
                    f"websocket control frame of {n} bytes exceeds the "
                    f"{MAX_CONTROL_PAYLOAD}-byte limit"
                )
        key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(n)
        if masked:
            payload = _mask(payload, key)
        if opcode >= WS_CLOSE:
            if message_opcode is not None:
                reader._ws_partial = (  # type: ignore[attr-defined]
                    message_opcode, message
                )
            return opcode, payload
        if opcode != WS_CONT:
            if message_opcode is not None:
                raise ServingError(
                    "websocket data frame inside an unfinished fragmented "
                    "message"
                )
            message_opcode = opcode
        if message_opcode is None:
            raise ServingError("websocket continuation without a start frame")
        message += payload
        if len(message) > max_message:
            raise ServingError(
                f"websocket message exceeds the {max_message}-byte limit"
            )
        if fin:
            return message_opcode, bytes(message)
