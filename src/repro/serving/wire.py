"""Minimal HTTP/1.1, SSE and RFC 6455 websocket wire helpers.

The container this library targets has no aiohttp/websockets, and the
serving layer needs only a narrow slice of each protocol: parse one
request line + headers, answer with framed responses, stream
``text/event-stream`` chunks, and exchange websocket data frames.  This
module implements exactly that slice over asyncio stream reader/writer
pairs -- ~300 lines instead of a framework dependency, and every byte
on the wire is visible to the tests.

One function per direction knows each protocol: :func:`read_request` for
HTTP, :func:`ws_read` / :func:`ws_encode` for websocket frames.  Incoming
frames are walked two ways -- :meth:`FrameBuffer.take` cuts messages
synchronously out of the bytes one socket read brought (the server's
path and :class:`~repro.serving.client.WebSocketClient`'s), ``ws_read``
on a bare ``StreamReader`` reads frame by frame (``bench/ladder.py``'s
``serving.ws_read_ns`` row) -- but what a frame may be (the message
size limit, fragmentation, the control-frame limits of RFC 6455 section
5.5) is decided by ``_check_head`` and ``_add_fragment``, and nowhere
else.

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


#: The two header bytes of every unmasked final frame under 126 bytes,
#: at ``opcode << 7 | length``: what a server sends most.
_SHORT_HEADS = [bytes([0x80 | i >> 7, i & 0x7F]) for i in range(16 << 7)]


def ws_encode(
    payload: bytes | str, *, opcode: int = WS_TEXT, mask: bool = False
) -> bytes:
    """Frame one complete (FIN) websocket message.

    Servers send unmasked frames; clients (the loopback test client and
    the load generator) set ``mask=True`` as RFC 6455 §5.3 requires.
    """
    if isinstance(payload, str):
        payload = payload.encode()
    n = len(payload)
    if n < 126 and not mask:
        return _SHORT_HEADS[opcode << 7 | n] + payload
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
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


# What a frame may be.  Both readers -- :meth:`FrameBuffer.take` and the
# ``StreamReader`` path of :func:`ws_read` -- walk the bytes their own way
# and call these two for every decision.


def _check_head(b1: int, n: int, max_message: int) -> None:
    """Refuse a frame on its header alone, before its payload is read:
    anything over ``max_message``, and a control frame that is fragmented
    or longer than 125 bytes (RFC 6455 section 5.5)."""
    if n > max_message:
        raise ServingError(
            f"websocket frame of {n} bytes exceeds the "
            f"{max_message}-byte limit"
        )
    if b1 & 0x0F >= WS_CLOSE:
        if not b1 & 0x80:
            raise ServingError("websocket control frame is fragmented")
        if n > MAX_CONTROL_PAYLOAD:
            raise ServingError(
                f"websocket control frame of {n} bytes exceeds the "
                f"{MAX_CONTROL_PAYLOAD}-byte limit"
            )


def _add_fragment(
    message_opcode: int | None,
    message: bytearray,
    opcode: int,
    payload: bytes,
    max_message: int,
) -> int:
    """Append a data frame to the message it belongs to and return that
    message's opcode.  A new data frame inside an unfinished message and a
    continuation without a start are refused (RFC 6455 section 5.4), as is
    a message grown over ``max_message``."""
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
    return message_opcode


class FrameBuffer:
    """The bytes one socket read brought, cut into messages without awaiting.

    :meth:`take` walks what is buffered and returns the next complete
    message, or ``None`` when the buffer holds none -- so a handler takes
    every message of one wake-up synchronously, admits their tuples as one
    run, and goes back to the socket (:meth:`fill`, one ``reader.read()``)
    only when :meth:`take` comes back empty.  Fragments taken so far stay
    here between calls, so a control frame between them (RFC 6455 section
    5.4) is handed over as it comes.  A frame's header is refused as soon
    as it is buffered, its payload not awaited.
    """

    __slots__ = ("_reader", "_data", "_pos", "_opcode", "_message")

    READ_SIZE = 65536

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._data = b""
        self._pos = 0
        self._opcode: int | None = None  # of the message being reassembled
        self._message = bytearray()

    def take(self, max_message: int = 1 << 20) -> tuple[int, bytes] | None:
        """The next complete ``(opcode, payload)`` message, or ``None``."""
        data, pos = self._data, self._pos
        end = len(data)
        while end - pos >= 2:
            b1, b2 = data[pos], data[pos + 1]
            at, n = pos + 2, b2 & 0x7F
            if n >= 126:
                width = 2 if n == 126 else 8
                if end - at < width:
                    return None
                n = int.from_bytes(data[at:at + width], "big")
                at += width
            _check_head(b1, n, max_message)
            if b2 & 0x80:
                stop = at + 4 + n
                if stop > end:
                    return None
                payload = _mask(data[at + 4:stop], data[at:at + 4])
            else:
                stop = at + n
                if stop > end:
                    return None
                payload = data[at:stop]
            self._pos = pos = stop
            opcode = b1 & 0x0F
            if opcode >= WS_CLOSE:
                return opcode, payload
            if b1 & 0x80 and opcode and self._opcode is None:
                return opcode, payload  # a whole message: nothing to refuse
            self._opcode = _add_fragment(
                self._opcode, self._message, opcode, payload, max_message
            )
            if b1 & 0x80:
                whole = self._opcode, bytes(self._message)
                self._opcode = None
                self._message.clear()
                return whole
        return None

    async def fill(self) -> bool:
        """Append one socket read; ``False`` at end of stream between
        frames.  End of stream inside a frame raises
        :class:`asyncio.IncompleteReadError`."""
        chunk = await self._reader.read(self.READ_SIZE)
        rest = self._data[self._pos:]
        self._pos = 0
        if chunk:
            self._data = rest + chunk
            return True
        self._data = b""
        if len(rest) < 2:
            return False
        raise asyncio.IncompleteReadError(rest, None)


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

    On a :class:`FrameBuffer` this is :meth:`FrameBuffer.take`, going
    back to the socket only while the buffer holds no whole message; any
    other ``reader`` is read frame by frame with ``readexactly``.  Either
    way :func:`_check_head` and :func:`_add_fragment` decide what a frame
    may be, and a refused frame raises :class:`~repro.errors.ServingError`.
    """
    if isinstance(reader, FrameBuffer):
        while (message := reader.take(max_message)) is None:
            if not await reader.fill():
                return None
        return message
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
        n = b2 & 0x7F
        if n == 126:
            (n,) = struct.unpack("!H", await reader.readexactly(2))
        elif n == 127:
            (n,) = struct.unpack("!Q", await reader.readexactly(8))
        _check_head(b1, n, max_message)  # before the payload is read
        key = await reader.readexactly(4) if b2 & 0x80 else b""
        payload = await reader.readexactly(n)
        if key:
            payload = _mask(payload, key)
        opcode = b1 & 0x0F
        if opcode >= WS_CLOSE:
            if message_opcode is not None:
                reader._ws_partial = (  # type: ignore[attr-defined]
                    message_opcode, message
                )
            return opcode, payload
        message_opcode = _add_fragment(
            message_opcode, message, opcode, payload, max_message
        )
        if b1 & 0x80:
            return message_opcode, bytes(message)
