"""The websocket frame reader and writer against the bodies they replaced.

``ws_read`` used to parse every frame with awaited ``readexactly`` calls,
on the server as on the clients; the server now takes whole messages out
of a :class:`~repro.serving.wire.FrameBuffer` without awaiting, and
``ws_encode`` frames a short reply from a header table.  The promise is
that no peer can tell.  The replaced bodies are kept here, verbatim, as
the reference, and hypothesis looks for a byte sequence -- any opcode,
FIN and mask on or off, every length form, control frames between
fragments, forbidden frames, a stream cut anywhere and ended anywhere --
on which a reader differs from it: in the messages returned, in the
``ServingError`` text or the point it is raised at, or in how end of
stream is reported.
"""

from __future__ import annotations

import asyncio
import os
import struct

from hypothesis import example, given, settings, strategies as st

from repro.errors import ServingError
from repro.serving.wire import (
    MAX_CONTROL_PAYLOAD,
    WS_CLOSE,
    WS_CONT,
    WS_PING,
    WS_TEXT,
    FrameBuffer,
    _mask,
    ws_encode,
    ws_read,
)


# -- the replaced bodies, kept as the reference ----------------------------------


async def reference_ws_read(reader, *, max_message=1 << 20):
    partial = getattr(reader, "_ws_partial", None)
    if partial is None:
        message_opcode = None
        message = bytearray()
    else:
        message_opcode, message = partial
        del reader._ws_partial
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
                reader._ws_partial = (message_opcode, message)
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


def reference_ws_encode(payload, *, opcode=WS_TEXT, mask=False):
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


# -- readers -------------------------------------------------------------------


class Chunks:
    """A socket that hands out exactly these reads, then end of stream."""

    def __init__(self, chunks) -> None:
        self.chunks = [chunk for chunk in chunks if chunk]

    async def read(self, _n: int) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""


def stream_reader(wire: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(wire)
    reader.feed_eof()
    return reader


async def messages(read, reader, max_message):
    """Every message ``read`` finds, then how the stream ended: ``None``,
    the refusal's text, or an incomplete read (its byte count is the
    reader's business, not the peer's)."""
    seen = []
    while True:
        try:
            message = await read(reader, max_message=max_message)
        except ServingError as exc:
            return seen + [("refused", str(exc))]
        except asyncio.IncompleteReadError:
            return seen + ["incomplete"]
        seen.append(message)
        if message is None:
            return seen


async def drained(buffer: FrameBuffer, *, max_message):
    """The server's loop: take while the buffer holds a message, await
    ``ws_read`` only when it holds none."""
    message = buffer.take(max_message)
    if message is None:
        message = await ws_read(buffer, max_message=max_message)
    return message


def every_reading(wire: bytes, cuts: list[int], max_message: int):
    """The reference and the three ways a stream is read today."""
    bounds = [0, *cuts, len(wire)]
    pieces = [wire[a:b] for a, b in zip(bounds, bounds[1:])]

    async def main():
        return [
            await messages(reference_ws_read, stream_reader(wire), max_message),
            await messages(ws_read, stream_reader(wire), max_message),
            await messages(ws_read, FrameBuffer(Chunks(pieces)), max_message),
            await messages(drained, FrameBuffer(Chunks(pieces)), max_message),
        ]

    return asyncio.run(main())


# -- frames --------------------------------------------------------------------


def frame_bytes(
    opcode: int, fin: bool, key: bytes | None, payload: bytes, form: int,
    declared: int | None = None,
) -> bytes:
    """One frame; ``form`` is the length field's width in bits (7, 16 or
    64), widened when the payload does not fit.  ``declared`` announces a
    length with no payload behind it."""
    n = len(payload) if declared is None else declared
    if form == 7 and n >= 126:
        form = 16
    if form == 16 and n >= 1 << 16:
        form = 64
    mask_bit = 0x80 if key is not None else 0
    head = bytes([(0x80 if fin else 0) | opcode])
    if form == 7:
        head += bytes([mask_bit | n])
    elif form == 16:
        head += bytes([mask_bit | 126]) + struct.pack("!H", n)
    else:
        head += bytes([mask_bit | 127]) + struct.pack("!Q", n)
    if key is None:
        return head + payload
    return head + key + _mask(payload, key)


#: Data opcodes weighted up, so that fragments meet and messages finish.
OPCODES = st.one_of(
    st.sampled_from([WS_CONT, WS_TEXT, 0x2, WS_PING]),
    st.integers(min_value=0, max_value=15),
)


@st.composite
def frames(draw):
    opcode = draw(OPCODES)
    fin = draw(st.booleans())
    key = draw(st.none() | st.binary(min_size=4, max_size=4))
    form = draw(st.sampled_from((7, 16, 64)))
    if draw(st.integers(0, 19)) == 0:  # a head announcing more than comes
        declared = draw(st.sampled_from(
            (127, 1 << 16, 1 << 20, (1 << 20) + 1, 1 << 62)
        ))
        return frame_bytes(opcode, fin, key, b"", form, declared)
    size = draw(st.sampled_from((0, 1, 5, 40, 125, 126, 130, 300)))
    payload = draw(st.binary(min_size=size, max_size=size))
    return frame_bytes(opcode, fin, key, payload, form)


@st.composite
def streams(draw):
    wire = b"".join(draw(st.lists(frames(), max_size=8)))
    end = draw(st.none() | st.integers(0, len(wire)))  # ended mid-frame?
    if end is not None:
        wire = wire[:end]
    cuts = sorted(draw(st.sets(st.integers(1, max(len(wire) - 1, 1)))))
    cuts = [cut for cut in cuts if cut < len(wire)]
    return wire, cuts


def masked(payload: bytes, opcode: int, fin: bool = True) -> bytes:
    return frame_bytes(opcode, fin, b"\x37\xfa\x21\x3d", payload, 7)


class TestReadingAgainstTheReference:
    @given(stream=streams(), max_message=st.sampled_from((1 << 20, 64)))
    @settings(max_examples=250, deadline=None)
    @example(stream=(b"\x81", []), max_message=1 << 20)
    @example(stream=(masked(b"ab", WS_TEXT)[:5], [3]), max_message=1 << 20)
    @example(
        stream=(
            masked(b"ab", WS_TEXT, False) + masked(b"", WS_PING)
            + masked(b"cd", WS_CONT), [9],
        ),
        max_message=1 << 20,
    )
    @example(
        stream=(masked(b"x" * 40, WS_TEXT, False) * 2, []), max_message=64
    )
    @example(stream=(masked(b"ab", WS_CONT), []), max_message=1 << 20)
    def test_every_reader_reads_as_the_reference(self, stream, max_message):
        wire, cuts = stream
        reference, *readings = every_reading(wire, cuts, max_message)
        for reading in readings:
            assert reading == reference

    def test_end_of_stream_is_none_before_two_bytes_else_incomplete(self):
        frame = masked(b'{"seq": 1}', WS_TEXT)
        for end in range(len(frame)):
            expected = [None] if end < 2 else ["incomplete"]
            for reading in every_reading(frame[:end], [], 1 << 20):
                assert reading == expected, end


class TestEncodingAgainstTheReference:
    def test_unmasked_frames_are_byte_equal(self):
        for opcode in range(16):
            for n in [*range(201), 1 << 16]:
                for payload in (b"\xab" * n, "x" * n, "é" * n):
                    assert ws_encode(payload, opcode=opcode) == (
                        reference_ws_encode(payload, opcode=opcode)
                    ), (opcode, n, type(payload))

    def test_masked_frames_unmask_to_the_payload(self):
        for opcode in range(16):
            for n in [*range(201), 1 << 16]:
                for payload in (b"\xab" * n, "x" * n):
                    data = ws_encode(payload, opcode=opcode, mask=True)
                    plain = reference_ws_encode(payload, opcode=opcode)
                    width = len(plain) - n
                    raw = payload if isinstance(payload, bytes) else (
                        payload.encode()
                    )
                    assert data[0] == plain[0]
                    assert data[1] == plain[1] | 0x80
                    assert data[2:width] == plain[2:width]
                    key = data[width:width + 4]
                    assert _mask(data[width + 4:], key) == raw
