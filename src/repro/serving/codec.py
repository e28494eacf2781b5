"""JSON ⇄ :class:`StreamTuple` codec for the wire boundary.

Network clients speak JSON objects keyed by attribute name; plans speak
positional :class:`~repro.stream.tuples.StreamTuple` rows against a
:class:`~repro.stream.schema.Schema`.  This module is the one place that
translation happens, so every ingest path (HTTP POST, websocket frame,
load generator) validates identically and every delivery path renders
identically.

What the translation costs is paid per schema, not per tuple: the names
are the schema's stored tuple, the rendered ``"name":`` keys are one
template per set of names, and the JSON scanner and encoder are built
once for the module.  Each shortcut covers the common case only -- a
UTF-8 body holding one JSON value and nothing else, an object of exactly
the schema's attributes, values of the plain JSON types -- and hands
everything else to the general form it shortcuts (``json.loads(body)``,
the attribute-by-attribute checks, a ``JSONEncoder``), so what is
accepted, what is refused and with which message, and every byte
rendered are those of the general form.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.errors import ServingError
from repro.stream.schema import Schema
from repro.stream.tuples import StreamTuple

__all__ = ["tuple_from_json", "tuple_to_json", "tuples_from_body"]

# ``json.loads`` wraps this scanner in encoding detection, two whitespace
# matches and a fresh decode per call; ``json.dumps`` with any
# non-default argument builds an encoder per call.
_scan = json.JSONDecoder().raw_decode
_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode


def tuple_from_json(schema: Schema, payload: Mapping[str, Any]) -> StreamTuple:
    """Build a tuple from a JSON object, validating against ``schema``.

    Every schema attribute must be present; unknown keys are rejected so
    client typos fail fast instead of silently dropping a field.
    """
    names = schema.names
    if type(payload) is dict and len(payload) == len(names):
        # Every name found among exactly that many keys leaves no room
        # for an unknown one.
        try:
            return StreamTuple.unchecked(
                schema, tuple([payload[n] for n in names])
            )
        except KeyError:
            pass
    if not isinstance(payload, Mapping):
        raise ServingError(
            f"ingest payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    missing = [n for n in names if n not in payload]
    if missing:
        raise ServingError(
            f"ingest payload is missing attribute(s) {missing}; "
            f"schema is {list(names)}"
        )
    unknown = [k for k in payload if k not in names]
    if unknown:
        raise ServingError(
            f"ingest payload has unknown attribute(s) {unknown}; "
            f"schema is {list(names)}"
        )
    return StreamTuple(schema, tuple(payload[n] for n in names))


def _loads(body: bytes) -> Any:
    """``json.loads(body)``, scanning the UTF-8 text directly when the
    body is exactly one JSON value.

    Leading or trailing whitespace, a BOM, UTF-16/32 and every malformed
    body leave the scanner short of the end (or raise): ``json.loads``
    then decides, so they are accepted or refused as it does.
    """
    try:
        text = body.decode()
        decoded, end = _scan(text)
        if end == len(text):
            return decoded
    except (ValueError, AttributeError):  # AttributeError: a ``str`` body
        pass
    return json.loads(body)


def tuples_from_body(schema: Schema, body: bytes) -> list[StreamTuple]:
    """Decode an ingest request body: one JSON object or a JSON list."""
    try:
        decoded = _loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServingError(f"ingest body is not valid JSON: {exc}") from exc
    if isinstance(decoded, list):
        return [tuple_from_json(schema, item) for item in decoded]
    return [tuple_from_json(schema, decoded)]


@lru_cache(maxsize=256)
def _template(names: tuple[str, ...]) -> str:
    """The object with every key rendered and a ``%s`` for each value.

    Keyed by the names alone, so equal schemas share one; an LRU because
    a process serves a handful of schemas and must not grow with every
    schema it ever saw.
    """
    return "{%s}" % ",".join(
        encode_basestring_ascii(name).replace("%", "%%") + ":%s"
        for name in names
    )


def _render_float(value: float) -> str:
    # NaN and the infinities are spelled differently in JSON.
    return float.__repr__(value) if value - value == 0.0 else _encode(value)


class _Renderers(dict):
    """Exact type -> renderer; anything else renders through ``_encode``."""

    def __missing__(self, kind: type) -> Any:
        return _encode


_RENDER = _Renderers({
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _render_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _none: "null",
})


def tuple_to_json(tup: StreamTuple) -> str:
    """Render a result tuple as a compact JSON object.

    Byte for byte ``json.dumps(tup.as_dict(), separators=(",", ":"),
    default=str)``.
    """
    return _template(tup.schema.names) % tuple(
        [_RENDER[type(value)](value) for value in tup.values]
    )
