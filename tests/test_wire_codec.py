"""The wire codec against the three bodies it replaced.

``tuples_from_body``, ``tuple_from_json`` and ``tuple_to_json`` are
shortcuts around ``json.loads``, an attribute-by-attribute check and
``json.dumps``; the promise is that nobody on either side of a socket can
tell.  The bodies they replaced are kept here, verbatim, as the
reference, and hypothesis looks for an input on which the two differ: in
the tuples built, in one byte of the text rendered, or in the type *or
message* of the exception raised.
"""

from __future__ import annotations

import collections
import datetime
import decimal
import enum
import json
import types
from typing import Any, Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ServingError
from repro.serving import codec
from repro.stream import Schema, StreamTuple


# -- the replaced bodies, kept as the reference ----------------------------------


def reference_tuple_from_json(schema: Schema, payload: Mapping[str, Any]):
    if not isinstance(payload, Mapping):
        raise ServingError(
            f"ingest payload must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    names = schema.names
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


def reference_tuples_from_body(schema: Schema, body: bytes):
    try:
        decoded = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServingError(f"ingest body is not valid JSON: {exc}") from exc
    if isinstance(decoded, list):
        return [reference_tuple_from_json(schema, item) for item in decoded]
    return [reference_tuple_from_json(schema, decoded)]


def reference_tuple_to_json(tup: StreamTuple) -> str:
    return json.dumps(tup.as_dict(), separators=(",", ":"), default=str)


def outcome(fn, *args):
    """What a caller can see: the value (NaN-proof) or the exception."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- every kind is compared
        return ("raised", type(exc), str(exc))
    if isinstance(result, list):
        return ("tuples", [described(tup) for tup in result])
    if isinstance(result, StreamTuple):
        return ("tuple", described(result))
    return ("text", result)


def described(tup: StreamTuple):
    # repr tells 1 from True from 1.0 and NaN from NaN; == does neither.
    return (tup.schema.names, type(tup.values), repr(tup.values))


# -- generators -----------------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Tag(str):
    """A ``str`` subclass: not the exact type the fast renderer takes."""


class Level(float):
    """A ``float`` subclass."""


class Opaque:
    """Not JSON at all: rendered through ``default=str``."""

    def __init__(self, label: str) -> None:
        self.label = label

    def __str__(self) -> str:
        return f"<opaque {self.label}>"


AWKWARD = '"\\%/{}[]:, .\t\n\x00\x7f'
name_text = st.text(
    st.one_of(
        st.sampled_from(AWKWARD),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.sampled_from("éßλ中\u2028\U0001f600"),
    ),
    min_size=1, max_size=8,
)
schemas = st.lists(name_text, min_size=0, max_size=5, unique=True).map(Schema)

text_values = st.text(
    st.one_of(
        st.sampled_from(AWKWARD),
        st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
        st.sampled_from("\ud800\U0001f600"),   # a lone surrogate too
    ),
    max_size=12,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.integers(-(2 ** 200), 2 ** 200),
    st.sampled_from([10 ** 4299, -(10 ** 4299)]),   # at the digit limit
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e22, 1e-7, 5e-324, 1.7976931348623157e308]),
    text_values,
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(text_values, inner, max_size=3),
    ),
    max_leaves=6,
)
python_values = st.one_of(
    json_values,
    st.sampled_from([
        Colour.GREEN, Tag("tag\"ged"), Level(2.5), Level("nan"),
        Opaque("x"), decimal.Decimal("1.10"), datetime.date(2026, 10, 3),
        (1, "two"), {1: "int key", None: 0, 2.5: True}, {(1, 2): "bad key"},
        frozenset({3}), b"bytes", 3 + 4j, [Opaque("in a list"), Colour.RED],
        {"nested": {"deeper": [float("inf"), Tag("t")]}},
    ]),
)


@st.composite
def rows(draw, values=python_values):
    schema = draw(schemas)
    return StreamTuple(
        schema, tuple(draw(values) for _ in schema.names)
    )


# -- tuple_to_json ---------------------------------------------------------------


class TestRendering:
    @given(tup=rows())
    @settings(max_examples=200, deadline=None)
    def test_every_byte_is_json_dumps(self, tup):
        assert outcome(codec.tuple_to_json, tup) == outcome(
            reference_tuple_to_json, tup
        )

    def test_a_value_holding_itself_is_refused_as_before(self):
        loop: list = []
        loop.append(loop)
        tup = StreamTuple(Schema.of("v"), (loop,))
        assert outcome(codec.tuple_to_json, tup) == outcome(
            reference_tuple_to_json, tup
        )
        assert outcome(codec.tuple_to_json, tup)[1] is ValueError

    def test_an_int_past_the_digit_limit_is_refused_as_before(self):
        tup = StreamTuple(Schema.of("v", "w"), (1, 10 ** 4300))
        assert outcome(codec.tuple_to_json, tup) == outcome(
            reference_tuple_to_json, tup
        )
        assert outcome(codec.tuple_to_json, tup)[1] is ValueError

    def test_the_served_shape(self):
        schema = Schema([("client", "str"), ("seq", "int"), ("value", "float")])
        assert codec.tuple_to_json(StreamTuple(schema, ("c0", 7, 0.5))) == (
            '{"client":"c0","seq":7,"value":0.5}'
        )
        assert codec.tuple_to_json(StreamTuple(Schema([]), ())) == "{}"

    def test_the_template_table_is_bounded_and_shared(self):
        codec._template.cache_clear()
        limit = codec._template.cache_info().maxsize
        assert limit is not None
        for index in range(3 * limit):
            schema = Schema.of(f"a{index}", "b")
            codec.tuple_to_json(StreamTuple(schema, (index, None)))
        assert codec._template.cache_info().currsize == limit
        # Equal but distinct schemas -- and schemas that differ only in
        # the kinds of their attributes -- render through one entry.
        codec._template.cache_clear()
        for kind in ("int", "float", "int"):
            schema = Schema([("p%", kind), ("q", "str")])
            assert codec.tuple_to_json(StreamTuple(schema, (1, "x"))) == (
                '{"p%":1,"q":"x"}'
            )
        info = codec._template.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        # An unknown type is rendered, not remembered.
        before = len(codec._RENDER)
        codec.tuple_to_json(StreamTuple(Schema.of("v"), (Opaque("y"),)))
        assert len(codec._RENDER) == before


# -- tuple_from_json -------------------------------------------------------------


@st.composite
def payloads(draw):
    """An object for a schema: exact, short, long, renamed, re-typed."""
    schema = draw(schemas)
    payload = {name: draw(json_values) for name in schema.names}
    for name in draw(st.lists(st.sampled_from(schema.names or ("",)),
                              max_size=2)):
        payload.pop(name, None)
    for name in draw(st.lists(name_text, max_size=2)):
        payload[name] = draw(scalars)
    shape = draw(st.sampled_from([
        dict, collections.OrderedDict, types.MappingProxyType,
        collections.UserDict, collections.ChainMap, list, tuple,
    ]))
    return schema, shape(payload)


class TestOneObject:
    @given(case=payloads())
    @settings(max_examples=200, deadline=None)
    def test_same_tuple_or_same_refusal(self, case):
        schema, payload = case
        assert outcome(codec.tuple_from_json, schema, payload) == outcome(
            reference_tuple_from_json, schema, payload
        )

    @pytest.mark.parametrize("payload", [
        None, 7, "text", 2.5, True, [], [1, 2], {1: "a", 2: "b"},
        {"a": 1}, {"a": 1, "b": 2, "c": 3}, {"a": 1, "c": 3},
    ])
    def test_refusals_read_as_they_did(self, payload):
        schema = Schema.of("a", "b")
        got = outcome(codec.tuple_from_json, schema, payload)
        assert got == outcome(reference_tuple_from_json, schema, payload)
        assert got[1] is ServingError

    def test_a_bool_for_an_int_passes_through(self):
        # Kinds are documentation: the codec never coerced and does not.
        schema = Schema([("seq", "int")])
        (tup,) = codec.tuples_from_body(schema, b'{"seq":true}')
        assert tup.values == (True,) and tup.values[0] is True


# -- tuples_from_body ------------------------------------------------------------

WHITESPACE = st.text(" \t\r\n", max_size=3)
ENCODINGS = [
    "utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
    "utf-32", "utf-32-le", "utf-32-be",
]


@st.composite
def bodies(draw):
    schema = draw(schemas)
    count = draw(st.sampled_from([None, 0, 1, 1, 2, 3]))
    objects = []
    for _ in range(count or 1):
        pairs = [(name, draw(json_values)) for name in schema.names]
        if pairs and draw(st.integers(0, 9)) == 0:
            pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        if draw(st.integers(0, 9)) == 0:
            pairs.append((draw(name_text), 1))
        if pairs and draw(st.integers(0, 9)) == 0:   # a duplicate key
            pairs.append((pairs[0][0], draw(scalars)))
        item_sep, key_sep = draw(st.sampled_from(
            [(",", ":"), (", ", ": "), (" ,\n", " :\t")]
        ))
        dumps = json.JSONEncoder(
            ensure_ascii=draw(st.booleans()),
            separators=(item_sep, key_sep),
        ).encode
        objects.append("{" + item_sep.join(
            dumps(key) + key_sep + dumps(value) for key, value in pairs
        ) + "}")
    text = objects[0] if count is None else "[" + ",".join(objects[:count]) + "]"
    text = draw(WHITESPACE) + text + draw(WHITESPACE)
    text += draw(st.sampled_from(["", "", "", "x", "{}", ",", "]", "\x00"]))
    try:
        body = text.encode(draw(st.sampled_from(ENCODINGS)), "surrogatepass")
    except UnicodeEncodeError:
        body = text.encode("utf-8", "surrogatepass")
    damage = draw(st.sampled_from(["none"] * 4 + ["cut", "flip", "prefix"]))
    if damage == "cut" and body:
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif damage == "flip" and body:
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([body[at] ^ 0x80]) + body[at + 1:]
    elif damage == "prefix":
        body = draw(st.sampled_from(
            [b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\xfe\xff", b"\x00"]
        )) + body
    return schema, draw(st.sampled_from([bytes, bytes, bytearray]))(body)


class TestBodies:
    @given(case=bodies())
    @settings(max_examples=300, deadline=None)
    @example(case=(Schema.of("a"), b'{"a":1}'))
    @example(case=(Schema.of("a"), b' {"a":1}\n'))
    @example(case=(Schema.of("a"), b'\xef\xbb\xbf{"a":1}'))
    @example(case=(Schema.of("a"), '{"a":1}'.encode("utf-16")))
    @example(case=(Schema.of("a"), '[{"a":"\u00e9"}]'.encode("utf-32-be")))
    @example(case=(Schema.of("a"), b'{"a":1,"a":2}'))
    @example(case=(Schema.of("a"), b'{"a":1}{"a":2}'))
    @example(case=(Schema.of("a"), b'{"a":"\xff"}'))
    @example(case=(Schema.of("a"), b'{"a":"\xed\xa0\x80"}'))
    @example(case=(Schema.of("a"), b'{"a":NaN}'))
    @example(case=(Schema.of("a"), b'[[{"a":1}]]'))
    @example(case=(Schema.of("a"), b'1\x00'))
    @example(case=(Schema.of("a"), b''))
    @example(case=(Schema.of("a"), b'[' * 100_000))
    def test_same_tuples_or_same_refusal(self, case):
        schema, body = case
        assert outcome(codec.tuples_from_body, schema, body) == outcome(
            reference_tuples_from_body, schema, body
        )

    def test_a_text_body_is_still_taken(self):
        schema = Schema.of("a")
        for body in ('{"a":1}', ' {"a":1}', '\ufeff{"a":1}', "nope"):
            assert outcome(codec.tuples_from_body, schema, body) == outcome(
                reference_tuples_from_body, schema, body
            )

    def test_refusals_are_serving_errors_with_the_parsers_words(self):
        schema = Schema.of("a")
        with pytest.raises(ServingError, match="Expecting value: line 1"):
            codec.tuples_from_body(schema, b"nope")
        with pytest.raises(ServingError, match="Extra data: line 1 column 8"):
            codec.tuples_from_body(schema, b'{"a":1}x')
        with pytest.raises(ServingError, match="can't decode byte 0xff"):
            codec.tuples_from_body(schema, b'{"a":"\xff"}')
        with pytest.raises(ServingError, match=r"missing attribute\(s\) \['a'\]"):
            codec.tuples_from_body(schema, b"[{}]")
