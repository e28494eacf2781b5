"""Columnar page codec: exact round-trips across the process boundary.

:func:`~repro.stream.pages.encode_page` /
:func:`~repro.stream.pages.decode_page` are the multiprocess engine's
wire format -- every page crossing a worker boundary takes this path, so
the codec must preserve *everything* the in-process queues preserve:

* element interleaving (tuples and embedded punctuations, in order),
* per-tuple values, of every kind a schema can carry,
* schema identity (interned per process, rebuilt once per signature),
* the page's ``available_at`` stamp and completion state,
* the capacity (flush thresholds survive re-enqueueing downstream).

The property tests drive random interleavings through
encode -> pickle -> unpickle -> decode -- the exact multiprocess queue
trip -- and compare element-by-element.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EngineError
from repro.punctuation import Equals, InSet, Pattern, Punctuation
from repro.stream import Schema, StreamTuple
from repro.stream.pages import Page, decode_page, encode_page

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])
OTHER = Schema([("k", "int"), ("label", "str")])


def roundtrip(page: Page) -> Page:
    """The exact multiprocess boundary: encode, pickle, unpickle, decode."""
    wire = pickle.loads(pickle.dumps(encode_page(page)))
    return decode_page(wire)


def scan(page: Page) -> bool:
    """What ``Page.has_punctuation`` records, looked up the slow way."""
    return any(e.is_punctuation for e in page.elements)


def assert_pages_equal(original: Page, decoded: Page) -> None:
    assert decoded.has_punctuation is scan(decoded) is scan(original)
    assert decoded.capacity == original.capacity
    assert decoded.available_at == original.available_at
    assert decoded.complete == original.complete
    assert len(decoded.elements) == len(original.elements)
    for ours, theirs in zip(original.elements, decoded.elements):
        assert theirs.is_punctuation == ours.is_punctuation
        if ours.is_punctuation:
            assert theirs == ours
        else:
            assert theirs.values == ours.values
            assert theirs.schema == ours.schema


def make_page(elements, *, capacity=64, available_at=None, seal=False):
    page = Page(capacity)
    page.elements.extend(elements)
    page.available_at = available_at
    if seal:
        page.seal()
    return page


class TestExplicitRoundTrips:
    def test_empty_page(self):
        decoded = roundtrip(make_page([], capacity=8))
        assert decoded.empty
        assert decoded.capacity == 8
        assert decoded.available_at is None
        assert not decoded.complete

    def test_empty_sealed_page_stays_sealed(self):
        decoded = roundtrip(make_page([], seal=True, available_at=3.5))
        assert decoded.empty
        assert decoded.complete
        assert decoded.available_at == 3.5

    def test_punctuation_mid_page_preserves_interleaving(self):
        punct = Punctuation(
            Pattern.from_mapping(SCHEMA, {"ts": Equals(1.0)}), source="src"
        )
        elements = [
            StreamTuple(SCHEMA, (0.5, 1, 2.0)),
            StreamTuple(SCHEMA, (1.0, 2, 3.0)),
            punct,
            StreamTuple(SCHEMA, (1.5, 3, 4.0)),
        ]
        decoded = roundtrip(make_page(elements))
        assert_pages_equal(make_page(elements), decoded)
        assert decoded.elements[2].is_punctuation
        assert decoded.elements[2].source == "src"
        # the split runs re-join into tuples on either side
        assert decoded.tuple_count() == 3
        assert decoded.punctuation_count() == 1

    def test_heterogeneous_value_kinds(self):
        schema = Schema([
            ("i", "int"), ("f", "float"), ("s", "str"),
            ("b", "bool"), ("n", "any"),
        ])
        rows = [
            (1, 1.5, "alpha", True, None),
            (-7, float("inf"), "", False, (1, 2)),
            (0, -0.0, "uniçode", True, 3.25),
        ]
        elements = [StreamTuple(schema, row) for row in rows]
        decoded = roundtrip(make_page(elements))
        assert [t.values for t in decoded.elements] == rows
        assert decoded.elements[0].schema == schema

    def test_available_at_preserved(self):
        page = make_page(
            [StreamTuple(SCHEMA, (0.0, 1, 1.0))], available_at=17.25
        )
        assert roundtrip(page).available_at == 17.25

    def test_mixed_schemas_build_one_table_row_each(self):
        elements = [
            StreamTuple(SCHEMA, (0.0, 1, 1.0)),
            StreamTuple(OTHER, (3, "x")),
            StreamTuple(SCHEMA, (1.0, 2, 2.0)),
        ]
        wire = encode_page(make_page(elements))
        schema_table = wire[4]
        # three runs, but only two distinct schema signatures
        assert len(schema_table) == 2
        assert_pages_equal(make_page(elements), decode_page(wire))

    def test_decoded_schemas_are_interned(self):
        pages = [
            make_page([StreamTuple(SCHEMA, (float(i), i, 0.0))])
            for i in range(3)
        ]
        decoded = [roundtrip(p) for p in pages]
        first = decoded[0].elements[0].schema
        assert all(p.elements[0].schema is first for p in decoded)

    def test_punctuation_pattern_survives_wire(self):
        punct = Punctuation(
            Pattern.from_mapping(SCHEMA, {"seg": InSet({1, 2})}),
            source="probe",
        )
        decoded = roundtrip(make_page([punct]))
        restored = decoded.elements[0]
        assert restored == punct
        assert restored.pattern.matches(StreamTuple(SCHEMA, (0.0, 2, 0.0)))
        assert not restored.pattern.matches(
            StreamTuple(SCHEMA, (0.0, 4, 0.0))
        )

    def test_unknown_codec_version_rejected(self):
        wire = list(encode_page(make_page([])))
        wire[0] = "colpage/99"
        with pytest.raises(EngineError, match="codec"):
            decode_page(tuple(wire))

    def test_wire_form_is_smaller_than_the_pickled_page(self):
        """The schema ships once per page and values ship as primitive
        columns, so a full page of tuples crosses the boundary in fewer
        bytes than pickling the ``Page`` object would take."""
        page = Page(64)
        for i in range(64):
            page.append(StreamTuple(SCHEMA, (float(i), i % 7, float(i))))
        assert len(pickle.dumps(encode_page(page))) < len(pickle.dumps(page))


# ---------------------------------------------------------------- property


_seg_values = st.integers(min_value=-5, max_value=5)


@st.composite
def elements_strategy(draw):
    """A random interleaving of tuples (two schemas) and punctuations."""
    kind = draw(st.sampled_from(["main", "other", "punct"]))
    if kind == "main":
        return StreamTuple(SCHEMA, (
            draw(st.floats(min_value=0.0, max_value=100.0,
                           allow_nan=False)),
            draw(_seg_values),
            draw(st.floats(allow_nan=False, allow_infinity=False)),
        ))
    if kind == "other":
        return StreamTuple(OTHER, (
            draw(_seg_values), draw(st.text(max_size=8)),
        ))
    return Punctuation(
        Pattern.from_mapping(SCHEMA, {"seg": Equals(draw(_seg_values))}),
        source=draw(st.sampled_from(["a", "b", ""])),
    )


class TestPropertyRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(
        elements=st.lists(elements_strategy(), max_size=24),
        capacity=st.integers(min_value=1, max_value=64),
        available_at=st.none() | st.floats(min_value=0.0, max_value=1e6,
                                           allow_nan=False),
        sealed=st.booleans(),
    )
    def test_roundtrip_is_exact(
        self, elements, capacity, available_at, sealed
    ):
        page = make_page(
            elements, capacity=capacity, available_at=available_at,
            seal=sealed,
        )
        assert_pages_equal(page, roundtrip(page))

    @settings(max_examples=60, deadline=None)
    @given(elements=st.lists(elements_strategy(), max_size=16))
    def test_roundtrip_is_idempotent(self, elements):
        once = roundtrip(make_page(elements))
        assert_pages_equal(once, roundtrip(once))


    @settings(max_examples=60, deadline=None)
    @given(elements=st.lists(elements_strategy(), max_size=24))
    def test_decoded_flag_is_recorded_not_scanned(self, elements):
        """A decoded page answers from what the decoder saw: its record
        covers every element, interleaved punctuation included."""
        decoded = roundtrip(make_page(elements))
        assert decoded._vetted == len(decoded.elements)
        assert decoded._punctuated is scan(decoded)
