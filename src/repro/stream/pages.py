"""Pages: batched transport units between operators.

NiagaraST's inter-operator queues carry *pages* of tuples rather than single
tuples: batching amortises hand-off cost and reduces context switching
(paper section 5).  The downside -- a slow stream may take arbitrarily long
to fill a page -- is resolved exactly as in the paper: **punctuations flush
pages**.  A page is handed to the queue when it is full or when a punctuation
is appended.

Pages are also flushed by explicit ``flush()`` (end of stream) so no element
is ever stranded.

**Columnar serialization.**  Inside one process a page travels by
reference -- that *is* the zero-copy fast path every engine uses.  At a
process boundary (the multiprocess engine), a page is re-encoded once into
a compact columnar form: a **schema table** describing each distinct
schema exactly once, plus **segments** that are either a run of same-schema
tuples stored as value *columns* (one tuple-of-values per attribute) or a
single interleaved punctuation.  Encoding a page therefore costs one
schema description plus one transpose, instead of pickling a schema-bound
object per tuple; decoding interns schemas per process so every
reconstructed tuple of a signature shares one :class:`~repro.stream.
schema.Schema` instance.  ``available_at`` and completion survive the
round trip, so flush-on-punctuation holds across the boundary.
"""

from __future__ import annotations

from typing import Any, Iterator, List

from repro.errors import EngineError

__all__ = ["Page", "DEFAULT_PAGE_SIZE", "encode_page", "decode_page"]

DEFAULT_PAGE_SIZE = 64

#: Format tag of the columnar encoding; bump on layout changes so a
#: mixed-version worker fleet fails loudly instead of misdecoding.
_CODEC_VERSION = "colpage/1"


class Page:
    """A bounded batch of stream elements (tuples and embedded punctuation).

    A page never contains elements appended after a punctuation: appending a
    punctuation marks the page complete, mirroring NiagaraST's flush-on-
    punctuation rule.  Appending to a complete page raises
    :class:`~repro.errors.EngineError`.
    """

    __slots__ = ("capacity", "elements", "_complete", "available_at",
                 "_punctuated", "_vetted")

    def __init__(self, capacity: int = DEFAULT_PAGE_SIZE) -> None:
        if capacity < 1:
            raise EngineError(f"page capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.elements: List[Any] = []
        self._complete = False
        # Whether a punctuation is among the first ``_vetted`` elements:
        # kept by every method that adds elements, so a consumer need not
        # scan the page (see :attr:`has_punctuation`).
        self._punctuated = False
        self._vetted = 0
        #: Virtual time at which the page became visible downstream.
        #: Stamped by the engine when the producer flushes it; None until
        #: then.  Consumers never start a page before this time.
        self.available_at: float | None = None

    def append(self, element: Any) -> bool:
        """Append one element; return True when the page became complete.

        The page completes when it reaches capacity or when ``element`` is a
        punctuation (``element.is_punctuation`` is truthy).
        """
        if self._complete:
            raise EngineError("cannot append to a complete page")
        self.elements.append(element)
        self._vetted += 1
        if element.is_punctuation:
            self._punctuated = True
            self._complete = True
        elif len(self.elements) >= self.capacity:
            self._complete = True
        return self._complete

    def take_from(self, elements: List[Any], start: int) -> int:
        """Bulk-append data tuples from ``elements[start:]`` until full.

        Returns the index of the first element *not* taken.  Callers must
        pass plain data tuples only -- punctuation completes a page and
        must go through :meth:`append` so the flush-on-punctuation rule
        holds.
        """
        if self._complete:
            raise EngineError("cannot append to a complete page")
        room = self.capacity - len(self.elements)
        chunk = elements[start:start + room]
        self.elements.extend(chunk)
        self._vetted += len(chunk)
        if len(self.elements) >= self.capacity:
            self._complete = True
        return start + len(chunk)

    @classmethod
    def merged(cls, pages: List["Page"]) -> "Page":
        """One complete page holding ``pages``' elements in order.

        What a consumer that takes several ready pages in one step is
        handed.  Only the last of ``pages`` may carry a punctuation, so
        the merged page keeps the page rule (nothing after a punctuation)
        and takes its punctuation record from that page, without a scan.
        """
        page = cls(max(1, sum(len(part) for part in pages)))
        elements = page.elements
        for part in pages:
            elements += part.elements
        page._punctuated = pages[-1].has_punctuation
        page._vetted = len(elements)
        page._complete = True
        page.available_at = pages[0].available_at
        return page

    @property
    def complete(self) -> bool:
        return self._complete

    @property
    def empty(self) -> bool:
        return not self.elements

    @property
    def has_punctuation(self) -> bool:
        """Whether any element is a punctuation (or a marker), without a scan.

        Recorded as elements are added through :meth:`append`,
        :meth:`take_from` and :func:`decode_page`, so a consumer asks once
        per page instead of testing every element on every hop.  A page
        whose ``elements`` list was filled directly (hand-built in a
        test) has elements the record does not cover and is scanned.
        """
        elements = self.elements
        if self._vetted != len(elements):
            return any(e.is_punctuation for e in elements)
        return self._punctuated

    def seal(self) -> None:
        """Mark the page complete regardless of fill level (explicit flush)."""
        self._complete = True

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements)

    def tuple_count(self) -> int:
        """Number of data tuples (excluding punctuations) on the page."""
        return sum(1 for e in self.elements if not e.is_punctuation)

    def punctuation_count(self) -> int:
        """Number of embedded punctuations on the page."""
        return sum(1 for e in self.elements if e.is_punctuation)

    def __repr__(self) -> str:
        state = "complete" if self._complete else "open"
        return (
            f"Page({len(self.elements)}/{self.capacity} elements, "
            f"{self.punctuation_count()} puncts, {state})"
        )


def _schema_signature(schema: Any) -> tuple:
    """Structural identity of a schema: ``(name, kind, progressing)`` rows."""
    return tuple((a.name, a.kind, a.progressing) for a in schema)


#: Per-process intern table: schema signature -> the one Schema instance
#: every decoded tuple of that signature shares.  Decoding N pages of one
#: stream therefore rebuilds the schema once, not once per page.
_schema_intern: dict[tuple, Any] = {}


def _intern_schema(signature: tuple) -> Any:
    schema = _schema_intern.get(signature)
    if schema is None:
        from repro.stream.schema import Schema

        schema = Schema(signature)
        _schema_intern[signature] = schema
    return schema


def encode_page(page: Page) -> tuple:
    """Encode ``page`` into a compact, pickle-friendly columnar structure.

    The result is built from tuples/lists of primitives (plus embedded
    punctuation objects, which carry their own explicit pickle support):

    ``(version, capacity, available_at, complete, schema_table, segments)``

    * ``schema_table`` -- one ``(name, kind, progressing)`` row list per
      distinct tuple schema on the page, in first-appearance order;
    * ``segments`` -- ``("t", schema_index, row_count, columns)`` for a
      run of same-schema tuples transposed into per-attribute value
      columns, or ``("p", punctuation)`` for one interleaved punctuation.

    The page's tuple/punctuation interleaving, ``available_at`` stamp and
    completion state are preserved exactly, so flush-on-punctuation
    survives the process boundary.
    """
    schema_table: list[tuple] = []
    schema_index: dict[int, int] = {}  # id(schema) -> table position
    segments: list[tuple] = []
    run_schema: Any = None
    run_rows: list[tuple] = []

    def close_run() -> None:
        nonlocal run_schema
        if run_rows:
            index = schema_index.get(id(run_schema))
            if index is None:
                index = len(schema_table)
                schema_index[id(run_schema)] = index
                schema_table.append(_schema_signature(run_schema))
            columns = tuple(zip(*run_rows))
            segments.append(("t", index, len(run_rows), columns))
            run_rows.clear()
        run_schema = None

    for element in page.elements:
        if element.is_punctuation:
            close_run()
            segments.append(("p", element))
            continue
        schema = element.schema
        if schema is not run_schema:
            close_run()
            run_schema = schema
        run_rows.append(element.values)
    close_run()
    return (
        _CODEC_VERSION,
        page.capacity,
        page.available_at,
        page._complete,
        tuple(schema_table),
        tuple(segments),
    )


def decode_page(encoded: tuple) -> Page:
    """Rebuild a :class:`Page` from :func:`encode_page`'s wire form.

    Schemas are interned per process: all tuples decoded anywhere in this
    process that share a signature share one ``Schema`` instance.
    """
    from repro.stream.tuples import StreamTuple

    version, capacity, available_at, complete, schema_table, segments = encoded
    if version != _CODEC_VERSION:
        raise EngineError(
            f"cannot decode page: codec {version!r}, expected "
            f"{_CODEC_VERSION!r}"
        )
    page = Page(capacity)
    elements = page.elements
    unchecked = StreamTuple.unchecked
    for segment in segments:
        kind = segment[0]
        if kind == "t":
            _, index, count, columns = segment
            schema = _intern_schema(schema_table[index])
            rows = list(zip(*columns)) if columns else [()] * count
            if len(rows) != count:
                raise EngineError(
                    f"corrupt page segment: {count} rows declared, "
                    f"{len(rows)} decoded"
                )
            elements.extend(unchecked(schema, row) for row in rows)
        elif kind == "p":
            elements.append(segment[1])
            page._punctuated = True
        else:
            raise EngineError(f"unknown page segment kind {kind!r}")
    page._vetted = len(elements)
    page._complete = bool(complete)
    page.available_at = available_at
    return page
