"""Punctuation schemes and delimited attributes.

Paper section 4.4 ties the *supportability* of feedback to punctuation
schemes [14]: feedback predicates on **delimited** attributes -- attributes
covered by progressive embedded punctuation -- eventually expire (the
punctuation catches up with the guard and the guard can be dropped), whereas
feedback on undelimited attributes would accumulate predicate state forever.

:class:`PunctuationScheme` records which attributes of a stream are
delimited and answers supportability queries.  :class:`ProgressPunctuator`
is the utility sources use to actually emit periodic progress punctuation on
a delimited attribute.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import PatternError
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema

__all__ = ["PunctuationScheme", "ProgressPunctuator"]


class PunctuationScheme:
    """Which attributes of a schema carry progressive punctuation.

    By default the scheme delimits exactly the attributes flagged
    ``progressing`` in the schema; an explicit attribute list overrides
    that.
    """

    __slots__ = ("schema", "_delimited")

    def __init__(
        self, schema: Schema, delimited: Iterable[str] | None = None
    ) -> None:
        self.schema = schema
        if delimited is None:
            names = {schema[i].name for i in schema.progressing_indices()}
        else:
            names = set(delimited)
            for name in names:
                if name not in schema:
                    raise PatternError(
                        f"cannot delimit unknown attribute {name!r}"
                    )
            names = {schema.attribute(n).name for n in names}
        self._delimited = frozenset(names)

    def is_delimited(self, attribute: str) -> bool:
        """True when ``attribute`` is covered by embedded punctuation."""
        return self.schema.attribute(attribute).name in self._delimited

    def supports(self, pattern: Pattern) -> bool:
        """True when feedback carrying ``pattern`` is supportable.

        A pattern is supportable when at least one of its constrained
        attributes is delimited: progress punctuation on that attribute will
        eventually subsume the guard, bounding predicate-state lifetime.
        The paper's example of *unsupportable* feedback -- "don't show bids
        more than $1.00" on a stream punctuated only by time -- fails this
        test because its only constrained attribute (amount) is never
        punctuated.
        """
        constrained = pattern.constrained_indices()
        if not constrained:
            return True
        return any(
            self.schema[i].name in self._delimited for i in constrained
        )

    def fully_supports(self, pattern: Pattern) -> bool:
        """Stricter check: *every* constrained attribute is delimited."""
        return all(
            self.schema[i].name in self._delimited
            for i in pattern.constrained_indices()
        )

    def __repr__(self) -> str:
        return (
            f"PunctuationScheme({self.schema.names}, "
            f"delimited={sorted(self._delimited)})"
        )


class ProgressPunctuator:
    """Emit periodic progress punctuation on one attribute of a stream.

    Tracks the maximum attribute value observed and, every ``interval`` of
    that attribute's domain, produces ``[*,...,<= high_watermark - grace,
    ...,*]``.  ``grace`` models permissible disorder: tuples may arrive up
    to ``grace`` behind the watermark, so the punctuation trails it.

    Typical use inside a source::

        punctuator = ProgressPunctuator(schema, "timestamp", interval=60.0)
        ...
        for punct in punctuator.observe(tuple_timestamp):
            emit(punct)
    """

    __slots__ = ("schema", "attribute", "interval", "grace",
                 "_high_watermark", "_next_boundary", "source")

    def __init__(
        self,
        schema: Schema,
        attribute: str,
        interval: float,
        *,
        grace: float = 0.0,
        origin: float = 0.0,
        source: str = "",
    ) -> None:
        if interval <= 0:
            raise PatternError(f"punctuation interval must be > 0: {interval}")
        if grace < 0:
            raise PatternError(f"grace must be >= 0: {grace}")
        self.schema = schema
        self.attribute = attribute
        self.interval = float(interval)
        self.grace = float(grace)
        self._high_watermark: float | None = None
        self._next_boundary = float(origin) + self.interval
        self.source = source

    @property
    def high_watermark(self) -> float | None:
        """Largest attribute value observed so far, or None initially."""
        return self._high_watermark

    @property
    def next_boundary(self) -> float:
        """The boundary the next punctuation will close.

        :meth:`observe` returns punctuation exactly when ``value - grace``
        reaches it; a value that does not cannot change what any later
        call returns, so a caller may skip it.
        """
        return self._next_boundary

    def observe(self, value: Any) -> list[Punctuation]:
        """Record one observed value; return punctuations now due.

        Multiple punctuations are returned when the value jumps across
        several interval boundaries at once (bursty streams).
        """
        value = float(value)
        if self._high_watermark is None or value > self._high_watermark:
            self._high_watermark = value
        due: list[Punctuation] = []
        while (
            self._high_watermark is not None
            and self._high_watermark - self.grace >= self._next_boundary
        ):
            due.append(
                Punctuation.up_to(
                    self.schema,
                    self.attribute,
                    self._next_boundary,
                    inclusive=False,
                    source=self.source,
                )
            )
            self._next_boundary += self.interval
        return due

    def final(self) -> Punctuation:
        """Punctuation closing the whole stream (end of input)."""
        return Punctuation(
            Pattern.all_wildcards(len(self.schema), schema=self.schema),
            source=self.source,
        )

    def __repr__(self) -> str:
        return (
            f"ProgressPunctuator({self.attribute!r}, interval={self.interval}, "
            f"grace={self.grace}, hwm={self._high_watermark})"
        )
