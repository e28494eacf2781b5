"""Stream tuples: the data elements that flow through query plans.

A :class:`StreamTuple` is an immutable record bound to a
:class:`~repro.stream.schema.Schema`.  Operators resolve attribute names to
positions once at wiring time and then use positional access (``tup[i]``),
which keeps the per-tuple cost low on large workloads.

Stream elements are either tuples or punctuations; both expose an
``is_punctuation`` flag so pages and queues can dispatch without importing
the punctuation package (which would create an import cycle).  This mixed
stream -- data interleaved with assertions about the data (paper section
3.1) -- is what lets punctuation flush pages and unblock operators.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.stream.schema import Schema

__all__ = ["StreamTuple"]


class StreamTuple:
    """An immutable, schema-bound record.

    Instances compare equal when their values and schema attribute names
    match, and are hashable, so they can populate sets for the
    correct-exploitation checks of paper Definition 1
    (``SR - subset(SR, f) <= S <= SR`` as set containment).
    """

    __slots__ = ("values", "schema")

    is_punctuation = False

    def __init__(self, schema: Schema, values: Sequence[Any]) -> None:
        schema.check_arity(values)
        _set_schema(self, schema)
        _set_values(self, tuple(values))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("StreamTuple is immutable")

    # Immutability blocks the default slot-state unpickling (it applies
    # state via ``setattr``), so restore the slots explicitly.  Tuples
    # normally cross process boundaries in columnar-page form (see
    # :mod:`repro.stream.pages`); this covers the stragglers riding
    # inside pickled control payloads and test fixtures.
    def __getstate__(self) -> tuple:
        return (self.schema, self.values)

    def __setstate__(self, state: tuple) -> None:
        _set_schema(self, state[0])
        _set_values(self, state[1])

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_mapping(cls, schema: Schema, mapping: Mapping[str, Any]) -> "StreamTuple":
        """Build a tuple from a name->value mapping (must cover the schema)."""
        try:
            values = [mapping[a.name] for a in schema]
        except KeyError as exc:
            raise SchemaError(f"missing value for attribute {exc.args[0]!r}") from None
        return cls(schema, values)

    @classmethod
    def unchecked(cls, schema: Schema, values: tuple) -> "StreamTuple":
        """Trusted fast path: bind pre-validated ``values`` to ``schema``.

        Skips the arity check and the defensive copy of ``__init__``;
        ``values`` must already be a tuple of the right arity.  Used by
        the columnar page decoder, which materialises whole columns at
        once and has already proven the arity against the page's schema
        table.
        """
        tup = object.__new__(cls)
        _set_schema(tup, schema)
        _set_values(tup, values)
        return tup

    # -- access ------------------------------------------------------------------

    def __getitem__(self, key: int | str) -> Any:
        if isinstance(key, str):
            return self.values[self.schema.index_of(key)]
        return self.values[key]

    def get(self, name: str, default: Any = None) -> Any:
        """Value of attribute ``name``, or ``default`` when absent."""
        if name in self.schema:
            return self.values[self.schema.index_of(name)]
        return default

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[str, Any]:
        """Name -> value view (fresh dict; the tuple itself stays immutable)."""
        return dict(zip(self.schema.names, self.values))

    # -- derivation ----------------------------------------------------------------

    def project(self, names: Sequence[str], schema: Schema | None = None) -> "StreamTuple":
        """A new tuple holding only ``names``, bound to ``schema`` if given."""
        target = schema if schema is not None else self.schema.project(names)
        return StreamTuple(target, [self[n] for n in names])

    def replace(self, **updates: Any) -> "StreamTuple":
        """A copy with the named attributes replaced."""
        values = list(self.values)
        for name, value in updates.items():
            values[self.schema.index_of(name)] = value
        return StreamTuple(self.schema, values)

    def rebind(self, schema: Schema) -> "StreamTuple":
        """The same values bound to a different (same-arity) schema."""
        return StreamTuple(schema, self.values)

    def concat(self, other: "StreamTuple", schema: Schema) -> "StreamTuple":
        """Concatenate two tuples under a pre-computed output schema."""
        return StreamTuple(schema, self.values + other.values)

    # -- identity --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamTuple):
            return NotImplemented
        return self.values == other.values and self.schema.names == other.schema.names

    def __hash__(self) -> int:
        return hash((self.schema.names, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names, self.values))
        return f"<{inner}>"


# The slots are filled through their member descriptors, which is what
# ``object.__setattr__`` ends up calling after an attribute lookup on the
# type; bound once here, a build skips that lookup.
_set_schema = StreamTuple.schema.__set__
_set_values = StreamTuple.values.__set__
