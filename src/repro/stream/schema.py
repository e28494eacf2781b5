"""Schemas and attributes for stream tuples.

A :class:`Schema` is an ordered sequence of named, optionally typed
attributes.  Schemas are immutable and hashable; operators resolve attribute
names to positions once, at plan-wiring time, and afterwards use positional
access on tuples for speed.

Schemas also carry the machinery needed by feedback propagation
(paper section 4.2): :class:`SchemaMapping` records, for each output
attribute of an operator, which input (by index) and which input attribute it
derives from.  The safe-propagation planner in :mod:`repro.core.propagation`
consumes these mappings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError

__all__ = ["Attribute", "Schema", "SchemaMapping", "AttributeOrigin"]


@dataclass(frozen=True, slots=True)
class Attribute:
    """A single named attribute of a schema.

    ``kind`` is an informal type tag (``"int"``, ``"float"``, ``"str"``,
    ``"timestamp"``, or ``"any"``).  The library does not enforce value types
    at runtime -- the tag documents intent and lets workload generators and
    the punctuation mini-language pick sensible literals.

    ``progressing`` marks attributes that advance monotonically with stream
    progress (typically timestamps or window identifiers).  Progressing
    attributes are the natural carriers of embedded punctuation and therefore
    the "delimited" attributes on which feedback is supportable
    (paper section 4.4).
    """

    name: str
    kind: str = "any"
    progressing: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if "." in self.name.split(".")[-1] and self.name.count(".") > 1:
            raise SchemaError(f"attribute name {self.name!r} has nested dots")

    @property
    def base_name(self) -> str:
        """Name without any stream qualifier (``probe.speed`` -> ``speed``)."""
        return self.name.rsplit(".", 1)[-1]

    def qualified(self, prefix: str) -> "Attribute":
        """Return a copy qualified as ``prefix.base_name``."""
        return Attribute(f"{prefix}.{self.base_name}", self.kind, self.progressing)


class Schema:
    """An immutable, ordered collection of :class:`Attribute` objects.

    Supports name lookup, projection, concatenation (for joins) and
    qualification.  Equality and hashing consider attribute names and kinds,
    which lets schemas serve as dictionary keys in operator registries.
    """

    __slots__ = ("_attributes", "_index", "_hash", "names")

    def __init__(self, attributes: Iterable[Attribute | tuple | str]) -> None:
        attrs: list[Attribute] = []
        for spec in attributes:
            if isinstance(spec, Attribute):
                attrs.append(spec)
            elif isinstance(spec, tuple):
                attrs.append(Attribute(*spec))
            elif isinstance(spec, str):
                attrs.append(Attribute(spec))
            else:
                raise SchemaError(f"cannot build attribute from {spec!r}")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")
        self._attributes: tuple[Attribute, ...] = tuple(attrs)
        #: Attribute names in order -- read on every tuple comparison and
        #: at the wire codec, so stored once rather than derived per access.
        self.names: tuple[str, ...] = tuple(names)
        self._index: dict[str, int] = {a.name: i for i, a in enumerate(attrs)}
        # Also index by unqualified base name when unambiguous, so that a
        # pattern written against ``speed`` still resolves on a schema whose
        # attribute is ``probe.speed``.
        base_counts: dict[str, int] = {}
        for a in attrs:
            base_counts[a.base_name] = base_counts.get(a.base_name, 0) + 1
        for i, a in enumerate(attrs):
            if a.base_name not in self._index and base_counts[a.base_name] == 1:
                self._index[a.base_name] = i
        self._hash = hash(tuple((a.name, a.kind) for a in attrs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, *names: str) -> "Schema":
        """Build a schema of untyped attributes from bare names."""
        return cls(names)

    # -- basic container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, pos: int) -> Attribute:
        return self._attributes[pos]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._hash == other._hash and [
            (a.name, a.kind) for a in self._attributes
        ] == [(a.name, a.kind) for a in other._attributes]

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(a.name for a in self._attributes)
        return f"Schema({inner})"

    # -- lookup ----------------------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    def index_of(self, name: str) -> int:
        """Position of attribute ``name`` (qualified or unambiguous base name).

        Raises :class:`SchemaError` when the name is unknown.
        """
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.names} has no attribute {name!r}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        return self._attributes[self.index_of(name)]

    def indices_of(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index_of(n) for n in names)

    def progressing_indices(self) -> tuple[int, ...]:
        """Positions of attributes flagged as progressing."""
        return tuple(
            i for i, a in enumerate(self._attributes) if a.progressing
        )

    # -- derivation -------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema containing only ``names``, in the given order."""
        return Schema(self._attributes[self.index_of(n)] for n in names)

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas (join output); names must stay unique."""
        return Schema(self._attributes + other._attributes)

    def qualify(self, prefix: str) -> "Schema":
        """Qualify every attribute with ``prefix.``."""
        return Schema(a.qualified(prefix) for a in self._attributes)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Rename attributes according to ``mapping`` (old name -> new)."""
        renamed = []
        for a in self._attributes:
            new = mapping.get(a.name, a.name)
            renamed.append(Attribute(new, a.kind, a.progressing))
        return Schema(renamed)

    def check_arity(self, values: Sequence[Any]) -> None:
        """Raise :class:`SchemaError` unless ``values`` has matching arity."""
        if len(values) != len(self._attributes):
            raise SchemaError(
                f"schema {self.names} has arity {len(self._attributes)}, "
                f"got {len(values)} values"
            )


@dataclass(frozen=True, slots=True)
class AttributeOrigin:
    """Provenance of one output attribute of an operator.

    ``input_index`` identifies which input stream the attribute derives from
    (0 for unary operators; 0 = left / 1 = right for joins).
    ``input_attribute`` is the attribute name in that input's schema.
    ``exact`` is True when the output value equals the input value (identity
    or pure carry-through); only exact origins admit safe feedback
    propagation, because a predicate on a *computed* value (e.g. an average)
    cannot be translated into a predicate on input tuples.
    """

    input_index: int
    input_attribute: str
    exact: bool = True


@dataclass(frozen=True)
class SchemaMapping:
    """Lineage from an operator's output schema back to its input schemas.

    ``origins`` maps each output attribute name to a tuple of
    :class:`AttributeOrigin` records: join attributes originate from both
    inputs (one origin per input), computed attributes (aggregates) have no
    origins at all, and carried attributes have exactly one origin.

    The safe-propagation planner walks this structure:  a feedback pattern
    can be pushed to input *i* iff every non-wildcard atom of the pattern
    sits on an output attribute that has an *exact* origin in input *i*, and
    no non-wildcard atom sits on an attribute exclusive to a different input
    (paper Definition 2 and the JOIN discussion in section 4.2).
    """

    output_schema: Schema
    input_schemas: tuple[Schema, ...]
    origins: dict[str, tuple[AttributeOrigin, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, origin_list in self.origins.items():
            if name not in self.output_schema:
                raise SchemaError(
                    f"mapping mentions unknown output attribute {name!r}"
                )
            for origin in origin_list:
                if origin.input_index >= len(self.input_schemas):
                    raise SchemaError(
                        f"origin of {name!r} references input "
                        f"{origin.input_index} but mapping has "
                        f"{len(self.input_schemas)} inputs"
                    )
                if origin.input_attribute not in self.input_schemas[
                    origin.input_index
                ]:
                    raise SchemaError(
                        f"origin of {name!r} references unknown input "
                        f"attribute {origin.input_attribute!r}"
                    )

    def origins_of(self, output_attribute: str) -> tuple[AttributeOrigin, ...]:
        """Origins of an output attribute; empty for computed attributes."""
        return self.origins.get(output_attribute, ())

    def exact_origin_in(
        self, output_attribute: str, input_index: int
    ) -> AttributeOrigin | None:
        """The exact origin of ``output_attribute`` in ``input_index``, if any."""
        for origin in self.origins_of(output_attribute):
            if origin.input_index == input_index and origin.exact:
                return origin
        return None

    @classmethod
    def identity(cls, schema: Schema) -> "SchemaMapping":
        """Mapping for an operator whose output carries its input unchanged."""
        return cls(
            output_schema=schema,
            input_schemas=(schema,),
            origins={
                a.name: (AttributeOrigin(0, a.name, exact=True),)
                for a in schema
            },
        )

    @classmethod
    def for_join(
        cls,
        left: Schema,
        right: Schema,
        join_attributes: Sequence[tuple[str, str]],
        output_schema: Schema | None = None,
    ) -> "SchemaMapping":
        """Mapping for an equi-join.

        ``join_attributes`` pairs (left_name, right_name).  The default
        output schema is the paper's (L, J, R) layout: left-exclusive
        attributes, then join attributes (under their left names), then
        right-exclusive attributes.
        """
        left_join = {l for l, _ in join_attributes}
        right_join = {r for _, r in join_attributes}
        if output_schema is None:
            attrs = [a for a in left if a.name not in left_join]
            attrs += [left.attribute(l) for l, _ in join_attributes]
            attrs += [a for a in right if a.name not in right_join]
            output_schema = Schema(attrs)
        origins: dict[str, tuple[AttributeOrigin, ...]] = {}
        right_of_left = dict(join_attributes)
        for attr in output_schema:
            name = attr.name
            if name in right_of_left:  # join attribute: two exact origins
                origins[name] = (
                    AttributeOrigin(0, name, exact=True),
                    AttributeOrigin(1, right_of_left[name], exact=True),
                )
            elif name in left and name not in right_join:
                origins[name] = (AttributeOrigin(0, name, exact=True),)
            elif name in right:
                origins[name] = (AttributeOrigin(1, name, exact=True),)
        return cls(output_schema, (left, right), origins)
