"""Map: stateless per-tuple transformation with declared lineage.

A Map applies a pure function to each tuple.  Because feedback relaying
needs to know which output attributes are exact copies of input attributes
(Definition 2 -- a predicate on a *computed* value cannot be translated
upstream), Map takes an explicit :class:`~repro.stream.schema.SchemaMapping`;
helper :meth:`Map.extending` covers the common case of carrying the input
schema and appending computed attributes (e.g. deriving a window/period id
from a timestamp).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import Response
from repro.operators.base import Operator
from repro.operators.project import guard_mapped_input
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Attribute, AttributeOrigin, Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Map"]


class Map(Operator):
    """Emit ``fn(tuple)`` for each input tuple."""

    feedback_aware = True

    def __init__(
        self,
        name: str,
        mapping: SchemaMapping,
        fn: Callable[[StreamTuple], StreamTuple],
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name, mapping.output_schema, mapping=mapping, **kwargs
        )
        self.input_schema = mapping.input_schemas[0]
        self._fn = fn

    @classmethod
    def extending(
        cls,
        name: str,
        input_schema: Schema,
        new_attributes: Sequence[Attribute | tuple | str],
        compute: Callable[[StreamTuple], Sequence[Any]],
        **kwargs: Any,
    ) -> "Map":
        """Carry the input schema and append computed attributes.

        ``compute`` returns the values of the new attributes for one input
        tuple.  Carried attributes keep exact lineage (feedback on them
        relays upstream); computed attributes get none.
        """
        extras = Schema(new_attributes)
        output_schema = input_schema.concat(extras)
        mapping = SchemaMapping(
            output_schema,
            (input_schema,),
            {
                attr.name: (AttributeOrigin(0, attr.name, exact=True),)
                for attr in input_schema
            },
        )

        def fn(tup: StreamTuple) -> StreamTuple:
            return StreamTuple(
                output_schema, tup.values + tuple(compute(tup))
            )

        return cls(name, mapping, fn, **kwargs)

    def on_page(self, port_index: int, batch: list) -> None:
        """Apply the function over the run, emit in bulk."""
        fn = self._fn
        self.emit_many([fn(t) for t in batch])

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Forward a punctuation widened onto carried attributes only.

        Atoms on input attributes that map exactly to output attributes
        survive; anything else is dropped from the forwarded pattern (a
        constraint on a dropped attribute cannot be asserted about the
        output).  If nothing survives, the punctuation is absorbed.
        """
        out_schema = self.output_schema
        atoms = list(Pattern.all_wildcards(len(out_schema)).atoms)
        survived = False
        for in_pos in punct.pattern.constrained_indices():
            in_name = self.input_schema[in_pos].name
            if in_name in out_schema:
                atoms[out_schema.index_of(in_name)] = punct.pattern.atoms[in_pos]
                survived = True
            else:
                return  # constraint not representable downstream; absorb
        if survived:
            self.emit_punctuation(
                Punctuation(
                    Pattern(atoms, schema=out_schema), source=self.name
                )
            )

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        return guard_mapped_input(self, feedback)
