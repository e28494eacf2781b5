"""UNION: merge same-schema streams, aligning punctuation across inputs.

A punctuation may only be forwarded once the asserted subset is complete on
**every** input -- otherwise a late tuple from another branch would violate
the emitted punctuation.  UNION therefore keeps a per-input *frontier* of
punctuation patterns and forwards a pattern when all other inputs have
declared a covering pattern.

Feedback relays to all inputs: every output attribute originates exactly in
each input, so the identity mapping is safe on both sides.
"""

from __future__ import annotations

from typing import Any

from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import AttributeOrigin, Schema, SchemaMapping

__all__ = ["Union"]


def _union_mapping(schema: Schema, arity: int) -> SchemaMapping:
    return SchemaMapping(
        schema,
        tuple(schema for _ in range(arity)),
        {
            attr.name: tuple(
                AttributeOrigin(i, attr.name, exact=True)
                for i in range(arity)
            )
            for attr in schema
        },
    )


class Union(Operator):
    """Interleave ``arity`` same-schema inputs into one output stream."""

    feedback_aware = True

    def __init__(
        self, name: str, schema: Schema, *, arity: int = 2, **kwargs: Any
    ) -> None:
        self.n_inputs = arity
        super().__init__(
            name, schema, mapping=_union_mapping(schema, arity), **kwargs
        )
        self._frontiers: list[list[Pattern]] = [[] for _ in range(arity)]

    # -- data ---------------------------------------------------------------

    def on_page(self, port_index: int, batch: list) -> None:
        """Interleaving is per page, so forward the run in bulk.

        Punctuation never reaches this hook (the page walk dispatches it
        through :meth:`on_punctuation`), so frontier bookkeeping is
        untouched.
        """
        self.emit_many(batch)

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        self._advance_frontier(port_index, punct.pattern)
        if self._covered_everywhere(punct.pattern, exclude=port_index):
            self.emit_punctuation(punct)

    def on_input_done(self, port_index: int) -> None:
        """A closed input covers everything: re-check held punctuations."""
        everything = Pattern.all_wildcards(
            len(self.output_schema), schema=self.output_schema
        )
        self._advance_frontier(port_index, everything)

    state_fields = ("_frontiers",)

    # -- frontier bookkeeping ---------------------------------------------------

    def _advance_frontier(self, port_index: int, pattern: Pattern) -> None:
        frontier = self._frontiers[port_index]
        frontier[:] = [p for p in frontier if not pattern.subsumes(p)]
        frontier.append(pattern)

    def _covered_everywhere(self, pattern: Pattern, *, exclude: int) -> bool:
        for index, frontier in enumerate(self._frontiers):
            if index == exclude:
                continue
            port = self.inputs[index]
            if port is not None and port.done:
                continue
            if not any(seen.subsumes(pattern) for seen in frontier):
                return False
        return True
