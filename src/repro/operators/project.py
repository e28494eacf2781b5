"""Projection: reorder / drop attributes, with exact lineage for relaying.

Feedback arriving at a projection is phrased over the projected schema;
every kept attribute has an exact origin in the input, so the planner can
always map the pattern back (dropped attributes are simply unconstrained
upstream -- which *widens* nothing, because they were unconstrained in the
feedback too).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.stream.schema import AttributeOrigin, Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Project", "guard_mapped_input"]


def guard_mapped_input(
    operator: Operator, feedback: FeedbackPunctuation
) -> Response:
    """A stateless unary operator's assumed rule, PROJECT's and MAP's:
    guard the input with the back-mapped pattern and relay it where there
    is one, else guard the output."""
    relays = operator._planned(feedback.pattern)
    if relays:
        operator.input_port(0).guards.install(
            relays[0][1], origin=feedback, at=operator.now()
        )
        return [ExploitAction.GUARD_INPUT], relays
    operator.output_guards.install(
        feedback.pattern, origin=feedback, at=operator.now()
    )
    return [ExploitAction.GUARD_OUTPUT], relays


class Project(Operator):
    """Emit each input tuple projected onto ``attributes`` (in order)."""

    feedback_aware = True

    def __init__(
        self,
        name: str,
        input_schema: Schema,
        attributes: Sequence[str],
        **kwargs: Any,
    ) -> None:
        output_schema = input_schema.project(attributes)
        mapping = SchemaMapping(
            output_schema,
            (input_schema,),
            {
                output_schema[i].name: (
                    AttributeOrigin(0, attributes[i], exact=True),
                )
                for i in range(len(attributes))
            },
        )
        super().__init__(name, output_schema, mapping=mapping, **kwargs)
        self.input_schema = input_schema
        self._attributes = list(attributes)
        self._indices = input_schema.indices_of(attributes)

    def on_page(self, port_index: int, batch: list) -> None:
        """Project the whole run, then one bulk emission."""
        schema = self.output_schema
        indices = self._indices
        self.emit_many([
            StreamTuple(schema, [t.values[i] for i in indices])
            for t in batch
        ])

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Project the punctuation pattern; forward only when lossless.

        A punctuation that constrains a dropped attribute cannot be
        projected soundly (the projected pattern would cover *more* output
        tuples than the original asserts complete), so it is absorbed.
        """
        constrained = set(punct.pattern.constrained_indices())
        kept = set(self._indices)
        if constrained <= kept:
            projected = punct.pattern.project(
                self._indices, schema=self.output_schema
            )
            self.emit_punctuation(Punctuation(projected, source=self.name))

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        return guard_mapped_input(self, feedback)
