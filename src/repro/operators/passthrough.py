"""PassThrough: a feedback-unaware pipeline stage with a fixed cost.

Models ingest stages that exist in any real engine but know nothing about
feedback -- NiagaraST's XML/SAXDOM parser is the canonical example (paper
section 5).  Because ``feedback_aware`` is False, relayed feedback stops
here and is ignored (the paper: "Feedback unaware operators ignore feedback
and are unable to further propagate it"), which is what puts a floor under
the savings of Experiment 2's scheme F3.
"""

from __future__ import annotations

from typing import Any

from repro.operators.base import Operator
from repro.stream.schema import Schema, SchemaMapping

__all__ = ["PassThrough"]


class PassThrough(Operator):
    """Forward every element unchanged, charging ``tuple_cost`` apiece."""

    feedback_aware = False

    def __init__(self, name: str, schema: Schema, **kwargs: Any) -> None:
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )

    def on_page(self, port_index: int, batch: list) -> None:
        """Forward the whole run in one bulk emission."""
        self.emit_many(batch)
