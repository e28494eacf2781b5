"""DUPLICATE: broadcast one input to several consumers.

The paper singles DUPLICATE out in its correctness discussion (section
4.1): *"the operator's definition implies both output streams need to be
identical, hence exploiting an opportunity would either affect both outputs
or none."*

Consequently, assumed feedback from **one** consumer cannot be enacted
directly.  DUPLICATE accumulates the assumed regions declared by each
output edge and enacts (guards + relays) only the **intersection** across
all edges -- the subset that *no* consumer needs.  With a single consumer
the intersection degenerates to the feedback itself.
"""

from __future__ import annotations

from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction
from repro.operators.base import Operator, OutputEdge
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping

__all__ = ["Duplicate"]


class Duplicate(Operator):
    """Emit every input element on every output edge unchanged."""

    feedback_aware = True

    def __init__(self, name: str, schema: Schema, **kwargs: Any) -> None:
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        # Assumed patterns declared per output edge (keyed by identity).
        self._declared: dict[int, list[Pattern]] = {}

    def on_page(self, port_index: int, batch: list) -> None:
        """One guard pass, one ``put_many`` per output edge."""
        self.emit_many(batch)

    # -- feedback reconciliation ---------------------------------------------

    def _agreed_patterns(self, pattern: Pattern, from_edge: OutputEdge | None) -> list[Pattern]:
        """Intersections of ``pattern`` with every other edge's declarations.

        Returns the non-empty intersections that are now unneeded by *all*
        consumers.  With one output edge, the pattern itself is agreed.
        """
        if len(self.outputs) <= 1:
            return [pattern]
        if from_edge is None:
            # Unknown origin: be conservative, nothing is agreed.
            return []
        self._declared.setdefault(id(from_edge), []).append(pattern)
        agreed = [pattern]
        for edge in self.outputs:
            if edge is from_edge:
                continue
            other_declared = self._declared.get(id(edge), [])
            narrowed: list[Pattern] = []
            for candidate in agreed:
                for other in other_declared:
                    joint = candidate.intersect(other)
                    if joint is not None:
                        narrowed.append(joint)
            agreed = narrowed
            if not agreed:
                return []
        return agreed

    def on_assumed(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        agreed = self._agreed_patterns(
            feedback.pattern, self.feedback_source_edge
        )
        if not agreed:
            return []  # null response until all consumers agree
        actions: list[ExploitAction] = []
        for pattern in agreed:
            if self.output_guards.install(
                pattern, origin=feedback, at=self.now()
            ):
                actions.append(ExploitAction.GUARD_OUTPUT)
            self.input_port(0).guards.install(
                pattern, origin=feedback, at=self.now()
            )
            actions.append(ExploitAction.GUARD_INPUT)
        self._agreed_pending = agreed
        return actions

    def relay_feedback(
        self, feedback: FeedbackPunctuation
    ) -> dict[int, FeedbackPunctuation]:
        """Relay only agreed (all-consumer) subsets upstream."""
        agreed = getattr(self, "_agreed_pending", None)
        self._agreed_pending = None
        if not agreed:
            return {}
        # Several agreed boxes cannot be sent as one conjunctive pattern;
        # relay the first and let subsequent consumer feedback cover the
        # rest incrementally (correct, if not maximal).
        return {
            0: feedback.propagated(
                agreed[0].with_schema(self.output_schema)
                if self.output_schema is not None
                else agreed[0],
                relayer=self.name,
                at=self.now(),
            )
        }
