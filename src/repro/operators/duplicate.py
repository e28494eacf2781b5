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
from repro.core.roles import ExploitAction, Response
from repro.operators.base import Operator, OutputEdge
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping

__all__ = ["Duplicate", "agreed_patterns", "enact_agreed"]


def agreed_patterns(
    declared: dict[int, list[Pattern]],
    edges: list[OutputEdge],
    pattern: Pattern,
    from_edge: OutputEdge | None,
) -> list[Pattern]:
    """Record ``pattern`` as assumed on ``from_edge``; return what every
    consumer now agrees is unneeded.

    The result is the non-empty intersections of ``pattern`` with the
    regions every *other* edge has declared.  With one output edge the
    pattern itself is agreed; with an unknown origin, conservatively,
    nothing is.

    ``declared`` (per edge, keyed by ``id``) is kept *frontier-style*
    (UNION's rule): a new pattern drops the declarations it subsumes and
    is skipped when already covered, so a long-running plan's periodic
    feedback keeps the per-edge lists -- and the intersection scan --
    bounded by the number of maximal regions, not the number of feedback
    events.
    """
    if len(edges) <= 1:
        return [pattern]
    if from_edge is None:
        return []
    mine = declared.setdefault(id(from_edge), [])
    if not any(seen.subsumes(pattern) for seen in mine):
        mine[:] = [p for p in mine if not pattern.subsumes(p)]
        mine.append(pattern)
    agreed = [pattern]
    for edge in edges:
        if edge is from_edge:
            continue
        theirs = declared.get(id(edge), ())
        agreed = [
            joint
            for candidate in agreed
            for other in theirs
            if (joint := candidate.intersect(other)) is not None
        ]
        if not agreed:
            return []
    return agreed


def enact_agreed(
    operator: Operator,
    declared: dict[int, list[Pattern]],
    feedback: FeedbackPunctuation,
) -> Response:
    """Record ``feedback`` from the edge it came up on, and enact every
    region all of ``operator``'s consumers now agree on: output guard,
    input guard and relay, each.  Nothing until they agree.

    DUPLICATE's rule, and PARTITION's when the feedback is not key-routed.
    """
    agreed = agreed_patterns(
        declared, operator.outputs, feedback.pattern,
        operator.feedback_source_edge,
    )
    actions: list[ExploitAction] = []
    at = operator.now()
    for pattern in agreed:
        if operator.output_guards.install(pattern, origin=feedback, at=at):
            actions.append(ExploitAction.GUARD_OUTPUT)
        operator.input_port(0).guards.install(pattern, origin=feedback, at=at)
        actions.append(ExploitAction.GUARD_INPUT)
    return actions, [
        (0, pattern.with_schema(operator.output_schema)) for pattern in agreed
    ]


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

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        return enact_agreed(self, self._declared, feedback)

    def on_demanded(self, feedback: FeedbackPunctuation) -> Response:
        """Relay nothing: a partial the demand unblocks upstream would be
        broadcast to consumers that never asked for it."""
        return [], []
