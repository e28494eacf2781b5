"""Router: content-based splitting with per-output feedback semantics.

A Router sends each tuple to exactly one output, chosen by the first
matching route pattern (with an optional default output).  It is the
semantic counterpart of :class:`~repro.operators.duplicate.Duplicate` on
the feedback side, and the contrast is instructive:

* DUPLICATE's outputs are **identical**, so feedback from one consumer can
  only be enacted once *all* consumers agree (paper section 4.1);
* a Router's outputs are **disjoint**, so feedback from the consumer on
  output *i* concerns only tuples routed to *i* -- the router may enact
  ``feedback_pattern ∩ route_pattern`` immediately: an input guard on that
  intersection suppresses nothing any other consumer could ever see.

The imputation plan's DUPLICATE + σC/σ¬C pair (Figure 4a) can equivalently
be built as a Router with routes on the dirtiness predicate; the split
variants behave identically for data but the Router exploits feedback
without cross-consumer coordination.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.errors import PlanError
from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Router"]


class Router(Operator):
    """Route each tuple to the first output whose pattern matches it.

    ``routes`` maps output index -> route pattern, in priority order.
    Tuples matching no route go to ``default_output`` (or are dropped when
    it is None).  Punctuation is broadcast to every output: a completed
    input subset is complete on every routed partition of it.
    """

    feedback_aware = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        routes: Sequence[Pattern],
        *,
        default_output: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        if not routes:
            raise PlanError("Router requires at least one route pattern")
        for route in routes:
            if route.arity != len(schema):
                raise PlanError(
                    f"route pattern {route!r} does not fit schema "
                    f"{schema.names}"
                )
        self.routes = list(routes)
        self.default_output = default_output
        self.unrouted_drops = 0

    # -- data --------------------------------------------------------------------

    def on_tuple(self, port_index: int, tup: StreamTuple) -> None:
        for output_index, route in enumerate(self.routes):
            if route.matches(tup):
                if output_index < len(self.outputs):
                    self.emit_to(output_index, tup)
                return
        if (
            self.default_output is not None
            and self.default_output < len(self.outputs)
        ):
            self.emit_to(self.default_output, tup)
        else:
            self.unrouted_drops += 1

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        self.emit_punctuation(punct)  # broadcast: complete on every branch

    # -- feedback -----------------------------------------------------------------

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        """Guard and relay the intersection of the feedback with the
        sending route.

        Only tuples the issuing consumer could ever have seen are
        suppressed, so no agreement protocol is needed (unlike DUPLICATE);
        the raw pattern may cover tuples bound for other outputs whose
        consumers still want them, so only the intersection relays.
        Feedback of unknown provenance, or from the default output (whose
        tuples match *no* route, which a conjunctive pattern cannot
        express), gets the per-edge output guard alone.
        """
        edge = self.feedback_source_edge
        output_index = (
            self.outputs.index(edge) if edge in self.outputs else None
        )
        if output_index is None or output_index >= len(self.routes):
            self.output_guards.install(
                feedback.pattern, origin=feedback, at=self.now()
            )
            return [ExploitAction.GUARD_OUTPUT], []
        scoped = feedback.pattern.intersect(self.routes[output_index])
        if scoped is None:
            return [], []  # the consumer never sees this subset
        self.input_port(0).guards.install(
            scoped, origin=feedback, at=self.now()
        )
        return (
            [ExploitAction.GUARD_INPUT],
            [(0, scoped.with_schema(self.output_schema))],
        )

    def on_demanded(self, feedback: FeedbackPunctuation) -> Response:
        """Relay nothing: a partial the raw pattern unblocks upstream may
        be routed to a consumer that never asked for it."""
        return [], []
