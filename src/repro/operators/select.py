"""Selection: stateless filtering, the simplest feedback exploiter.

The paper (section 4.3): *"SELECT, for example, maintains no internal
state, and assumed punctuation can simply be added to its select
condition."*  Here that is an input guard -- matching tuples are dropped
before the (possibly expensive) predicate runs -- plus the identity-mapped
relay upstream.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction
from repro.operators.base import Operator
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["Select", "QualityFilter"]


class Select(Operator):
    """Emit tuples satisfying a predicate; drop the rest.

    ``predicate`` is either a callable on :class:`StreamTuple` or a
    :class:`Pattern` (kept tuples are those the pattern matches).
    Punctuation passes through unchanged: whatever subset is complete on
    the input is complete on the filtered output too.
    """

    feedback_aware = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        predicate: Callable[[StreamTuple], bool] | Pattern,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        if isinstance(predicate, Pattern):
            #: The declarative form, when given: the optimizer's guard
            #: pushdown can only reason about pattern predicates.
            self.pattern: Pattern | None = predicate
        else:
            self.pattern = None
            self._predicate: Callable[[StreamTuple], bool] = predicate

    def on_page(self, port_index: int, batch: list) -> None:
        """One predicate pass, one bulk emission.

        A pattern predicate is its compiled run filter
        (:attr:`~repro.punctuation.patterns.Pattern.select`) -- the same
        ``and``-chain a guard for that pattern inlines.
        """
        if self.pattern is not None:
            self.emit_many(self.pattern.select(batch))
        else:
            predicate = self._predicate
            self.emit_many([t for t in batch if predicate(t)])

    def on_assumed(self, feedback: FeedbackPunctuation) -> list[ExploitAction]:
        """Add the punctuation to the select condition (an input guard)."""
        self.input_port(0).guards.install(
            feedback.pattern, origin=feedback, at=self.now()
        )
        return [ExploitAction.GUARD_INPUT]


class QualityFilter(Select):
    """A data-quality filter: a Select with a non-trivial per-tuple cost.

    Experiment 2's plan has "a data quality filter at the bottom of the
    query" (σQ in Figure 4(b)); scheme F3's extra savings come from
    propagating feedback down to this operator so the validation work
    itself is skipped.  The validation is modelled as a predicate plus a
    configurable virtual cost per inspected tuple.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        predicate: Callable[[StreamTuple], bool] | Pattern,
        *,
        tuple_cost: float,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name, schema, predicate, tuple_cost=tuple_cost, **kwargs
        )
