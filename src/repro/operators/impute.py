"""IMPUTE: expensive repair of dirty tuples via archival lookups.

Example 3 / Experiment 1: sensors intermittently report null values; the
dirty branch of the stream is routed through IMPUTE, which "uses an
expensive method to replace the missing values with acceptable estimates
... For each tuple that requires imputation, one database query is issued".

The archival database of the paper's testbed is simulated by
:class:`ArchiveDB`: an in-memory store of historical means keyed by a
configurable key function, with a fixed virtual cost per query.  The
substitution preserves what matters for the experiment -- one expensive
lookup per dirty tuple, orders of magnitude above the clean path's cost.

IMPUTE is the canonical feedback *exploiter*: on assumed feedback it
installs an input guard, so already-late tuples sitting in its backlog are
discarded at guard-check cost instead of full lookup cost, and it relays
the feedback further upstream (identity mapping).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.operators.base import Operator
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["ArchiveDB", "Impute"]


class ArchiveDB:
    """A simulated archival store of historical observations.

    ``load`` ingests historical tuples; ``query`` returns the historical
    mean for the key of a probe tuple (or a global default when the key was
    never seen) and counts the lookup.  The per-query virtual cost is a
    property of the *operator* (IMPUTE charges it through its cost model);
    the archive only provides values and statistics.
    """

    def __init__(
        self,
        key_fn: Callable[[StreamTuple], Hashable],
        value_attribute: str,
        *,
        default: float = 0.0,
    ) -> None:
        self._key_fn = key_fn
        self._value_attribute = value_attribute
        self._default = default
        self._sums: dict[Hashable, float] = {}
        self._counts: dict[Hashable, int] = {}
        self.queries = 0

    def load(self, history: list[StreamTuple]) -> None:
        """Ingest historical tuples (non-null values only)."""
        for tup in history:
            value = tup[self._value_attribute]
            if value is None:
                continue
            key = self._key_fn(tup)
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._counts[key] = self._counts.get(key, 0) + 1

    def query(self, tup: StreamTuple) -> float:
        """One archival lookup: the historical mean for the tuple's key."""
        self.queries += 1
        key = self._key_fn(tup)
        count = self._counts.get(key, 0)
        if count == 0:
            return self._default
        return self._sums[key] / count

    def __len__(self) -> int:
        return len(self._counts)


class Impute(Operator):
    """Replace missing values with archival estimates, at a price.

    ``is_dirty`` decides whether a tuple needs repair (default: the value
    attribute is None).  Dirty tuples cost ``lookup_cost`` virtual seconds
    each; clean tuples pass through at ``tuple_cost``.
    """

    feedback_aware = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        archive: ArchiveDB,
        *,
        value_attribute: str,
        lookup_cost: float,
        is_dirty: Callable[[StreamTuple], bool] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        self.archive = archive
        self._value_attribute = value_attribute
        self.lookup_cost = float(lookup_cost)
        self._is_dirty = is_dirty or (
            lambda tup: tup[value_attribute] is None
        )
        self.imputed_count = 0

    state_fields = ("imputed_count",)

    def cost_of(self, element: Any) -> float:
        if element.is_punctuation:
            return self.punctuation_cost
        if self._is_dirty(element):
            return self.lookup_cost
        return self.tuple_cost

    def on_tuple(self, port_index: int, tup: StreamTuple) -> None:
        if not self._is_dirty(tup):
            self.emit(tup)
            return
        estimate = self.archive.query(tup)
        self.imputed_count += 1
        self.emit(tup.replace(**{self._value_attribute: estimate}))

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        """Guard the input: late tuples die at guard cost, not lookup cost.

        The pattern arrives in output-schema terms; IMPUTE's mapping is the
        identity, so it doubles as the input-guard pattern.  Backlogged
        tuples (pages queued but not yet processed) are purged implicitly:
        the guard intercepts them at dequeue time before any lookup.
        """
        self.input_port(0).guards.install(
            feedback.pattern, origin=feedback, at=self.now()
        )
        return (
            [ExploitAction.GUARD_INPUT, ExploitAction.PURGE_STATE],
            self._planned(feedback.pattern),
        )
