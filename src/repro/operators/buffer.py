"""PriorityBuffer: honouring *desired* feedback by reordering production.

Desired punctuation (``?[…]``, section 3.4) asks antecedents to produce a
subset **sooner** without changing the overall result.  This operator makes
that concrete: it holds up to ``capacity`` pending tuples and, on every
arrival, releases the highest-priority pending tuple -- where priority
means "matches an active desired pattern" (most recent desire first),
falling back to arrival order.

With no desired feedback the buffer is a FIFO delay line of depth
``capacity``; once a ``?[…]`` arrives, matching tuples overtake the
backlog.  The operator also honours assumed feedback with the usual input
guard (a prioritised subset can still later be abandoned), and honours
runtime *pause* flow control by absorbing arrivals into its backlog
instead of releasing downstream -- the buffer is the natural shock
absorber when a bounded downstream queue pushes back.

Example 1 of the paper maps onto this operator: vehicle readings from
highly-congested segments marked high-priority overtake readings from
other segments inside the cleaning/aggregation pipeline.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction, Response
from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema, SchemaMapping
from repro.stream.tuples import StreamTuple

__all__ = ["PriorityBuffer"]


class PriorityBuffer(Operator):
    """Bounded reordering buffer driven by desired feedback."""

    feedback_aware = True

    def __init__(
        self,
        name: str,
        schema: Schema,
        *,
        capacity: int = 64,
        max_desires: int = 16,
        **kwargs: Any,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(
            name, schema, mapping=SchemaMapping.identity(schema), **kwargs
        )
        self.capacity = capacity
        self.max_desires = max_desires
        self._pending: deque[StreamTuple] = deque()
        self._desires: deque[Pattern] = deque()
        self._held = False  # a downstream pause is in effect
        self.priority_releases = 0

    # -- data --------------------------------------------------------------------

    def on_page(self, port_index: int, batch: list) -> None:
        """Admit a run; in the FIFO regime drain releases in one emission.

        With desires active, release order is data-dependent (a desired
        tuple later in the run must not overtake scans that one-by-one
        arrival would not have seen), so each admission releases before
        the next tuple is looked at.
        """
        pending = self._pending
        if self._desires or self._held:
            for tup in batch:
                pending.append(tup)
                self.metrics.grow_state()
                while not self._held and len(pending) >= self.capacity:
                    self._release_one()
            return
        released: list[StreamTuple] = []
        for tup in batch:
            pending.append(tup)
            self.metrics.grow_state()
            while len(pending) >= self.capacity:
                released.append(pending.popleft())
                self.metrics.shrink_state()
        if released:
            self.emit_many(released)

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        """Punctuation flushes covered pending tuples, then forwards.

        Tuples covered by the punctuation cannot be held back -- downstream
        operators will treat their subset as complete once the punctuation
        passes.
        """
        kept: deque[StreamTuple] = deque()
        for tup in self._pending:
            if punct.covers(tup):
                self._emit_pending(tup)
            else:
                kept.append(tup)
        self._pending = kept
        self.emit_punctuation(punct)

    def on_finish(self) -> None:
        while self._pending:
            self._release_one()

    def _release_one(self) -> None:
        """Release the best pending tuple (desired match first, then FIFO)."""
        for pattern in self._desires:
            for index, tup in enumerate(self._pending):
                if pattern.matches(tup):
                    del self._pending[index]
                    self.priority_releases += 1
                    self._emit_pending(tup)
                    return
        self._emit_pending(self._pending.popleft())

    def _emit_pending(self, tup: StreamTuple) -> None:
        self.metrics.shrink_state()
        self.emit(tup)

    state_fields = ("_pending", "_desires", "_held", "priority_releases")

    # -- flow control ------------------------------------------------------------

    def on_pause(self, punct: Any, from_edge: Any) -> None:
        """Absorb arrivals while downstream pushes back.

        The engine stops delivering pages to a paused operator; this hook
        additionally stops the *releases* an in-flight page would trigger,
        so the buffer soaks up the tail instead of feeding the congested
        queue.
        """
        self._held = True

    def on_resume(self, punct: Any, from_edge: Any) -> None:
        """Release the over-capacity backlog accumulated while held.

        With several output edges the hold lasts until the *last* pause
        is lifted (the runtime tracks the paused-edge set).
        """
        self._held = self.runtime.is_paused(self)
        while not self._held and len(self._pending) >= self.capacity:
            self._release_one()

    # -- feedback ---------------------------------------------------------------

    def on_desired(self, feedback: FeedbackPunctuation) -> Response:
        """Record the desire (most recent first) and surface matches now."""
        self._desires.appendleft(feedback.pattern)
        while len(self._desires) > self.max_desires:
            self._desires.pop()
        released = 0
        matching = [t for t in self._pending if feedback.pattern.matches(t)]
        for tup in matching:
            self._pending.remove(tup)
            self.priority_releases += 1
            released += 1
            self._emit_pending(tup)
        if released:
            self.flush_outputs()  # prioritised tuples must not wait on a page
        return [ExploitAction.PRIORITIZE], self._planned(feedback.pattern)

    def on_assumed(self, feedback: FeedbackPunctuation) -> Response:
        """Guard input and drop covered pending tuples (they are unneeded)."""
        self.input_port(0).guards.install(
            feedback.pattern, origin=feedback, at=self.now()
        )
        before = len(self._pending)
        self._pending = deque(
            t for t in self._pending if not feedback.pattern.matches(t)
        )
        dropped = before - len(self._pending)
        if dropped:
            self.metrics.shrink_state(dropped, purged=True)
        return (
            [ExploitAction.GUARD_INPUT, ExploitAction.PURGE_STATE],
            self._planned(feedback.pattern),
        )
