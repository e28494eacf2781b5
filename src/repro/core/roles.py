"""Feedback roles and the action vocabulary operators respond with.

The paper (abstract, section 3.5) names three roles an operator may play:

* **producer** -- discovers a processing opportunity and issues feedback;
* **exploiter** -- acts on received feedback (guards, purges, priorities);
* **relayer** -- maps feedback through its schema and forwards it upstream.

A single operator can play all three; the roles are methods of
:class:`~repro.operators.base.Operator`, not types.  This module defines
the :class:`ExploitAction` vocabulary used by the characterization tables
and metrics, and the :class:`FeedbackLog` that records every feedback
event for experiments and tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.feedback import FeedbackPunctuation
from repro.punctuation.patterns import Pattern

__all__ = [
    "ExploitAction",
    "FeedbackEvent",
    "FeedbackLog",
    "Response",
]


class ExploitAction(enum.Enum):
    """What an operator did in response to a feedback punctuation.

    The first four correspond to the paper's menu of responses (section
    4.3 and Tables 1-2); the remainder cover desired/demanded intents and
    the null response.
    """

    GUARD_INPUT = "guard_input"        # drop matching tuples before work
    GUARD_OUTPUT = "guard_output"      # suppress matching results
    PURGE_STATE = "purge_state"        # evict matching internal state
    PROPAGATE = "propagate"            # relayed upstream (possibly mapped)
    PRIORITIZE = "prioritize"          # reorder production (desired)
    EMIT_PARTIAL = "emit_partial"      # unblock with partial results (demanded)
    IGNORE = "ignore"                  # null response (still correct)


#: What an operator's intent hook returns: the actions it took locally and
#: the ``(input index, input-schema pattern)`` pairs it relays upstream.
Response = tuple[list[ExploitAction], list[tuple[int, Pattern]]]


@dataclass(frozen=True)
class FeedbackEvent:
    """One entry of the feedback provenance log."""

    time: float
    operator: str
    feedback: FeedbackPunctuation
    actions: tuple[ExploitAction, ...]
    note: str = ""

    def __repr__(self) -> str:
        acts = ",".join(a.value for a in self.actions) or "-"
        return (
            f"[t={self.time:.3f}] {self.operator}: {self.feedback!r} "
            f"-> {acts}{' (' + self.note + ')' if self.note else ''}"
        )


class FeedbackLog:
    """Append-only record of feedback production, exploitation and relays.

    The engines attach one log per plan; experiments read it to report how
    much feedback flowed and what it triggered, and tests assert on it.
    """

    __slots__ = ("_events",)

    def __init__(self) -> None:
        self._events: list[FeedbackEvent] = []

    def record(
        self,
        time: float,
        operator: str,
        feedback: FeedbackPunctuation,
        actions: Iterable[ExploitAction],
        note: str = "",
    ) -> FeedbackEvent:
        event = FeedbackEvent(time, operator, feedback, tuple(actions), note)
        self._events.append(event)
        return event

    def extend(self, events: Iterable[FeedbackEvent]) -> None:
        """Append pre-built events (merging worker logs at run end)."""
        self._events.extend(events)

    def __iter__(self) -> Iterator[FeedbackEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def by_operator(self, operator: str) -> list[FeedbackEvent]:
        return [e for e in self._events if e.operator == operator]

    def with_action(self, action: ExploitAction) -> list[FeedbackEvent]:
        return [e for e in self._events if action in e.actions]

    def summary(self) -> str:
        """Human-readable digest used by example scripts."""
        if not self._events:
            return "no feedback activity"
        lines = [f"{len(self._events)} feedback events:"]
        lines.extend(f"  {event!r}" for event in self._events[:50])
        if len(self._events) > 50:
            lines.append(f"  ... and {len(self._events) - 50} more")
        return "\n".join(lines)
