"""Guards: the predicate state created by enacting assumed feedback.

Exploiting assumed punctuation means installing *guards* (paper section
4.3): an **input guard** drops matching tuples before computation; an
**output guard** suppresses matching results after computation.  Guards are
predicate state, and section 4.4 warns that such state must not accumulate.
The supportability story ties guard lifetime to embedded punctuation:
when a punctuation arrives whose completed subset *covers* a guard's
pattern, no future tuple can match the guard, so the guard is released.

:class:`GuardSet` maintains active guards, answers ``blocks(tuple)``,
expires guards against punctuation, and keeps drop counters for metrics.

A guard costs what a query predicate costs.  Its pattern is compiled once
per pattern *shape* with this pattern's constants bound in
(:func:`~repro.punctuation.atoms.compiled_test`) into an element test
(:attr:`~repro.punctuation.patterns.Pattern.matcher`) and a run filter
(:attr:`~repro.punctuation.patterns.Pattern.reject`): one list
comprehension with the same ``and``-chain of set membership and chained
comparisons inlined, so a dropped tuple costs one comparison chain and no
call.  :meth:`GuardSet.keep` filters a run with each guard's ``reject`` in
turn; :meth:`GuardSet.filter_batch` also hands back the dropped tuples for
an operator that asks to see them; ``blocks`` and ``would_block`` answer
for one element with the test.  A value a guard cannot hash or compare
answers False (the tuple is *not* dropped); a tuple of the wrong arity
raises :class:`~repro.errors.PatternError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.feedback import FeedbackPunctuation
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern

__all__ = ["Guard", "GuardSet"]


@dataclass
class Guard:
    """One active guard predicate.

    ``origin`` records the feedback that installed the guard (None for
    guards installed unilaterally by an operator, e.g. MAX's local input
    guard in section 3.5).  ``drops`` counts tuples suppressed by this
    guard -- the raw material of the experiments' savings numbers.
    """

    pattern: Pattern
    origin: FeedbackPunctuation | None = None
    enacted_at: float = 0.0
    drops: int = 0
    released: bool = False

    def __post_init__(self) -> None:
        #: The pattern's compiled element test and run filter, resolved
        #: once for the guard set's loops.
        self.matcher = self.pattern.matcher
        self.reject = self.pattern.reject

    def blocks(self, element: Any) -> bool:
        """True when ``element`` matches the guard (and should be dropped)."""
        return not self.released and self.matcher(element.values)

    def __repr__(self) -> str:
        state = "released" if self.released else f"drops={self.drops}"
        return f"Guard({self.pattern!r}, {state})"


class GuardSet:
    """The active guards on one port (input or output) of an operator.

    Subsumption-aware: adding a guard already covered by an active guard is
    a no-op, and adding a guard that covers existing guards retires them.
    This keeps the set minimal, which both bounds predicate state and makes
    the per-guard drop counters meaningful.
    """

    __slots__ = ("name", "_guards", "total_drops", "guards_installed",
                 "guards_expired")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._guards: list[Guard] = []
        self.total_drops = 0
        self.guards_installed = 0
        self.guards_expired = 0

    # -- installation -------------------------------------------------------------

    def install(
        self,
        pattern: Pattern,
        *,
        origin: FeedbackPunctuation | None = None,
        at: float = 0.0,
    ) -> Guard | None:
        """Install a guard for ``pattern``; return it (None when redundant)."""
        for guard in self._guards:
            if guard.pattern.subsumes(pattern):
                return None  # already covered
        self._guards = [
            g for g in self._guards if not pattern.subsumes(g.pattern)
        ]
        guard = Guard(pattern=pattern, origin=origin, enacted_at=at)
        self._guards.append(guard)
        self.guards_installed += 1
        return guard

    # -- filtering ---------------------------------------------------------------

    def blocks(self, element: Any) -> bool:
        """True when any active guard matches ``element``.

        Increments drop counters as a side effect, because a True answer
        means the caller is dropping the element.
        """
        values = element.values
        for guard in self._guards:  # released guards never stay in the set
            if guard.matcher(values):
                guard.drops += 1
                self.total_drops += 1
                return True
        return False

    def would_block(self, element: Any) -> bool:
        """Like :meth:`blocks` but without touching the counters."""
        values = element.values
        return any(guard.matcher(values) for guard in self._guards)

    def keep(self, run: list) -> tuple[list, int]:
        """Filter a run of data tuples: ``(kept, count)`` of what passed
        and how many were dropped.

        The run counterpart of :meth:`blocks`, with the same semantics:
        each guard's run filter makes one pass over the survivors of the
        guards before it, so the first matching guard (in installation
        order) takes the drop and its counter -- a later guard is not
        asked about a tuple an earlier one dropped.  ``kept`` keeps stream
        order and is ``run`` itself, uncopied, when no guard matched
        anything in it.
        """
        kept = run
        for guard in self._guards:  # released guards never stay in the set
            survivors = guard.reject(kept)
            drops = len(kept) - len(survivors)
            if drops:
                guard.drops += drops
                kept = survivors
                if not kept:
                    break
        count = len(run) - len(kept)
        self.total_drops += count
        return kept, count

    def filter_batch(self, batch: list) -> tuple[list, list]:
        """Split a run of data tuples into ``(kept, dropped)``.

        :meth:`keep`, plus the dropped tuples in stream order -- for an
        operator that overrides ``on_guarded_drops``.  The batch comes
        back as-is -- the same list, uncopied -- when no guard matched
        anything in it.  A tuple's verdict depends on its values alone,
        so the dropped ones are the run's objects that ``kept`` lacks.
        """
        kept, count = self.keep(batch)
        if not count:
            return batch, []
        survivors = set(map(id, kept))
        return kept, [e for e in batch if id(e) not in survivors]

    # -- expiration -----------------------------------------------------------------

    def expire_with(self, punctuation: Punctuation) -> list[Guard]:
        """Release guards whose subset the punctuation declares complete.

        A guard can be dropped once no future tuple can match it, i.e. when
        the punctuation's completed subset subsumes the guard pattern.
        Returns the released guards (mainly for logging and tests).
        """
        released: list[Guard] = []
        surviving: list[Guard] = []
        for guard in self._guards:
            if punctuation.pattern.subsumes(guard.pattern):
                guard.released = True
                released.append(guard)
                self.guards_expired += 1
            else:
                surviving.append(guard)
        self._guards = surviving
        return released

    def clear(self) -> None:
        """Drop all guards (end of stream teardown)."""
        self._guards.clear()

    # -- inspection -------------------------------------------------------------------

    @property
    def active(self) -> int:
        return len(self._guards)

    def __iter__(self) -> Iterator[Guard]:
        return iter(self._guards)

    def __len__(self) -> int:
        return len(self._guards)

    def __repr__(self) -> str:
        return (
            f"GuardSet({self.name!r}, active={len(self._guards)}, "
            f"drops={self.total_drops})"
        )
