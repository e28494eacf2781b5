"""Feedback punctuation: the paper's central mechanism.

A :class:`FeedbackPunctuation` travels *against* the stream direction, out
of band (on the control channel, never inside data pages), and carries two
things (paper section 3.2):

* a **pattern** describing the subset of tuples the feedback is about, and
* an **intent** suggesting what the receiver should do about that subset:

  ========  ========  =====================================================
  intent    notation  meaning
  ========  ========  =====================================================
  ASSUMED   ``¬[…]``  the issuer will ignore this subset; avoid producing
                      it (a hint -- a null response is still correct)
  DESIRED   ``?[…]``  prioritise production of this subset (must not change
                      the final result, only its timing/order)
  DEMANDED  ``![…]``  the issuer needs this subset now and will accept
                      partial/approximate results
  ========  ========  =====================================================

Feedback is final: the model has no retractions (paper section 4.4), so the
class offers no "cancel" constructor and :mod:`repro.core.guards` never
un-enacts a guard except through punctuation-driven expiration.

This module also defines :class:`FlowControlPunctuation`, the
*runtime-generated* sibling of :class:`FeedbackPunctuation`: where semantic
feedback steers **which** tuples antecedents produce, flow control steers
**how fast** they produce them.  The paper's pacing examples (section 2,
Example 2) throttle by dropping; flow-control punctuation instead pauses
and resumes upstream emission so bounded queues never overflow -- the
backpressure use of the same out-of-band upstream channel.  Unlike semantic
feedback it carries no pattern (it is about the whole stream on one edge)
and it *is* retractable: every ``pause`` is eventually cancelled by its
``resume``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any

from repro.errors import FeedbackError
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema

__all__ = [
    "CheckpointPunctuation",
    "FeedbackIntent",
    "FeedbackPunctuation",
    "FlowControlKind",
    "FlowControlPunctuation",
]

_feedback_counter = itertools.count()


class FeedbackIntent(enum.Enum):
    """The three intents of section 3.4, with the paper's prefix glyphs."""

    ASSUMED = "assumed"
    DESIRED = "desired"
    DEMANDED = "demanded"

    @property
    def glyph(self) -> str:
        return {"assumed": "¬", "desired": "?", "demanded": "!"}[self.value]

    @classmethod
    def from_glyph(cls, glyph: str) -> "FeedbackIntent":
        table = {"¬": cls.ASSUMED, "~": cls.ASSUMED,
                 "?": cls.DESIRED, "!": cls.DEMANDED}
        try:
            return table[glyph]
        except KeyError:
            raise FeedbackError(f"unknown feedback glyph {glyph!r}") from None


class _Immutable:
    """Slot-only value object: no attribute assignment after ``__init__``.

    Immutability blocks the default slot-state unpickling (it applies
    state via ``setattr``), so the slots are restored explicitly: every
    punctuation family crosses process boundaries in the multiprocess
    engine -- feedback and pause/resume as pickled control payloads,
    markers inside encoded pages -- and provenance (issuer/seq/hops)
    must survive.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)


class FeedbackPunctuation(_Immutable):
    """An intent plus a pattern, stamped with provenance.

    ``issuer`` is the operator that produced the feedback, ``issued_at`` the
    (virtual) time of production; both exist for logging and for the
    experiments' provenance traces.  ``seq`` totally orders feedback
    messages.  ``hops`` counts propagation steps -- each relayer derives a
    new instance with ``hops + 1`` via :meth:`propagated`.

    Instances are immutable and hashable on (intent, pattern).
    """

    __slots__ = ("intent", "pattern", "issuer", "issued_at", "seq", "hops")

    is_punctuation = False  # feedback never flows inside data pages

    def __init__(
        self,
        intent: FeedbackIntent,
        pattern: Pattern,
        *,
        issuer: str = "",
        issued_at: float = 0.0,
        hops: int = 0,
    ) -> None:
        if pattern.is_all_wildcard and intent is FeedbackIntent.ASSUMED:
            raise FeedbackError(
                "assumed feedback with an all-wildcard pattern would "
                "suppress the entire stream; issue a query change instead"
            )
        object.__setattr__(self, "intent", intent)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "issuer", issuer)
        object.__setattr__(self, "issued_at", float(issued_at))
        object.__setattr__(self, "seq", next(_feedback_counter))
        object.__setattr__(self, "hops", int(hops))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def assumed(cls, pattern: Pattern, **kw: Any) -> "FeedbackPunctuation":
        """``¬[pattern]`` -- avoid producing this subset."""
        return cls(FeedbackIntent.ASSUMED, pattern, **kw)

    @classmethod
    def desired(cls, pattern: Pattern, **kw: Any) -> "FeedbackPunctuation":
        """``?[pattern]`` -- prioritise this subset."""
        return cls(FeedbackIntent.DESIRED, pattern, **kw)

    @classmethod
    def demanded(cls, pattern: Pattern, **kw: Any) -> "FeedbackPunctuation":
        """``![pattern]`` -- produce this subset now, partials acceptable."""
        return cls(FeedbackIntent.DEMANDED, pattern, **kw)

    # -- derivation -------------------------------------------------------------

    def propagated(
        self,
        pattern: Pattern,
        *,
        relayer: str = "",
        at: float | None = None,
    ) -> "FeedbackPunctuation":
        """A new feedback one hop further upstream with a mapped pattern."""
        return FeedbackPunctuation(
            self.intent,
            pattern,
            issuer=relayer or self.issuer,
            issued_at=self.issued_at if at is None else at,
            hops=self.hops + 1,
        )

    def rebound(self, schema: Schema) -> "FeedbackPunctuation":
        """Same intent and atoms bound to another (same-arity) schema."""
        return FeedbackPunctuation(
            self.intent,
            self.pattern.with_schema(schema),
            issuer=self.issuer,
            issued_at=self.issued_at,
            hops=self.hops,
        )

    # -- semantics --------------------------------------------------------------

    def concerns(self, element: Any) -> bool:
        """True when ``element`` is in the subset this feedback describes."""
        return self.pattern.matches(element)

    @property
    def is_assumed(self) -> bool:
        return self.intent is FeedbackIntent.ASSUMED

    @property
    def is_desired(self) -> bool:
        return self.intent is FeedbackIntent.DESIRED

    @property
    def is_demanded(self) -> bool:
        return self.intent is FeedbackIntent.DEMANDED

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeedbackPunctuation):
            return NotImplemented
        return self.intent is other.intent and self.pattern == other.pattern

    def __hash__(self) -> int:
        return hash((self.intent, self.pattern))

    def __repr__(self) -> str:
        return f"{self.intent.glyph}{self.pattern!r}"


class FlowControlKind(enum.Enum):
    """The two flow-control verbs, with display glyphs.

    ``PAUSE`` (``⊣``) -- the consumer's queue crossed its high-water mark;
    suspend emission on this edge.  ``RESUME`` (``⊢``) -- the queue drained
    to its low-water mark; emission may continue.
    """

    PAUSE = "pause"
    RESUME = "resume"

    @property
    def glyph(self) -> str:
        return {"pause": "⊣", "resume": "⊢"}[self.value]


class FlowControlPunctuation(_Immutable):
    """Runtime-generated feedback about *rate*: pause or resume an edge.

    Travels upstream on the control channel exactly like
    :class:`FeedbackPunctuation` (out of band, high priority, delivered
    with ``control_latency`` arrival semantics), but is issued by the
    consumer's *runtime* when a bounded :class:`~repro.stream.queues.
    DataQueue` crosses a watermark -- no operator ever constructs one in
    normal operation.

    ``edge`` names the queue the signal is about (``"select->avg[0]"``);
    ``issuer`` is the consumer whose runtime spoke; ``occupancy`` records
    the queue depth at signalling time (for diagnostics and the
    backpressure benchmark).  Instances are immutable.
    """

    __slots__ = ("kind", "edge", "issuer", "issued_at", "occupancy", "seq")

    is_punctuation = False  # flow control never flows inside data pages

    def __init__(
        self,
        kind: FlowControlKind,
        edge: str,
        *,
        issuer: str = "",
        issued_at: float = 0.0,
        occupancy: int = 0,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "issuer", issuer)
        object.__setattr__(self, "issued_at", float(issued_at))
        object.__setattr__(self, "occupancy", int(occupancy))
        object.__setattr__(self, "seq", next(_feedback_counter))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def pause(cls, edge: str, **kw: Any) -> "FlowControlPunctuation":
        """``⊣[edge]`` -- suspend emission into this queue."""
        return cls(FlowControlKind.PAUSE, edge, **kw)

    @classmethod
    def resume(cls, edge: str, **kw: Any) -> "FlowControlPunctuation":
        """``⊢[edge]`` -- emission into this queue may continue."""
        return cls(FlowControlKind.RESUME, edge, **kw)

    # -- semantics --------------------------------------------------------------

    @property
    def is_pause(self) -> bool:
        return self.kind is FlowControlKind.PAUSE

    @property
    def is_resume(self) -> bool:
        return self.kind is FlowControlKind.RESUME

    def __repr__(self) -> str:
        return f"{self.kind.glyph}[{self.edge}@{self.occupancy}]"


class CheckpointPunctuation(_Immutable):
    """A Chandy-Lamport checkpoint marker riding the *data* plane.

    The third punctuation family: where :class:`FeedbackPunctuation`
    steers *which* tuples antecedents produce and
    :class:`FlowControlPunctuation` steers *how fast*, a checkpoint
    marker asks every operator it passes to make its state *durable*.
    Unlike its two siblings it flows **in band** -- inside data pages,
    with the stream direction (``is_punctuation`` is True) -- because
    consistency demands it: the marker must arrive *after* every
    pre-checkpoint tuple on each edge, and only the data queue preserves
    that order (control messages are deliberately high priority and
    would overtake queued data, tearing the cut).

    ``epoch`` numbers the checkpoint (markers of one epoch, released at
    every source, sweep the plan as one consistent cut); ``source`` and
    ``offset`` record which source injected this marker and how many
    stream elements it had replayed when it did -- the replay position
    recovery rewinds to.  Instances are immutable.
    """

    __slots__ = ("epoch", "source", "offset", "issued_at", "seq")

    is_punctuation = True  # markers flow inside data pages, in order

    def __init__(
        self,
        epoch: int,
        *,
        source: str = "",
        offset: int = 0,
        issued_at: float = 0.0,
    ) -> None:
        object.__setattr__(self, "epoch", int(epoch))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "issued_at", float(issued_at))
        object.__setattr__(self, "seq", next(_feedback_counter))

    def __repr__(self) -> str:
        return f"⌖[epoch={self.epoch} {self.source}@{self.offset}]"
