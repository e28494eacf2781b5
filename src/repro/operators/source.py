"""Stream sources: replayed, generated, punctuated and async inputs.

Sources yield ``(arrival_time, element)`` pairs, in non-decreasing arrival
order, that the engine replays at those virtual times; that iterator
(:meth:`~repro.operators.base.SourceOperator.events`) is all a source has
to provide.  The engines do not pull it themselves: they cut runs off the
source's *cursor* (:meth:`~repro.operators.base.SourceOperator.cursor`)
-- ``take(limit, before)`` hands out at most ``limit`` consecutive tuples
arriving before ``before``, or one punctuation on its own -- and emit
each run at once (``emit_many``: one output-guard pass, one ``put_many``
per edge), cutting runs so that nothing downstream can tell
(:meth:`~repro.engine.runtime.RuntimeCore.dispatch_source_run`).
:class:`PunctuatedSource` slices its timeline: it bisects the arrivals,
walks tuple by tuple only a slice whose largest value may cross the next
punctuation boundary, and reads its ``events()`` off that cursor.  Other
sources get :class:`~repro.operators.base.SourceCursor`, which pulls
``events()`` one element at a time.  Because
:class:`~repro.operators.base.SourceOperator` is feedback-aware, assumed
feedback that propagates all the way to a source suppresses tuples before
they enter the plan -- the best case of the paper's "avoidance of
unnecessary work".  An async source's feed
(:meth:`AsyncIterableSource.aevents`) may do the grouping itself and
yield a list of tuples as one event.

Sources are also where backpressure terminates: when a bounded downstream
queue signals *pause*, the engine stops replaying the source's timeline
(the simulator and the asyncio engine stash the one element they have
taken but not admitted, the threaded runtime sleeps the source thread)
until the matching *resume* arrives, so input is admitted no faster than
the plan can absorb it.  Sources need no code for this -- the engines
honour it on their behalf (see :mod:`repro.engine.runtime`).
"""

from __future__ import annotations

import asyncio
import math
from bisect import bisect_left
from operator import attrgetter, itemgetter
from typing import Any, AsyncIterable, Callable, Iterable, Iterator, Sequence

from repro.errors import WorkloadError
from repro.operators.base import SourceCursor, SourceOperator
from repro.punctuation.schemes import ProgressPunctuator
from repro.stream.schema import Schema
from repro.stream.tuples import StreamTuple

__all__ = [
    "AsyncIterableSource",
    "GeneratorSource",
    "ListSource",
    "PunctuatedSource",
]


def _ordered_timeline(name: str, timeline: Sequence[tuple[float, Any]]) -> list:
    """``timeline`` as a list, refused when its arrivals ever decrease.

    A list is replayed in place, not copied: a finished plan waiting for
    the garbage collector would otherwise pin a private copy of its whole
    input.  Do not mutate it while a source built over it may still run.
    """
    previous = float("-inf")
    for arrival, _ in timeline:
        if arrival < previous:
            raise WorkloadError(
                f"{name}: timeline arrival times must be non-decreasing"
            )
        previous = arrival
    return timeline if isinstance(timeline, list) else list(timeline)


_ARRIVAL = itemgetter(0)
_ELEMENT = itemgetter(1)
_VALUES = attrgetter("values")


class _PunctuatedCursor(SourceCursor):
    """A :class:`PunctuatedSource`'s cursor: runs are slices of the
    timeline, cut behind the first tuple whose value crosses the next
    boundary."""

    __slots__ = ("_timeline", "_at", "_punctuator", "_value", "_boundary",
                 "_due", "_ended")

    def __init__(
        self, timeline: list, punctuator: ProgressPunctuator, index: int
    ) -> None:
        self._timeline = timeline
        self._at = 0
        self.arrival = 0.0
        self._punctuator = punctuator
        self._value = itemgetter(index)
        self._boundary = punctuator.next_boundary
        #: Punctuation the last crossing tuple produced, not yet handed
        #: out, last first; it arrives with that tuple.
        self._due: list = []
        self._ended = False

    def take(self, limit: int, before: float = math.inf) -> list:
        if limit < 1:
            return []
        if self._due:
            return [] if self.arrival >= before else [self._due.pop()]
        timeline, at = self._timeline, self._at
        if at == len(timeline):
            arrival = timeline[-1][0] if timeline else 0.0
            if self._ended or arrival >= before:
                return []
            self._ended = True
            self.arrival = arrival
            return [self._punctuator.final()]
        end = min(at + limit, len(timeline))
        if timeline[end - 1][0] >= before:
            end = bisect_left(timeline, before, at, end, key=_ARRIVAL)
            if end == at:
                return []
        run = list(map(_ELEMENT, timeline[at:end]))
        punctuator, value_of = self._punctuator, self._value
        grace, boundary = punctuator.grace, self._boundary
        # The punctuator's own test, made on the slice's largest value so
        # that only a slice that may cross is walked tuple by tuple.  It
        # is negated because ``max`` keeps a leading NaN, which crosses
        # nothing but hides whatever does behind it.
        top = float(max(map(value_of, map(_VALUES, run))))
        if not top - grace < boundary:
            for cut, tup in enumerate(run, start=1):
                value = value_of(tup.values)
                if float(value) - grace >= boundary:
                    del run[cut:]
                    end = at + cut
                    self._due = punctuator.observe(value)[::-1]
                    self._boundary = punctuator.next_boundary
                    break
        self._at = end
        self.arrival = timeline[end - 1][0]
        return run


class ListSource(SourceOperator):
    """Replays a pre-built list of ``(arrival_time, element)`` pairs.

    Arrival times must be non-decreasing.  The element may be a
    :class:`StreamTuple` or an embedded :class:`Punctuation`.
    """

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        timeline: Sequence[tuple[float, Any]],
        **kwargs: Any,
    ) -> None:
        super().__init__(name, output_schema, **kwargs)
        self._timeline = _ordered_timeline(name, timeline)

    def events(self) -> Iterator[tuple[float, Any]]:
        return iter(self._timeline)


class GeneratorSource(SourceOperator):
    """Wraps any generator of ``(arrival_time, element)`` pairs.

    The factory is invoked lazily at engine start, so one source object can
    describe an arbitrarily long stream without materialising it.
    """

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        factory: Callable[[], Iterable[tuple[float, Any]]],
        **kwargs: Any,
    ) -> None:
        super().__init__(name, output_schema, **kwargs)
        self._factory = factory

    def events(self) -> Iterator[tuple[float, Any]]:
        return iter(self._factory())


class AsyncIterableSource(SourceOperator):
    """Wraps an async iterable of ``(arrival_time, element)`` pairs.

    The async-native ingestion adapter for network-shaped inputs
    (websockets, HTTP feeds, message brokers): the factory is invoked
    lazily at engine start and must return an async iterable (typically
    an async generator).  On the asyncio engine
    (:class:`~repro.engine.async_engine.AsyncioEngine`) the iterable is
    consumed through :meth:`aevents` natively by one pump task -- each
    ``await`` between elements parks only this source's pump, so
    thousands of slow feeds share one event loop.

    The synchronous :meth:`events` bridge keeps the source runnable on
    the simulator and the threaded runtime: it pumps a private event
    loop one event at a time and hands a run out element by element.
    That private loop cannot be nested inside an already-running one, so
    from async client code, drive these sources with the asyncio engine.
    """

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        factory: Callable[[], AsyncIterable[tuple[float, Any]]],
        *,
        idle_flush: Callable[[], bool] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, output_schema, **kwargs)
        if not callable(factory):
            raise WorkloadError(
                f"{name}: AsyncIterableSource takes a zero-argument "
                f"factory returning an async iterable, got {factory!r}"
            )
        if idle_flush is not None and not callable(idle_flush):
            raise WorkloadError(
                f"{name}: idle_flush must be a zero-argument callable, "
                f"got {idle_flush!r}"
            )
        self._factory = factory
        #: Latency hint for interactive feeds (``Flow.ingest``): when it
        #: reports the upstream buffer empty, the asyncio engine flushes
        #: this source's open output pages instead of letting a partial
        #: page wait for more input.  Pages still batch under sustained
        #: load -- the hint only fires when the feed goes quiet.
        self._idle_flush = idle_flush

    def wants_flush(self) -> bool:
        """True when open output pages should flush (feed is idle)."""
        return self._idle_flush is not None and self._idle_flush()

    def aevents(self) -> AsyncIterable[tuple[float, Any]]:
        """The async iterator of events (consumed by the asyncio engine).

        An event's element may be a *run* -- a list of tuples the feed
        had ready together, as ``Flow.ingest``'s channel yields them --
        which the asyncio engine admits as one source event; punctuation
        always travels as a single element.
        """
        iterable = self._factory()
        if not hasattr(iterable, "__aiter__"):
            raise WorkloadError(
                f"{self.name}: factory returned {iterable!r}, which is "
                f"not an async iterable"
            )
        return iterable

    def events(self) -> Iterator[tuple[float, Any]]:
        """Synchronous bridge: pump the async iterable on a private loop."""
        loop = asyncio.new_event_loop()
        iterator = self.aevents().__aiter__()
        try:
            while True:
                try:
                    event = loop.run_until_complete(iterator.__anext__())
                except StopAsyncIteration:
                    break
                arrival, element = event
                if isinstance(element, list):  # a run: same arrival
                    for tup in element:
                        yield arrival, tup
                else:
                    yield event
        finally:
            # Runs on early abandonment too (GeneratorExit at the yield
            # when an engine aborts mid-stream): an async generator whose
            # cleanup awaits (``await ws.close()``) must get its aclose()
            # driven, or the connection leaks with "async generator
            # ignored GeneratorExit".
            aclose = getattr(iterator, "aclose", None)
            try:
                if aclose is not None:
                    loop.run_until_complete(aclose())
            finally:
                loop.close()


class PunctuatedSource(SourceOperator):
    """Replays tuples and interleaves progress punctuation automatically.

    Wraps a plain tuple timeline with a
    :class:`~repro.punctuation.schemes.ProgressPunctuator` on one attribute,
    emitting ``[... <= boundary ...]`` punctuation as the stream advances,
    plus a final all-covering punctuation at end of stream.  This is the
    standard NiagaraST-style input: data plus embedded progress markers.
    Arrival times must be non-decreasing.
    """

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        timeline: Sequence[tuple[float, StreamTuple]],
        *,
        punctuate_on: str,
        punctuation_interval: float,
        grace: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, output_schema, **kwargs)
        self._timeline = _ordered_timeline(name, timeline)
        self._punctuate_on = punctuate_on
        self._interval = punctuation_interval
        self._grace = grace

    def events(self) -> Iterator[tuple[float, Any]]:
        """The cursor, read one element at a time."""
        cursor = self.cursor()
        while run := cursor.take(1):
            yield cursor.arrival, run[0]

    def cursor(self) -> SourceCursor:
        punctuator = ProgressPunctuator(
            self.output_schema,
            self._punctuate_on,
            self._interval,
            grace=self._grace,
            source=self.name,
        )
        return _PunctuatedCursor(
            self._timeline, punctuator,
            self.output_schema.index_of(self._punctuate_on),
        )
