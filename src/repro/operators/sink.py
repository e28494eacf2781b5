"""Sinks: terminal operators that collect results and drive demand.

:class:`CollectSink` records every arriving tuple with its (virtual)
arrival time in ``arrivals`` -- Figures 5 and 6 are drawn directly from
that series.

:class:`OnDemandSink` models Example 4's poll-based client: results are
produced only when the application asks.  ``poll()`` sends a
``RESULT_REQUEST`` control message upstream (released buffered results flow
back down), and ``demand(pattern)`` issues demanded feedback ``![…]`` that
makes blocking operators emit partial results immediately (the
financial-speculator scenario of section 3.4).

:class:`AwaitableSink` is the async-native client adapter: a collect sink
whose completed results can be ``await``-ed from coroutine code running
alongside an :meth:`~repro.engine.async_engine.AsyncioEngine.arun`.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Iterator, Sequence
from operator import itemgetter
from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.errors import EngineError
from repro.operators.base import Operator
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.schema import Schema
from repro.stream.tuples import StreamTuple

__all__ = ["AwaitableSink", "CollectSink", "OnDemandSink", "PushSink"]


class _Results(Sequence):
    """A sink's ``results``: the tuples of its ``arrivals``, read-only."""

    __slots__ = ("_sink",)

    def __init__(self, sink: "CollectSink") -> None:
        self._sink = sink

    def __len__(self) -> int:
        return len(self._sink.arrivals)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [entry[1] for entry in self._sink.arrivals[index]]
        return self._sink.arrivals[index][1]

    def __iter__(self) -> Iterator[StreamTuple]:
        return map(itemgetter(1), self._sink.arrivals)

    def __eq__(self, other: object) -> bool:  # unhashable, like a list
        if isinstance(other, (list, _Results)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class CollectSink(Operator):
    """Collect tuples (and optionally punctuation) with arrival times."""

    feedback_aware = False  # a sink exploits nothing; it only observes

    def __init__(
        self,
        name: str,
        schema: Schema | None = None,
        *,
        keep_punctuation: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, schema, **kwargs)
        self.keep_punctuation = keep_punctuation
        self.arrivals: list[tuple[float, StreamTuple]] = []
        self.punctuations: list[Punctuation] = []
        #: Arrivals recorded over the sink's lifetime (trim-proof): its
        #: position in its delivery log, hence the checkpoint cut.
        self.delivered = 0

    #: Durability hooks, armed by the checkpoint coordinator: a
    #: delivery-log writer (write-through of every recorded arrival,
    #: flushed at each checkpoint) and the exactly-once replay-window
    #: dedup counter a recovery run installs.  ``None`` = off.
    _ckpt_writer: Any = None
    _ckpt_dedup: Any = None

    def _ckpt_replayed(self, tup: StreamTuple) -> bool:
        """Drop ``tup`` if it is a replayed pre-crash delivery.

        The dedup counter holds the multiset of deliveries between the
        recovered checkpoint's cut and the crash; replay regenerates
        exactly that window (plus fresh results), so each counted key
        swallows one arrival.  The filter removes itself once empty.
        """
        dedup = self._ckpt_dedup
        if dedup is None:
            return False
        from repro.durability.coordinator import delivery_key

        key = delivery_key(tup)
        if dedup.get(key, 0) <= 0:
            return False
        dedup[key] -= 1
        if dedup[key] <= 0:
            del dedup[key]
        if not dedup:
            self._ckpt_dedup = None
        return True

    def _record_arrivals(self, batch: list) -> list:
        """Record a run of arrivals in bulk; return the ones recorded.

        A run is delivered at one engine step, so every element of it
        carries the same arrival time.  While a recovery run's replay
        window is open, already-delivered arrivals are swallowed first.
        """
        if self._ckpt_dedup is not None:
            batch = [t for t in batch if not self._ckpt_replayed(t)]
        now = self.now()
        self.delivered += len(batch)
        self.arrivals.extend((now, tup) for tup in batch)
        writer = self._ckpt_writer
        if writer is not None:
            for tup in batch:
                writer.append((now, tup))
        return batch

    @property
    def results(self) -> Sequence[StreamTuple]:
        """The arrived tuples in order: a read-only view of ``arrivals``."""
        return _Results(self)

    def on_page(self, port_index: int, batch: list) -> None:
        self._record_arrivals(batch)

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        if self.keep_punctuation:
            self.punctuations.append(punct)

    def on_run_aborted(self, error: BaseException) -> None:
        """Make deliveries buffered since the last checkpoint durable.

        The delivery-log writer is write-through but buffered: entries
        become durable at ``flush()``, which the checkpoint coordinator
        calls at each marker and at clean finish.  A cancelled or failed
        run reaches neither, so without this hook every delivery since
        the last cut would vanish from the log.  Flushing here is safe
        for exactly-once recovery: the replay window is counted from the
        recovered cut over whatever the log holds, so the extra entries
        are regenerated by replay and swallowed by the dedup filter.
        """
        writer = self._ckpt_writer
        if writer is not None:
            try:
                writer.flush()
            except Exception:
                # The abort path must not mask the original failure with
                # a store error; the log simply stays at its last cut.
                pass

    state_fields = ("punctuations",)

    def snapshot_state(self) -> dict[str, Any]:
        """The cut, plus ``arrivals`` only when no delivery log holds it.

        With a delivery-log writer attached the flushed log is the
        durable copy of ``arrivals`` and ``delivered`` the position in
        it, so a checkpoint's size does not grow with the output;
        without one (the multiprocess ship-back of an un-checkpointed
        run) the state must carry the list itself.
        """
        # While a recovery run's replay window is open the log already
        # holds the deliveries still to be swallowed: they lie past
        # this cut, not before it.
        replaying = sum((self._ckpt_dedup or {}).values())
        state = super().snapshot_state()
        state["delivered"] = self.delivered - replaying
        if self._ckpt_writer is None:
            state["arrivals"] = self.arrivals
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        super().restore_state(state)
        self.delivered = state["delivered"]
        if "arrivals" in state:
            self.arrivals = state["arrivals"]

    def reload_from_log(self, log: list) -> list:
        """Rebuild ``arrivals`` from the sink's delivery log.

        Returns the replay window ``log[delivered:]`` -- the entries
        past the restored cut, which a recovery run regenerates -- and
        moves ``delivered`` to the end of the log, where the writer
        appends next.
        """
        window = log[self.delivered:]
        self.arrivals = [(entry[0], entry[1]) for entry in log]
        self.delivered = len(log)
        return window

    def __len__(self) -> int:
        return len(self.arrivals)


class AwaitableSink(CollectSink):
    """A collect sink whose finished results are awaitable.

    Client coroutines call :meth:`results_async` (or simply ``await
    sink``) to receive the collected tuples once the sink's inputs have
    drained -- the natural shape for serving results out of an
    :class:`~repro.engine.async_engine.AsyncioEngine` run that is itself
    a coroutine on the same loop::

        plan = flow.build()
        engine = create_engine("asyncio", plan)
        run = asyncio.ensure_future(engine.arun())
        rows = await plan.operator("sink")   # resolves at end of stream
        result = await run

    Works on every engine: with the threaded runtime the completion is
    handed to the waiting loop via ``call_soon_threadsafe``, and after a
    synchronous run (any engine) the await resolves immediately.  A run
    that *fails* before this sink finishes (watchdog timeout, action
    error) fails the waiters too -- :meth:`results_async` raises instead
    of hanging on an ``on_finish`` that will never come.
    """

    def __init__(self, name: str, schema: Schema | None = None, **kwargs: Any) -> None:
        super().__init__(name, schema, **kwargs)
        self._completed = False
        self._run_error: BaseException | None = None
        #: Waiting client coroutines, each on its own loop: the threaded
        #: runtime finishes this sink on an operator thread.
        self._done_waiters: list[
            tuple[asyncio.AbstractEventLoop, asyncio.Event]
        ] = []
        self._guard = threading.Lock()

    def _settle(self) -> None:
        """Wake every waiter (completion and abort share this path)."""
        with self._guard:
            waiters, self._done_waiters = self._done_waiters, []
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        for loop, event in waiters:
            if loop is running:
                event.set()
            else:
                loop.call_soon_threadsafe(event.set)

    def on_finish(self) -> None:
        with self._guard:
            self._completed = True
        self._settle()

    def on_run_aborted(self, error: BaseException) -> None:
        super().on_run_aborted(error)  # flush the partial delivery log
        with self._guard:
            if self._completed:
                return
            self._run_error = error
        self._settle()

    def _outcome(self) -> list[StreamTuple]:
        if self._run_error is not None:
            raise EngineError(
                f"{self.name}: the run aborted before end of stream"
            ) from self._run_error
        return list(self.results)

    async def results_async(self) -> list[StreamTuple]:
        """The collected tuples, available once the stream has drained.

        Raises :class:`~repro.errors.EngineError` (chaining the original
        failure) when the run died before this sink finished.
        """
        with self._guard:
            if self._completed or self._run_error is not None:
                return self._outcome()
            loop = asyncio.get_running_loop()
            event = asyncio.Event()
            self._done_waiters.append((loop, event))
        await event.wait()
        return self._outcome()

    def __await__(self):
        return self.results_async().__await__()


class PushSink(AwaitableSink):
    """An always-on delivery sink that pushes results as they arrive.

    Where :class:`AwaitableSink` hands over the *complete* result set at
    end of stream, a push sink calls ``publish(page)`` with each page of
    results the moment it is produced -- the delivery half of the serving
    layer, with ``publish`` typically bound to
    :meth:`repro.stream.Broadcast.publish_page` so results fan out to
    live SSE/websocket subscribers (``docs/serving.md``).

    To keep memory bounded over unbounded runs the locally retained
    ``arrivals`` (and so ``results``, its view) are trimmed to the last
    ``retain`` entries (``retain=None`` keeps everything, restoring
    collect-sink behaviour).  The durability seams are untouched: the
    delivery-log writer and the exactly-once replay dedup filter see
    every arrival and the checkpoint cut is the trim-proof ``delivered``
    count, so checkpointed serving flows recover like any other.
    """

    def __init__(
        self,
        name: str,
        schema: Schema | None = None,
        *,
        publish: Any = None,
        on_complete: Any = None,
        retain: int | None = 1024,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, schema, **kwargs)
        if publish is not None and not callable(publish):
            raise EngineError(
                f"{name}: publish must be callable, got {publish!r}"
            )
        if on_complete is not None and not callable(on_complete):
            raise EngineError(
                f"{name}: on_complete must be callable, got {on_complete!r}"
            )
        if retain is not None and retain < 0:
            raise EngineError(
                f"{name}: retain must be >= 0 or None, got {retain}"
            )
        self.publish = publish
        #: Called at clean end of stream (typically ``Broadcast.close``,
        #: ending live subscribers once their buffers drain).  *Not*
        #: called when the run aborts: a supervised restart keeps the
        #: hub and its subscribers alive across the rebuild.
        self.on_complete = on_complete
        self.retain = retain

    def on_finish(self) -> None:
        super().on_finish()
        if self.on_complete is not None:
            self.on_complete()

    def _trim(self) -> None:
        retain = self.retain
        if retain is not None and len(self.arrivals) > retain:
            del self.arrivals[:len(self.arrivals) - retain]

    def on_page(self, port_index: int, batch: list) -> None:
        batch = self._record_arrivals(batch)
        if batch and self.publish is not None:
            self.publish(batch)
        self._trim()

    def reload_from_log(self, log: list) -> list:
        window = super().reload_from_log(log)
        self._trim()
        return window


class OnDemandSink(CollectSink):
    """A polling client: requests results instead of streaming them.

    ``poll`` and ``demand`` are driven either by test/example code between
    engine runs or by a scheduled callback inside the engines.
    """

    def __init__(self, name: str, schema: Schema | None = None, **kwargs: Any) -> None:
        super().__init__(name, schema, **kwargs)
        self.polls = 0
        self.demands = 0

    state_fields = CollectSink.state_fields + ("polls", "demands")

    def poll(self, pattern: Pattern | None = None) -> None:
        """Ask upstream operators to release buffered results."""
        self.set_now(max(self._now, self.runtime.now()))
        self.polls += 1
        self.request_results(pattern)

    def demand(self, pattern: Pattern) -> None:
        """Issue ``![pattern]``: partial results now beat exact later."""
        self.set_now(max(self._now, self.runtime.now()))
        self.demands += 1
        self.produce_feedback(
            FeedbackPunctuation.demanded(
                pattern, issuer=self.name, issued_at=self.now()
            ),
            note="demanded by client",
        )
