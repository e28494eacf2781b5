"""Asyncio engine: the simulator's scheduler on the wall clock, on one loop.

The execution backend for network-facing sources and sinks (paper
section 5 fixes NiagaraST's runtime as operators joined by page queues
with out-of-band high-priority control; Grover & Carey's AsterixDB feeds
and the Röger & Mayer parallelization survey, see PAPERS.md, argue that
ingesting from many slow or remote endpoints should not burn an OS thread
per operator).  It is the same cooperative, run-to-completion scheduler
as :class:`~repro.engine.simulator.Simulator` -- one event heap, the same
source / control / work / action handlers, the same pause
stash and watermark checks -- with a different clock under it: events are
ordered on a :class:`~repro.stream.clock.WallClock`, and instead of
jumping the clock to the heap's head, **one driver coroutine** waits for
it.  What the virtual-time engine models, this one experiences:

* ``control_latency`` and :meth:`~repro.engine.runtime.RuntimeCore.at`
  actions are heap entries due in the future; the driver sleeps until
  the earliest one (or until something is pushed) and never polls.
* ``emulate_costs=True`` keeps the simulator's per-operator busy
  horizons: a costed operator's output becomes available -- and its next
  page starts -- only when its modeled cost has elapsed on the wall
  clock, so independent branches overlap exactly as they do across the
  threaded engine's threads.  Without it no cost model is charged.
* Replay arrival times are ignored, as on the threaded runtime: a
  synchronous source's next element is due immediately (after its own
  modeled cost under ``emulate_costs``, which admits a source that
  models a cost element by element).
* An operator whose input runs dry flushes its open output pages, so an
  always-on flow delivers at input-idle time instead of holding results
  until a page fills; under sustained load pages fill first and batching
  is preserved.

Between steps the driver yields to the event loop once per
:data:`_TIME_SLICE` of continuous work, so socket handlers and client
coroutines sharing the loop keep running under a saturating source.

Sources that expose ``aevents()`` -- an *async* iterator of ``(arrival,
element)`` pairs, e.g. :class:`~repro.operators.source.
AsyncIterableSource` -- get one small **pump task** each: it awaits the
feed's next event, pushes it onto the heap, and parks until the
scheduler has dispatched it (a paused source therefore parks its pump
until the resume, by the same stash-and-replay rule the simulator uses).
A feed's event may carry a *run* -- a list of tuples it had ready
together, as ``Flow.ingest``'s channel yields its backlog -- which enters
the plan as one source event (:meth:`~repro.engine.simulator.Simulator.
_handle_fed_run`), so a burst costs one pump round trip, not one per
tuple.
A slow network feed parks its pump and nothing else; thousands of idle
feeds cost one parked ``await`` each.  Plain sources replay their
synchronous timeline off the heap, in runs cut from their cursor.

Use :meth:`AsyncioEngine.run` from synchronous code (it owns a private
event loop via ``asyncio.run``), or ``await`` :meth:`AsyncioEngine.arun`
from inside an existing loop -- e.g. alongside an
:class:`~repro.operators.sink.AwaitableSink` that client coroutines
await concurrently with the run.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, AsyncIterable

from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult
from repro.engine.simulator import _PRIO_SOURCE, Simulator
from repro.errors import EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock

__all__ = ["AsyncioEngine"]

#: Seconds of back-to-back steps after which the driver yields to the
#: event loop.  Long enough that the yield (one loop iteration) is noise
#: against the work done, short enough that a socket handler sharing the
#: loop waits about a millisecond behind a saturating source.
_TIME_SLICE = 0.001


class AsyncioEngine(Simulator):
    """Run a plan on the wall clock inside one asyncio event loop.

    Parameters
    ----------
    timeout:
        Run-level watchdog: maximum wall-clock seconds for the whole
        plan to drain, mirroring the threaded runtime's run deadline.
        ``None`` disables it for always-on serving flows whose sources
        never end until drained by a supervisor.
    emulate_costs:
        Charge each operator's cost model (``tuple_cost`` and friends)
        on the wall clock as a busy horizon, so modeled CPU cost
        parallelises across operators the way it does across the
        threaded engine's threads.  Charged cost is recorded as
        ``busy_time``.
    core_options:
        ``control_latency`` (wall-clock seconds here) and the feature
        options of :class:`~repro.engine.runtime.RuntimeCore`.
    """

    clock_class = WallClock

    def __init__(
        self,
        plan: QueryPlan,
        *,
        timeout: float | None = 60.0,
        emulate_costs: bool = False,
        **core_options: Any,
    ) -> None:
        super().__init__(plan, **core_options)
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        #: Set by every push; the driver sleeps on it when nothing is due.
        self._wake = asyncio.Event()
        #: One task per ``aevents()`` source, and per such source the
        #: event that asks its pump for the feed's next element.
        self._pumps: list[asyncio.Task] = []
        self._requests: dict[str, asyncio.Event] = {}
        self._pump_error: Exception | None = None

    # -- what the wall clock changes ------------------------------------------

    def _push(self, time: float, priority: int, kind: str, payload: Any) -> None:
        super()._push(time, priority, kind, payload)
        self._wake.set()

    def _source_due(
        self, source: SourceOperator, arrival: float, element: Any
    ) -> float:
        now = self.clock.now()
        if not self.emulate_costs:
            return now
        cost = source.cost_of(element)
        source.metrics.busy_time += cost
        return now + cost

    def _source_bound(self, source: SourceOperator) -> float:
        # Every element is due now, whatever its arrival: all of a run may
        # enter or none of it.  Under emulate_costs a costed source's
        # element enters on its own, when its cost has elapsed; one that
        # costs nothing is due now all the same.
        if (
            self.emulate_costs and source.needs_metering
        ) or super()._source_bound(source) == -math.inf:
            return -math.inf
        return math.inf

    def _jump(self, due: float) -> bool:
        return due <= self.clock.now()

    def _earliest_start(self) -> float:
        return self.clock.now()

    def _input_dry(self, operator: Operator) -> None:
        operator.flush_outputs()

    # -- async sources ---------------------------------------------------------

    def _open_source(self, source: SourceOperator) -> None:
        aevents = getattr(source, "aevents", None)
        if aevents is None:
            super()._open_source(source)
            return
        request = self._requests[source.name] = asyncio.Event()
        pump = asyncio.ensure_future(self._pump(source, aevents(), request))
        pump.set_name(f"pump-{source.name}")
        self._pumps.append(pump)

    async def _pump(
        self,
        source: SourceOperator,
        aevents: AsyncIterable[tuple[float, Any]],
        request: asyncio.Event,
    ) -> None:
        """Feed one async source's events onto the heap, one at a time.

        An event is an element, or a *run*: a list of tuples the feed had
        ready together (``Flow.ingest``'s channel yields what is
        buffered), which enters the plan as one source event.  Modeled
        costs are charged per element, so under ``emulate_costs`` a run
        goes in element by element.

        An event that lands at the head of the heap already due is
        stepped right here: it is the step the driver would take next,
        and taking it saves waking the driver once per event -- a burst
        buffered in the feed is emitted in one go and the driver wakes
        once, for the page it completed.  Anything else due first (a
        pause for this source, a consumer's page) keeps its turn.
        """
        skip = self.replayed_prefix(source)
        try:
            async for _arrival, event in aevents:
                if skip:  # recovery run: not what was consumed before
                    run = event if isinstance(event, list) else [event]
                    event, skip = run[skip:], max(0, skip - len(run))
                    if not event:
                        continue
                singly = self.emulate_costs and isinstance(event, list)
                for element in event if singly else (event,):
                    request.clear()
                    payload = (source, element)
                    self._push(
                        self._source_due(source, 0.0, element),
                        _PRIO_SOURCE, "source", payload,
                    )
                    head = self._events[0]
                    if head[4] is payload and head[0] <= self.clock.now():
                        self._step()
                    await request.wait()
            self._push(self.clock.now(), _PRIO_SOURCE, "source", (source, None))
        except Exception as error:  # noqa: BLE001 - re-raised by the driver
            self._pump_error = error
            self._wake.set()

    def _schedule_next_source_event(self, source: SourceOperator) -> None:
        request = self._requests.get(source.name)
        if request is None:
            super()._schedule_next_source_event(source)
            return
        wants_flush = getattr(source, "wants_flush", None)
        if wants_flush is not None and wants_flush():
            # Interactive feed gone quiet (Flow.ingest's channel is
            # empty): flush partial pages now rather than batching them
            # against input that may be seconds away.
            source.flush_outputs()
            self._after_activity(source)
        request.set()

    # -- run -------------------------------------------------------------------

    async def _drive(self) -> None:
        """Step the heap as its head falls due; sleep when nothing is."""
        self._prime()
        loop = asyncio.get_running_loop()
        events, clock, wake = self._events, self.clock, self._wake
        slice_end = clock.now() + _TIME_SLICE
        while True:
            now = clock.now()
            if events and events[0][0] <= now:
                self._step()
                if now < slice_end:
                    continue
                await asyncio.sleep(0)
            elif all(op.finished for op in self.plan):
                # Entries still on the heap are moot: an action or
                # in-flight control due after the plan drained never
                # fires -- the stream is over.
                return
            else:
                wake.clear()
                timer = (
                    loop.call_later(events[0][0] - now, wake.set)
                    if events else None
                )
                try:
                    await wake.wait()
                finally:
                    if timer is not None:
                        timer.cancel()
            # Pumps ran only while the driver was suspended just now.
            if self._pump_error is not None:
                raise self._pump_error
            slice_end = clock.now() + _TIME_SLICE

    async def arun(self) -> RunResult:
        """Run the plan on the *current* event loop (async entry point)."""
        self._begin()
        try:
            try:
                async with asyncio.timeout(self.timeout) as watchdog:
                    await self._drive()
            except TimeoutError:
                if not watchdog.expired():
                    raise  # an operator's own TimeoutError, not ours
                raise EngineError(
                    f"plan did not finish within {self.timeout}s"
                ) from None
            finally:
                for pump in self._pumps:
                    pump.cancel()
                await asyncio.gather(*self._pumps, return_exceptions=True)
        except BaseException as error:
            # Fail anyone parked on an unfinished operator (an
            # AwaitableSink's client coroutines) instead of leaving them
            # awaiting an on_finish that will never come.
            self._notify_run_aborted(error)
            raise
        return self._finalise()

    def run(self) -> RunResult:
        """Run the plan to completion (synchronous entry point).

        Owns a private event loop via ``asyncio.run``.  From inside an
        already-running loop, blocking here would deadlock the loop on
        itself -- ``await engine.arun()`` instead.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.arun())
        raise EngineError(
            "AsyncioEngine.run() cannot block inside a running event "
            "loop; await engine.arun() instead"
        )
