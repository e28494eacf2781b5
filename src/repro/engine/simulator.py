"""Deterministic discrete-event simulator: the primary execution engine.

Paper cross-reference: section 5 ("Implementation") fixes NiagaraST's
runtime as one thread per operator connected by page queues, with
control messages "given high priority and processed before pending
tuples"; sections 3-4 define the feedback semantics whose timing
(Figures 5-6, the PACE divergence bounds of section 3.2) the
experiments measure.  The simulator models that runtime on a **virtual
clock**:

* every operator has a ``busy_until`` horizon; processing an element
  advances it by the operator's cost model;
* sources replay ``(arrival_time, element)`` timelines: a source event
  is an element of its cursor (:meth:`~repro.operators.base.
  SourceOperator.cursor`) due at its arrival time, and the handler takes
  the slice behind it that would be the next heap events anyway,
  emitting consecutive tuples as one run (see
  :meth:`Simulator._handle_source`) -- which moves no timestamp; a
  source fed from outside the heap (the asyncio engine's pump) may hand
  over a run ready-made, which leaves in the same cuts
  (:meth:`Simulator._handle_fed_run`);
* control messages (feedback!) are delivered with a configurable latency
  and always drain **before** data pages -- NiagaraST's "control messages
  are given high priority and processed before pending tuples";
* emission times equal the virtual time at which the producing element
  finished processing, so output-pattern figures (Figures 5-6) fall out of
  the sink logs directly.

Determinism: events are ordered by ``(time, priority, seq)`` where ``seq``
is a global counter, so runs are exactly reproducible.  This engine is the
substitution for the paper's 2.8 GHz Pentium 4 testbed ("Timing model" in
``docs/architecture.md``): cost *ratios* are preserved while removing
host-machine noise.  Because every operator advances its own
``busy_until`` horizon, the virtual clock models one CPU *per operator*
(NiagaraST's thread-per-operator architecture) -- so a sharded plan's
makespan shrinks near-linearly with the fanout on CPU-bound pipelines
(``tests/test_virtual_time_results.py``), and a ``Partition``'s stable
hash keeps replica runs byte-reproducible.

Architecturally the simulator is a *policy* layer over
:class:`~repro.engine.runtime.RuntimeCore` (``docs/architecture.md``): the
core owns control draining, completion bookkeeping and operator finish;
this module owns the event heap, the virtual clock, and the cost model.
Pages are handed to operators through
:meth:`~repro.operators.base.Operator.process_page`; zero-cost operators
take the page whole, costed operators get a per-element ``meter`` that
charges their cost model and stamps the virtual clock before each element
is delivered as a page of one.

The scheduler is shared with the asyncio engine: :meth:`Simulator._step`
pops one event and runs its handler without touching the clock, and the
loop around it decides what "the next event's time has come" means.  This
module's loop jumps a virtual clock there;
:class:`~repro.engine.async_engine.AsyncioEngine` subclasses
:class:`Simulator` on a wall clock and waits.  What differs between the
two is confined to a few small hooks (``clock_class``,
``emulate_costs``, ``_jump``, ``_source_due``, ``_source_bound``,
``_earliest_start``, ``_input_dry``, ``_quiescent``, ``_open_source``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult, RuntimeCore
from repro.errors import EngineError
from repro.operators.base import (
    InputPort,
    Operator,
    SourceCursor,
    SourceOperator,
)
from repro.stream.clock import Clock, VirtualClock

__all__ = ["Simulator", "RunResult"]

# Event priorities: control preempts everything at equal timestamps.
_PRIO_CONTROL = 0
_PRIO_ACTION = 1
_PRIO_SOURCE = 2
_PRIO_WORK = 3


class Simulator(RuntimeCore):
    """Run a query plan to completion on virtual time.

    Parameters
    ----------
    max_events:
        Safety valve against runaway plans.
    core_options:
        ``control_latency`` (virtual seconds here) and the feature
        options of :class:`~repro.engine.runtime.RuntimeCore`.
    """

    #: The clock the event heap is ordered on.
    clock_class: type[Clock] = VirtualClock
    #: Virtual time always charges operator cost models; the wall-clock
    #: subclass charges them only under its ``emulate_costs`` keyword.
    emulate_costs = True

    def __init__(
        self,
        plan: QueryPlan,
        *,
        max_events: int = 50_000_000,
        **core_options: Any,
    ) -> None:
        super().__init__(plan, self.clock_class(), **core_options)
        self.max_events = max_events
        self._events: list[tuple[float, int, int, str, Any]] = []
        self._seq = itertools.count()
        self._busy_until: dict[str, float] = {}
        self._work_scheduled: dict[str, bool] = {}
        self._source_cursors: dict[str, SourceCursor] = {}
        self._rr_port: dict[str, int] = {}
        self._events_processed = 0
        #: What came due while its source was paused: one entry per
        #: paused source -- the element pulled ahead of the pause, or the
        #: rest of the run an async feed handed over -- and nothing
        #: further is pulled; replayed by ``_on_resumed``.
        self._paused_source_pending: dict[str, Any] = {}

    @property
    def runtime(self) -> "Simulator":
        """The runtime surface operators see (the simulator itself)."""
        return self

    # ------------------------------------------------------------ scheduling

    def _push(self, time: float, priority: int, kind: str, payload: Any) -> None:
        # An event can be *requested* for the past (e.g. work on a page
        # that has been sitting ready while the consumer was busy); it is
        # processed immediately -- virtual time never rewinds.
        heapq.heappush(
            self._events,
            (max(time, self.clock.now()), priority, next(self._seq), kind,
             payload),
        )

    def schedule_control(self, operator: Operator, at: float | None = None) -> None:
        sent = self.clock.now() if at is None else max(at, self.clock.now())
        self._push(
            sent + self.control_latency,
            _PRIO_CONTROL,
            "control",
            operator,
        )

    def schedule_work(self, operator: Operator, at: float | None = None) -> None:
        if self._work_scheduled.get(operator.name):
            return
        self._work_scheduled[operator.name] = True
        arrival = self.clock.now() if at is None else at
        self._push(
            max(arrival, self._busy_until[operator.name]),
            _PRIO_WORK,
            "work",
            operator,
        )

    # -- RuntimeCore policy hooks --------------------------------------------------

    def notify_control(self, operator: Operator, at: float | None = None) -> None:
        self.schedule_control(operator, at=at)

    def _activity_time(self, operator: Operator) -> float:
        return max(self._busy_until[operator.name], self.clock.now())

    def _charge_control(self, operator: Operator) -> None:
        cost = operator.control_cost if self.emulate_costs else 0.0
        busy = max(self._busy_until[operator.name], self.clock.now())
        busy += cost
        self._busy_until[operator.name] = busy
        operator.metrics.busy_time += cost
        operator.set_now(busy)

    def _defer_control(self, operator: Operator, arrival: float) -> None:
        self._push(arrival, _PRIO_CONTROL, "control", operator)

    def _on_finished(self, operator: Operator, at: float) -> None:
        self._after_activity(operator, at=at)

    def _on_paused(self, operator: Operator, at: float) -> None:
        # The pause flushed the operator's open output pages; stamp them
        # visible so consumers can drain to their low-water marks.
        self._after_activity(operator, at=at)

    def _on_resumed(self, operator: Operator, at: float) -> None:
        pending = self._paused_source_pending.pop(operator.name, None)
        if pending is not None:
            self._push(at, _PRIO_SOURCE, "source", (operator, pending))
        else:
            self.schedule_work(operator)

    # ------------------------------------------------------------------ run

    def _run(self) -> RunResult:
        self._prime()
        while self._events:
            if self._events_processed >= self.max_events:
                raise EngineError(
                    f"exceeded max_events={self.max_events}; "
                    "plan is likely livelocked"
                )
            self._jump(self._events[0][0])
            self._step()
        return self._finalise()

    def _prime(self) -> None:
        """Start the operators and seed the heap with the first events."""
        for op in self.plan:
            self._busy_until[op.name] = 0.0
            self._work_scheduled[op.name] = False
            self._rr_port[op.name] = 0
        self._start_operators()
        for source in self.plan.sources():
            self._open_source(source)
        for when, action, _owner in self._actions:
            self._push(when, _PRIO_ACTION, "action", action)
        if self.elastic is not None:
            self._push(
                self.elastic.config.interval, _PRIO_ACTION, "elastic", None
            )

    def _step(self) -> None:
        """Pop the earliest event and run its handler to completion.

        The caller has already brought the clock to the event's time
        (jumped there, or waited for it).
        """
        self._events_processed += 1
        _time, _prio, _seq, kind, payload = heapq.heappop(self._events)
        if kind == "source":
            self._handle_source(payload)
        elif kind == "control":
            self._handle_control(payload)
        elif kind == "action":
            payload()
        elif kind == "elastic":
            self._handle_elastic()
        else:
            self._handle_work(payload)

    # ------------------------------------------------------------- sources

    def _open_source(self, source: SourceOperator) -> None:
        """Begin replaying ``source``'s timeline."""
        self._source_cursors[source.name] = self.source_cursor(source)
        self._schedule_next_source_event(source)

    def _schedule_next_source_event(self, source: SourceOperator) -> None:
        cursor = self._source_cursors[source.name]
        taken = cursor.take(1)
        if not taken:
            self._push(self.clock.now(), _PRIO_SOURCE, "source", (source, None))
            return
        element = taken[0]
        self._push(self._source_due(source, cursor.arrival, element),
                   _PRIO_SOURCE, "source", (source, element))

    def _source_due(
        self, source: SourceOperator, arrival: float, element: Any
    ) -> float:
        """When a replayed element enters the plan: its recorded arrival."""
        return arrival

    def _source_bound(self, source: SourceOperator) -> float:
        """Arrivals of ``source``'s elements below this are due before
        anything on the heap.

        A pushed source event would carry the largest seq, so it is next
        only if it sorts strictly before the head: before the head's time,
        or at it when the head is work.  Nothing is when the clock has
        reached the head (an element due earlier enters late, at *now*).
        """
        events = self._events
        if not events:
            return math.inf
        head, priority = events[0][0], events[0][1]
        if priority > _PRIO_SOURCE:
            head = math.nextafter(head, math.inf)
        return head if self.clock.now() < head else -math.inf

    def _jump(self, due: float) -> bool:
        """Bring the clock to ``due``; False when its time has not come.

        Virtual time is always there: the clock jumps.
        """
        self.clock.advance_to(due)
        return True

    def _take_due(self, source: SourceOperator, limit: int) -> list:
        """The next run off ``source``'s cursor that the heap would hand
        straight back: at most ``limit`` elements, each counted as an
        event."""
        limit = min(limit, self.max_events - self._events_processed)
        before = self._source_bound(source)
        if limit < 1 or before == -math.inf:
            return []
        taken = self._source_cursors[source.name].take(limit, before)
        self._events_processed += len(taken)
        return taken

    def _reach(self, cursor: SourceCursor) -> None:
        """Bring the clock to the arrival of the element last taken."""
        if cursor.arrival > self.clock.now():
            self._jump(cursor.arrival)

    def _handle_source(self, payload: tuple[SourceOperator, Any]) -> None:
        """Admit a source element -- and every one behind it that the heap
        would hand straight back.

        Pushed, the source's next element would be popped right back
        whenever nothing else on the heap sorts before it; that round trip
        is skipped, which changes no order.  So the source's cursor hands
        out, in one slice, the tuples due before the heap's head
        (:meth:`_source_bound`) that fit the run: the run is cut at a
        punctuation, before any other event's turn, at the end of the
        timeline, and where emitting more would no longer be *quiet* --
        completing a page or reaching a high-water mark
        (:meth:`~repro.engine.runtime.RuntimeCore.source_run_room`).  A
        run leaves as one dispatch
        (:meth:`~repro.engine.runtime.RuntimeCore.dispatch_source_run`) at
        the clock of its last element; a run held is quiet, so it stamps
        nothing and schedules nobody and the heap already reads as it
        will after it.
        """
        source, element = payload
        if element is None:  # exhausted: close downstream
            # Finishing is legal even while paused (rule 2): the queues
            # close, consumers drain them, and the pause dies with the
            # stream -- this is what keeps a paused-at-end plan live.
            self.finish_operator(source)
            return
        if self.is_paused(source):
            # Honour the pause: stash the element and stop the event
            # chain; _on_resumed replays it when relief arrives.
            self._paused_source_pending[source.name] = element
            return
        cursor = self._source_cursors.get(source.name)
        if cursor is None:
            self._handle_fed_run(source, element)
            return
        run = [element]
        if not element.is_punctuation:  # fill the run it opens
            more = self._take_due(source, self.source_run_room(source) - 1)
            if more and more[0].is_punctuation:
                self._emit_source_run(source, run)
                run = more
            else:
                run += more
            self._reach(cursor)
        while True:
            self._emit_source_run(source, run)
            run = self._take_due(source, self.source_run_room(source))
            if not run:
                self._schedule_next_source_event(source)
                return
            self._reach(cursor)

    def _handle_fed_run(self, source: SourceOperator, event: Any) -> None:
        """Admit what an async feed's pump handed over: an element or a run.

        Fed from outside the heap there is no timeline to run ahead on;
        the feed already says what is there -- a list of tuples.  It
        leaves in the same quiet cuts a replayed run does, and what is
        left after a cut goes back on the heap for *now*: behind a pause
        the cut may have provoked (control sorts first, and the stash
        then holds the remainder), ahead of the feed's next event, which
        is only asked for once the run is out.
        """
        run = event if isinstance(event, list) else [event]
        rest: list = []
        if len(run) > 1:
            room = self.source_run_room(source)
            run, rest = run[:room], run[room:]
        if run:
            self._events_processed += len(run) - 1  # elements, not events
            self._emit_source_run(source, run)
        if rest:
            self._push(self.clock.now(), _PRIO_SOURCE, "source", (source, rest))
        else:
            self._schedule_next_source_event(source)

    def _emit_source_run(self, source: SourceOperator, run: list) -> None:
        """Dispatch ``run`` at the current clock; stamp, wake, check marks."""
        self.dispatch_source_run(source, run)
        self._after_activity(source, at=self.clock.now())

    # ------------------------------------------------------------- control

    def _handle_control(self, operator: Operator) -> None:
        if operator.finished:
            # Late feedback to a finished operator is dropped; the stream
            # is over and there is nothing left to exploit.
            return
        self.drain_control(operator)
        self._after_activity(operator)
        if not self.is_paused(operator) and self._has_data_work(operator):
            self.schedule_work(operator)

    # -------------------------------------------------------------- elastic

    def _quiescent(self) -> bool:
        """True when nothing can happen any more: an empty heap."""
        return not self._events

    def _handle_elastic(self) -> None:
        """One controller tick on the engine's cadence, self-rescheduling.

        The chain stops when the plan has finished *or* the run is
        quiescent after the tick -- an unconditional reschedule would
        keep a virtual-time run alive forever (a quiet but unfinished
        plan still has its own events pending).
        """
        now = self.clock.now()
        self.elastic.tick(now)
        if not self._quiescent() and not all(
            op.finished for op in self.plan
        ):
            self._push(
                now + self.elastic.config.interval,
                _PRIO_ACTION, "elastic", None,
            )

    # ---------------------------------------------------------------- work

    def _has_data_work(self, operator: Operator) -> bool:
        return any(
            port is not None and port.queue.ready_pages > 0
            for port in operator.inputs
        )

    def _next_port_with_work(self, operator: Operator) -> InputPort | None:
        """The port whose head page became available earliest.

        Ties break round-robin so neither input of a join can starve.
        """
        ports = [p for p in operator.inputs if p is not None]
        if not ports:
            return None
        start = self._rr_port[operator.name] % len(ports)
        best = None
        best_at = None
        for offset in range(len(ports)):
            port = ports[(start + offset) % len(ports)]
            head = port.queue.peek_page()
            if head is None:
                continue
            available = head.available_at or 0.0
            if best_at is None or available < best_at - 1e-12:
                best, best_at = port, available
        if best is not None:
            self._rr_port[operator.name] = (
                ports.index(best) + 1
            ) % max(1, len(ports))
        return best

    def _make_meter(
        self, operator: Operator, port_index: int
    ) -> Callable[[Any], None]:
        """Per-element accounting hook for costed operators.

        Charges the admission cost and advances the operator's busy
        horizon before each element is dispatched; flushes produced by the
        *previous* element are stamped at that element's finish time.
        The final element's flushes are stamped by the trailing
        ``_after_activity`` in :meth:`_handle_work`.
        """
        name = operator.name
        first = True

        def meter(element: Any) -> None:
            nonlocal first
            if not first:
                self._after_activity(operator, at=self._busy_until[name])
            first = False
            cost = operator.admission_cost(port_index, element)
            busy = self._busy_until[name] + cost
            operator.metrics.busy_time += cost
            self._busy_until[name] = busy
            operator.set_now(busy)

        return meter

    def _handle_work(self, operator: Operator) -> None:
        self._work_scheduled[operator.name] = False
        if operator.finished:
            return
        self.drain_control(operator)
        if self.is_paused(operator):
            # Transitive pressure: a paused operator processes no data,
            # so its own input queues fill and pause *its* producers.
            # Exhausted inputs may still finish it (rule 2).
            self.check_input_completion(operator)
            return
        inputs = operator.inputs
        if len(inputs) == 1:
            # One input: its queue is the only place a page can wait (the
            # round-robin pick is for joins and unions).
            port = inputs[0]
            if port is not None and not port.queue.ready_pages:
                port = None
        else:
            port = self._next_port_with_work(operator)
        if port is not None:
            page = port.queue.get_page()
            busy = max(
                self._busy_until[operator.name],
                page.available_at or 0.0,
                self._earliest_start(),
            )
            self._busy_until[operator.name] = busy
            operator.set_now(busy)
            # A zero-cost operator takes the page whole: the virtual
            # clock cannot move during it, so that is timing-exact.
            operator.process_page(
                port.index, page,
                meter=(
                    self._make_meter(operator, port.index)
                    if self.emulate_costs and operator.needs_metering
                    else None
                ),
            )
            self.check_relief(
                operator, at=self._busy_until[operator.name]
            )
        more = any(
            port is not None and port.queue.ready_pages for port in inputs
        )
        if not more:
            self._input_dry(operator)
        self.check_input_completion(operator)
        self._after_activity(operator, at=self._busy_until[operator.name])
        if more and not operator.finished:
            self.schedule_work(operator, at=self._earliest_ready(operator))

    def _earliest_start(self) -> float:
        """Floor on the time an operator may start a page.

        None on virtual time: each operator is its own CPU, so an idle
        one starts a page the moment it became available even when the
        work event fires later (behind a sibling port's page, say).
        """
        return 0.0

    def _input_dry(self, operator: Operator) -> None:
        """``operator`` has no ready input page left after this step."""

    # -------------------------------------------------------------- plumbing

    def _after_activity(self, operator: Operator, at: float | None = None) -> None:
        """Stamp freshly flushed pages, wake consumers, check watermarks."""
        stamp_time = self.clock.now() if at is None else at
        for edge in operator.outputs:
            flushed = edge.queue.stamp_ready(stamp_time)
            if flushed or edge.queue.closed:
                self.schedule_work(edge.consumer, at=stamp_time)
        self.check_pressure(operator, at=stamp_time)

    def _earliest_ready(self, operator: Operator) -> float:
        """Earliest availability among the operator's pending pages."""
        earliest = None
        for port in operator.inputs:
            if port is None:
                continue
            head = port.queue.peek_page()
            if head is None:
                continue
            available = head.available_at or 0.0
            if earliest is None or available < earliest:
                earliest = available
        return self.clock.now() if earliest is None else earliest

    def _finalise(self) -> RunResult:
        metrics = self.collect_metrics()
        # A checkpoint marker counts as one event, like the source element
        # it follows: one per snapshot a source took.
        metrics.events_processed = self._events_processed + sum(
            source.metrics.checkpoints for source in self.plan.sources()
        )
        metrics.makespan = max(
            [self.clock.now()] + list(self._busy_until.values())
        )
        return self.build_result(metrics)
