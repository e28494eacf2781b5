"""Threaded runtime: the NiagaraST-faithful execution mode.

One Python thread per operator, exactly the paper's architecture (section
5): "Operators run as threads connected by inter-operator queues ...  each
operator has an object that it sleeps on when it has no work to do.  An
operator is awakened when a new data page or control message is sent to
it."

Scheduling state (control draining, completion, pause bookkeeping, page
hand-off) is serialised by a single plan lock, but **page processing runs
outside it**: each operator thread pulls a page under the lock -- every
ready page of one input that fits the room its bounded output edges
leave, merged into one -- releases it, processes the page -- emitting
into per-queue-mutex-guarded
:class:`~repro.stream.queues.DataQueue`\\ s (see
``DataQueue.enable_thread_safety``) -- and re-acquires the lock only for
the completion/watermark bookkeeping.  Operators on disjoint data
therefore execute concurrently; with GIL-releasing work (hashing, C
extensions) or ``emulate_costs`` sleeps, the plan scales across the shard
replicas of a ``Partition``/``ShardMerge`` region (a wall-clock claim:
``bench/run.py``'s to measure).  Per-operator structures (guards, hash
tables, window state) need no locks: every mutation happens on the owning
operator's thread -- feedback is drained by the receiver's own thread,
and a queue has exactly one producer and one consumer thread.
Timing-sensitive experiments use the simulator; this runtime exists to
show the feedback framework is not simulator-bound and to exercise real
concurrency.

Like the simulator, this engine is a *policy* layer over
:class:`~repro.engine.runtime.RuntimeCore` (``docs/architecture.md``): the
core owns control draining (including ``control_latency`` arrival
semantics, which this runtime honours on the wall clock), completion
bookkeeping and operator finish; this module owns the threads and their
wake-ups.  Every core policy hook (``notify_control`` / ``_on_finished``
/ ``_on_paused`` / ``_on_resumed``) is a ``notify_all`` on one
``threading.Condition``.  Waits are purely notification-driven -- every
state change (page flushed, queue closed, control sent) is followed by a
``notify_all``, with page-ready and close events announced by the
:class:`~repro.stream.queues.DataQueue` itself through its attached
:class:`~repro.stream.waiters.ThreadConditionWaiter` -- so idle operators
consume no CPU.  What is due at a *time* rather than on an event sits on
one due-ordered heap that one clock thread runs, under the plan lock, as
it falls due: :meth:`~repro.engine.runtime.RuntimeCore.at` actions and
the wake-up for a control message still in flight under
``control_latency``.  The first error anywhere -- an operator, a source,
a clock entry, the watchdog -- stops every thread and is raised once by
:meth:`~repro.engine.runtime.RuntimeCore.run`; the run-level ``timeout``
is one deadline for the whole run.  Operators receive whole pages through
:meth:`~repro.operators.base.Operator.process_page` with no ``meter``,
since wall-clock time needs no per-element metering.

Backpressure (``queue_capacity`` / bounded :class:`~repro.stream.queues.
DataQueue`) is honoured cooperatively: a source thread pulls its timeline
in runs sized so that none passes a high-water mark
(:meth:`ThreadedRuntime._source_runs`) and sleeps between runs while any
of its output edges is paused, and an operator thread pulls no pages
while paused -- both wake when the consumer's *resume*
flow-control punctuation is drained.  See :mod:`repro.engine.runtime` for
the shared watermark/signalling mechanism and ``docs/backpressure.md``
for the deadlock-avoidance rules.

Operators' ``now()`` reports wall-clock seconds since the run started, so
sink arrival logs remain meaningful (if noisy).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from functools import partial
from typing import Any, Callable, Iterator

from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult, RuntimeCore
from repro.errors import EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock
from repro.stream.waiters import ThreadConditionWaiter

__all__ = ["ThreadedRuntime"]


class ThreadedRuntime(RuntimeCore):
    """Run a plan with one thread per operator and wake-up signalling.

    Parameters
    ----------
    timeout:
        Run-level watchdog: wall-clock seconds the whole run may take
        (worker waits themselves are untimed and purely
        notification-driven).  When it passes, the run fails with
        :class:`~repro.errors.EngineError` and every thread stops at its
        next wake-up.
    emulate_costs:
        Charge each operator's cost model (``tuple_cost`` and friends)
        on the wall clock: the summed admission cost of a page is slept
        *outside* the plan lock before the page is processed (sources
        sleep per element).  This carries the repo's methodology -- cost
        models replace the paper's fixed testbed hardware -- onto the
        threaded engine: modeled CPU cost then parallelises across
        operator threads exactly as NiagaraST's real per-operator CPU
        time would, independent of the host's core count.  Slept cost is
        recorded as ``busy_time``.
    clock:
        Lets a coordinating engine share one wall-clock epoch across
        several runtimes (the multiprocess engine constructs it before
        forking, so every worker's timestamps -- and its actions' due
        times -- are comparable).
    core_options:
        ``control_latency`` (wall-clock seconds here) and the feature
        options of :class:`~repro.engine.runtime.RuntimeCore`.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        timeout: float = 60.0,
        emulate_costs: bool = False,
        clock: WallClock | None = None,
        **core_options: Any,
    ) -> None:
        super().__init__(
            plan, clock if clock is not None else WallClock(),
            **core_options,
        )
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        #: What queues notify when a page lands or the stream closes.
        self._waiter = ThreadConditionWaiter(self._wakeup)
        #: The clock thread sleeps on its own condition over the plan
        #: lock: a push wakes it, a page never does.
        self._ticking = threading.Condition(self._lock)
        #: ``(due, seq, thunk)`` on ``self.clock``, each run once.
        self._timed: list[tuple[float, int, Callable[[], Any]]] = []
        self._seq = itertools.count()
        #: Arrival times a control wake-up is already on the heap for.
        self._arrivals: set[float] = set()
        #: Set once the operator threads have joined: the stream is over
        #: and what is left on the heap never fires.
        self._over = False
        #: The first error anywhere in the run (see :meth:`_fail`).
        self._abort_error: BaseException | None = None

    def _push(self, due: float, thunk: Callable[[], Any]) -> None:
        """Put ``thunk`` on the clock thread's heap (plan lock held)."""
        heapq.heappush(self._timed, (due, next(self._seq), thunk))
        self._ticking.notify()

    def _fail(self, error: BaseException) -> None:
        """Keep the run's first error and wake every thread to stop on it.

        The lock is awaited at most ``timeout``: a thread stuck holding
        it cannot be woken anyway, and the watchdog must still raise.
        """
        locked = self._lock.acquire(timeout=self.timeout)
        if self._abort_error is None:
            self._abort_error = error
        if locked:
            self._wakeup.notify_all()
            self._ticking.notify()
            self._lock.release()

    # -- wake-ups: every RuntimeCore policy hook is a notify_all ------------------

    def notify_control(
        self, operator: Operator, at: float | None = None
    ) -> None:
        # ``at`` is a virtual-time hint only the heap scheduler needs;
        # arrival gating happens in the core's drain via
        # ``control_latency``.
        self._waiter.notify_all()

    def _on_finished(self, operator: Operator, at: float) -> None:
        self._waiter.notify_all()

    def _on_paused(self, operator: Operator, at: float) -> None:
        # The pause flushed open output pages; wake consumers to drain
        # them (that drain is what will eventually produce the resume).
        self._waiter.notify_all()

    def _on_resumed(self, operator: Operator, at: float) -> None:
        self._waiter.notify_all()

    def _defer_control(self, operator: Operator, arrival: float) -> None:
        # One wake-up per distinct arrival time: the clock thread wakes
        # every sleeper when it falls due, and the drain then takes the
        # message.
        if arrival not in self._arrivals:
            self._arrivals.add(arrival)
            self._push(arrival, partial(self._arrivals.discard, arrival))

    # -- thread bodies --------------------------------------------------------------

    def _room(self, operator: Operator) -> int:
        """Elements one step of ``operator``'s may take: the least room
        to high water on its bounded output edges.

        0 -- one page -- when it has no bounded output edge, when it has
        more than one input (a join's matches can outnumber what it
        takes, so its emission is not bounded by the room) and under
        ``emulate_costs``, whose modeled cost is slept page by page.
        """
        edges = self._bounded_outputs.get(operator.name)
        if edges is None or len(operator.inputs) > 1 or self.emulate_costs:
            return 0
        return min([
            edge.queue.capacity - edge.queue.occupancy for edge in edges
        ])

    def _source_runs(self, source: SourceOperator) -> Iterator[list]:
        """Cut ``source``'s timeline into runs, taken outside the plan lock.

        A run is consecutive tuples, or one punctuation on its own, taken
        off the source's cursor.  Its length is bounded by
        :meth:`~repro.engine.runtime.RuntimeCore.source_run_room`, read
        without the lock before the run is taken: only this thread
        shrinks the open page's room, and the consumer can only widen
        the room to high water, so a stale read errs short.  Under
        ``emulate_costs`` every element is charged its own sleep, so runs
        are of one.
        """
        cursor = self.source_cursor(source)
        while True:
            run = cursor.take(
                1 if self.emulate_costs else self.source_run_room(source)
            )
            if not run:
                return
            yield run

    def _source_body(self, source: SourceOperator) -> None:
        for run in self._source_runs(source):
            if self.emulate_costs:
                cost = source.cost_of(run[0])
                if cost > 0.0:
                    time.sleep(cost)  # outside the lock: sources overlap
                    source.metrics.busy_time += cost
            with self._lock:
                if self._abort_error is not None:
                    return
                self.drain_control(source)
                while self.is_paused(source):
                    # Honour backpressure: sleep until the consumer's
                    # resume arrives (every control send notifies).
                    self._wakeup.wait()
                    if self._abort_error is not None:
                        return
                    self.drain_control(source)
                self.dispatch_source_run(source, run)
                self.check_pressure(source)
                self._wakeup.notify_all()
        with self._lock:
            if self._abort_error is not None:
                return
            # Same rule as the simulator: arrived control is delivered,
            # but feedback still in flight toward an exhausted source is
            # dropped -- the stream is over and there is nothing left to
            # exploit.
            self.drain_control(source)
            self.finish_operator(source)
            self._wakeup.notify_all()

    def _operator_body(self, operator: Operator) -> None:
        while True:
            with self._wakeup:
                if self._abort_error is not None:
                    return
                if self.drain_control(operator):
                    # Feedback handling may have emitted (partial results,
                    # flushes, a lane-stash replay); consumers must hear
                    # about it, and a replayed stash may refill a lane
                    # queue past its high-water mark.
                    self.check_pressure(operator)
                    self._wakeup.notify_all()
                if self.is_paused(operator):
                    # Transitive pressure: while paused this operator
                    # pulls no pages, so its own inputs back up and pause
                    # its producers.  Exhausted inputs may still finish
                    # it -- holding finish hostage to a resume could
                    # deadlock the tail of the stream.
                    self.check_input_completion(operator)
                    if operator.finished:
                        return
                    self._wakeup.wait()
                    continue
                # The ready pages of one input that fit the room on the
                # bounded output edges go in one step (at least one page,
                # at most one punctuation): one lock round trip, one walk
                # and one wake-up for all of them.  Read under the lock;
                # only this thread fills those queues.
                room = self._room(operator)
                page, port = None, None
                for candidate in operator.inputs:
                    page = candidate.queue.get_page(room)
                    if page is not None:
                        port = candidate
                        break
                if page is None:
                    self.check_input_completion(operator)
                    if operator.finished:
                        return
                    self._wakeup.wait()
                    continue
                operator.set_now(self.clock.now())
            # Page processing runs OUTSIDE the plan lock: emission goes
            # into mutex-guarded queues, per-operator state is only ever
            # touched by this thread, and control for this operator waits
            # until the next loop turn (control that arrived before the
            # step is taken before it; what arrives during it, at the next
            # step).  This is what lets shard
            # replicas -- and any operators on disjoint data -- execute
            # concurrently instead of serialising on the plan lock.
            if self.emulate_costs and operator.needs_metering:
                cost = operator.page_cost(port.index, page)
                if cost > 0.0:
                    time.sleep(cost)
                    operator.metrics.busy_time += cost
            operator.process_page(port.index, page)
            with self._wakeup:
                self.mark_done_ports(operator)
                self.check_relief(operator)
                self.check_pressure(operator)
                self._wakeup.notify_all()

    def _clock_body(self) -> None:
        """Run each heap entry as it falls due, under the plan lock.

        Actions read counters and enqueue control, as operator threads
        do under the same lock.  A thunk that raises fails the
        run before the lock is let go: no thread steps behind it.
        """
        timed, clock = self._timed, self.clock
        with self._lock:
            while not self._over and self._abort_error is None:
                wait = timed[0][0] - clock.now() if timed else None
                if wait is not None and wait <= 0.0:
                    _due, _seq, thunk = heapq.heappop(timed)
                    try:
                        thunk()
                    except BaseException as error:  # noqa: BLE001
                        self._fail(error)
                        return
                    self._wakeup.notify_all()
                else:
                    self._ticking.wait(wait)

    def _guard_body(self, operator: Operator) -> None:
        """Thread target: run ``operator``'s body; an error aborts the run.

        Without this, a thread dying mid-page would leave the rest of the
        plan waiting on data that never comes until the watchdog fires.
        """
        try:
            if isinstance(operator, SourceOperator):
                self._source_body(operator)
            else:
                self._operator_body(operator)
        except BaseException as error:  # noqa: BLE001 - raised by _run
            self._fail(error)

    # -- run -------------------------------------------------------------------------

    def _run(self) -> RunResult:
        executed = self._executed_operators()
        for op in executed:
            # Producers emit outside the plan lock; serialise each
            # queue's open-page/backlog hand-off with its own mutex, and
            # let the queue itself wake consumers when a page lands (the
            # shared waiter seam -- notified outside the mutex, so the
            # lock order is always waiter-after-queue, never inverted).
            # Input queues are prepared too: in a multiprocess worker a
            # consumer's input queue may be fed by a receiver thread
            # rather than a local producer thread.
            for link in op.outputs + op.inputs:
                link.queue.enable_thread_safety()
                link.queue.attach_waiter(self._waiter)
        self._start_operators()
        threads = [
            threading.Thread(target=self._guard_body, args=(op,),
                             name=f"op-{op.name}", daemon=True)
            for op in executed
        ]
        clock_thread = threading.Thread(
            target=self._clock_body, name="clock", daemon=True
        )
        with self._lock:
            for when, action, _owner in self._actions:
                self._push(when, action)
        deadline = time.monotonic() + self.timeout
        clock_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                self._fail(EngineError(
                    f"operator thread {thread.name} did not finish "
                    f"within {self.timeout}s"
                ))
                raise self._abort_error
        with self._lock:
            self._over = True
            self._ticking.notify()
        clock_thread.join()
        if self._abort_error is not None:
            raise self._abort_error
        return self.build_result(self.collect_metrics())
