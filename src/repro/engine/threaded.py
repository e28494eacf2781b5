"""Threaded runtime: the NiagaraST-faithful execution mode.

One Python thread per operator, exactly the paper's architecture (section
5): "Operators run as threads connected by inter-operator queues ...  each
operator has an object that it sleeps on when it has no work to do.  An
operator is awakened when a new data page or control message is sent to
it."

Scheduling state (control draining, completion, pause bookkeeping, page
hand-off) is serialised by a single plan lock, but **page processing runs
outside it**: each operator thread pulls a page under the lock, releases
it, processes the page -- emitting into per-queue-mutex-guarded
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
/ / ``_on_paused`` / ``_on_resumed``) is a
``notify_all`` on one ``threading.Condition``, and a control message
still in flight under ``control_latency`` becomes a per-operator wake-up
deadline, recomputed on every drain, that bounds that operator's next
wait.  Waits are purely notification-driven -- every state change (page
flushed, queue closed, control sent) is followed by a ``notify_all``,
with page-ready and close events announced by the
:class:`~repro.stream.queues.DataQueue` itself through its attached
:class:`~repro.stream.waiters.ThreadConditionWaiter` -- so idle operators
consume no CPU; the run-level ``timeout`` is only a watchdog on thread
joins.  Operators receive whole
pages through :meth:`~repro.operators.base.Operator.process_page` with no
``meter``, since wall-clock time needs no per-element metering.

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

import threading
import time
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
        Run-level watchdog: maximum wall-clock seconds to wait for each
        operator thread to finish (worker waits themselves are untimed and
        purely notification-driven).
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
        forking, so every worker's timestamps are comparable).
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
        #: Earliest pending-but-unarrived control arrival per operator;
        #: bounds that operator's next wait so delivery is not missed.
        self._control_deadline: dict[str, float] = {}
        self._action_errors: list[BaseException] = []
        #: First exception raised inside an operator thread.  It aborts
        #: the whole run: every body checks the flag when it wakes, so
        #: the run fails fast instead of hanging until the watchdog.
        self._abort_error: BaseException | None = None

    def _run_action(self, action: Callable[[], None]) -> None:
        # Runs on a timer thread: a raised exception would otherwise be
        # swallowed there and the run would report success with the
        # action's effect silently missing.  Capture it; run() re-raises.
        try:
            with self._lock:
                action()
                self._wakeup.notify_all()
        except BaseException as error:  # noqa: BLE001 - re-raised in run()
            with self._lock:
                self._action_errors.append(error)
                self._wakeup.notify_all()

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

    def drain_control(self, operator: Operator) -> bool:
        # Deadlines are recomputed from scratch on every drain: the core
        # re-defers whatever is still in flight.
        self._control_deadline.pop(operator.name, None)
        return super().drain_control(operator)

    def _defer_control(self, operator: Operator, arrival: float) -> None:
        deadline = self._control_deadline.get(operator.name)
        if deadline is None or arrival < deadline:
            self._control_deadline[operator.name] = arrival

    # -- thread bodies --------------------------------------------------------------

    def _wait_for_work(self, operator: Operator) -> None:
        """Sleep until a page or control message arrives.

        Purely notification-driven; the only timed wait is the arrival
        deadline of an in-flight (deferred) control message.
        """
        deadline = self._control_deadline.get(operator.name)
        self._wakeup.wait(
            None if deadline is None
            else max(0.0, deadline - self.clock.now())
        )

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
                    self._wait_for_work(source)
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
                    self._wait_for_work(operator)
                    continue
                page, port = None, None
                for candidate in operator.inputs:
                    if candidate is None:
                        continue
                    page = candidate.queue.get_page()
                    if page is not None:
                        port = candidate
                        break
                if page is None:
                    self.check_input_completion(operator)
                    if operator.finished:
                        return
                    self._wait_for_work(operator)
                    continue
                operator.set_now(self.clock.now())
            # Page processing runs OUTSIDE the plan lock: emission goes
            # into mutex-guarded queues, per-operator state is only ever
            # touched by this thread, and control for this operator waits
            # until the next loop turn (control-before-data is preserved
            # per page, exactly as before).  This is what lets shard
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

    def _elastic_body(self, stop: threading.Event) -> None:
        """Controller ticker: observe/decide/apply every ``interval``.

        Ticks run under the plan lock -- the controller reads operator
        counters and enqueues control, both of which the operator
        threads also do under that lock -- so no new synchronisation is
        needed; the partition applies decisions from its own thread.
        """
        interval = self.elastic.config.interval
        try:
            while not stop.wait(interval):
                with self._lock:
                    if self._abort_error is not None:
                        return
                    self.elastic.tick(self.clock.now())
                    self._wakeup.notify_all()
        except BaseException as error:  # noqa: BLE001 - re-raised in run()
            with self._lock:
                if self._abort_error is None:
                    self._abort_error = error
                self._wakeup.notify_all()

    def _guard_body(
        self, body: Callable[[Operator], None], operator: Operator
    ) -> None:
        """Thread target: run ``body`` and abort the run on exception.

        Without this, a thread dying mid-page would leave the rest of the
        plan waiting on data that never comes until the watchdog fires;
        instead the first error is captured, every sleeping body is woken
        to check the abort flag, and :meth:`run` re-raises it.
        """
        try:
            body(operator)
        except BaseException as error:  # noqa: BLE001 - re-raised in run()
            with self._lock:
                if self._abort_error is None:
                    self._abort_error = error
                self._wakeup.notify_all()

    # -- run -------------------------------------------------------------------------

    def _executed_operators(self) -> list[Operator]:
        """The operators this runtime starts threads for.

        The whole plan by default; a multiprocess worker restricts this to
        its owned group (remote operators run in their owning workers).
        """
        return list(self.plan)

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
            for edge in op.outputs:
                edge.queue.enable_thread_safety()
                edge.queue.attach_waiter(self._waiter)
            for port in op.inputs:
                if port is not None:
                    port.queue.enable_thread_safety()
                    port.queue.attach_waiter(self._waiter)
        self._start_operators()
        threads: list[threading.Thread] = []
        for op in executed:
            if isinstance(op, SourceOperator):
                body, args = self._source_body, (op,)
            else:
                body, args = self._operator_body, (op,)
            thread = threading.Thread(
                target=self._guard_body, args=(body,) + args,
                name=f"op-{op.name}", daemon=True,
            )
            threads.append(thread)
        timers: list[threading.Timer] = []
        for when, action, _owner in self._actions:
            timer = threading.Timer(when, self._run_action, args=(action,))
            timer.daemon = True
            timers.append(timer)
        ticker: threading.Thread | None = None
        ticker_stop = threading.Event()
        if self.elastic is not None:
            ticker = threading.Thread(
                target=self._elastic_body, args=(ticker_stop,),
                name="elastic-controller", daemon=True,
            )
            ticker.start()
        for thread in threads:
            thread.start()
        for timer in timers:
            timer.start()
        try:
            for thread in threads:
                thread.join(self.timeout)
                if thread.is_alive():
                    raise EngineError(
                        f"operator thread {thread.name} did not finish "
                        f"within {self.timeout}s"
                    )
        finally:
            # cancel() is a no-op on a callback that is already running:
            # join the timer threads too, so a late-firing action cannot
            # mutate state concurrently with result building or report
            # its error after we checked for one.
            for timer in timers:
                timer.cancel()
            for timer in timers:
                timer.join(self.timeout)
            if ticker is not None:
                ticker_stop.set()
                ticker.join(self.timeout)
        if self._abort_error is not None:
            raise self._abort_error
        if self._action_errors:
            raise self._action_errors[0]
        return self.build_result(self.collect_metrics())
