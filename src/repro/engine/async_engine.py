"""Asyncio engine: coroutine-per-operator scheduling on one event loop.

The third execution backend over the shared runtime core, built for
network-facing sources and sinks (paper section 5 fixes NiagaraST's
runtime as thread-per-operator; related work on scalable data feeds --
Grover & Carey's AsterixDB ingestion, and the Röger & Mayer
parallelization survey, see PAPERS.md -- argues that ingesting from many
slow or remote endpoints should not burn an OS thread per operator).
This engine keeps the paper's architecture -- one worker per operator,
page queues between them, out-of-band high-priority control (section 5,
"control messages are given high priority and processed before pending
tuples") -- but the workers are coroutines multiplexed on one asyncio
event loop: thousands of idle sources cost nothing but a parked
``await``.

Like the simulator and the threaded runtime, this engine is a *policy*
layer over :class:`~repro.engine.runtime.RuntimeCore` (DESIGN.md section
3): the core owns control draining (``control_latency`` arrival
semantics on the wall clock, exactly as the threaded runtime), input
completion, finish, backpressure watermarks and shard-lane flow control;
this module owns the coroutines.  The wake-up half of the policy is the
shared :class:`~repro.engine.notify.NotificationPolicy` bound to an
:class:`~repro.stream.waiters.AsyncioConditionWaiter`: wake-ups ride an
``asyncio.Condition`` mirroring the threaded engine's
``threading.Condition`` discipline -- every state change notifies, idle
coroutines ``await`` the condition (no polling), and the only timed wait
is the arrival deadline of an in-flight control message.  Paused
coroutines likewise ``await`` instead of sleeping a thread, so
backpressure (``queue_capacity``, docs/backpressure.md) parks work
without occupying the loop.

Scheduling discipline: each coroutine runs its synchronous engine steps
while holding the condition's lock -- free under cooperative scheduling,
since only one coroutine executes at a time -- and releases it exactly
at its awaits (``Condition.wait``, the per-page cooperative yield, and
``emulate_costs`` sleeps).  Because notifications originate inside
synchronous operator callbacks, "the lock is held" always means "held by
the running task", which is what makes a plain synchronous
``notify_all`` legal (see :mod:`repro.stream.waiters`).

``emulate_costs=True`` charges each operator's cost model with
``asyncio.sleep`` *outside* the lock, so modeled CPU cost overlaps
across operator coroutines exactly as the threaded engine's modeled
costs overlap across threads (and as NiagaraST's real per-operator CPU
time would).

Sources that expose ``aevents()`` -- an *async* iterator of ``(arrival,
element)`` pairs, e.g. :class:`~repro.operators.source.
AsyncIterableSource` -- are consumed natively with ``await`` between
elements, so a slow network feed never blocks the loop; plain sources
fall back to their synchronous ``events()`` timeline.

Use :meth:`AsyncioEngine.run` from synchronous code (it owns a private
event loop via ``asyncio.run``), or ``await`` :meth:`AsyncioEngine.arun`
from inside an existing loop -- e.g. alongside an
:class:`~repro.operators.sink.AwaitableSink` that client coroutines
await concurrently with the run.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.engine.notify import NotificationPolicy
from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult, RuntimeCore
from repro.errors import EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock
from repro.stream.waiters import AsyncioConditionWaiter

__all__ = ["AsyncioEngine"]


class AsyncioEngine(NotificationPolicy, RuntimeCore):
    """Run a plan with one coroutine per operator on an asyncio loop.

    Parameters
    ----------
    timeout:
        Run-level watchdog: maximum wall-clock seconds for the whole
        plan to drain (worker waits themselves are untimed and purely
        notification-driven), mirroring the threaded runtime's join
        watchdog.  ``None`` disables the watchdog for always-on serving
        flows whose sources never end until drained by a supervisor.
    control_latency:
        Wall-clock seconds between sending a control message and its
        arrival (the simulator's feedback propagation delay, honoured
        here exactly as in the threaded runtime; default 0).
    emulate_costs:
        Charge each operator's cost model (``tuple_cost`` and friends)
        as ``asyncio.sleep`` outside the condition lock, so modeled CPU
        cost parallelises across operator coroutines the way it does
        across the threaded engine's threads.  Slept cost is recorded as
        ``busy_time``.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        timeout: float | None = 60.0,
        control_latency: float = 0.0,
        emulate_costs: bool = False,
        checkpoint_every: int | None = None,
        checkpoint_store: Any = None,
        recover_from: Any = None,
        ingestion_policy: str = "exactly-once",
        elastic: Any = None,
    ) -> None:
        super().__init__(
            plan, WallClock(), control_latency=control_latency,
            checkpoint_every=checkpoint_every,
            checkpoint_store=checkpoint_store,
            recover_from=recover_from,
            ingestion_policy=ingestion_policy,
            elastic=elastic,
        )
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        self._init_notifications(AsyncioConditionWaiter())
        self._actions: list[tuple[float, Callable[[], None]]] = []
        self._action_errors: list[BaseException] = []

    def at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a client-side action at ``time`` wall-clock seconds.

        Mirrors ``Simulator.at`` / ``ThreadedRuntime.at`` so ``Flow.run``'s
        declarative feedback injection works engine-agnostically.  The
        action runs on its own coroutine under the condition lock; an
        action whose time falls after the plan has already drained never
        fires -- the same "the stream is over" rule every engine applies
        to in-flight feedback.
        """
        if self._started:
            raise EngineError("schedule actions before calling run()")
        self._actions.append((float(time), action))

    # -- coroutine bodies ----------------------------------------------------------

    async def _wait_for_work(self, operator: Operator) -> None:
        """Park (lock held) until a page or control message arrives.

        Purely notification-driven; the only timed wait is the arrival
        deadline of an in-flight (deferred) control message.  The lock is
        re-held when this returns, timed out or notified.
        """
        await self._waiter.wait(self.wait_timeout(operator))

    async def _yield_outside_lock(self, sleep: float) -> None:
        """Release the condition, await, re-acquire.

        This is the engine's only suspension point besides
        ``Condition.wait``: the per-page cooperative yield (``sleep=0``)
        that lets pipelined operators interleave, and the
        ``emulate_costs`` sleep that lets modeled costs overlap.
        """
        condition = self._waiter.condition
        condition.release()
        try:
            await asyncio.sleep(sleep)
        finally:
            await condition.acquire()

    async def _source_body(self, source: SourceOperator) -> None:
        condition = self._waiter.condition
        aevents = getattr(source, "aevents", None)
        if aevents is not None:
            # Async-native source: await between elements on the loop --
            # a slow network feed parks this coroutine, nothing else.
            async for _arrival, element in self.source_aevents(
                source, aevents()
            ):
                await self._admit_source_element(source, element)
        else:
            for _arrival, element in self.source_events(source):
                await self._admit_source_element(source, element)
        await condition.acquire()
        try:
            # Same rule as the other engines: arrived control is
            # delivered, but feedback still in flight toward an exhausted
            # source is dropped -- the stream is over.
            self.drain_control(source)
            self.finish_operator(source)
            self._waiter.notify_all()
        finally:
            condition.release()

    async def _admit_source_element(self, source: SourceOperator, element) -> None:
        if self.emulate_costs:
            cost = source.cost_of(element)
            if cost > 0.0:
                await asyncio.sleep(cost)  # outside the lock: sources overlap
                source.metrics.busy_time += cost
        else:
            await asyncio.sleep(0)  # cooperative yield: consumers interleave
        condition = self._waiter.condition
        await condition.acquire()
        try:
            self.drain_control(source)
            while self.is_paused(source):
                # Honour backpressure: park until the consumer's resume
                # arrives (every control send notifies the condition).
                await self._wait_for_work(source)
                self.drain_control(source)
            self.dispatch_source_element(source, element)
            wants_flush = getattr(source, "wants_flush", None)
            if wants_flush is not None and wants_flush():
                # Interactive feed gone quiet (Flow.ingest's channel is
                # empty): flush partial pages now rather than batching
                # them against input that may be seconds away.
                source.flush_outputs()
            self.check_pressure(source)
            self._waiter.notify_all()
        finally:
            condition.release()

    async def _operator_body(self, operator: Operator) -> None:
        condition = self._waiter.condition
        await condition.acquire()
        try:
            while True:
                if self.drain_control(operator):
                    # Feedback handling may have emitted (partial results,
                    # flushes, a lane-stash replay); consumers must hear
                    # about it, and a replayed stash may refill a lane
                    # queue past its high-water mark.
                    self.check_pressure(operator)
                    self._waiter.notify_all()
                if self.is_paused(operator):
                    # Transitive pressure: while paused this operator
                    # pulls no pages, so its own inputs back up and pause
                    # its producers.  Exhausted inputs may still finish
                    # it -- holding finish hostage to a resume could
                    # deadlock the tail of the stream.
                    self.check_input_completion(operator)
                    if operator.finished:
                        return
                    await self._wait_for_work(operator)
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
                    # Out of input: flush partial output pages before
                    # parking, so interactive (always-on) flows deliver
                    # results at input-idle time instead of holding them
                    # until a page fills.  Under sustained load pages
                    # fill before the input runs dry, so batching -- and
                    # the batch-path throughput floor -- is preserved.
                    operator.flush_outputs()
                    self.check_input_completion(operator)
                    if operator.finished:
                        return
                    await self._wait_for_work(operator)
                    continue
                operator.set_now(self.clock.now())
                # Cooperative yield (or modeled-cost sleep) with the lock
                # released, so sibling coroutines -- shard replicas,
                # upstream producers -- interleave per page the way the
                # threaded engine's threads get preempted.
                if self.emulate_costs and operator.needs_metering:
                    cost = operator.page_cost(port.index, page)
                    await self._yield_outside_lock(cost)
                    if cost > 0.0:
                        operator.metrics.busy_time += cost
                else:
                    await self._yield_outside_lock(0)
                # Page processing is synchronous and single-threaded, so
                # holding the lock through it is free; control for this
                # operator waits until the next loop turn (control-before-
                # data is preserved per page, as on every engine).
                operator.process_page(port.index, page)
                self.mark_done_ports(operator)
                self.check_relief(operator)
                self.check_pressure(operator)
                self._waiter.notify_all()
        finally:
            if condition.locked():
                # Single-threaded loop: a held lock belongs to the
                # running task (us); a cancellation delivered exactly at
                # an internal re-acquire can land here without it.
                condition.release()

    async def _elastic_body(self) -> None:
        """Controller ticker task: observe/decide/apply every interval.

        Ticks run under the condition lock (the controller reads operator
        counters and enqueues control, like any callback); the task is
        cancelled by ``_arun`` once the workers drain.  A tick failure is
        captured like an action error so ``arun`` re-raises it.
        """
        interval = self.elastic.config.interval
        condition = self._waiter.condition
        while True:
            await asyncio.sleep(interval)
            await condition.acquire()
            try:
                try:
                    self.elastic.tick(self.clock.now())
                except BaseException as error:  # noqa: BLE001 - rethrown
                    self._action_errors.append(error)
                    return
                self._waiter.notify_all()
            finally:
                condition.release()

    async def _action_body(self, when: float, action: Callable[[], None]) -> None:
        await asyncio.sleep(max(0.0, when - self.clock.now()))
        condition = self._waiter.condition
        await condition.acquire()
        try:
            try:
                action()
            except BaseException as error:  # noqa: BLE001 - re-raised in run()
                # A raised exception would otherwise vanish with this
                # task and the run would report success with the action's
                # effect silently missing.  Capture it; arun() re-raises.
                self._action_errors.append(error)
            self._waiter.notify_all()
        finally:
            condition.release()

    # -- run -------------------------------------------------------------------------

    async def arun(self) -> RunResult:
        """Run the plan on the *current* event loop (async entry point)."""
        self._begin()
        try:
            return await self._arun()
        except BaseException as error:
            # Fail anyone parked on an unfinished operator (an
            # AwaitableSink's client coroutines) instead of leaving them
            # awaiting an on_finish that will never come.
            self._notify_run_aborted(error)
            raise

    async def _arun(self) -> RunResult:
        for op in self.plan:
            # One cooperative loop needs no queue mutexes, but queues
            # announce page-ready/close on the shared waiter seam so
            # consumer coroutines wake as soon as a producer's page lands.
            for edge in op.outputs:
                edge.queue.attach_waiter(self._waiter)
        condition = self._waiter.condition
        await condition.acquire()
        try:
            # on_start may inject feedback (notify_control), so it must
            # run under the same lock discipline as every callback.
            self._start_operators()
        finally:
            condition.release()
        workers = []
        for op in self.plan:
            if isinstance(op, SourceOperator):
                body = self._source_body(op)
            else:
                body = self._operator_body(op)
            workers.append(asyncio.ensure_future(body))
            workers[-1].set_name(f"op-{op.name}")
        actions = [
            asyncio.ensure_future(self._action_body(when, action))
            for when, action in self._actions
        ]
        if self.elastic is not None:
            ticker = asyncio.ensure_future(self._elastic_body())
            ticker.set_name("elastic-controller")
            actions.append(ticker)
        try:
            await asyncio.wait_for(asyncio.gather(*workers), self.timeout)
        except asyncio.TimeoutError:
            raise EngineError(
                f"operator coroutines did not finish within "
                f"{self.timeout}s"
            ) from None
        finally:
            # An action whose time falls after the plan drained never
            # fires (and on failure nothing should linger on the loop).
            for task in actions:
                task.cancel()
            for task in workers:
                task.cancel()
            await asyncio.gather(*actions, *workers, return_exceptions=True)
        if self._action_errors:
            raise self._action_errors[0]
        return self.build_result(self.collect_metrics())

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
