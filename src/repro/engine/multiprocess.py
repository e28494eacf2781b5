"""Multiprocess engine: worker processes past the GIL.

The threaded runtime reproduces NiagaraST's thread-per-operator
architecture, but CPython's GIL serialises pure-Python operator work, so
CPU-bound plans gain little wall-clock parallelism from it.  This engine
keeps the exact same runtime protocol -- control-before-data draining
with ``control_latency`` arrival semantics, upstream feedback, watermark
pause/resume backpressure, shard-region punctuation alignment -- and
moves the *operators* into separate OS processes:

* the plan is partitioned into **operator groups**, one worker process
  per group (for a sharded plan, each lane becomes a group, so replicas
  run with real CPU parallelism);
* inside a worker, the group runs on an ordinary
  :class:`~repro.engine.threaded.ThreadedRuntime` restricted to the
  owned operators (:class:`_WorkerRuntime`) -- one mechanism, stacked
  policies;
* a **cross edge** (producer and consumer in different groups) ships
  complete pages over a per-worker ``multiprocessing.Queue`` inbox in
  the columnar wire form of :func:`~repro.stream.pages.encode_page`:
  schema described once per page, values as per-attribute columns, the
  tuple/punctuation interleaving preserved exactly -- so
  flush-on-punctuation survives the process boundary.  In-process edges
  keep passing pages by reference (the zero-copy fast path);
* the cross edge's **control channel** is proxied in both workers
  (:class:`_ProxyControlChannel`): sends toward the remote end travel as
  pickled :class:`~repro.stream.control.ControlMessage` frames and are
  delivered into the peer's local channel, so feedback punctuation,
  pause/resume flow control and result requests cross processes on the
  ordinary drain path, honouring ``control_latency`` against the shared
  wall clock.

**Start method.**  Workers are started with the ``fork`` method: each
child inherits the coordinator's whole object graph -- plan, operators,
closures scheduled via :meth:`at` -- so nothing in the user's plan ever
needs to be picklable.  Only what crosses a boundary at runtime does:
encoded pages, control messages, and the result payloads.  On platforms
without ``fork`` the engine refuses to construct
(:func:`fork_available` lets callers probe first).

**Backpressure across the boundary.**  The consumer-side worker owns the
real bounded :class:`~repro.stream.queues.DataQueue`; its receiver
thread injects decoded pages with
:meth:`~repro.stream.queues.DataQueue.put_page` and then runs
:meth:`~repro.engine.runtime.RuntimeCore.check_pressure` against its
local *copy* of the remote producer, so a queue crossing its high-water
mark issues the ordinary *pause* punctuation -- which the proxy ships
upstream, pausing the real producer in its own worker.  Relief
(*resume*) flows the same way when the consumer drains to the low-water
mark; a ``close`` frame marks the local producer copy finished so
resume-to-finished signals are dropped exactly as in-process.

**Results.**  Each worker ships a ``done`` payload -- owned operators'
metrics and :meth:`~repro.operators.base.Operator.snapshot_state`,
consumer-side queue counters per edge, output-log records, feedback
events, and its makespan -- to the coordinator, which merges everything
onto its own plan copy and builds the usual
:class:`~repro.engine.runtime.RunResult`.  Call sites therefore read
sinks, metrics, shard rollups and logs exactly as on the other engines.

**Scheduled actions** must name an ``owner`` operator (``at(time,
action, owner=...)``): the action is a closure over the coordinator's
plan objects, and only the worker owning that operator has the copy the
action must run against.  ``Flow.run`` tags its declarative feedback
injections automatically; owner-less actions raise
:class:`~repro.errors.EngineError` on this engine.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import traceback
from typing import Any, Callable, Sequence

from repro.engine.plan import QueryPlan
from repro.engine.runtime import RunResult, RuntimeCore
from repro.engine.threaded import ThreadedRuntime
from repro.errors import DurabilityError, EngineError
from repro.operators.base import Operator, SourceOperator
from repro.stream.clock import WallClock
from repro.stream.control import ControlChannel, ControlMessage, Direction
from repro.stream.pages import decode_page, encode_page
from repro.stream.queues import DataQueue

__all__ = ["MultiprocessEngine", "fork_available"]

#: Frame tags on the inter-worker inboxes.
_DATA, _CLOSE, _CTRL, _STOP = "data", "close", "ctrl", "stop"
#: Frame tags on the coordinator inbox.
_DONE, _ERROR = "done", "error"


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _edge_key(producer: str, consumer: str, port: int) -> str:
    return f"{producer}->{consumer}[{port}]"


class _ShippingQueue(DataQueue):
    """Producer-side stand-in for a cross edge's data queue.

    Collects the producer's open page exactly like a local queue, then
    ships every completed page -- columnar-encoded -- to the consumer's
    worker instead of keeping it.  Unbounded on purpose: occupancy (and
    thus pressure) is accounted on the consumer side, where the pages
    actually pile up.
    """

    __slots__ = ("_ship",)

    def __init__(
        self,
        name: str,
        page_size: int,
        ship: Callable[[tuple], None],
    ) -> None:
        super().__init__(name, page_size=page_size)
        self._ship = ship

    def _drain_ready(self) -> None:
        while (page := self.get_page()) is not None:
            self._ship((_DATA, self.name, encode_page(page)))

    def put_many(self, elements: list) -> int:
        completed = super().put_many(elements)
        if completed:
            self._drain_ready()
        return completed

    def put_page(self, page: Any) -> None:
        super().put_page(page)
        self._drain_ready()

    def flush(self) -> bool:
        flushed = super().flush()
        if flushed:
            self._drain_ready()
        return flushed

    def close(self) -> None:
        super().close()  # flushes any residue into the ready backlog
        self._drain_ready()
        self._ship((_CLOSE, self.name))


class _ProxyControlChannel(ControlChannel):
    """Control channel of a cross edge, as seen from one worker.

    Each worker holds one end of the edge: messages travelling toward
    the remote end are shipped as pickled frames to the peer's inbox;
    messages travelling toward the local end queue locally as usual.
    The peer's receiver thread lands shipped messages via
    :meth:`deliver`, after which the ordinary drain path (arrival
    gating, control-before-data) takes over.
    """

    __slots__ = ("_remote", "_ship")

    def __init__(
        self,
        name: str,
        remote_direction: Direction,
        ship: Callable[[tuple], None],
    ) -> None:
        super().__init__(name)
        self._remote = remote_direction
        self._ship = ship

    def send(self, message: ControlMessage) -> None:
        if message.direction is self._remote:
            if message.direction is Direction.UPSTREAM:
                self.upstream_sent += 1
            else:
                self.downstream_sent += 1
            self._ship((_CTRL, self.name, message))
        else:
            super().send(message)

    def deliver(self, message: ControlMessage) -> None:
        """Land a message shipped from the peer worker."""
        ControlChannel.send(self, message)


class _Route:
    """One cross edge's consumer-side receiving state in a worker."""

    __slots__ = ("queue", "producer", "proxy")

    def __init__(
        self,
        queue: DataQueue | None,
        producer: Operator | None,
        proxy: _ProxyControlChannel,
    ) -> None:
        self.queue = queue
        self.producer = producer
        self.proxy = proxy


class _WorkerRuntime(ThreadedRuntime):
    """A threaded runtime restricted to one worker's operator group.

    Remote operators stay in the plan (their fork copies anchor edge
    objects, pressure bookkeeping and ``finished`` flags) but get no
    thread, no ``on_start`` and no control draining here -- their owning
    worker does all of that against its own copies.
    """

    def __init__(
        self, plan: QueryPlan, owned: set[str], **options: Any
    ) -> None:
        super().__init__(plan, **options)
        self._owned = owned

    def _executed_operators(self) -> list[Operator]:
        return [op for op in self.plan if op.name in self._owned]


class MultiprocessEngine(RuntimeCore):
    """Run a plan with one OS process per operator group.

    Parameters
    ----------
    groups:
        Explicit partition of the plan's operator names into worker
        groups (a sequence of name sequences).  Default: one group per
        shard lane plus one for everything else when the plan has shard
        regions; otherwise sources in one group and the rest in another.
    timeout:
        Coordinator watchdog: maximum wall-clock seconds to wait for all
        workers; hung workers are terminated and the run raises.  Also
        passed to each worker's internal thread watchdog.
    emulate_costs:
        Charge operator cost models as wall-clock sleeps, exactly as on
        the threaded runtime.
    elastic:
        Declined with a recorded reason (see the constructor).
    core_options:
        ``control_latency`` (seconds on the wall clock every worker
        shares) and the durability options of
        :class:`~repro.engine.runtime.RuntimeCore`.
    """

    def __init__(
        self,
        plan: QueryPlan,
        *,
        groups: Sequence[Sequence[str]] | None = None,
        timeout: float = 60.0,
        emulate_costs: bool = False,
        elastic: Any = None,
        **core_options: Any,
    ) -> None:
        if not fork_available():
            raise EngineError(
                "the multiprocess engine requires the 'fork' start "
                "method, which this platform does not support"
            )
        # Durability activation (and recovery restore) runs in the super
        # constructor -- before the fork, so every worker inherits the
        # restored operator state and the computed replay offsets.
        # ``elastic`` is deliberately NOT passed down: this engine
        # declines elasticity (recorded below) rather than arming a
        # controller whose rebalance records cannot cross the fork.
        super().__init__(plan, WallClock(), **core_options)
        if elastic is not None:
            # The optimizer's decline convention: record why, run static.
            self.elastic_declines.append(
                (
                    "engine",
                    "multiprocess engine cannot rebalance: migration "
                    "records travel by reference and workers own "
                    "disjoint operator groups across process boundaries",
                )
            )
        if (
            self.checkpoints is not None
            and not self.checkpoints.store.shareable_across_processes
        ):
            raise DurabilityError(
                "the multiprocess engine needs a checkpoint store that "
                "is visible across processes (forked workers would write "
                "snapshots into throwaway copies of an in-memory store); "
                "pass a DirectoryCheckpointStore or a directory path"
            )
        self.timeout = timeout
        self.emulate_costs = emulate_costs
        self._ctx = multiprocessing.get_context("fork")
        self._groups = self._resolve_groups(groups)
        self._owner_of = {
            name: index
            for index, group in enumerate(self._groups)
            for name in group
        }
        self._inboxes: list[Any] = []
        self._coord_inbox: Any = None

    # -- grouping --------------------------------------------------------------------

    def _resolve_groups(
        self, groups: Sequence[Sequence[str]] | None
    ) -> list[list[str]]:
        names = [op.name for op in self.plan]
        if groups is None:
            return self._default_groups(names)
        resolved = [list(group) for group in groups if group]
        seen: set[str] = set()
        for group in resolved:
            for name in group:
                if name not in self.plan._operators:
                    raise EngineError(
                        f"group names unknown operator {name!r}"
                    )
                if name in seen:
                    raise EngineError(
                        f"operator {name!r} appears in more than one group"
                    )
                seen.add(name)
        missing = [n for n in names if n not in seen]
        if missing:
            raise EngineError(
                f"groups must cover every operator; missing: {missing}"
            )
        return resolved

    def _default_groups(self, names: list[str]) -> list[list[str]]:
        lane_groups: list[list[str]] = []
        in_lane: set[str] = set()
        for region in self.plan.shard_groups:
            for lane in region.lanes:
                if lane:
                    lane_groups.append(list(lane))
                    in_lane.update(lane)
        rest = [n for n in names if n not in in_lane]
        if lane_groups:
            return ([rest] if rest else []) + lane_groups
        sources = {
            op.name for op in self.plan if isinstance(op, SourceOperator)
        }
        downstream = [n for n in names if n not in sources]
        if not downstream:
            return [names]
        return [[n for n in names if n in sources], downstream]

    # -- scheduling ------------------------------------------------------------------

    def at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        owner: str | None = None,
    ) -> None:
        """Schedule ``action`` at ``time`` seconds, owned by an operator.

        ``owner`` names the operator the action targets; the action runs
        in (and against the plan copy of) the worker owning it.  The
        coordinator cannot run it: its plan objects are not the ones the
        workers execute.  ``Flow.run`` passes the feedback target
        automatically; owner-less actions are rejected.
        """
        if owner is None:
            raise EngineError(
                "the multiprocess engine requires owner= on scheduled "
                "actions (the owning worker runs the action against its "
                "own plan copy); use feedback=(time, operator, punct) "
                "entries or pass owner= explicitly"
            )
        if owner not in self.plan._operators:
            raise EngineError(f"unknown action owner {owner!r}")
        super().at(time, action, owner=owner)

    # -- run -------------------------------------------------------------------------

    def _run(self) -> RunResult:
        # Restart the shared epoch at run start so worker timestamps and
        # the merged makespan measure the run, not engine construction.
        self.clock = WallClock()
        self._inboxes = [self._ctx.Queue() for _ in self._groups]
        self._coord_inbox = self._ctx.Queue()
        workers = [
            self._ctx.Process(
                target=self._worker_entry,
                args=(index,),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(len(self._groups))
        ]
        for proc in workers:
            proc.start()
        try:
            payloads = self._await_workers(workers)
        finally:
            for proc in workers:
                if proc.is_alive():
                    proc.terminate()
            for proc in workers:
                proc.join(timeout=5.0)
        return self._merge(payloads)

    def _await_workers(self, workers: list[Any]) -> list[dict]:
        payloads: list[dict | None] = [None] * len(workers)
        pending = len(workers)
        deadline = self.clock.now() + self.timeout
        while pending:
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                raise EngineError(
                    f"multiprocess run did not finish within "
                    f"{self.timeout}s ({pending} worker(s) still running)"
                )
            try:
                frame = self._coord_inbox.get(timeout=min(remaining, 1.0))
            except queue_module.Empty:
                dead = [
                    p.name for p in workers
                    if not p.is_alive() and p.exitcode not in (0, None)
                ]
                if dead:
                    raise EngineError(
                        f"worker process(es) died without reporting: "
                        f"{', '.join(dead)}"
                    ) from None
                continue
            tag = frame[0]
            if tag == _ERROR:
                _, index, text = frame
                raise EngineError(
                    f"worker {index} failed:\n{text}"
                )
            _, index, payload = frame
            if payloads[index] is None:
                pending -= 1
            payloads[index] = payload
        return [payload for payload in payloads if payload is not None]

    # -- worker ----------------------------------------------------------------------

    def _worker_entry(self, index: int) -> None:
        try:
            payload = self._worker_body(index)
            self._coord_inbox.put((_DONE, index, payload))
        except BaseException:  # noqa: BLE001 - reported to the coordinator
            self._coord_inbox.put(
                (_ERROR, index, traceback.format_exc())
            )

    def _worker_body(self, index: int) -> dict:
        owned = set(self._groups[index])
        options: dict[str, Any] = {}
        if self.checkpoints is not None:
            # The worker gets the resolved (process-shareable) store and
            # interval, but NOT recover_from: the restore already ran in
            # the coordinator before the fork, so the worker's plan copy
            # carries the recovered state.  Only the replay offsets and
            # recovered epoch -- coordinator-side bookkeeping, not plan
            # state -- must be copied onto the worker's own coordinator.
            options = dict(
                checkpoint_every=self.checkpoints.every,
                checkpoint_store=self.checkpoints.store,
                ingestion_policy=self.checkpoints.policy,
            )
        runtime = _WorkerRuntime(
            self.plan,
            owned,
            timeout=self.timeout,
            control_latency=self.control_latency,
            emulate_costs=self.emulate_costs,
            clock=self.clock,
            **options,
        )
        if self.checkpoints is not None:
            runtime.checkpoints.replay_offsets.update(
                self.checkpoints.replay_offsets
            )
            runtime.checkpoints.recovered_epoch = (
                self.checkpoints.recovered_epoch
            )
        routes = self._rewire(index, runtime)
        # The receiver checks pressure from its first frame on, before the
        # run (which indexes the edges again) has started.
        runtime._index_edges()
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(index, runtime, routes),
            name=f"recv-{index}",
            daemon=True,
        )
        receiver.start()
        for when, action, owner in self._actions:
            if owner in owned:
                runtime.at(when, action)
        try:
            runtime.run()
        finally:
            # Unblock the receiver; frames already queued (late control
            # toward a drained plan) are handled first, then dropped by
            # the same "the stream is over" rule the engines share.
            self._inboxes[index].put((_STOP,))
            receiver.join(timeout=5.0)
        return self._payload(index, runtime, owned)

    def _rewire(
        self, index: int, runtime: _WorkerRuntime
    ) -> dict[str, _Route]:
        """Replace this worker's halves of every cross edge.

        Producer owned here: the edge's queue becomes a
        :class:`_ShippingQueue` and its control channel a proxy shipping
        *downstream* traffic to the consumer's worker.  Consumer owned
        here: the local queue stays (it is the real, possibly bounded
        one) and the proxy ships *upstream* traffic -- feedback, flow
        control, result requests -- to the producer's worker.
        """
        routes: dict[str, _Route] = {}
        for op in self.plan:
            for edge in op.outputs:
                producer_group = self._owner_of[op.name]
                consumer_group = self._owner_of[edge.consumer.name]
                if producer_group == consumer_group:
                    continue
                if index not in (producer_group, consumer_group):
                    continue
                key = _edge_key(op.name, edge.consumer.name,
                                edge.consumer_port)
                port = edge.consumer.inputs[edge.consumer_port]
                if index == producer_group:
                    peer = self._inboxes[consumer_group]
                    shipping = _ShippingQueue(
                        edge.queue.name or key,
                        edge.queue.page_size,
                        peer.put,
                    )
                    proxy = _ProxyControlChannel(
                        edge.control.name or key,
                        Direction.DOWNSTREAM,
                        peer.put,
                    )
                    edge.queue = shipping
                    proxied_queue = None
                    producer_copy = None
                else:
                    peer = self._inboxes[producer_group]
                    proxy = _ProxyControlChannel(
                        edge.control.name or key,
                        Direction.UPSTREAM,
                        peer.put,
                    )
                    proxied_queue = edge.queue
                    proxied_queue.enable_thread_safety()
                    proxied_queue.attach_waiter(runtime._waiter)
                    producer_copy = op
                edge.control = proxy
                if port is not None:
                    port.control = proxy
                    if index == producer_group:
                        port.queue = edge.queue
                routes[proxy.name] = _Route(
                    proxied_queue, producer_copy, proxy
                )
                if proxy.name != key:
                    routes[key] = routes[proxy.name]
        return routes

    def _receive_loop(
        self,
        index: int,
        runtime: _WorkerRuntime,
        routes: dict[str, _Route],
    ) -> None:
        inbox = self._inboxes[index]
        while True:
            frame = inbox.get()
            tag = frame[0]
            if tag == _STOP:
                return
            route = routes.get(frame[1])
            if route is None:
                continue  # an edge this worker does not hold
            if tag == _DATA:
                if route.queue is None:
                    continue
                route.queue.put_page(decode_page(frame[2]))
                with runtime._wakeup:
                    if route.producer is not None:
                        runtime.check_pressure(route.producer)
                    runtime._wakeup.notify_all()
            elif tag == _CLOSE:
                if route.queue is not None:
                    route.queue.close()
                with runtime._wakeup:
                    if route.producer is not None:
                        # The remote producer finished; local resume
                        # signals toward it must be dropped, exactly as
                        # check_relief drops them in-process.
                        route.producer.finished = True
                    runtime._wakeup.notify_all()
            elif tag == _CTRL:
                route.proxy.deliver(frame[2])
                with runtime._wakeup:
                    runtime._wakeup.notify_all()

    def _payload(
        self, index: int, runtime: _WorkerRuntime, owned: set[str]
    ) -> dict:
        queues: dict[str, tuple[int, int, int]] = {}
        for op in self.plan:
            for edge in op.outputs:
                if self._owner_of[edge.consumer.name] != index:
                    continue
                queue = edge.queue
                queues[_edge_key(op.name, edge.consumer.name,
                                 edge.consumer_port)] = (
                    queue.peak_occupancy,
                    queue.elements_enqueued,
                    queue.pages_flushed,
                )
        states = {}
        for name in owned:
            state = self.plan.operator(name).snapshot_state()
            if state:
                states[name] = state
        return {
            "metrics": {
                name: self.plan.operator(name).metrics for name in owned
            },
            "state": states,
            "finished": [
                name for name in owned
                if self.plan.operator(name).finished
            ],
            "queues": queues,
            "feedback": list(runtime.feedback_log),
            "makespan": self.clock.now(),
        }

    # -- merge -----------------------------------------------------------------------

    def _merge(self, payloads: list[dict]) -> RunResult:
        """Fold every worker's payload onto the coordinator's plan copy."""
        shipped_queues: dict[str, tuple[int, int, int]] = {}
        feedback: list[Any] = []
        makespan = 0.0
        for payload in payloads:
            for name, metrics in payload["metrics"].items():
                self.plan.operator(name).metrics = metrics
            for name, state in payload["state"].items():
                op = self.plan.operator(name)
                op.restore_state(state)
                if getattr(op, "_ckpt_writer", None) is not None:
                    # A logged sink ships its cut, not its lists: the
                    # workers' flushed delivery log holds the results.
                    op.reload_from_log(
                        self.checkpoints.store.read_delivery_log(name)
                    )
            for name in payload["finished"]:
                self.plan.operator(name).finished = True
            shipped_queues.update(payload["queues"])
            feedback.extend(payload["feedback"])
            makespan = max(makespan, payload["makespan"])
        for op in self.plan:
            for edge in op.outputs:
                key = _edge_key(op.name, edge.consumer.name,
                                edge.consumer_port)
                counters = shipped_queues.get(key)
                if counters is None:
                    continue
                queue = edge.queue
                (queue.peak_occupancy,
                 queue.elements_enqueued,
                 queue.pages_flushed) = counters
        feedback.sort(key=lambda event: event.time)
        self.feedback_log.extend(feedback)
        metrics = self.collect_metrics()
        metrics.makespan = makespan
        return self.build_result(metrics)
