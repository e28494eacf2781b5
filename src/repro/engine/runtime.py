"""Shared runtime core: the mechanism layer under every execution engine.

NiagaraST (paper section 5) has one runtime architecture -- operators
connected by page queues, with out-of-band high-priority control -- and
several scheduling policies could sit on top of it.  This module is that
split made explicit:

* :class:`RuntimeCore` owns the **mechanism**: *when* a control message
  has arrived (``control_latency``) and that it is taken before data --
  what it means is the operator's :meth:`~repro.operators.base.Operator.
  _receive` -- the pause bookkeeping, when inputs are complete and an
  operator finishes (the lifecycle itself is the operator's
  ``_close_inputs`` / ``_finish``), the run envelope (:meth:`RuntimeCore.
  run`: begin, the policy's ``_run``, abort notification), the feature
  options every engine takes (checkpointing, recovery, elasticity), and
  the runtime surface operators see (``now`` / ``notify_control`` /
  ``apply_flow_control`` / ``is_paused`` / ``checkpoints`` / the
  feedback log);
* engines subclass it with a **policy**: the deterministic
  :class:`~repro.engine.simulator.Simulator` (event heap + virtual
  clock), the :class:`~repro.engine.async_engine.AsyncioEngine` (the same
  heap on a wall clock inside an event loop), the
  :class:`~repro.engine.threaded.ThreadedRuntime` (thread per operator +
  condition waits) and the :class:`~repro.engine.multiprocess.
  MultiprocessEngine` (worker processes running threaded runtimes).  A
  backend is a policy subclass; none re-implements the
  control/completion/finish protocol, and all share one
  :meth:`RuntimeCore.at` for scheduled client actions.

A policy implements ``_run`` and these hooks:

``notify_control``
    How a wake-up reaches the operator (heap event vs. condition notify).
``_activity_time``
    The timestamp stamped on lifecycle callbacks (virtual busy horizon vs.
    wall clock).
``_charge_control``
    Per-message accounting before dispatch (the simulator charges
    ``control_cost`` against the operator's busy horizon).
``_defer_control``
    What to do with a control message that has not *arrived* yet
    (``sent_at + control_latency`` is in the future): the simulator
    schedules a control event at the arrival time, the threaded runtime
    records a wake-up deadline for the sleeping operator thread.
``_on_finished``
    Post-finish plumbing (stamp + wake consumers vs. notify all threads).
``_on_paused`` / ``_on_resumed``
    What happens when an operator's last resume arrives / first pause
    lands: the simulator reschedules stalled work and flushes open pages,
    the threaded runtime notifies sleeping threads.

**Backpressure** also lives here, because it is pure mechanism: when a
bounded :class:`~repro.stream.queues.DataQueue` crosses its high-water
mark, :meth:`RuntimeCore.check_pressure` issues a *pause*
:class:`~repro.core.feedback.FlowControlPunctuation` upstream on the
edge's control channel -- on behalf of the consumer, exactly as if the
consumer had produced feedback -- and :meth:`RuntimeCore.check_relief`
issues the matching *resume* when the queue drains to its low-water mark.
Delivery rides the ordinary control-drain path, so pauses observe
``control_latency`` and preempt data like any feedback.  Engines stop
scheduling paused operators; pressure propagates transitively because a
paused operator stops draining its own inputs.  Deadlock is avoided by
three rules (see ``docs/backpressure.md``): pause flushes the producer's
open pages (so the consumer can always drain to the low-water mark), a
paused operator whose inputs are exhausted may still finish, and resume
signals to already-finished producers are simply dropped.

**Shard groups** (``docs/sharding.md``) add two pieces of bookkeeping on
top.  First, *per-lane* flow control: a ``lane_flow_control`` operator
(PARTITION) is not stalled by a pause on one output lane -- it absorbs
that lane's traffic and keeps feeding the siblings -- so
:meth:`RuntimeCore.is_paused` defers to the operator's
``holding_pressure()`` while any lane is paused, and a lane resume that
releases a full stall reschedules the operator even though other lanes
remain paused.  Second, :meth:`RuntimeCore.collect_metrics` rolls
operator and queue counters up per shard-group lane
(:class:`~repro.engine.metrics.ShardGroupMetrics`, the skew report).
Control *broadcast* across replicas needs no runtime special case: it
falls out of the shared control protocol -- the merge's identity mapping
relays feedback to every lane, the partition broadcasts punctuation and
reconciles per-lane feedback (key-routed or by agreement), and unknown
control kinds forward hop-by-hop through both boundary operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

from repro.core.feedback import FlowControlKind, FlowControlPunctuation
from repro.core.roles import FeedbackLog
from repro.engine.metrics import (
    PlanMetrics,
    QueueMetrics,
    ShardGroupMetrics,
    ShardLaneMetrics,
)
from repro.engine.plan import QueryPlan
from repro.errors import EngineError
from repro.operators.base import (
    InputPort,
    Operator,
    OutputEdge,
    SourceCursor,
    SourceOperator,
)
from repro.stream.clock import Clock
from repro.stream.control import (
    ControlMessage,
    ControlMessageKind,
    Direction,
)

__all__ = ["RuntimeCore", "RunResult"]

#: Tolerance when comparing a message's arrival time against the clock;
#: keeps float accumulation from deferring an already-due message.
ARRIVAL_EPS = 1e-12

_CLOSED = attrgetter("closed")


@dataclass
class RunResult:
    """Everything a finished run exposes to callers (both engines)."""

    plan: QueryPlan
    metrics: PlanMetrics
    feedback_log: FeedbackLog
    #: The run's checkpoint store when durability was active (pass it --
    #: or its directory path -- back as ``recover_from=`` to resume).
    checkpoint_store: Any = None

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def total_work(self) -> float:
        return self.metrics.total_work

    def sink(self, name: str) -> Operator:
        return self.plan.operator(name)


class RuntimeCore:
    """Mechanism shared by every execution engine.

    Subclasses provide the scheduling policy; this class provides the
    control/completion/finish protocol and is also the runtime surface
    operators see (``operator.runtime`` points at the engine itself).

    The options every engine takes are declared here, once; an engine's
    constructor adds its own and forwards the rest.

    Parameters
    ----------
    control_latency:
        Seconds (on the engine's clock) between sending a control
        message and its arrival -- feedback propagation delay; default 0.
    checkpoint_every, checkpoint_store, recover_from, ingestion_policy:
        Durability (``docs/durability.md``): a marker every so many
        source elements, where snapshots go, the store to resume from,
        and ``"exactly-once"`` or ``"at-least-once"`` replay.  Setting
        any of the first three activates the coordinator.
    elastic:
        An :class:`~repro.elasticity.ElasticConfig` arming the
        autoscaling controller (``docs/elasticity.md``).
    """

    def __init__(
        self,
        plan: QueryPlan,
        clock: Clock,
        *,
        control_latency: float = 0.0,
        checkpoint_every: int | None = None,
        checkpoint_store: Any = None,
        recover_from: Any = None,
        ingestion_policy: str = "exactly-once",
        elastic: Any = None,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.clock = clock
        self.control_latency = float(control_latency)
        self.feedback_log = FeedbackLog()
        self._started = False
        #: ``(time, action, owner)`` entries registered through :meth:`at`.
        self._actions: list[
            tuple[float, Callable[[], None], str | None]
        ] = []
        #: Edges (by queue name) each operator is currently paused on.
        self._paused_outputs: dict[str, set[str]] = {}
        #: When each currently-paused operator's first pause landed.
        self._paused_since: dict[str, float] = {}
        #: Durability coordinator, or None when checkpointing is off.
        #: Setting any durability option activates it -- including the
        #: recovery restore (operator state, source rewind offsets, sink
        #: replay-window dedup), which runs here, before the engine
        #: starts (and, for the multiprocess engine, before the fork).
        self.checkpoints = None
        if (
            checkpoint_every is not None
            or checkpoint_store is not None
            or recover_from is not None
        ):
            from repro.durability import activate_durability

            self.checkpoints = activate_durability(
                plan,
                every=checkpoint_every,
                store=checkpoint_store,
                recover_from=recover_from,
                policy=ingestion_policy,
            )
        #: Elastic autoscaling controller (None when elasticity is off).
        #: Engines that can rebalance drive ``elastic.tick`` on the
        #: configured cadence; ``elastic_declines`` mirrors the
        #: optimizer's fusibility-decline reporting in the metrics.
        self.elastic = None
        self.elastic_declines: list[tuple[str, str]] = []
        if elastic is not None:
            if self.checkpoints is not None:
                raise EngineError(
                    "elastic= cannot combine with checkpointing: a "
                    "checkpoint cut inside a migration window could "
                    "snapshot a moved key's state twice (or not at all)"
                )
            from repro.elasticity.controller import ElasticController

            self.elastic = ElasticController(self, elastic)
            self.elastic_declines = self.elastic.declines

    # -- runtime surface seen by operators -----------------------------------------

    def now(self) -> float:
        return self.clock.now()

    def notify_control(self, operator: Operator, at: float | None = None) -> None:
        """A control message was queued for ``operator``; wake it."""
        raise NotImplementedError

    def at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        owner: str | None = None,
    ) -> None:
        """Schedule a client-side action (poll, zoom, demand) at ``time``.

        ``time`` is on the engine's clock: virtual seconds on the
        simulator, wall-clock seconds on the others.  The engine runs
        the action between operator steps; an action whose time falls
        after the plan has drained never fires on a wall clock -- the
        "the stream is over" rule every engine applies to in-flight
        feedback.  ``owner`` names the operator the action targets:
        single-process engines ignore it, the multiprocess engine
        requires it to pick the worker that runs the action.  This one
        signature is the engine contract ``Flow.run`` calls
        (``docs/engines.md``, "Scheduled actions").
        """
        if self._started:
            raise EngineError("schedule actions before calling run()")
        self._actions.append((float(time), action, owner))

    # -- policy hooks ----------------------------------------------------------------

    def _activity_time(self, operator: Operator) -> float:
        """Timestamp for lifecycle callbacks (``on_input_done``/``on_finish``)."""
        return self.clock.now()

    def _charge_control(self, operator: Operator) -> None:
        """Account for one control message before it is dispatched."""
        operator.set_now(self._activity_time(operator))

    def _defer_control(self, operator: Operator, arrival: float) -> None:
        """A pending message arrives only at ``arrival``; revisit then."""

    def _on_finished(self, operator: Operator, at: float) -> None:
        """Post-finish plumbing (stamp outputs / wake consumers)."""

    def _on_paused(self, operator: Operator, at: float) -> None:
        """An operator just became paused (first pause on any edge)."""

    def _on_resumed(self, operator: Operator, at: float) -> None:
        """An operator's last pause was lifted; reschedule its work."""

    # -- lifecycle -------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run the plan to completion: the engine's :meth:`_run`, once,
        with every unfinished operator told if it fails."""
        self._begin()
        try:
            return self._run()
        except BaseException as error:
            self._notify_run_aborted(error)
            raise

    def _run(self) -> RunResult:
        """The scheduling policy's whole run (engines implement this)."""
        raise NotImplementedError

    def _begin(self) -> None:
        if self._started:
            raise EngineError(
                f"{type(self).__name__} instances are single-use"
            )
        self._started = True

    def _executed_operators(self) -> list[Operator]:
        """The operators this runtime starts (and runs).

        The whole plan by default; a multiprocess worker restricts this to
        its owned group (remote operators run in their owning workers).
        """
        return list(self.plan)

    def _start_operators(self) -> None:
        self._index_edges()
        for op in self._executed_operators():
            op.runtime = self
            op.set_now(0.0)
            op.on_start()

    def _index_edges(self) -> None:
        """Note, per operator, what a page step's bookkeeping reads.

        Built as the run starts, over every operator of the plan (a
        multiprocess worker's remote producers included, after the cross
        edges are rewired): edges change only at build and optimize time,
        and :meth:`~repro.stream.queues.DataQueue.resize` refuses an
        unbounded queue, so an unbounded edge stays unbounded.

        * ``_control_sides`` -- the deques of every control side the
          operator reads (:meth:`drain_control`'s fast exit);
        * ``_bounded_outputs`` / ``_bounded_inputs`` -- the operators
          with a bounded output / input edge (:meth:`check_pressure` /
          :meth:`check_relief` are no-ops for the rest);
        * ``_input_queues`` -- the input queues (:meth:`mark_done_ports`
          looks for a closed one).
        """
        self._control_sides: dict[str, tuple] = {}
        self._bounded_outputs: set[str] = set()
        self._bounded_inputs: set[str] = set()
        self._input_queues: dict[str, tuple] = {}
        for op in self.plan:
            ports = [port for port in op.inputs if port is not None]
            self._control_sides[op.name] = tuple(
                [edge.control.side(Direction.UPSTREAM) for edge in op.outputs]
                + [port.control.side(Direction.DOWNSTREAM) for port in ports]
            )
            if any(edge.queue.bounded for edge in op.outputs):
                self._bounded_outputs.add(op.name)
            if any(port.queue.bounded for port in ports):
                self._bounded_inputs.add(op.name)
            self._input_queues[op.name] = tuple(port.queue for port in ports)

    def _notify_run_aborted(self, error: BaseException) -> None:
        """Tell every unfinished operator the run died under it.

        :meth:`run` (and the asyncio engine's ``arun``) calls this when
        the run fails, so operators holding external parties (an
        :class:`~repro.operators.sink.AwaitableSink` with parked client
        coroutines) fail fast instead of waiting on an ``on_finish``
        that will never come.  Operator hooks must not mask
        the original error, so their own exceptions are swallowed here.
        """
        for op in self.plan:
            if op.finished:
                continue
            try:
                op.on_run_aborted(error)
            except BaseException:  # noqa: BLE001 - the run error wins
                pass

    # -- control draining ------------------------------------------------------------

    def _next_arrived_control(
        self, operator: Operator
    ) -> tuple[ControlMessage | None, OutputEdge | None]:
        """The next *arrived* control message for ``operator``.

        A message arrives at ``sent_at + control_latency``; heads that
        have not arrived yet stay queued and are handed to
        :meth:`_defer_control`, preserving causality when a busy producer
        generated feedback "in the future" relative to the engine clock.
        Feedback from consumers is scanned before notices from producers.
        """
        now = self.clock.now()
        latency = self.control_latency
        for edge in operator.outputs:  # feedback from consumers
            head = edge.control.peek_upstream()
            if head is None:
                continue
            arrival = head.sent_at + latency
            if arrival > now + ARRIVAL_EPS:
                self._defer_control(operator, arrival)
                continue
            return edge.control.receive_upstream(), edge
        for port in operator.inputs:  # notices from producers
            if port is None:
                continue
            head = port.control.peek_downstream()
            if head is None:
                continue
            arrival = head.sent_at + latency
            if arrival > now + ARRIVAL_EPS:
                self._defer_control(operator, arrival)
                continue
            return port.control.receive_downstream(), None
        return None, None

    def drain_control(self, operator: Operator) -> bool:
        """Deliver pending, arrived control for ``operator``; True if any.

        This is the single implementation of NiagaraST's "control messages
        are given high priority and processed before pending tuples": every
        engine calls it before handing an operator a data page.  What a
        message *means* is the operator's to say
        (:meth:`~repro.operators.base.Operator._receive`); the runtime
        decides only when it has arrived and what taking it costs.
        An operator none of whose control sides holds a message returns
        at once: one ``any`` over the deques noted when the run started.
        """
        if not any(self._control_sides[operator.name]):
            return False
        delivered = False
        while True:
            message, from_edge = self._next_arrived_control(operator)
            if message is None:
                return delivered
            delivered = True
            self._charge_control(operator)
            operator._receive(message, from_edge)

    # -- flow control (backpressure) -----------------------------------------------

    def is_paused(self, operator: Operator) -> bool:
        """True while the operator must not be scheduled for data work.

        For ordinary operators that is "any output edge has it paused".
        Operators with ``lane_flow_control`` (PARTITION) steer each lane
        independently: a paused lane redirects that lane's traffic into
        the operator's stash while the siblings keep flowing, so the
        operator stays schedulable until it reports
        :meth:`~repro.operators.base.Operator.holding_pressure` -- at
        which point the stall becomes transitive toward the source
        exactly like an ordinary pause.
        """
        if operator.lane_flow_control:
            # Lane operators stall on *holding*, not on lane pauses --
            # and holding can arise without any pause at all (a rebalance
            # stash filling during a long migration window), so the
            # operator is consulted even when no output edge is paused.
            holding = operator.holding_pressure()
            # Stall accounting for lane operators: the holding transition
            # happens mid-processing (a stash filling), so the paused
            # clock starts and stops at the runtime's next observation
            # here -- every engine consults is_paused before scheduling,
            # which bounds the error to one scheduling step.
            name = operator.name
            if holding:
                self._paused_since.setdefault(name, self.clock.now())
            else:
                since = self._paused_since.pop(name, None)
                if since is not None:
                    operator.metrics.time_paused += max(
                        0.0, self.clock.now() - since
                    )
            return holding
        return bool(self._paused_outputs.get(operator.name))

    def check_pressure(self, producer: Operator, at: float | None = None) -> None:
        """Signal *pause* on any of ``producer``'s queues over high water.

        Called by engines right after a producer's activity.  The pause
        punctuation is issued on behalf of the edge's consumer (it is the
        consumer's queue that is congested) and travels upstream on the
        edge's control channel like any feedback.  A producer with no
        bounded output edge has nothing to check.
        """
        if producer.finished or producer.name not in self._bounded_outputs:
            return
        now = self.clock.now() if at is None else at
        for edge in producer.outputs:
            queue = edge.queue
            if queue.pressure_signalled or not queue.above_high_water:
                continue
            queue.pressure_signalled = True
            self._signal_flow(
                FlowControlKind.PAUSE, edge, edge.consumer, producer, now
            )

    def check_relief(self, consumer: Operator, at: float | None = None) -> None:
        """Signal *resume* on any of ``consumer``'s inputs at low water.

        Called by engines right after a consumer drained a page.  Resume
        toward an already-finished producer is skipped (the flag is still
        cleared): the stream is over and there is no emission to resume.
        A consumer with no bounded input edge has nothing to check.
        """
        if consumer.name not in self._bounded_inputs:
            return
        now = self.clock.now() if at is None else at
        for port in consumer.inputs:
            if port is None:
                continue
            queue = port.queue
            if not queue.pressure_signalled or not queue.below_low_water:
                continue
            queue.pressure_signalled = False
            producer = port.producer
            if producer is None or producer.finished:
                continue
            self._signal_flow(
                FlowControlKind.RESUME, port, consumer, producer, now
            )

    def _signal_flow(
        self,
        kind: FlowControlKind,
        link: OutputEdge | InputPort,
        consumer: Operator,
        producer: Operator,
        at: float,
    ) -> None:
        """Send one pause or resume about ``link``'s queue upstream, on
        behalf of its consumer: what :meth:`check_pressure` and
        :meth:`check_relief` signal, once."""
        if kind is FlowControlKind.PAUSE:
            consumer.metrics.pauses_issued += 1
        else:
            consumer.metrics.resumes_issued += 1
        queue = link.queue
        punct = FlowControlPunctuation(
            kind, queue.name, issuer=consumer.name, issued_at=at,
            occupancy=queue.occupancy,
        )
        link.control.stamp(
            ControlMessageKind.FLOW_CONTROL, Direction.UPSTREAM, punct,
            sender=consumer.name, at=at, runtime=self, reader=producer,
        )

    def apply_flow_control(
        self,
        operator: Operator,
        punct: FlowControlPunctuation,
        from_edge: OutputEdge | None,
    ) -> None:
        """Deliver one pause/resume to the producer it throttles.

        Reached from :meth:`~repro.operators.base.Operator._receive`.
        Every operator participates regardless of ``feedback_aware``:
        flow control is a runtime protocol, not a semantic hint, so the
        paper's incremental-deployment story (feedback-unaware operators
        ignore feedback) does not exempt anyone from backpressure.
        """
        paused = self._paused_outputs.setdefault(operator.name, set())
        at = self._activity_time(operator)
        if punct.is_pause:
            operator.metrics.pauses_received += 1
            # Lane-flow-control operators are not stalled by a lane pause
            # (they absorb and keep running), so no paused-time clock.
            if not paused and not operator.lane_flow_control:
                self._paused_since[operator.name] = at
            paused.add(punct.edge)
            # Flush open output pages: the consumer must be able to drain
            # everything buffered, or it could never reach its low-water
            # mark and the pause would deadlock (rule 1 of 3).
            operator.flush_outputs()
            operator.on_pause(punct, from_edge)
            self._on_paused(operator, at)
        else:
            operator.metrics.resumes_received += 1
            paused.discard(punct.edge)
            operator.on_resume(punct, from_edge)
            if not paused:
                since = self._paused_since.pop(operator.name, None)
                if since is not None:
                    operator.metrics.time_paused += max(0.0, at - since)
                if self.checkpoints is not None:
                    self.checkpoints.release(operator)
                self._on_resumed(operator, at)
            elif operator.lane_flow_control and not self.is_paused(operator):
                # Other lanes are still paused, but flushing this lane's
                # stash may have released the full stall: reschedule.
                self._on_resumed(operator, at)

    # -- input completion and finish ---------------------------------------------

    def mark_done_ports(self, operator: Operator) -> bool:
        """Mark exhausted input ports done (firing ``on_input_done``).

        Returns True when every input is done.  Until an input queue has
        closed no port can be done, so nothing is walked (and the clock
        is stamped only when a port is marked).
        """
        if not any(map(_CLOSED, self._input_queues[operator.name])):
            return False
        return operator._close_inputs(self._activity_time(operator))

    def check_input_completion(self, operator: Operator) -> None:
        """Finish ``operator`` once all of its inputs are closed and drained."""
        if operator.finished or isinstance(operator, SourceOperator):
            return
        if self.mark_done_ports(operator) and operator.inputs:
            self.finish_operator(operator)

    def finish_operator(self, operator: Operator) -> None:
        """Run ``on_finish`` and close the operator's output queues."""
        if operator.finished:
            return
        at = self._activity_time(operator)
        operator.set_now(at)
        if self.checkpoints is not None:
            self.checkpoints.release(operator)
        operator._finish()
        # A paused operator may finish (its inputs are exhausted; holding
        # it hostage to a resume that depends on downstream progress could
        # deadlock -- rule 2 of 3).  Settle its paused-time accounting.
        if self._paused_outputs.pop(operator.name, None):
            since = self._paused_since.pop(operator.name, None)
            if since is not None:
                operator.metrics.time_paused += max(0.0, at - since)
        if self.checkpoints is not None:
            self.checkpoints.operator_finished(operator)
        self._on_finished(operator, at)

    # -- sources ---------------------------------------------------------------------

    def dispatch_source_run(self, source: SourceOperator, run: list) -> None:
        """Emit a run of replayed source elements at the current clock time.

        The one way source elements enter a plan, on every engine.  A run
        is consecutive plain tuples -- one output-guard pass, one
        ``put_many`` per edge -- or a single punctuation on its own.
        Engines cut runs with :meth:`source_run_room` so that batching
        stays invisible to everything downstream.  The run that closes a
        checkpoint epoch is followed by the epoch's marker.
        """
        source.set_now(self.clock.now())
        checkpoints = self.checkpoints
        if checkpoints is not None:
            checkpoints.release(source)
        head = run[0]
        if not head.is_punctuation:
            source.emit_many(run)
        else:
            source.emit_punctuation(head)
        if checkpoints is not None:
            checkpoints.advance(source, len(run), self.control_latency == 0.0)

    def source_run_room(self, source: SourceOperator) -> int:
        """The longest run of tuples ``source`` may emit in one dispatch.

        At least one.  A longer run ends no later than the tuple that
        fills an output edge's open page (the page's ``available_at``
        stays that tuple's arrival), the tuple that brings a bounded edge
        to high water (the pause fires at the same element as it would
        tuple by tuple) or the tuple that closes a checkpoint epoch (the
        marker leaves behind it), whichever comes first.
        """
        room = min(
            (edge.queue.quiet_room() for edge in source.outputs), default=1
        )
        checkpoints = self.checkpoints
        if checkpoints is not None and checkpoints.every:
            room = min(room, checkpoints.epoch_room(source))
        return max(1, room)

    def replayed_prefix(self, source: SourceOperator) -> int:
        """Elements of ``source`` a recovery run must not emit again."""
        if self.checkpoints is None:
            return 0
        return self.checkpoints.replay_offsets.get(source.name, 0)

    def source_cursor(self, source: SourceOperator) -> SourceCursor:
        """``source.cursor()``, past the prefix a recovery run skips."""
        cursor = source.cursor()
        cursor.skip(self.replayed_prefix(source))
        return cursor

    # -- results ---------------------------------------------------------------------

    def collect_metrics(self) -> PlanMetrics:
        metrics = PlanMetrics()
        # Shard-lane membership, so fused composites inside a lane report
        # their stages under the lane ("group[lane]::composite::stage") --
        # without it, same-named replicas' stages would collapse into one
        # entry and the skew report could not attribute their work.
        lane_prefix: dict[str, str] = {}
        for group in self.plan.shard_groups:
            for index, lane in enumerate(group.lanes):
                for member in lane:
                    lane_prefix[member] = f"{group.name}[{index}]"
        for op in self.plan:
            metrics.operator_metrics[op.name] = op.metrics
            metrics.total_work += op.metrics.busy_time
            # Fused composites fold their per-stage counters into the
            # report under "composite::stage" keys (duck-typed so the
            # runtime stays ignorant of the optimizer package).
            prefix = lane_prefix.get(op.name)
            for stage in getattr(op, "fused_stages", ()):
                key = f"{op.name}::{stage.name}"
                if prefix is not None:
                    key = f"{prefix}::{key}"
                metrics.operator_metrics[key] = stage.metrics
        for op in self.plan:
            # Keyed by (producer, consumer, port) -- the structural edge
            # identity -- rather than the queue's display name, so the
            # replicated edges of a shard region and the several inputs
            # of a join/merge can never collapse into one entry.
            for edge in op.outputs:
                queue = edge.queue
                entry = QueueMetrics(
                    name=queue.name,
                    producer=op.name,
                    consumer=edge.consumer.name,
                    port=edge.consumer_port,
                    capacity=queue.capacity,
                    low_water=queue.low_water,
                    peak_occupancy=queue.peak_occupancy,
                    elements_enqueued=queue.elements_enqueued,
                    pages_flushed=queue.pages_flushed,
                )
                metrics.queue_metrics[entry.edge_key] = entry
        metrics.elastic_declines = list(self.elastic_declines)
        self._collect_shard_metrics(metrics)
        if self.checkpoints is not None:
            metrics.checkpoint_epochs = len(
                self.checkpoints.complete_epochs()
            )
            metrics.checkpoint_bytes = sum(
                m.snapshot_bytes
                for m in metrics.operator_metrics.values()
            )
            metrics.checkpoint_time = sum(
                m.snapshot_time
                for m in metrics.operator_metrics.values()
            )
        metrics.makespan = self.clock.now()
        return metrics

    def live_metrics(self) -> PlanMetrics:
        """A mid-run metrics snapshot for monitoring endpoints.

        :meth:`collect_metrics` reads plain counters and never blocks,
        so on the cooperative single-threaded asyncio engine it is safe
        to call from another coroutine while the run is in flight --
        this alias documents that contract for the serving layer's
        ``/metrics`` endpoint.  On the threaded/multiprocess engines the
        counters are written concurrently, so a live snapshot is
        approximate (torn reads of independent counters, never a crash);
        final end-of-run numbers remain exact on every engine.
        """
        return self.collect_metrics()

    def _collect_shard_metrics(self, metrics: PlanMetrics) -> None:
        """Roll operator counters up per shard-group lane (skew report)."""
        for group in self.plan.shard_groups:
            partition = self.plan.operator(group.partition)
            merge = self.plan.operator(group.merge)
            in_use = getattr(partition, "lanes_in_use", None)
            rollup = ShardGroupMetrics(
                name=group.name,
                key=group.key,
                n=group.n,
                regions_held=getattr(merge, "regions_held", 0),
                regions_released=getattr(merge, "regions_released", 0),
                rebalances=getattr(partition, "rebalances_completed", 0),
                keys_migrated=getattr(partition, "keys_migrated", 0),
            )
            for index, lane in enumerate(group.lanes):
                active = in_use is None or index in in_use
                members = [self.plan.operator(name).metrics for name in lane]
                ingress = (
                    partition.outputs[index].queue.elements_enqueued
                    if index < len(partition.outputs) else 0
                )
                rollup.lanes.append(
                    ShardLaneMetrics(
                        lane=index,
                        operators=lane,
                        ingress=ingress,
                        tuples_in=sum(m.tuples_in for m in members),
                        tuples_out=sum(m.tuples_out for m in members),
                        busy_time=sum(m.busy_time for m in members),
                        time_paused=sum(m.time_paused for m in members),
                        active=active,
                    )
                )
                if active:
                    continue
                # A parked lane's edges are stale topology: exclude them
                # from plan-wide peak rollups (their history pre-dates
                # the lane-count change).
                if index < len(partition.outputs):
                    edge = partition.outputs[index]
                    metrics.inactive_edges.add(
                        f"{partition.name}->"
                        f"{edge.consumer.name}[{edge.consumer_port}]"
                    )
                for name in lane:
                    for edge in self.plan.operator(name).outputs:
                        metrics.inactive_edges.add(
                            f"{name}->"
                            f"{edge.consumer.name}[{edge.consumer_port}]"
                        )
            metrics.shard_metrics[group.name] = rollup

    def build_result(self, metrics: PlanMetrics) -> RunResult:
        return RunResult(
            plan=self.plan,
            metrics=metrics,
            feedback_log=self.feedback_log,
            checkpoint_store=(
                self.checkpoints.store
                if self.checkpoints is not None else None
            ),
        )
