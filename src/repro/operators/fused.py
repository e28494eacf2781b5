"""FusedOperator: a chain of stateless stages collapsed into one operator.

The optimizer (``repro.optimizer``) rewrites a ``QueryPlan`` so that a run
of adjacent single-input stateless verbs -- SELECT / PROJECT / MAP /
PASSTHROUGH -- executes as *one* schedulable unit: a page crosses one
queue instead of N, and the stage functions apply in-page, back to back,
with no intermediate page assembly.

Fidelity is the design constraint, not a bolt-on.  The composite wraps the
*real* stage operator instances and replaces only their inter-stage
plumbing with synchronous shims:

* **data** -- a :class:`_LinkQueue` between stages dispatches ``put_many``
  (and ``put``, as a page of one) straight into the next stage's
  ``process_page``, so guard filtering, punctuation transforms (a
  PROJECT absorbing a lossy pattern, a MAP widening onto carried
  attributes) and guard expiry all run exactly the materialized chain's
  code;
* **control** -- a :class:`_LinkControl` carries feedback, result
  requests and unknown-kind forwards hop by hop through the stages (same
  per-stage exploit/relay hooks, same metrics), queued on the composite
  and pumped breadth-first so delivery *order* matches the materialized
  chain; at the head/tail the message is re-stamped and re-emitted on the
  composite's real ports;
* **checkpoints** -- ``CheckpointPunctuation`` markers are intercepted at
  the composite boundary by the inherited :class:`Operator` machinery
  (stages are stateless by the fusion criteria, so the composite's empty
  snapshot is exactly the union of the stages' empty snapshots), which
  keeps ``checkpoint_every=`` composing with ``optimize=True``;
* **flow control** -- engines pause/resume the composite as a unit; the
  internal links never buffer, so a paused composite holds exactly as
  many in-flight elements as a paused materialized chain's head.

Known, documented divergence: with ``control_latency > 0`` a message
crosses the composite in zero time (one boundary hop instead of N
internal hops); with the default latency of 0 delivery is identical.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.core.feedback import FeedbackPunctuation
from repro.errors import PlanError
from repro.operators.base import Operator, OutputEdge
from repro.punctuation.embedded import Punctuation
from repro.punctuation.patterns import Pattern
from repro.stream.control import ControlMessage, ControlMessageKind, Direction
from repro.stream.queues import DataQueue

__all__ = ["FusedOperator", "fused_name"]


def fused_name(stages: Sequence[Operator]) -> str:
    """The composite's deterministic plan name.

    Derived purely from the stage names so an optimized recovery run
    rebuilds the exact names of the optimized run that wrote the
    checkpoints (``CheckpointCoordinator.complete_epochs`` requires state
    per operator *name*).
    """
    return "+".join(stage.name for stage in stages)


class _StageRuntime:
    """The runtime surface stages see inside a composite.

    Clock and logs defer to the composite's live runtime; notifications
    are no-ops (internal links dispatch synchronously, so there is nothing
    to wake).  Deliberately *without* a ``checkpoints`` attribute: markers
    are handled at the composite boundary and must never be re-snapshotted
    per stage.
    """

    __slots__ = ("_fused",)

    def __init__(self, fused: "FusedOperator") -> None:
        self._fused = fused

    def now(self) -> float:
        return self._fused.now()

    @property
    def feedback_log(self) -> Any:
        return self._fused.runtime.feedback_log

    def notify_control(self, operator: Operator, at: float | None = None) -> None:
        pass

    def notify_data(self, operator: Operator) -> None:
        pass


class _LinkQueue:
    """Synchronous data shim between two fused stages.

    Quacks like the producer side of a :class:`DataQueue` but hands every
    element straight to the consumer stage -- no page, no buffer, so a
    checkpoint cut at the composite boundary can never strand an element
    inside the composite.
    """

    __slots__ = ("name", "consumer")

    def __init__(self, name: str, consumer: Operator) -> None:
        self.name = name
        self.consumer = consumer

    def put(self, element: Any) -> bool:
        self.consumer.process_page(0, [element])
        return False

    def put_many(self, elements: list) -> int:
        self.consumer.process_page(0, elements)
        return 0

    def flush(self) -> bool:
        return False

    def close(self) -> None:
        pass


class _TailQueue:
    """The last stage's output shim: deliver on the composite's real edges."""

    __slots__ = ("name", "fused")

    def __init__(self, name: str, fused: "FusedOperator") -> None:
        self.name = name
        self.fused = fused

    def put(self, element: Any) -> bool:
        if element.is_punctuation:
            self.fused.emit_punctuation(element)
        else:
            self.fused.emit(element)
        return False

    def put_many(self, elements: list) -> int:
        return self.fused.emit_many(elements)

    def flush(self) -> bool:
        self.fused.flush_outputs()
        return False

    def close(self) -> None:
        pass


class _LinkControl:
    """Control shim for one internal (or boundary) link.

    ``send`` enqueues the message on the composite's pending deque keyed
    with the stage it targets; the composite pumps the deque breadth-first
    after every entry point, so hop-by-hop delivery order matches the
    materialized chain.  ``producer``/``consumer`` are the link's two
    stages; ``None`` marks the composite boundary in that direction.
    """

    __slots__ = ("name", "fused", "producer", "consumer", "producer_edge")

    def __init__(
        self,
        name: str,
        fused: "FusedOperator",
        producer: Operator | None,
        consumer: Operator | None,
    ) -> None:
        self.name = name
        self.fused = fused
        self.producer = producer
        self.consumer = consumer
        #: The producer stage's output edge over this link (for
        #: ``receive_feedback(from_edge=...)`` fidelity); set after wiring.
        self.producer_edge: OutputEdge | None = None

    def send(self, message: ControlMessage) -> None:
        if message.direction is Direction.UPSTREAM:
            if self.producer is None:
                # Crossed the head: re-emit on the composite's real ports.
                self.fused._send_upstream(message.kind, message.payload)
            else:
                self.fused._ctl_pending.append(
                    (self.producer, message, self.producer_edge)
                )
        else:
            if self.consumer is None:
                # Crossed the tail: re-emit on the composite's real edges.
                self.fused._send_downstream(message.kind, message.payload)
            else:
                self.fused._ctl_pending.append(
                    (self.consumer, message, None)
                )


class FusedOperator(Operator):
    """A pipeline of single-input stateless stages run as one operator.

    Construct with the stage instances in upstream-to-downstream order;
    every stage must be fully disconnected (the optimizer unwires them
    from the plan first).  The composite takes the head's input and the
    tail's output seat in the plan.
    """

    def __init__(self, stages: Sequence[Operator], **kwargs: Any) -> None:
        stages = tuple(stages)
        if len(stages) < 2:
            raise PlanError("FusedOperator needs at least two stages")
        for stage in stages:
            if stage.n_inputs != 1:
                raise PlanError(
                    f"fused stage {stage.name!r} has {stage.n_inputs} "
                    f"inputs; only single-input stages fuse"
                )
            if stage.outputs or any(p is not None for p in stage.inputs):
                raise PlanError(
                    f"fused stage {stage.name!r} is still wired; "
                    f"disconnect it from the plan first"
                )
        super().__init__(
            fused_name(stages), stages[-1].output_schema, **kwargs
        )
        #: The wrapped stages, upstream to downstream (public: renderers
        #: and the metrics rollup duck-type on this attribute).
        self.fused_stages: tuple[Operator, ...] = stages
        self._stages = stages
        self._head = stages[0]
        self._tail = stages[-1]
        # The composite answers feedback exactly as its tail would have:
        # a feedback-unaware tail (PassThrough) ignores and stops it,
        # matching the materialized chain.
        self.feedback_aware = self._tail.feedback_aware
        #: Pending internal control deliveries (stage, message, from_edge),
        #: pumped breadth-first -- the materialized chain's hop order.
        self._ctl_pending: deque = deque()
        self._wire_stages()

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self._stages)

    def stage_metrics(self) -> dict[str, Any]:
        """Per-stage metrics, the composite's folded report."""
        return {stage.name: stage.metrics for stage in self._stages}

    # ------------------------------------------------------------------ wiring

    def _wire_stages(self) -> None:
        head_ctl = _LinkControl(
            f"{self.name}::<head>", self, None, self._head
        )
        self._head.attach_input(
            0, DataQueue(f"{self.name}::<head>"), head_ctl, None
        )
        for producer, consumer in zip(self._stages, self._stages[1:]):
            link_name = f"{self.name}::{producer.name}->{consumer.name}"
            queue = _LinkQueue(link_name, consumer)
            control = _LinkControl(link_name, self, producer, consumer)
            edge = OutputEdge(queue, control, consumer, 0)
            control.producer_edge = edge
            producer.attach_output(edge)
            consumer.attach_input(0, queue, control, producer)
        tail_name = f"{self.name}::<tail>"
        tail_ctl = _LinkControl(tail_name, self, self._tail, None)
        tail_edge = OutputEdge(
            _TailQueue(tail_name, self), tail_ctl, self, 0
        )
        tail_ctl.producer_edge = tail_edge
        self._tail.attach_output(tail_edge)

    # ---------------------------------------------------------------- lifecycle

    def set_now(self, timestamp: float) -> None:
        self._now = timestamp
        for stage in self._stages:
            stage._now = timestamp

    def on_start(self) -> None:
        runtime = _StageRuntime(self)
        for stage in self._stages:
            stage.runtime = runtime
            stage._now = self._now
            stage.on_start()

    def on_finish(self) -> None:
        # Drive each stage's end-of-stream lifecycle in chain order, so a
        # stage's final emissions (none, for the stateless whitelist, but
        # the protocol stands) reach its successors before *their* finish.
        for stage in self._stages:
            stage._now = self._now
            port = stage.inputs[0]
            if port is not None:
                port.done = True
            stage.on_input_done(0)
            stage.on_finish()
            stage.finished = True
        self._pump_control()

    def on_run_aborted(self, error: BaseException) -> None:
        for stage in self._stages:
            if not stage.finished:
                stage.on_run_aborted(error)

    # ---------------------------------------------------------------- data path

    def on_page(self, port_index: int, batch: list) -> None:
        self._head.process_page(0, batch)
        if self._ctl_pending:
            self._pump_control()

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        self._head.process_page(0, [punct])
        if self._ctl_pending:
            self._pump_control()

    # ------------------------------------------------------------- control path

    def _pump_control(self) -> None:
        """Deliver queued internal control, breadth-first.

        Mirrors ``RuntimeCore.drain_control``'s dispatch-by-kind, one
        stage hop per iteration; a delivery may enqueue the next hop.
        """
        pending = self._ctl_pending
        while pending:
            stage, message, from_edge = pending.popleft()
            stage.metrics.control_messages += 1
            stage._now = self._now
            if message.kind is ControlMessageKind.FEEDBACK and isinstance(
                message.payload, FeedbackPunctuation
            ):
                stage.receive_feedback(message.payload, from_edge=from_edge)
            elif message.kind is ControlMessageKind.RESULT_REQUEST:
                stage.on_result_request(message.payload)
            else:
                stage.forward_control(message)

    def receive_feedback(
        self,
        feedback: FeedbackPunctuation,
        from_edge: OutputEdge | None = None,
    ) -> list:
        """Feedback enters at the tail and relays stage by stage.

        Each stage runs its own exploit hooks (input guards for SELECT,
        back-mapped guards for PROJECT/MAP, ignore-and-stop for a
        feedback-unaware PASSTHROUGH) and its own relay; whatever escapes
        the head leaves on the composite's real input ports.
        """
        self.feedback_source_edge = from_edge
        self.metrics.feedback_received += 1
        actions = self._tail.receive_feedback(feedback, from_edge=None)
        self._pump_control()
        return actions

    def on_result_request(self, pattern: Pattern | None) -> None:
        self._tail.on_result_request(pattern)
        self._pump_control()

    def forward_control(self, message: ControlMessage) -> None:
        """Unknown kinds traverse the stages as the materialized chain."""
        self.metrics.control_forwarded += 1
        entry = (
            self._tail
            if message.direction is Direction.UPSTREAM
            else self._head
        )
        entry.forward_control(message)
        self._pump_control()

    # ------------------------------------------------------- elastic rebalancing

    def rebalance_migratable(self, key_names: Sequence[str]) -> str | None:
        """Delegate to the stages: the composite migrates iff all do.

        The fusion whitelist is stateless, so every stage answers None
        today; the delegation keeps the composite honest should the
        whitelist ever widen.  Rebalance markers themselves are handled
        at the composite boundary by the inherited machinery -- the
        internal links never buffer, so boundary handling is exactly
        equivalent to the materialized chain's hop-by-hop sweep.
        """
        for stage in self._stages:
            reason = stage.rebalance_migratable(key_names)
            if reason is not None:
                return f"{stage.name}: {reason}"
        return None

    # ------------------------------------------------------------- flow control

    def on_pause(self, punct: Any, from_edge: OutputEdge | None) -> None:
        for stage in self._stages:
            stage.on_pause(punct, None)

    def on_resume(self, punct: Any, from_edge: OutputEdge | None) -> None:
        for stage in self._stages:
            stage.on_resume(punct, None)

    # ------------------------------------------------------------------- repr

    def __repr__(self) -> str:
        inner = " -> ".join(
            f"{s.name}:{type(s).__name__}" for s in self._stages
        )
        return f"FusedOperator({inner})"
