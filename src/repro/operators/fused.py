"""FusedOperator: a chain of stateless stages collapsed into one operator.

The optimizer (``repro.optimizer``) rewrites a ``QueryPlan`` so that a run
of adjacent single-input stateless verbs -- SELECT / PROJECT / MAP /
PASSTHROUGH -- executes as *one* schedulable unit: a page crosses one
queue instead of N, and the stage functions apply in-page, back to back,
with no intermediate page assembly.

Fidelity is the design constraint, not a bolt-on.  The composite wraps the
*real* stage operator instances and replaces only their inter-stage
plumbing with synchronous shims:

* **data** -- a :class:`_LinkQueue` between stages dispatches each
  ``put_many`` run straight into the next stage's ``process_page``, so
  guard filtering, punctuation transforms (a PROJECT absorbing a lossy
  pattern, a MAP widening onto carried attributes) and guard expiry all
  run exactly the materialized chain's code;
* **control** -- the stages are on the ordinary control walk: a message
  that reaches the composite goes, as it is, onto the end of the chain it
  arrived at, and every stage takes what reaches it through
  :meth:`~repro.operators.base.Operator._receive`, so the same hooks fire
  and the same metrics move as in the materialized chain.  An internal
  link is a plain :class:`~repro.stream.control.ControlChannel`; a
  :class:`_BoundaryControl` at each end re-stamps what leaves the chain
  and re-emits it on the composite's real ports;
* **checkpoints** -- ``CheckpointPunctuation`` markers are intercepted at
  the composite boundary by the inherited :class:`Operator` machinery
  (stages are stateless by the fusion criteria, so the composite's empty
  snapshot is exactly the union of the stages' empty snapshots), which
  keeps ``checkpoint_every=`` composing with ``optimize=True``;
* **flow control** -- a pause on the composite's output is the last
  stage's to take, and stalls the composite as a unit
  (:class:`_StageRuntime`); the internal links never buffer, so a paused
  composite holds exactly as many in-flight elements as a paused
  materialized chain's head.

Known, documented divergence: with ``control_latency > 0`` a message
crosses the composite in zero time (one boundary hop instead of N
internal hops); with the default latency of 0 delivery is identical.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import PlanError
from repro.operators.base import Operator, OutputEdge, _DetachedRuntime
from repro.punctuation.embedded import Punctuation
from repro.stream.control import ControlChannel, ControlMessage, Direction
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


class _StageRuntime(_DetachedRuntime):
    """The detached runtime, as a stage inside a composite sees it.

    A stage runs on the stub a harness-driven operator does, joined to
    the run at three points: feedback events land in the plan's one log,
    control sent over an internal link has the composite pump before it
    returns, and a pause or resume taken by the last stage stalls or
    releases the composite, the unit the engine schedules.
    ``checkpoints`` stays None: markers are handled at the composite
    boundary and must never be re-snapshotted per stage.
    """

    def __init__(self, fused: "FusedOperator") -> None:
        self.feedback_log = fused.runtime.feedback_log
        self._fused = fused

    def notify_control(self, operator: Operator, at: float | None = None) -> None:
        self._fused._control_waiting = True

    def apply_flow_control(
        self, operator: Operator, punct: Any, from_edge: OutputEdge | None
    ) -> None:
        super().apply_flow_control(operator, punct, from_edge)
        self._fused.runtime.apply_flow_control(self._fused, punct, None)


class _LinkQueue:
    """Synchronous data shim between two fused stages.

    Quacks like the producer side of a :class:`DataQueue` but hands every
    run straight to the consumer stage -- no page, no buffer, so a
    checkpoint cut at the composite boundary can never strand an element
    inside the composite.
    """

    __slots__ = ("name", "consumer")

    def __init__(self, name: str, consumer: Operator) -> None:
        self.name = name
        self.consumer = consumer

    def put_many(self, elements: list) -> int:
        self.consumer.process_page(0, elements)
        return 0

    def flush(self) -> bool:
        return False

    def close(self) -> None:
        pass


class _TailQueue:
    """The last stage's output shim: what the last stage emits, the
    composite emits, through its own output rules."""

    __slots__ = ("name", "fused")

    def __init__(self, name: str, fused: "FusedOperator") -> None:
        self.name = name
        self.fused = fused

    def put_many(self, elements: list) -> int:
        self.fused._emit(elements)
        return 0

    def flush(self) -> bool:
        self.fused.flush_outputs()
        return False

    def close(self) -> None:
        pass


class _BoundaryControl(ControlChannel):
    """The control channel on the chain's first input or last output.

    A message sent *outward* has crossed the composite: it leaves,
    re-stamped, on the composite's real ports.  One sent inward queues
    for the stage at this end, like on any channel.
    """

    __slots__ = ("_outward", "_leave")

    def __init__(self, name: str, outward: Direction, leave: Any) -> None:
        super().__init__(name)
        self._outward = outward
        self._leave = leave

    def send(self, message: ControlMessage) -> None:
        if message.direction is self._outward:
            self._leave(message.kind, message.payload)
        else:
            super().send(message)


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
        self.stage_names = tuple(stage.name for stage in stages)
        self._stages = stages
        self._head = stages[0]
        self._tail = stages[-1]
        #: Set when a stage was sent control over an internal link; every
        #: entry point pumps before it returns.
        self._control_waiting = False
        self._wire_stages()

    # ------------------------------------------------------------------ wiring

    def _wire_stages(self) -> None:
        head_name = f"{self.name}::<head>"
        head_control = _BoundaryControl(
            head_name, Direction.UPSTREAM, self._send_upstream
        )
        self._head.attach_input(0, DataQueue(head_name), head_control, None)
        for producer, consumer in zip(self._stages, self._stages[1:]):
            link_name = f"{self.name}::{producer.name}->{consumer.name}"
            queue = _LinkQueue(link_name, consumer)
            control = ControlChannel(link_name)
            producer.attach_output(OutputEdge(queue, control, consumer, 0))
            consumer.attach_input(0, queue, control, producer)
        tail_name = f"{self.name}::<tail>"
        tail_control = _BoundaryControl(
            tail_name, Direction.DOWNSTREAM, self._send_downstream
        )
        self._tail.attach_output(
            OutputEdge(_TailQueue(tail_name, self), tail_control, self, 0)
        )

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
        # Each stage ends the way every operator does, in chain order: a
        # stage's final emissions (none, for the stateless whitelist, but
        # the protocol stands) reach its successors before *their* finish.
        for stage in self._stages:
            stage._close_inputs(declared=True)
            stage._finish()
        if self._control_waiting:
            self._pump_control()

    def on_run_aborted(self, error: BaseException) -> None:
        for stage in self._stages:
            if not stage.finished:
                stage.on_run_aborted(error)

    # ---------------------------------------------------------------- data path

    def on_page(self, port_index: int, batch: list) -> None:
        self._head.process_page(0, batch)
        if self._control_waiting:
            self._pump_control()

    def on_punctuation(self, port_index: int, punct: Punctuation) -> None:
        self._head.process_page(0, [punct])
        if self._control_waiting:
            self._pump_control()

    # ------------------------------------------------------------- control path

    def _receive(
        self, message: ControlMessage, from_edge: OutputEdge | None = None
    ) -> None:
        """A composite has no control rule of its own.

        The message goes, as it arrived, onto the end of the chain it
        came in at, and the stages take it from there: feedback relays
        stage by stage, each running its own exploit hooks; a pause is
        the last stage's; whatever escapes an end leaves on the
        composite's real ports.
        """
        self.metrics.control_messages += 1
        if message.direction is Direction.UPSTREAM:
            self._tail.outputs[0].control.send(message)
        else:
            self._head.inputs[0].control.send(message)
        self._control_waiting = True
        self._pump_control()

    def _pump_control(self) -> None:
        """Every stage takes the control that has reached it, until none
        is waiting: what ``RuntimeCore.drain_control`` is to a plan.
        Internal links have no latency, so whatever is queued has
        arrived; sweeping from the tail moves an upstream message the
        whole chain in one pass, in the materialized chain's hop order.
        """
        while self._control_waiting:
            self._control_waiting = False
            for stage in reversed(self._stages):
                edge, port = stage.outputs[0], stage.inputs[0]
                while (message := edge.control.receive_upstream()) is not None:
                    stage._receive(message, edge)
                while (message := port.control.receive_downstream()) is not None:
                    stage._receive(message, None)

    # ------------------------------------------------------------------- repr

    def __repr__(self) -> str:
        inner = " -> ".join(
            f"{s.name}:{type(s).__name__}" for s in self._stages
        )
        return f"FusedOperator({inner})"
