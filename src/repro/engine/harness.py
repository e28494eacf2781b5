"""OperatorHarness: drive a single operator outside a full plan.

Useful for unit tests, characterization conformance checks (the
machine-checkable Tables 1-2 of the paper) and operator development: the
harness wires stub queues and control channels to every port, lets you
push tuples / punctuation / feedback directly, and exposes what the
operator emitted downstream and sent upstream -- the three feedback roles
(producer / exploiter / relayer, paper section 3.5) observed in
isolation.

Example::

    harness = OperatorHarness(my_count_operator)
    harness.push(tup)                      # deliver a tuple on port 0
    harness.push_punctuation(punct)
    actions = harness.feedback(assumed)    # deliver feedback from below
    harness.emitted_tuples()               # what went downstream
    harness.upstream_feedback(0)           # what was relayed to input 0
"""

from __future__ import annotations

from typing import Any

from repro.core.feedback import FeedbackPunctuation
from repro.core.roles import ExploitAction
from repro.operators.base import Operator, OutputEdge
from repro.punctuation.embedded import Punctuation
from repro.stream.control import (
    ControlChannel,
    ControlMessage,
    ControlMessageKind,
    Direction,
)
from repro.stream.queues import DataQueue
from repro.stream.tuples import StreamTuple

__all__ = ["OperatorHarness"]


class OperatorHarness:
    """Wire one operator to stub endpoints and drive it synchronously."""

    def __init__(self, operator: Operator, *, outputs: int = 1) -> None:
        self.operator = operator
        self._in_queues: list[DataQueue] = []
        self._in_controls: list[ControlChannel] = []
        for index in range(operator.n_inputs):
            queue = DataQueue(f"harness-in[{index}]")
            control = ControlChannel(f"harness-in[{index}]")
            operator.attach_input(index, queue, control, producer=None)
            self._in_queues.append(queue)
            self._in_controls.append(control)
        self._out_queues: list[DataQueue] = []
        self._out_controls: list[ControlChannel] = []
        self.edges: list[OutputEdge] = []
        for index in range(outputs):
            queue = DataQueue(f"harness-out[{index}]")
            control = ControlChannel(f"harness-out[{index}]")
            edge = OutputEdge(queue, control, consumer=operator,
                              consumer_port=index)
            operator.attach_output(edge)
            self._out_queues.append(queue)
            self._out_controls.append(control)
            self.edges.append(edge)
        operator.on_start()
        self._clock = 0.0
        self._collected: list[list[Any]] = [[] for _ in range(outputs)]

    # -- driving -------------------------------------------------------------

    def tick(self, delta: float = 1.0) -> float:
        """Advance the harness clock (stamped onto the operator)."""
        self._clock += delta
        self.operator.set_now(self._clock)
        return self._clock

    def push(self, element: StreamTuple | Punctuation, *, port: int = 0) -> None:
        """Deliver one stream element to an input port."""
        self.push_page([element], port=port)

    def push_all(self, elements: list, *, port: int = 0) -> None:
        for element in elements:
            self.push(element, port=port)

    def push_punctuation(self, punct: Punctuation, *, port: int = 0) -> None:
        self.push(punct, port=port)

    def push_page(self, elements: list, *, port: int = 0) -> None:
        """Deliver a whole page at once, as the wall-clock engines do.

        Pushing the same elements one by one (:meth:`push_all`) must
        give the same results -- the page boundary carries no semantics
        -- which makes that invariance testable operator by operator.
        """
        self.tick(0.0)
        self.operator.process_page(port, elements)

    def control(
        self,
        kind: ControlMessageKind,
        payload: Any = None,
        *,
        direction: Direction = Direction.UPSTREAM,
        from_output: int = 0,
    ) -> Any:
        """Deliver one control message the way an engine's drain does.

        An upstream message arrives on output edge ``from_output`` (a
        consumer sent it); a downstream one is a notice from a producer.
        """
        self.tick(0.0)
        message = ControlMessage(
            kind, direction, payload=payload, sender="harness",
            sent_at=self._clock,
        )
        return self.operator._receive(
            message,
            self.edges[from_output]
            if direction is Direction.UPSTREAM else None,
        )

    def feedback(
        self,
        feedback: FeedbackPunctuation,
        *,
        from_output: int = 0,
    ) -> list[ExploitAction]:
        """Deliver feedback as if sent by the consumer on one output edge."""
        return self.control(
            ControlMessageKind.FEEDBACK, feedback, from_output=from_output
        )

    def finish(self) -> None:
        """Declare every input done and run the finish hook."""
        self.operator._close_inputs(declared=True)
        self.operator._finish()

    # -- observation --------------------------------------------------------------

    def emitted(self, *, output: int = 0) -> list[Any]:
        """Everything emitted downstream so far (cumulative).

        Repeated calls return the full history: the queue is drained into
        an internal collection, so observing tuples never discards
        punctuation emitted in between (and vice versa).
        """
        queue = self._out_queues[output]
        queue.flush()
        self._collected[output].extend(queue.drain_elements())
        return list(self._collected[output])

    def emitted_tuples(self, *, output: int = 0) -> list[StreamTuple]:
        return [e for e in self.emitted(output=output) if not e.is_punctuation]

    def emitted_punctuation(self, *, output: int = 0) -> list[Punctuation]:
        return [e for e in self.emitted(output=output) if e.is_punctuation]

    def upstream_feedback(self, port: int = 0) -> list[FeedbackPunctuation]:
        """Feedback messages the operator sent toward input ``port``."""
        collected: list[FeedbackPunctuation] = []
        control = self._in_controls[port]
        while (message := control.receive_upstream()) is not None:
            if isinstance(message.payload, FeedbackPunctuation):
                collected.append(message.payload)
        return collected

    def input_guard_count(self, port: int = 0) -> int:
        return self.operator.input_port(port).guards.active
