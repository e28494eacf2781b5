"""Out-of-band control channel between operators.

NiagaraST pairs every data queue with a control channel that carries
messages in *both* directions (paper Figure 3):

* downstream (with the data flow): ``END_OF_STREAM``, ``SHUTDOWN``;
* upstream (against the data flow): ``FEEDBACK`` (the paper's contribution),
  ``FLOW_CONTROL`` (runtime-generated pause/resume backpressure over the
  same channel), ``SHUTDOWN`` and -- for Example 4's on-demand result
  production -- ``RESULT_REQUEST``.

Control messages are out-of-band and high priority: engines always deliver
pending control before pending data pages.  Feedback punctuation is *not*
part of the stream (paper section 3.2); it travels here, serialised as the
message payload.  Every message is built and sent by one function,
:meth:`ControlChannel.stamp`, and taken by one,
:meth:`~repro.operators.base.Operator._receive`.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ControlMessageKind",
    "Direction",
    "ControlMessage",
    "ControlChannel",
]

_message_counter = itertools.count()


class Direction(enum.Enum):
    """Which way a control message travels relative to the data flow."""

    UPSTREAM = "upstream"      # against the data flow (feedback, shutdown)
    DOWNSTREAM = "downstream"  # with the data flow (end-of-stream, shutdown)


class ControlMessageKind(enum.Enum):
    """The kinds of control message the runtime understands."""

    FEEDBACK = "feedback"              # upstream; payload: FeedbackPunctuation
    FLOW_CONTROL = "flow_control"      # upstream; payload: FlowControlPunctuation
    RESULT_REQUEST = "result_request"  # upstream; payload: optional pattern
    CHECKPOINT = "checkpoint"          # upstream; payload: CheckpointPunctuation
    REBALANCE = "rebalance"            # either direction; payload: RebalanceCommand
                                       # (downstream: controller -> partition) or
                                       # RebalanceRecord ack (upstream: merge -> partition)
    END_OF_STREAM = "end_of_stream"    # downstream; payload: None
    SHUTDOWN = "shutdown"              # either direction; payload: reason str


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """A single out-of-band message.

    ``sender`` is the name of the issuing operator, recorded for diagnostics
    and for the feedback-provenance log used by the experiments.  ``seq`` is
    a global sequence number that gives control messages a stable total
    order (engines use it to break timestamp ties deterministically).
    """

    kind: ControlMessageKind
    direction: Direction
    payload: Any = None
    sender: str = ""
    #: Virtual time the sender issued the message.  The engines deliver it
    #: no earlier than ``sent_at`` plus the configured control latency.
    sent_at: float = 0.0
    seq: int = field(default_factory=lambda: next(_message_counter))

    def __repr__(self) -> str:
        return (
            f"ControlMessage({self.kind.value}, {self.direction.value}, "
            f"from={self.sender!r}, payload={self.payload!r})"
        )


class ControlChannel:
    """The control half of an inter-operator connection.

    One channel accompanies each data queue.  The *producer* end of the data
    queue reads the upstream side; the *consumer* end reads the downstream
    side.  Like :class:`~repro.stream.queues.DataQueue` this structure is
    single-threaded; the threaded runtime adds locking.
    """

    __slots__ = ("name", "_upstream", "_downstream",
                 "upstream_sent", "downstream_sent")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._upstream: deque[ControlMessage] = deque()
        self._downstream: deque[ControlMessage] = deque()
        self.upstream_sent = 0
        self.downstream_sent = 0

    def stamp(
        self,
        kind: ControlMessageKind,
        direction: Direction,
        payload: Any,
        *,
        sender: str,
        at: float,
        runtime: Any,
        reader: Any,
    ) -> ControlMessage:
        """Build one outgoing control message, queue it, wake its reader.

        The one place control is sent: an operator's upstream and
        downstream sends, the runtime's pause and resume, and the elastic
        controller's rebalance commands all come through here.  The
        message is stamped ``sender`` and ``sent_at=at`` (per-hop
        ``control_latency`` counts from it) and queued on the side its
        direction names; ``reader`` -- the operator that takes that side,
        or None when no operator does -- is woken on ``runtime`` at
        ``at``.  Returns the message.
        """
        message = ControlMessage(
            kind, direction, payload=payload, sender=sender, sent_at=at
        )
        self.send(message)
        if reader is not None:
            runtime.notify_control(reader, at=at)
        return message

    def send(self, message: ControlMessage) -> None:
        """Enqueue ``message`` on the side given by its direction."""
        if message.direction is Direction.UPSTREAM:
            self._upstream.append(message)
            self.upstream_sent += 1
        else:
            self._downstream.append(message)
            self.downstream_sent += 1

    def receive_upstream(self) -> ControlMessage | None:
        """Next message travelling upstream (read by the data producer)."""
        if self._upstream:
            return self._upstream.popleft()
        return None

    def receive_downstream(self) -> ControlMessage | None:
        """Next message travelling downstream (read by the data consumer)."""
        if self._downstream:
            return self._downstream.popleft()
        return None

    def peek_upstream(self) -> ControlMessage | None:
        """Head of the upstream side without removing it."""
        return self._upstream[0] if self._upstream else None

    def peek_downstream(self) -> ControlMessage | None:
        """Head of the downstream side without removing it."""
        return self._downstream[0] if self._downstream else None

    def side(self, direction: Direction) -> deque[ControlMessage]:
        """The deque messages travelling ``direction`` wait in: truthy
        while one does.  Engines index it once per run to tell an empty
        inbox without a call per channel."""
        return self._upstream if direction is Direction.UPSTREAM else (
            self._downstream
        )

    @property
    def pending_upstream(self) -> int:
        return len(self._upstream)

    @property
    def pending_downstream(self) -> int:
        return len(self._downstream)

    def __repr__(self) -> str:
        return (
            f"ControlChannel({self.name!r}, up={len(self._upstream)}, "
            f"down={len(self._downstream)})"
        )
