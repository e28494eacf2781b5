"""The threaded runtime's wake-up seam.

The threaded runtime is *notification-driven* (paper section 5: "each
operator has an object that it sleeps on when it has no work to do.  An
operator is awakened when a new data page or control message is sent to
it").  Its operator threads park on one ``threading.Condition``;
:class:`ThreadConditionWaiter` is the handle the rest of the runtime
notifies it through -- operator callbacks, scheduled actions, and
:class:`~repro.stream.queues.DataQueue` itself: a queue with a waiter
attached (``DataQueue.attach_waiter``) announces "a page became ready /
the stream closed" from whichever thread produced it, including
producers that emit outside the engine's plan lock.

The cooperative engines need none of this: the simulator and the asyncio
engine run every operator step from one scheduler loop, which learns
about new pages by stamping them (``DataQueue.stamp_ready``) after each
step.
"""

from __future__ import annotations

import threading

__all__ = ["ThreadConditionWaiter"]


class ThreadConditionWaiter:
    """Adapter over ``threading.Condition`` for the threaded runtime.

    ``notify_all`` acquires the condition's (re-entrant) lock itself, so
    it is safe both from a worker thread that already holds the engine
    lock and from one that does not (a producer emitting pages outside
    the plan lock).
    """

    __slots__ = ("condition",)

    def __init__(self, condition: threading.Condition | None = None) -> None:
        self.condition = (
            condition if condition is not None
            else threading.Condition(threading.RLock())
        )

    def notify_all(self) -> None:
        with self.condition:
            self.condition.notify_all()

    def __repr__(self) -> str:
        return "ThreadConditionWaiter()"
