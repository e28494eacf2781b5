"""Async channels: the bridge between network endpoints and a plan.

The serving layer (``repro.serving``, docs/serving.md) turns the asyncio
engine into a long-running service: socket handlers on one side, an
always-on dataflow on the other.  This module is the seam between them,
deliberately placed in the engine-agnostic stream substrate:

* :class:`Channel` is the *ingest* adapter -- a bounded, closable,
  multi-producer channel whose :meth:`Channel.runs` async generator
  plugs straight into :class:`~repro.operators.source.
  AsyncIterableSource` (``Flow.ingest``).  When the plan's interior
  queues cross their high-water marks, the engine's pause
  :class:`~repro.core.feedback.FlowControlPunctuation` parks the source's
  pump task, the channel fills to its own capacity, and
  :meth:`Channel.put_run` awaits -- which suspends the socket handler and
  stops it reading, so backpressure reaches the client's TCP connection
  without a single dropped element.

* :class:`Broadcast` is the *delivery* adapter -- a fan-out hub a
  :class:`~repro.operators.sink.PushSink` publishes into
  (``.push(...)``).  Every subscriber gets a bounded buffer; when any
  buffer crosses the hub's high-water mark the hub's *gate* closes, and
  admission paths that honour :meth:`Broadcast.wait_open` (the serving
  supervisor's ingest) stall new input until the slowest consumer drains
  back below the low-water mark.  Nothing is ever dropped: a slow
  consumer converts into upstream delay, exactly like the engine's
  in-plan watermarks.

Both ends are one async buffer.  A :class:`Channel` is buffered by its
producers (:meth:`Channel.put_run`) and drained by its consumer, which
awaits :meth:`Channel.ready` and pops a run with :meth:`Channel.take`.  A
:class:`Subscription` *is* a channel: the hub publishes into it instead
of a producer awaiting room, and its ``take`` lets the hub look at its
gate.  Everything that enters either buffer goes through one admission
step, so ``admitted`` / ``delivered`` / ``peak_backlog`` mean the same on
both.

Both move *runs*: a producer admits a list in one call
(:meth:`Channel.put_run`), the plan takes whatever is buffered as one
source event (:meth:`Channel.runs`, a view of ``ready``/``take``), a
sink publishes a page (:meth:`Broadcast.publish_page`) and a delivery
handler takes what its subscription holds (``take``).  A run is only
ever what is already there -- nothing waits to fill one -- and the
one-element forms (:meth:`Channel.put`, :meth:`Channel.stream`,
:meth:`Broadcast.publish`, ``Subscription.__anext__``) are views of the
run forms.

Both classes are single-event-loop objects (the serving layer multiplexes
every flow on one loop); producers and consumers must share that loop.
They survive engine restarts: a supervisor that rebuilds a crashed flow
re-subscribes a fresh ``AsyncIterableSource`` to the *same* channel, so
elements admitted while the flow was down are delivered by the next run.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, AsyncIterator, Awaitable, Iterable, Sequence

from repro.errors import ServingError
from repro.stream.pages import DEFAULT_PAGE_SIZE
from repro.stream.schema import Schema

__all__ = ["Broadcast", "Channel", "Subscription"]


class Channel:
    """Bounded multi-producer channel feeding an async-iterable source.

    ``capacity`` bounds the in-channel backlog: :meth:`put` awaits while
    the buffer is full, so a producer (a socket handler) is suspended --
    not failed, not dropped -- until the plan drains.  ``close()`` ends
    the stream: the consuming source sees end-of-stream once the backlog
    is drained, which is how the serving layer's clean *drain* works.
    """

    def __init__(
        self, name: str, schema: Schema | None, *, capacity: int = 256
    ) -> None:
        if capacity < 1:
            raise ServingError(
                f"channel {name!r} needs capacity >= 1, got {capacity}"
            )
        self.name = name
        self.schema = schema
        self.capacity = capacity
        self.buffer: deque[Any] = deque()
        self._closed = False
        #: Sequence number of the last admitted element; doubles as the
        #: (virtual) arrival time yielded to bridged engines.
        self.admitted = 0
        self.delivered = 0
        self.peak_backlog = 0
        self._data = asyncio.Event()    # buffer non-empty, or closed
        self._space = asyncio.Event()   # backlog below capacity
        self._space.set()

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def idle(self) -> bool:
        """True when every admitted element has been taken by the plan."""
        return not self.buffer

    # -- producer side ---------------------------------------------------------

    def put(self, element: Any) -> Awaitable[int]:
        """Admit one element, awaiting while the channel is full.

        Awaited, returns the element's 1-based admission sequence number
        or raises :class:`~repro.errors.ServingError` on a closed channel
        -- the caller (a socket handler) turns that into a client error.
        A run of one: this *is* :meth:`put_run`'s awaitable.
        """
        return self.put_run((element,))

    async def put_run(
        self,
        run: Sequence[Any],
        *,
        gates: Iterable["Broadcast"] = (),
    ) -> int:
        """Admit a run of elements in order, as much at a time as fits.

        What fits goes in at once; the rest awaits space, so a producer
        (a socket handler) is suspended with the part of its run the
        channel cannot hold yet.  ``gates`` are delivery hubs whose gate
        must be open (:meth:`Broadcast.wait_open`) before each part goes
        in -- a slow subscriber may have closed one during a wait for
        space, so they are looked at again after every such wait.  Returns the sequence number of the
        last element admitted; raises on a closed channel like
        :meth:`put`, the elements admitted before the close staying
        admitted.
        """
        while True:
            for hub in gates:
                await hub.wait_open()
            if self._closed:
                raise ServingError(
                    f"channel {self.name!r} is closed to new input"
                )
            room = self.capacity - len(self.buffer)
            if room >= len(run):
                part, run = run, ()
            else:
                part, run = run[:room], run[room:]
            if part:
                self._admit(part)
            if not run:
                return self.admitted
            self._space.clear()
            await self._space.wait()

    def _admit(self, run: Sequence[Any]) -> None:
        """Buffer ``run`` and wake the consumer: every way in ends here."""
        buffer = self.buffer
        buffer.extend(run)
        self.admitted += len(run)
        if len(buffer) > self.peak_backlog:
            self.peak_backlog = len(buffer)
        self._data.set()

    def close(self) -> None:
        """End the stream: no new input; the backlog still drains."""
        self._closed = True
        self._data.set()
        self._space.set()  # parked producers wake and observe the close

    # -- consumer side ---------------------------------------------------------

    async def ready(self) -> bool:
        """Park until something is buffered; False once the stream is over.

        Over means the channel closed and its backlog has drained.
        """
        buffer = self.buffer
        while not buffer:
            if self._closed:
                return False
            self._data.clear()
            await self._data.wait()
        return True

    def take(self, count: int) -> list:
        """Pop the first ``count`` buffered elements (there must be that
        many) and make room for the producers they were holding up."""
        popleft = self.buffer.popleft
        taken = [popleft() for _ in range(count)]
        self.delivered += count
        self._space.set()
        return taken

    async def runs(self) -> AsyncIterator[tuple[float, list]]:
        """The ``(arrival, run)`` async iterator a source consumes.

        A run is whatever is buffered when the consumer asks, at most one
        default-sized page of it (a longer run would only be cut again at
        the source's output page, and would sit outside ``capacity``
        while it waited there); the generator parks only while the buffer
        is empty and never waits to fill a run, so one element in is a
        run of one out.  This is the ``events_factory`` ``Flow.ingest``
        wires into :class:`~repro.operators.source.AsyncIterableSource`:
        arrival is the admission sequence number of the run's last
        element, giving bridged engines a monotone virtual timeline.  May
        be called again after a run died -- the new iterator picks up the
        surviving backlog.  A view of :meth:`ready` and :meth:`take`.
        """
        buffer = self.buffer
        while buffer or await self.ready():
            run = self.take(min(len(buffer), DEFAULT_PAGE_SIZE))
            yield float(self.delivered), run

    async def stream(self) -> AsyncIterator[tuple[float, Any]]:
        """:meth:`runs`, one ``(arrival, element)`` at a time.

        The element-wise view for consumers that want single elements;
        it reads ahead by the run it is handing out.
        """
        async for arrival, run in self.runs():
            arrival -= len(run)
            for offset, element in enumerate(run, 1):
                yield arrival + offset, element


class Subscription(Channel):
    """One consumer's buffer on a :class:`Broadcast` hub: a channel the
    hub publishes into.

    Async-iterable: ``async for element in subscription`` yields
    published elements in order and ends when the hub closes (after the
    backlog drains) or the subscription is cancelled via :meth:`close`.
    ``capacity`` reads the hub's high-water mark, but the hub never
    waits for room: it closes its gate instead, and :meth:`take` lets
    the hub look at that gate again.
    """

    def __init__(self, hub: "Broadcast") -> None:
        super().__init__(hub.name, None, capacity=hub.high_water)
        self.hub = hub

    def close(self) -> None:
        """End this subscription and detach from the hub (a client
        disconnected, or the hub closed); the backlog still drains."""
        super().close()
        self.hub._detach(self)

    def take(self, count: int) -> list:
        """:meth:`Channel.take`; the hub's gate is looked at once for all
        of them."""
        taken = super().take(count)
        self.hub._drained()
        return taken

    def __aiter__(self) -> "Subscription":
        return self

    async def __anext__(self) -> Any:
        if not self.buffer and not await self.ready():
            raise StopAsyncIteration
        return self.take(1)[0]


class Broadcast:
    """Fan-out delivery hub with bounded buffers and an admission gate.

    A :class:`~repro.operators.sink.PushSink` publishes synchronously
    (from inside the engine's sink callback); each live subscriber gets
    the element appended to its own bounded buffer.  When any buffer
    reaches ``high_water`` the gate closes; once *every* buffer is back
    at or below ``low_water = high_water // 4`` it re-opens.  Publishing
    itself never blocks and never drops -- the bound is enforced by
    admission paths awaiting :meth:`wait_open` before feeding the plan
    more input, which is how a slow SSE/websocket consumer stalls the
    producing client instead of ballooning server memory
    (docs/serving.md).
    """

    def __init__(
        self,
        name: str,
        *,
        high_water: int = 64,
    ) -> None:
        if high_water < 1:
            raise ServingError(
                f"hub {name!r} needs high_water >= 1, got {high_water}"
            )
        self.name = name
        self.high_water = high_water
        self.low_water = high_water // 4
        self._subscribers: list[Subscription] = []
        self._gate = asyncio.Event()
        self._gate.set()
        self.closed = False
        self.published = 0
        self.peak_backlog = 0
        #: Gate transitions: delivery-side pause/resume counts, the
        #: serving twin of the engine's pauses_issued/resumes_issued.
        self.pauses = 0
        self.resumes = 0

    @property
    def subscribers(self) -> int:
        return len(self._subscribers)

    @property
    def backlog(self) -> int:
        """The deepest current subscriber buffer."""
        return max((len(s) for s in self._subscribers), default=0)

    @property
    def gate_open(self) -> bool:
        return self._gate.is_set()

    def subscribe(self) -> Subscription:
        if self.closed:
            raise ServingError(f"hub {self.name!r} is closed")
        subscription = Subscription(self)
        self._subscribers.append(subscription)
        return subscription

    def _detach(self, subscription: Subscription) -> None:
        try:
            self._subscribers.remove(subscription)
        except ValueError:
            return
        self._drained()

    def publish(self, element: Any) -> None:
        """Deliver ``element`` to every subscriber (synchronous)."""
        self.publish_page((element,))

    def publish_page(self, page: Sequence[Any]) -> None:
        """Deliver a page of elements to every subscriber (synchronous).

        One buffer extension and one wake-up per subscriber, and one look
        at the gate: it closes when the page brings any buffer to
        ``high_water``, so a buffer can pass the mark by one page.
        """
        self.published += len(page)
        backlog = 0
        for subscription in self._subscribers:
            subscription._admit(page)
            if len(subscription.buffer) > backlog:
                backlog = len(subscription.buffer)
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        if backlog >= self.high_water and self._gate.is_set():
            self._gate.clear()
            self.pauses += 1

    def _drained(self) -> None:
        """A subscriber popped (or left); maybe re-open the gate."""
        if self._gate.is_set():
            return
        if self.backlog <= self.low_water:
            self._gate.set()
            self.resumes += 1

    async def wait_open(self) -> None:
        """Park until every subscriber is below the low-water mark."""
        await self._gate.wait()

    def close(self) -> None:
        """End delivery: every subscription closes and finishes once its
        buffer drains."""
        self.closed = True
        self._gate.set()
        for subscription in list(self._subscribers):
            subscription.close()
