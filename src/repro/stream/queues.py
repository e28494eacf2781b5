"""Inter-operator data queues, optionally bounded by watermarks.

A :class:`DataQueue` connects a producer operator to a consumer operator and
carries complete :class:`~repro.stream.pages.Page` objects.  The producer
hands over runs through one call, :meth:`DataQueue.put_many` -- a run of
tuples, or one punctuation or marker on its own, the shape
:meth:`~repro.operators.base.Operator._emit` puts on every edge; the
queue maintains the producer's *open page* and moves it into the ready
backlog when it completes (full, punctuation, or explicit flush).  The
fused chain's stage links and the multiprocess engine's shipping queue
take the same one call.

Queues are unbounded by default -- exactly the paper's NiagaraST setting,
where inter-operator queues absorb whatever the producers emit.  Passing
``capacity`` turns on occupancy accounting for backpressure: the queue
tracks how many elements it buffers (ready pages plus the open page) and
exposes a **high-water mark** (``capacity``) and a **low-water mark**
(default ``capacity // 2``).  The queue itself never blocks or signals --
it is pure bookkeeping; the runtime (:mod:`repro.engine.runtime`) watches
the marks and steers the producer through *pause*/*resume* feedback
punctuation on the control channel (the first runtime-generated use of the
paper's feedback mechanism; see ``docs/backpressure.md``).

This class is single-threaded by default: the deterministic simulator
drives all operators from one loop.  The threaded runtime
(:mod:`repro.engine.threaded`) calls :meth:`DataQueue.enable_thread_safety`
on every queue before starting threads -- producers then emit whole pages
*outside* the engine's plan lock (that is what lets shard replicas run
concurrently), so the producer/consumer critical sections here are guarded
by a per-queue mutex instead.

The threaded runtime additionally attaches its wake-up handle
(:meth:`attach_waiter`, a
:class:`~repro.stream.waiters.ThreadConditionWaiter`): whenever a page
becomes ready -- or the queue closes -- the queue notifies the waiter
itself, so "new data wakes the consumer" holds even for producers
emitting outside the plan lock.  The notification always fires *after*
the per-queue mutex is released, so a waiter that takes the engine lock
can never deadlock against a consumer holding that lock while popping
pages.  The cooperative engines (simulator, asyncio) attach nothing:
their scheduler stamps freshly flushed pages after every step
(:meth:`stamp_ready`) and schedules the consumer itself.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterator, Sequence

from repro.errors import EngineError
from repro.stream.pages import DEFAULT_PAGE_SIZE, Page
from repro.stream.waiters import ThreadConditionWaiter

__all__ = ["DataQueue"]


class DataQueue:
    """FIFO of complete pages with a producer-side open page.

    ``name`` identifies the edge for diagnostics (``"select->average"``).

    ``capacity`` (elements) is the high-water mark for backpressure, and
    ``low_water = capacity // 2`` the relief mark.  With ``capacity=None``
    (the default) the queue is unbounded and behaves exactly as before
    watermarks existed.
    """

    __slots__ = ("name", "page_size", "capacity", "low_water",
                 "pressure_signalled", "peak_occupancy", "_occupancy",
                 "_open_page", "_ready", "_closed", "_mutex", "_waiter",
                 "pages_flushed", "elements_enqueued")

    def __init__(
        self,
        name: str = "",
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise EngineError(
                f"{name or 'queue'}: capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.page_size = page_size
        self.capacity = capacity
        self.low_water = 0 if capacity is None else capacity // 2
        #: True between the consumer signalling *pause* (occupancy crossed
        #: the high-water mark) and *resume* (drained to the low-water
        #: mark).  Maintained by the runtime, never by the queue.
        self.pressure_signalled = False
        self.peak_occupancy = 0
        self._occupancy = 0
        self._open_page = Page(page_size)
        self._ready: deque[Page] = deque()
        self._closed = False
        #: Optional per-queue mutex (threaded runtime only); None keeps
        #: the single-threaded fast path completely lock-free.
        self._mutex: threading.Lock | None = None
        #: Optional wake-up handle (threaded runtime); notified --
        #: outside the mutex -- when a page becomes ready or the queue
        #: closes, so consumers sleeping on the engine's condition wake.
        self._waiter: ThreadConditionWaiter | None = None
        self.pages_flushed = 0
        self.elements_enqueued = 0

    def enable_thread_safety(self) -> None:
        """Guard producer/consumer critical sections with a mutex.

        Called by the threaded runtime before any operator thread starts:
        the producer appends elements outside the engine's plan lock while
        the consumer pops ready pages, so the open-page/backlog hand-off
        must be serialised here.
        """
        if self._mutex is None:
            self._mutex = threading.Lock()

    def attach_waiter(self, waiter: ThreadConditionWaiter | None) -> None:
        """Install the threaded runtime's wake-up handle.

        Attached before the run starts; the queue then announces
        page-ready and close events itself, from whichever thread
        produced them.
        """
        self._waiter = waiter

    # -- producer side -----------------------------------------------------------

    def put_many(self, elements: Sequence[Any]) -> int:
        """Enqueue one run; return the pages it completed.

        The one way in: ``elements`` is what
        :meth:`~repro.operators.base.Operator._emit` hands every edge --
        a run of data tuples, copied into the open page in slices, or
        one punctuation or marker on its own, which completes the open
        page (flush-on-punctuation), so downstream operators observe
        stream progress without waiting for a full page.
        """
        if self._mutex is not None:
            with self._mutex:
                completed = self._put_many(elements)
        else:
            completed = self._put_many(elements)
        if completed and self._waiter is not None:
            self._waiter.notify_all()
        return completed

    def _put_many(self, elements: Sequence[Any]) -> int:
        total = len(elements)
        self.elements_enqueued += total
        self._occupancy += total
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy
        completed = 0
        index = 0
        while index < total:
            if elements[index].is_punctuation:
                self._open_page.append(elements[index])
                index += 1
            else:
                index = self._open_page.take_from(elements, index)
            if self._open_page.complete:
                self._ready.append(self._open_page)
                self._open_page = Page(self.page_size)
                self.pages_flushed += 1
                completed += 1
        return completed

    def put(self, element: Any) -> bool:
        """:meth:`put_many` of a run of one; True when a page became ready."""
        return self.put_many([element]) > 0

    def put_page(self, page: Page) -> None:
        """Inject one complete page directly into the ready backlog.

        The receiving end of a process boundary: the multiprocess
        engine's receiver thread decodes a columnar page (see
        :func:`~repro.stream.pages.decode_page`) and lands it here as-is
        -- bypassing the open page, preserving the producer-side batch
        boundaries (and thus flush-on-punctuation) exactly.  Occupancy
        and counters account the page like locally produced ones, so
        watermark backpressure sees injected traffic too.
        """
        if not page.complete:
            raise EngineError(
                f"{self.name or 'queue'}: only complete pages may be "
                f"injected"
            )
        if self._mutex is not None:
            with self._mutex:
                self._put_page(page)
        else:
            self._put_page(page)
        if self._waiter is not None:
            self._waiter.notify_all()

    def _put_page(self, page: Page) -> None:
        count = len(page)
        self.elements_enqueued += count
        self._occupancy += count
        if self._occupancy > self.peak_occupancy:
            self.peak_occupancy = self._occupancy
        self._ready.append(page)
        self.pages_flushed += 1

    def flush(self) -> bool:
        """Seal and enqueue the open page if it holds anything."""
        if self._mutex is not None:
            with self._mutex:
                flushed = self._flush()
        else:
            flushed = self._flush()
        if flushed and self._waiter is not None:
            self._waiter.notify_all()
        return flushed

    def _flush(self) -> bool:
        if self._open_page.empty:
            return False
        self._open_page.seal()
        self._ready.append(self._open_page)
        self._open_page = Page(self.page_size)
        self.pages_flushed += 1
        return True

    def close(self) -> None:
        """Flush any residue and mark the queue closed (end of stream)."""
        self.flush()
        self._closed = True
        if self._waiter is not None:
            self._waiter.notify_all()  # consumers must observe exhaustion

    # -- consumer side ---------------------------------------------------------

    def get_page(self, room: int = 0) -> Page | None:
        """Pop the oldest ready page, or None when nothing is ready.

        With ``room``, the ready pages behind it ride along while the
        elements taken still fit ``room`` and no punctuation has been
        taken: they come back merged into one page, in queue order
        (:meth:`~repro.stream.pages.Page.merged`), which like any page
        holds at most one punctuation, last.  The threaded runtime passes
        the room its consumer's bounded output edges leave; the
        cooperative engines pass nothing and take one page per step.
        """
        if self._mutex is not None:
            with self._mutex:
                return self._get_page(room)
        return self._get_page(room)

    def _get_page(self, room: int) -> Page | None:
        if self._ready:
            page = self._ready.popleft()
            if room and self._ready:
                page = self._take_behind(page, room)
            self._occupancy -= len(page)
            return page
        return None

    def _take_behind(self, page: Page, room: int) -> Page:
        """``page`` and the ready pages behind it that fit ``room``, up to
        the first that carries a punctuation."""
        ready = self._ready
        pages = [page]
        taken = len(page)
        while (ready and not page.has_punctuation
               and taken + len(ready[0]) <= room):
            page = ready.popleft()
            taken += len(page)
            pages.append(page)
        return pages[0] if len(pages) == 1 else Page.merged(pages)

    def peek_page(self) -> Page | None:
        """The oldest ready page without removing it."""
        if self._ready:
            return self._ready[0]
        return None

    def stamp_ready(self, at: float) -> bool:
        """Stamp availability on freshly flushed pages; True if any.

        Engines call this right after a producer processed an element, with
        the producer's virtual completion time; newly flushed pages (those
        without a stamp) become visible downstream at that time.
        """
        stamped = False
        for page in reversed(self._ready):
            if page.available_at is not None:
                break
            page.available_at = at
            stamped = True
        return stamped

    def drain_elements(self) -> Iterator[Any]:
        """Yield every element from every ready page (testing convenience)."""
        while (page := self.get_page()) is not None:
            yield from page

    # -- inspection ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ready_pages(self) -> int:
        return len(self._ready)

    def pending_elements(self) -> int:
        """Elements buffered in ready pages plus the open page."""
        return self._occupancy

    @property
    def occupancy(self) -> int:
        """Current buffered elements (ready pages + open page), O(1)."""
        return self._occupancy

    @property
    def bounded(self) -> bool:
        """True when a capacity (high-water mark) is configured."""
        return self.capacity is not None

    @property
    def above_high_water(self) -> bool:
        """True when occupancy has reached/passed the high-water mark."""
        return self.capacity is not None and self._occupancy >= self.capacity

    @property
    def below_low_water(self) -> bool:
        """True when occupancy has drained to the low-water mark."""
        return self._occupancy <= self.low_water

    def quiet_room(self) -> int:
        """How many tuples the next ``put_many`` may carry unobserved.

        The put that fills the open page, or brings occupancy to the
        high-water mark, is one an engine must stamp or answer at that
        tuple's own time -- so a producer batching its emissions may
        carry at most this many in one call (the last of them being the
        one that is noticed).  Zero or less when already at high water.
        """
        room = self.page_size - len(self._open_page)
        if self.capacity is not None:
            room = min(room, self.capacity - self._occupancy)
        return room

    @property
    def exhausted(self) -> bool:
        """True when closed and fully drained."""
        return self._closed and not self._ready and self._open_page.empty

    def __repr__(self) -> str:
        bound = (
            f", capacity={self.capacity}" if self.capacity is not None else ""
        )
        return (
            f"DataQueue({self.name!r}, ready={len(self._ready)} pages, "
            f"open={len(self._open_page)}, closed={self._closed}{bound})"
        )
