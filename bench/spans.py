"""Span recorder: wrappers the traced pass puts around calls into each layer.

The program under test is not edited; the traced pass replaces callables
*from outside* (an operator instance's ``process_page``, a name the
serving module imported) with recording wrappers.  A span is ``(name,
start_ns, duration_ns, child_ns, parent, weight)`` under one shared run
id; spans stay in memory and are written out when the run ends.

Durations are read from ``clock``: ``time.thread_time_ns`` under the
threaded engine -- a wall-clock span there would swallow whatever other
operator threads ran while this one waited for the GIL -- and
``time.perf_counter_ns`` on single-threaded engines, where it is cheaper
and equivalent.  A layer's self time is its duration minus the part its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


class Recorder:
    def __init__(self, run_id: str, clock: Callable[[], int]) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        frame = [name, time.perf_counter_ns(), self.clock(), 0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, weight: int = 1) -> None:
        duration = self.clock() - frame[2]
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((
            frame[0], frame[1], duration, frame[3],
            parent[0] if parent is not None else None, weight,
        ))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A recording stand-in for the synchronous callable ``fn``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def wrap_sampled(self, fn: Callable, name: str, every: int) -> Callable:
        """Like :meth:`wrap`, timing one call in ``every`` (weight ``every``).

        For per-element calls (a source's ``emit``), where two clock
        reads per call would cost more than the call itself.
        """
        countdown = [every]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            countdown[0] -= 1
            if countdown[0]:
                return fn(*args, **kwargs)
            countdown[0] = every
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, every)

        return traced

    def wrap_iter_sampled(self, iterator: Any, name: str, every: int) -> Any:
        """Time one ``next()`` in ``every`` on ``iterator``."""
        iterator = iter(iterator)
        step = self.wrap_sampled(iterator.__next__, name, every)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A recording stand-in for the coroutine function ``fn``.

        Only the coroutine's *execution steps* are timed: the interval
        between a suspension and the next resumption belongs to whatever
        else the event loop ran, not to this layer.
        """
        recorder = self

        class Steps:
            __slots__ = ("inner", "total", "started")

            def __init__(self, inner: Any) -> None:
                self.inner = inner
                self.total = 0
                self.started = time.perf_counter_ns()

            def __await__(self) -> "Steps":
                return self

            def __iter__(self) -> "Steps":
                return self

            def __next__(self) -> Any:
                return self.send(None)

            def send(self, value: Any) -> Any:
                clock = recorder.clock
                before = clock()
                try:
                    return self.inner.send(value)
                except BaseException:
                    # StopIteration carries the result; either way this
                    # was the last step.
                    self.total += clock() - before
                    recorder.spans.append(
                        (name, self.started, self.total, 0, None, 1)
                    )
                    raise
                else:
                    self.total += clock() - before

            def throw(self, *exc_info: Any) -> Any:
                return self.inner.throw(*exc_info)

            def close(self) -> None:
                self.inner.close()

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Steps:
            return Steps(fn(*args, **kwargs).__await__())

        return traced

    # -- reduction ---------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Per span name: summed (duration - children) x weight, in ms."""
        totals: dict[str, float] = defaultdict(float)
        for name, _start, duration, child, _parent, weight in self.spans:
            totals[name] += (duration - child) * weight
        return {name: ns / 1e6 for name, ns in totals.items()}

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for name, _start, _duration, _child, _parent, weight in self.spans:
            counts[name] += weight
        return dict(counts)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start_ns", "duration_ns",
                               "child_ns", "parent", "weight"],
                    "spans": self.spans,
                },
                handle,
            )
