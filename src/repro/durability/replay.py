"""Replayable sources: inputs a recovery run can rewind.

Recovery replays a source by opening a fresh cursor over it and
skipping the first ``offset`` elements (the prefix already inside the
recovered checkpoint), so the *only* requirement on a source is that
``events()`` be re-invocable and deterministic.  The built-in sources
already qualify: :class:`~repro.operators.source.ListSource` re-slices
its timeline, :class:`~repro.operators.source.GeneratorSource` and
:class:`~repro.operators.source.AsyncIterableSource` re-invoke their
factories, and :class:`~repro.operators.source.PunctuatedSource` rebuilds
its punctuator -- replaying the skipped prefix through it keeps the
emitted suffix byte-identical.

:class:`ReplayableSource` is the adapter for everything else: it accepts
either a zero-argument factory *or* a plain sequence of ``(arrival,
element)`` pairs (materialised once, so even a one-shot iterable becomes
re-iterable), and refuses a bare generator object up front -- a
generator replays as an *empty* stream the second time, which recovery
would silently interpret as "this source finished", corrupting the
resumed output.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import DurabilityError
from repro.operators.source import GeneratorSource
from repro.stream.schema import Schema

__all__ = ["ReplayableSource"]


class ReplayableSource(GeneratorSource):
    """A source whose event stream is guaranteed re-runnable.

    ``events`` may be a zero-argument factory returning an iterable of
    ``(arrival_time, element)`` pairs (invoked fresh on every run --
    original and recovery alike) or any non-generator iterable, which is
    materialised into a list once at construction.
    """

    def __init__(
        self,
        name: str,
        output_schema: Schema,
        events: Callable[[], Iterable[tuple[float, Any]]]
        | Iterable[tuple[float, Any]],
        **kwargs: Any,
    ) -> None:
        if callable(events):
            factory = events
        elif isinstance(events, Iterator):
            raise DurabilityError(
                f"{name}: a bare iterator/generator cannot be replayed "
                f"(it would be empty on the recovery run); pass a "
                f"zero-argument factory or a sequence instead"
            )
        else:
            timeline = list(events)

            def factory() -> Iterable[tuple[float, Any]]:
                return iter(timeline)

        super().__init__(name, output_schema, factory, **kwargs)
