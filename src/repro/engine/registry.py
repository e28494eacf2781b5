"""Engine registry: execution engines addressable by name.

The paper's runtime (section 5) is one fixed NiagaraST deployment; the
reproduction instead treats engines as interchangeable scheduling
policies over the shared runtime core, so the same feedback semantics
can be exercised on virtual time, wall-clock threads, one event loop and
worker processes.  The fluent API (``repro.api.Flow``) is engine-agnostic
*by name*, the way Beam/Flink-style builder APIs decouple pipeline
authorship from runners: ``flow.run(engine="simulated")`` looks the
engine up here instead of importing an engine class.

The table is fixed.  Each entry is the engine class itself, called as
``factory(plan, **options)``; every one is a
:class:`~repro.engine.runtime.RuntimeCore` subclass, so every one takes
``at(time, action)`` -- which is what ``Flow.run``'s declarative
feedback injection rides on.

============ ==================================================
simulated    :class:`~repro.engine.simulator.Simulator`
threaded     :class:`~repro.engine.threaded.ThreadedRuntime`
asyncio      :class:`~repro.engine.async_engine.AsyncioEngine`
multiprocess :class:`~repro.engine.multiprocess.MultiprocessEngine`
============ ==================================================
"""

from __future__ import annotations

from typing import Any

from repro.engine.async_engine import AsyncioEngine
from repro.engine.multiprocess import MultiprocessEngine
from repro.engine.plan import QueryPlan
from repro.engine.runtime import RuntimeCore
from repro.engine.simulator import Simulator
from repro.engine.threaded import ThreadedRuntime
from repro.errors import EngineError

__all__ = [
    "available_engines",
    "create_engine",
    "engine_factory",
]

_ENGINES: dict[str, type[RuntimeCore]] = {
    "simulated": Simulator,
    "threaded": ThreadedRuntime,
    "asyncio": AsyncioEngine,
    "multiprocess": MultiprocessEngine,
}


def available_engines() -> tuple[str, ...]:
    """Engine names, sorted."""
    return tuple(sorted(_ENGINES))


def engine_factory(name: str) -> type[RuntimeCore]:
    """The engine class named ``name``; raise with the known names."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
        ) from None


def create_engine(name: str, plan: QueryPlan, **options: Any) -> RuntimeCore:
    """Instantiate the engine ``name`` over ``plan``.

    ``options`` pass straight to the engine (``control_latency=...``,
    ``max_events=...``, ``timeout=...`` -- whatever that engine accepts).
    """
    return engine_factory(name)(plan, **options)
