"""Execution engines (S5, S6, S9, S13, S15 in ``docs/architecture.md``).

The runtime architecture of the paper's section 5 (NiagaraST): operators
connected by page queues, out-of-band high-priority control, one
scheduling policy per engine over a shared mechanism core.

* :class:`QueryPlan` -- the operator DAG shared by both engines;
* :class:`RuntimeCore` -- the shared mechanism layer (control draining,
  completion bookkeeping, operator finish) every engine builds on;
* :class:`Simulator` -- deterministic discrete-event engine on virtual
  time (used by all experiments);
* :class:`ThreadedRuntime` -- thread-per-operator runtime mirroring
  NiagaraST's architecture;
* :class:`AsyncioEngine` -- the simulator's scheduler on the wall clock
  inside one event loop (one driver coroutine, one pump task per async
  source), for network-facing sources and sinks (``docs/engines.md``);
* :class:`MultiprocessEngine` -- worker-process-per-operator-group
  runtime with columnar page serialization at the process boundaries,
  for real CPU parallelism past the GIL (``docs/engines.md``);
* the engine registry -- the four engines addressable by name
  (``create_engine``), the surface behind ``repro.api.Flow.run``;
* metrics containers shared by all of them.
"""

from repro.engine.async_engine import AsyncioEngine
from repro.engine.audit import QuiescenceReport, audit_quiescence
from repro.engine.harness import OperatorHarness
from repro.engine.multiprocess import MultiprocessEngine, fork_available
from repro.engine.metrics import (
    OperatorMetrics,
    PlanMetrics,
    QueueMetrics,
)
from repro.engine.plan import QueryPlan, ShardGroup
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_factory,
)
from repro.engine.runtime import RunResult, RuntimeCore
from repro.engine.simulator import Simulator
from repro.engine.threaded import ThreadedRuntime

__all__ = [
    "AsyncioEngine",
    "MultiprocessEngine",
    "fork_available",
    "OperatorHarness",
    "available_engines",
    "create_engine",
    "engine_factory",
    "QuiescenceReport",
    "audit_quiescence",
    "OperatorMetrics",
    "PlanMetrics",
    "QueueMetrics",
    "QueryPlan",
    "RunResult",
    "ShardGroup",
    "RuntimeCore",
    "Simulator",
    "ThreadedRuntime",
]
