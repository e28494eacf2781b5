"""Fluent dataflow API (system S10 in ``docs/architecture.md``).

``Flow`` builds plans verb by verb and runs them on any engine named
in :mod:`repro.engine.registry`::

    from repro.api import Flow, avg

    flow = Flow("demo")
    (flow.source(schema, timeline)
         .punctuate(on="ts", every=10.0)
         .where(lambda t: t["value"] >= 0.0)
         .window(avg("value"), by="sensor", width=10.0, on="ts")
         .collect("sink"))
    result = flow.run(engine="simulated")

The aggregate helpers (``avg``, ``count``, ``sum``, ``max``, ``min``)
shadow builtins by design, PySpark-functions style -- import them
qualified (``from repro import api; api.avg(...)``) or aliased if that
matters at your call site.
"""

from repro.api.aggregates import AggSpec, avg, count, max, min, sum
from repro.api.flow import Flow, StreamHandle
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_factory,
)
from repro.errors import FlowError

__all__ = [
    "AggSpec",
    "Flow",
    "FlowError",
    "StreamHandle",
    "available_engines",
    "avg",
    "count",
    "create_engine",
    "engine_factory",
    "max",
    "min",
    "sum",
]
