"""Operator library (system S4 in ``docs/architecture.md``).

Stateless operators (Select, Project, Duplicate, Union) and stateful ones
(PACE, Impute, the join family, windowed aggregates, PriorityBuffer) built
on the :class:`~repro.operators.base.Operator` framework with its guard,
punctuation and feedback machinery.  The shard boundary pair
(Partition / ShardMerge) turns a replicated subgraph into a key-partitioned
parallel region (see ``docs/sharding.md``).
"""

from repro.operators.aggregate import AggregateKind, WindowAggregate
from repro.operators.base import InputPort, Operator, OutputEdge, SourceOperator
from repro.operators.buffer import PriorityBuffer
from repro.operators.duplicate import Duplicate
from repro.operators.fused import FusedOperator
from repro.operators.impatient_join import ImpatientJoin
from repro.operators.impute import ArchiveDB, Impute
from repro.operators.join import SymmetricHashJoin
from repro.operators.map import Map
from repro.operators.pace import Pace
from repro.operators.partition import Partition, ShardMerge
from repro.operators.passthrough import PassThrough
from repro.operators.project import Project
from repro.operators.router import Router
from repro.operators.select import QualityFilter, Select
from repro.operators.sink import (
    AwaitableSink,
    CollectSink,
    OnDemandSink,
    PushSink,
)
from repro.operators.source import (
    AsyncIterableSource,
    GeneratorSource,
    ListSource,
    PunctuatedSource,
)
from repro.operators.thrifty_join import ThriftyJoin
from repro.operators.union import Union

__all__ = [
    "AggregateKind",
    "ArchiveDB",
    "AsyncIterableSource",
    "AwaitableSink",
    "CollectSink",
    "Duplicate",
    "FusedOperator",
    "GeneratorSource",
    "ImpatientJoin",
    "Impute",
    "InputPort",
    "ListSource",
    "Map",
    "OnDemandSink",
    "Operator",
    "OutputEdge",
    "Pace",
    "Partition",
    "PassThrough",
    "PriorityBuffer",
    "Project",
    "PunctuatedSource",
    "PushSink",
    "QualityFilter",
    "Router",
    "Select",
    "ShardMerge",
    "SourceOperator",
    "SymmetricHashJoin",
    "ThriftyJoin",
    "Union",
    "WindowAggregate",
]
