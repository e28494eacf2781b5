"""repro: Inter-operator feedback in data stream management systems.

A from-scratch Python reproduction of Fernández-Moctezuma, Tufte & Li,
"Inter-Operator Feedback in Data Stream Management Systems via
Punctuation" (CIDR 2009): a NiagaraST-style push-based stream engine with
embedded punctuation plus the paper's contribution -- **feedback
punctuation** flowing against the stream with assumed / desired / demanded
intents.

Quickstart -- the fluent surface (``repro.api``)::

    from repro import Flow, Schema, StreamTuple

    schema = Schema.of("ts", "value")
    flow = Flow("hello")
    (flow.source(schema,
                 [(t, StreamTuple(schema, (t, t * 10))) for t in range(5)])
         .where(lambda t: t["value"] % 20 == 0, name="keep_even")
         .collect("out"))
    result = flow.run(engine="simulated")   # or "threaded" / "asyncio"
    print([t.values for t in result.sink("out").results])

Flows compile to :class:`QueryPlan` (the stable IR -- hand-wiring via
``QueryPlan``/``plan.chain`` remains fully supported) and run on any
engine named in ``repro.engine.registry``; the system inventory is
in ``docs/architecture.md``, the paper-versus-measured record is what
``python -m repro.experiments.report`` prints.
"""

from repro.core import (
    Characterization,
    ExploitAction,
    FeedbackIntent,
    FeedbackLog,
    FeedbackPunctuation,
    GuardSet,
    PropagationPlanner,
    check_correct_exploitation,
    count_characterization,
    join_characterization,
    max_characterization,
    subset,
    sum_characterization,
)
from repro.engine import (
    AsyncioEngine,
    PlanMetrics,
    QueryPlan,
    RunResult,
    Simulator,
    ThreadedRuntime,
    available_engines,
    create_engine,
)
from repro.operators import (
    AggregateKind,
    ArchiveDB,
    AsyncIterableSource,
    AwaitableSink,
    CollectSink,
    Duplicate,
    FusedOperator,
    GeneratorSource,
    ImpatientJoin,
    Impute,
    ListSource,
    Map,
    OnDemandSink,
    Operator,
    Pace,
    PassThrough,
    PriorityBuffer,
    Project,
    PunctuatedSource,
    QualityFilter,
    Router,
    Select,
    SourceOperator,
    SymmetricHashJoin,
    ThriftyJoin,
    Union,
    WindowAggregate,
)
from repro.punctuation import (
    AtLeast,
    AtMost,
    Equals,
    GreaterThan,
    InSet,
    Interval,
    LessThan,
    Pattern,
    ProgressPunctuator,
    Punctuation,
    PunctuationScheme,
    WILDCARD,
)
from repro.optimizer import OptimizationReport, optimize
from repro.stream import Attribute, Schema, SchemaMapping, StreamTuple

# The fluent API layers on top of the engine and operator packages, so it
# must import after them (the engine package must initialise before
# repro.operators does).
from repro.api import Flow, StreamHandle

__version__ = "1.0.0"

__all__ = [
    "AggregateKind",
    "ArchiveDB",
    "AsyncIterableSource",
    "AsyncioEngine",
    "AtLeast",
    "AtMost",
    "Attribute",
    "AwaitableSink",
    "Characterization",
    "CollectSink",
    "Duplicate",
    "Equals",
    "ExploitAction",
    "FeedbackIntent",
    "FeedbackLog",
    "FeedbackPunctuation",
    "Flow",
    "FusedOperator",
    "GeneratorSource",
    "GreaterThan",
    "GuardSet",
    "ImpatientJoin",
    "Impute",
    "InSet",
    "Interval",
    "LessThan",
    "ListSource",
    "Map",
    "OnDemandSink",
    "Operator",
    "OptimizationReport",
    "Pace",
    "PassThrough",
    "Pattern",
    "PlanMetrics",
    "PriorityBuffer",
    "ProgressPunctuator",
    "Project",
    "PropagationPlanner",
    "Punctuation",
    "PunctuatedSource",
    "PunctuationScheme",
    "QualityFilter",
    "QueryPlan",
    "Router",
    "RunResult",
    "Schema",
    "SchemaMapping",
    "Select",
    "Simulator",
    "SourceOperator",
    "StreamHandle",
    "StreamTuple",
    "SymmetricHashJoin",
    "ThreadedRuntime",
    "ThriftyJoin",
    "Union",
    "WILDCARD",
    "WindowAggregate",
    "available_engines",
    "check_correct_exploitation",
    "create_engine",
    "count_characterization",
    "join_characterization",
    "max_characterization",
    "optimize",
    "subset",
    "sum_characterization",
]
