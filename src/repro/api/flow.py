"""The fluent dataflow API: ``Flow`` builders compiling to ``QueryPlan``.

The paper's pitch is that feedback slots under a *declarative* surface
(section 3.3 sketches ``WITH PACE`` in SQL), but hand-wiring sources,
punctuators, operators and sinks takes dozens of lines per plan.  This
module is the construction/run surface on top of the operator library::

    from repro.api import Flow, avg

    flow = Flow("quickstart")
    (flow.source(schema, timeline)
         .punctuate(on="timestamp", every=10.0)
         .where(lambda t: t["value"] >= 0.0, tuple_cost=0.002)
         .window(avg("value"), by="sensor", width=10.0, on="timestamp")
         .collect("sink"))
    result = flow.run(engine="simulated")

Design rules:

* each verb (``where``, ``window``, ``pace``, ``split``, ``union``,
  ``join``, ...) wraps exactly one operator class and stores a *spec* --
  the operator is instantiated freshly on every :meth:`Flow.build`, so one
  flow can run repeatedly and on several engines (operators and engines
  are single-use; flows are not);
* :class:`QueryPlan` stays the stable IR underneath: ``build()`` emits a
  validated plan, and anything expressible by hand remains expressible
  (``apply``/``merge`` are the escape hatches for custom operators);
* engines are addressed **by name** through
  :mod:`repro.engine.registry`, so one flow runs on every engine;
* client behaviour -- feedback at time *t* on a named sink, polls,
  demands -- is declared on :meth:`Flow.run` rather than wired into
  example code.

Verbs accept per-operator cost kwargs (``tuple_cost=...``,
``control_cost=...``) so simulator experiments keep their cost models, a
``name=`` for stable operator naming, a per-edge ``queue_capacity=``, and
a ``configure=`` callable applied to each freshly built instance (for
knobs that are not constructor arguments, e.g. ``relay_enabled``).  The
page size is the flow's: ``Flow(name, page_size=...)`` sets it for every
edge.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, Sequence

from repro.api.aggregates import AggSpec
from repro.engine.plan import (
    QueryPlan,
    ShardGroup,
    checkpoint_annotation,
    edge_annotation,
    render_describe,
    render_dot,
)
from repro.engine.registry import create_engine
from repro.engine.runtime import RunResult
from repro.errors import FlowError
from repro.operators.base import Operator
from repro.operators.buffer import PriorityBuffer
from repro.operators.duplicate import Duplicate
from repro.operators.join import SymmetricHashJoin
from repro.operators.map import Map
from repro.operators.pace import Pace
from repro.operators.partition import Partition, ShardMerge
from repro.operators.project import Project
from repro.operators.select import Select
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
from repro.operators.aggregate import WindowAggregate
from repro.operators.union import Union
from repro.punctuation.patterns import Pattern
from repro.stream.channels import Broadcast, Channel
from repro.stream.pages import DEFAULT_PAGE_SIZE
from repro.stream.schema import Attribute, Schema
from repro.stream.tuples import StreamTuple

__all__ = ["Flow", "StreamHandle"]


class _Node:
    """One stage of a flow: a name, an operator factory, its output schema."""

    __slots__ = (
        "name", "factory", "schema", "fanout_ok", "single_use",
        "configure", "consumed", "built", "source_args", "prototype",
        "type_name", "is_source", "op_type",
    )

    def __init__(
        self,
        name: str,
        factory: Callable[[], Operator],
        schema: Schema | None,
        *,
        fanout_ok: bool = False,
        single_use: bool = False,
        configure: Callable[[Operator], None] | None = None,
        prototype: Operator | None = None,
        type_name: str | None = None,
        is_source: bool | None = None,
    ) -> None:
        self.name = name
        # Rendering metadata for describe()/to_dot(): recorded up front so
        # topology inspection never needs to build (and therefore never
        # spends a single-use instance).
        if type_name is None:
            type_name = (
                type(prototype).__name__ if prototype is not None
                else "Operator"
            )
        self.type_name = type_name
        #: Concrete operator class, kept after the prototype is consumed
        #: by a build -- describe(checkpoints=True) probes it for the
        #: snapshot-seam override.
        self.op_type = type(prototype) if prototype is not None else Operator
        if is_source is None:
            is_source = prototype is not None and prototype.n_inputs == 0
        self.is_source = is_source
        self.factory = factory
        self.schema = schema
        self.fanout_ok = fanout_ok
        self.single_use = single_use
        self.configure = configure
        self.consumed = 0          # times used as a producer
        self.built = False         # single-use instances build once
        self.source_args: tuple | None = None  # for punctuate()
        #: The instance built at verb time for validation; never wired,
        #: so the first build adopts it instead of paying a second
        #: construction (IMPUTE's archive, large timelines).
        self.prototype = prototype

    def make(self) -> Operator:
        if self.single_use:
            if self.built:
                raise FlowError(
                    f"stage {self.name!r} wraps a pre-built operator "
                    f"instance and was already built once; pass a factory "
                    f"(e.g. lambda: MyOperator(...)) to make the flow "
                    f"re-runnable"
                )
            self.built = True
            operator = self.factory()
        elif self.prototype is not None:
            operator, self.prototype = self.prototype, None
        else:
            operator = self.factory()
        if self.configure is not None:
            self.configure(operator)
        return operator


class _Edge:
    """One pending connection: producer node -> consumer node [port].

    ``capacity`` is the edge's queue bound (high-water mark); ``None``
    defers to the run-level ``queue_capacity`` default, if any.
    """

    __slots__ = ("producer", "consumer", "port", "capacity")

    def __init__(
        self,
        producer: _Node,
        consumer: _Node,
        port: int,
        capacity: int | None = None,
    ) -> None:
        self.producer = producer
        self.consumer = consumer
        self.port = port
        self.capacity = capacity


class StreamHandle:
    """A reference to one stage's output stream inside a :class:`Flow`.

    Handles are single-consumer: feeding the same handle into two verbs
    raises :class:`FlowError` (implicit broadcast would silently duplicate
    the stream without DUPLICATE's feedback reconciliation); use
    :meth:`split` for explicit fan-out.  Each branch handle returned by
    ``split(n)`` is itself single-consumer, so ``n`` bounds the fan-out.
    """

    __slots__ = ("flow", "_node", "_spent")

    def __init__(self, flow: "Flow", node: _Node) -> None:
        self.flow = flow
        self._node = node
        self._spent = False

    @property
    def name(self) -> str:
        """The operator name this handle's stage will carry in the plan."""
        return self._node.name

    @property
    def schema(self) -> Schema | None:
        """Output schema of this stage (for patterns and feedback)."""
        return self._node.schema

    def __repr__(self) -> str:
        names = self.schema.names if self.schema is not None else ()
        return f"StreamHandle({self.name!r}, schema={names})"

    # -- source refinement -------------------------------------------------------

    def punctuate(
        self, *, on: str, every: float, grace: float = 0.0
    ) -> "StreamHandle":
        """Interleave progress punctuation on attribute ``on``.

        Only valid directly on a :meth:`Flow.source` stage (punctuation is
        embedded at the input, NiagaraST-style): the pending list source
        becomes a :class:`PunctuatedSource` emitting ``[... <= boundary
        ...]`` every ``every`` units of ``on``, plus the final
        all-covering punctuation at end of stream.
        """
        node = self._node
        if node.source_args is None:
            raise FlowError(
                f"punctuate() applies to a plain source stage; "
                f"{node.name!r} is a {node.type_name} stage"
            )
        if node.consumed:
            raise FlowError(
                f"punctuate() must precede downstream verbs on "
                f"{node.name!r}"
            )
        schema, timeline, op_kwargs = node.source_args
        name = node.name

        def factory() -> Operator:
            return PunctuatedSource(
                name, schema, timeline,
                punctuate_on=on, punctuation_interval=every, grace=grace,
                **op_kwargs,
            )

        prototype = factory()  # validate the punctuation args eagerly
        node.factory = factory
        node.prototype = prototype  # supersedes the plain-source prototype
        node.type_name = type(prototype).__name__
        node.op_type = type(prototype)
        node.source_args = None
        return self

    # -- linear verbs -------------------------------------------------------------

    def where(
        self,
        predicate: Callable[[StreamTuple], bool] | Pattern,
        *,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Filter with a predicate or :class:`Pattern` (SELECT)."""
        schema = self._require_schema("where")
        return self.flow._derive(
            lambda name: Select(name, schema, predicate, **op_kwargs),
            name=name, base="where", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )

    #: Alias for :meth:`where`, for callers who think in map/filter terms.
    filter = where

    def select(
        self,
        *attributes: str,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Project onto ``attributes`` in order (PROJECT)."""
        schema = self._require_schema("select")
        return self.flow._derive(
            lambda name: Project(name, schema, attributes, **op_kwargs),
            name=name, base="project", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )

    def extend(
        self,
        new_attributes: Sequence[Attribute | tuple | str],
        compute: Callable[[StreamTuple], Sequence[Any]],
        *,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Carry the schema and append computed attributes (MAP)."""
        schema = self._require_schema("extend")
        return self.flow._derive(
            lambda name: Map.extending(
                name, schema, new_attributes, compute, **op_kwargs
            ),
            name=name, base="map", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )

    def window(
        self,
        spec: AggSpec,
        *,
        on: str,
        width: float,
        by: str | Sequence[str] = (),
        slide: float | None = None,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Windowed group aggregate (AVERAGE/COUNT/... over ``on``).

        ``spec`` comes from :mod:`repro.api.aggregates` (``avg("value")``,
        ``count()``, ...); ``by`` is one grouping attribute or a sequence.
        """
        if not isinstance(spec, AggSpec):
            raise FlowError(
                f"window() takes an AggSpec (avg(...), count(), ...), "
                f"got {spec!r}"
            )
        schema = self._require_schema("window")
        group_by = (by,) if isinstance(by, str) else tuple(by)
        return self.flow._derive(
            lambda name: WindowAggregate(
                name, schema,
                kind=spec.kind,
                window_attribute=on,
                width=width,
                slide=slide,
                value_attribute=spec.attribute,
                group_by=group_by,
                **op_kwargs,
            ),
            name=name, base="window", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )

    def buffer(
        self,
        *,
        capacity: int = 64,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Insert a :class:`PriorityBuffer` (desired-feedback reordering)."""
        schema = self._require_schema("buffer")
        return self.flow._derive(
            lambda name: PriorityBuffer(
                name, schema, capacity=capacity, **op_kwargs
            ),
            name=name, base="buffer", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )

    def apply(
        self,
        operator: Operator | Callable[[], Operator],
        *,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
    ) -> "StreamHandle":
        """Pipe through a custom unary operator (the escape hatch).

        Pass a zero-argument factory to keep the flow re-runnable; a
        pre-built instance is accepted but makes the flow single-build.
        """
        return self.flow._attach_custom(
            operator, inputs=(self,), queue_capacity=queue_capacity,
            configure=configure,
        )

    # -- fan-out / fan-in ---------------------------------------------------------

    def split(
        self,
        n: int = 2,
        *,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> tuple["StreamHandle", ...]:
        """Broadcast through an explicit DUPLICATE; returns ``n`` handles.

        The handles share one DUPLICATE stage, so assumed feedback from
        the branches is reconciled (intersection across consumers) exactly
        as the paper's section 4.1 requires.
        """
        if n < 1:
            raise FlowError(f"split() needs n >= 1, got {n}")
        schema = self._require_schema("split")
        handle = self.flow._derive(
            lambda name: Duplicate(name, schema, **op_kwargs),
            name=name, base="duplicate", inputs=(self,),
            queue_capacity=queue_capacity,
            configure=configure, fanout_ok=True,
        )
        return tuple(
            StreamHandle(self.flow, handle._node) for _ in range(n)
        )

    def shard(
        self,
        n: int,
        *,
        key: str | Sequence[str],
        pipeline: Callable[..., "StreamHandle"],
        name: str | None = None,
        stash_limit: int = 256,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Replicate a sub-pipeline ``n`` ways over a key-partitioned stream.

        ``pipeline`` is a callable building one replica: it receives a
        lane's :class:`StreamHandle` (and, if it takes a second
        positional argument, the lane index) and returns the replica's
        output handle.  The region compiles to a
        :class:`~repro.operators.partition.Partition` hashing ``key``
        across ``n`` lanes and a punctuation-aligning
        :class:`~repro.operators.partition.ShardMerge` fanning back in::

            (flow.source(schema, timeline)
                 .punctuate(on="ts", every=10.0)
                 .shard(4, key="sensor",
                        pipeline=lambda lane: lane
                            .where(expensive)
                            .window(avg("v"), by="sensor",
                                    on="ts", width=10.0))
                 .collect("sink"))

        With ``n=1`` the pipeline is applied inline -- no partition, no
        merge -- so the degenerate shard compiles to a plan byte-identical
        to the unsharded one.  For ``n>1`` the region is recorded as a
        :class:`~repro.engine.plan.ShardGroup` in the compiled plan's IR
        (rendered by ``describe()``/``to_dot()``, rolled up per lane by
        the runtime's skew report).  Feedback, punctuation and pause/
        resume flow control cross the region boundary as described in
        ``docs/sharding.md``: broadcast (or key-routed) across all
        replicas, with per-lane backpressure at the partitioner.
        """
        schema = self._require_schema("shard")
        if n < 1:
            raise FlowError(f"shard() needs n >= 1, got {n}")
        if not callable(pipeline):
            raise FlowError(
                f"shard() needs a pipeline callable building one "
                f"replica, got {pipeline!r}"
            )
        try:
            positional = [
                p for p in inspect.signature(pipeline).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            wants_index = len(positional) >= 2
        except (TypeError, ValueError):  # builtins, odd callables
            wants_index = False

        def replicate(lane: "StreamHandle", index: int) -> "StreamHandle":
            out = pipeline(lane, index) if wants_index else pipeline(lane)
            if not isinstance(out, StreamHandle) or out.flow is not self.flow:
                raise FlowError(
                    "shard() pipeline must return a StreamHandle of "
                    "this flow"
                )
            return out

        if n == 1:
            # Degenerate region: apply the pipeline inline.  The compiled
            # plan is byte-identical to writing the stages unsharded.
            return replicate(self, 0)
        key_tuple = (key,) if isinstance(key, str) else tuple(key)
        flow = self.flow
        # shard() runs user code mid-construction; snapshot so a failing
        # pipeline leaves the flow (and this handle) exactly as it was.
        saved = (
            list(flow._nodes), list(flow._edges), set(flow._names),
            list(flow._shard_regions), self._spent, self._node.consumed,
        )
        try:
            part = flow._derive(
                lambda nm: Partition(
                    nm, schema, key=key_tuple, fanout=n,
                    stash_limit=stash_limit, **op_kwargs,
                ),
                name=name, base="shard", inputs=(self,),
                queue_capacity=queue_capacity,
                configure=configure, fanout_ok=True,
            )
            part_node = part._node
            outs: list[StreamHandle] = []
            lanes: list[tuple[str, ...]] = []
            for index in range(n):
                lane = StreamHandle(flow, part_node)
                before = len(flow._nodes)
                out = replicate(lane, index)
                if out._node is part_node:
                    raise FlowError(
                        "shard() pipeline must add at least one stage "
                        "per lane"
                    )
                lanes.append(
                    tuple(node.name for node in flow._nodes[before:])
                )
                outs.append(out)
            flow._check_same_schema("shard", outs)
            merge = flow._derive(
                lambda nm: ShardMerge(
                    nm, outs[0]._node.schema, arity=n
                ),
                name=None, base=f"{part_node.name}_merge",
                inputs=tuple(outs), queue_capacity=queue_capacity,
            )
        except BaseException:
            (flow._nodes, flow._edges, flow._names,
             flow._shard_regions) = saved[:4]
            self._spent, self._node.consumed = saved[4], saved[5]
            raise
        flow._shard_regions.append(
            ShardGroup(
                name=part_node.name,
                partition=part_node.name,
                merge=merge._node.name,
                key=key_tuple,
                n=n,
                lanes=tuple(lanes),
            )
        )
        return merge

    def union(
        self,
        *others: "StreamHandle",
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Merge same-schema streams (UNION, punctuation-aligning)."""
        schema = self._require_schema("union")
        inputs = (self, *others)
        self.flow._check_same_schema("union", inputs)
        arity = len(inputs)
        return self.flow._derive(
            lambda name: Union(name, schema, arity=arity, **op_kwargs),
            name=name, base="union", inputs=inputs,
            queue_capacity=queue_capacity, configure=configure,
        )

    def pace(
        self,
        *others: "StreamHandle",
        on: str,
        interval: float,
        name: str | None = None,
        queue_capacity: int | None = None,
        feedback_enabled: bool = True,
        feedback_interval: float = 0.0,
        feedback_bound: str = "watermark",
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Merge under a disorder bound; the feedback-producing PACE.

        ``interval`` is the tolerance of the paper's ``WITH PACE ON
        <attr> <n>`` clause: tuples more than ``interval`` behind the high
        watermark of ``on`` are dropped, and assumed feedback flows to the
        lagging inputs.  With no ``others`` the second input is an empty
        stream that closes immediately (single-stream PACE).
        """
        schema = self._require_schema("pace")
        inputs: tuple[StreamHandle, ...] = (self, *others)
        self.flow._check_same_schema("pace", inputs)
        self.flow._check_inputs(inputs)
        stage_name = self.flow._next_name(name, "pace")
        arity = max(2, len(inputs))

        def make(name: str) -> Operator:
            return Pace(
                name, schema,
                timestamp_attribute=on,
                tolerance=interval,
                arity=arity,
                feedback_enabled=feedback_enabled,
                feedback_interval=feedback_interval,
                feedback_bound=feedback_bound,
                **op_kwargs,
            )

        if len(inputs) == 1:
            # Validate the PACE arguments *before* materialising the
            # hidden empty source, so a bad call leaves no orphan stage
            # behind.  (With explicit other inputs, _derive's own
            # pre-mutation validation already covers this.)
            make(stage_name)
            inputs = (
                self,
                self.flow.source(schema, [], name=f"{stage_name}_empty"),
            )
        return self.flow._derive(
            make, name=stage_name, base="pace", inputs=inputs,
            queue_capacity=queue_capacity, configure=configure,
        )

    def join(
        self,
        other: "StreamHandle",
        *,
        on: Sequence[tuple[str, str]],
        how: str = "inner",
        condition: Callable[[StreamTuple, StreamTuple], bool] | None = None,
        name: str | None = None,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "StreamHandle":
        """Equi-join with ``other`` (symmetric hash join); self is left."""
        left = self._require_schema("join")
        right = other._require_schema("join")
        return self.flow._derive(
            lambda name: SymmetricHashJoin(
                name, left, right, on,
                condition=condition, how=how, **op_kwargs,
            ),
            name=name, base="join", inputs=(self, other),
            queue_capacity=queue_capacity, configure=configure,
        )

    # -- terminals ----------------------------------------------------------------

    def collect(
        self,
        name: str = "sink",
        *,
        keep_punctuation: bool = False,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "Flow":
        """Terminate in a :class:`CollectSink` named ``name``.

        Returns the flow, so a linear pipeline reads top to bottom and
        ends ready to ``run()``.
        """
        schema = self.schema
        self.flow._derive(
            lambda name: CollectSink(
                name, schema, keep_punctuation=keep_punctuation,
                **op_kwargs,
            ),
            name=name, base="sink", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )
        return self.flow

    def collect_awaitable(
        self,
        name: str = "sink",
        *,
        keep_punctuation: bool = False,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "Flow":
        """Terminate in an :class:`AwaitableSink` named ``name``.

        Like :meth:`collect`, but the built sink's results can be
        ``await``-ed by client coroutines running alongside an
        ``AsyncioEngine.arun()`` (``await plan.operator(name)``); after a
        synchronous run the await resolves immediately.
        """
        schema = self.schema
        self.flow._derive(
            lambda name: AwaitableSink(
                name, schema, keep_punctuation=keep_punctuation,
                **op_kwargs,
            ),
            name=name, base="sink",
            inputs=(self,), queue_capacity=queue_capacity,
            configure=configure,
        )
        return self.flow

    def push(
        self,
        name: str = "out",
        *,
        high_water: int = 64,
        retain: int | None = 1024,
        keep_punctuation: bool = False,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "Flow":
        """Terminate in a :class:`PushSink` publishing to a `Broadcast`.

        The serving delivery terminal: every result is pushed into the
        flow's :meth:`Flow.hub` the moment it is produced, fanning out
        to live subscribers (SSE/websocket clients).  ``high_water``
        bounds each subscriber's buffer via the hub's admission gate
        (which re-opens at a quarter of it); ``retain`` caps the sink's local result history
        so always-on flows run in bounded memory (``docs/serving.md``).

        Like :meth:`Flow.ingest`'s channel, the hub persists across
        builds: subscribers survive a supervised restart.
        """
        schema = self.schema
        hub = Broadcast(name, high_water=high_water)
        self.flow._derive(
            lambda name: PushSink(
                name, schema, publish=hub.publish_page,
                on_complete=hub.close,
                retain=retain, keep_punctuation=keep_punctuation,
                **op_kwargs,
            ),
            name=name, base="out", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )
        self.flow._serving_hubs[name] = hub
        return self.flow

    def on_demand(
        self,
        name: str = "client",
        *,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        **op_kwargs: Any,
    ) -> "Flow":
        """Terminate in an :class:`OnDemandSink` (poll/demand client)."""
        schema = self.schema
        self.flow._derive(
            lambda name: OnDemandSink(name, schema, **op_kwargs),
            name=name, base="client", inputs=(self,),
            queue_capacity=queue_capacity, configure=configure,
        )
        return self.flow

    # -- internals ----------------------------------------------------------------

    def _require_schema(self, verb: str) -> Schema:
        if self._node.schema is None:
            raise FlowError(
                f"{verb}() needs the upstream schema, but stage "
                f"{self._node.name!r} declares none"
            )
        return self._node.schema

    def _check_consumable(self) -> None:
        node = self._node
        if self._spent or (node.consumed and not node.fanout_ok):
            raise FlowError(
                f"stream {node.name!r} is already consumed; use "
                f".split() to feed several consumers"
            )

    def _consume(self) -> _Node:
        self._check_consumable()
        self._spent = True
        self._node.consumed += 1
        return self._node


class Flow:
    """A named dataflow under construction; compiles to :class:`QueryPlan`.

    ``page_size`` is the data-queue page size of every edge.  A flow is
    re-runnable: every
    :meth:`build` (and therefore every :meth:`run`) instantiates fresh
    operators from the recorded specs.
    """

    def __init__(
        self, name: str = "flow", *, page_size: int = DEFAULT_PAGE_SIZE
    ) -> None:
        self.name = name
        self.page_size = page_size
        self._nodes: list[_Node] = []
        self._edges: list[_Edge] = []
        self._names: set[str] = set()
        self._shard_regions: list[ShardGroup] = []
        #: Serving adapters (``ingest``/``push`` verbs): persistent
        #: channels and hubs shared by every build of this flow, keyed
        #: by stage name.  The serving supervisor introspects these.
        self._serving_channels: dict[str, Channel] = {}
        self._serving_hubs: dict[str, Broadcast] = {}

    # -- sources ------------------------------------------------------------------

    def source(
        self,
        schema: Schema,
        timeline: Sequence[tuple[float, Any]],
        *,
        name: str | None = None,
        **op_kwargs: Any,
    ) -> StreamHandle:
        """Add a replayed source over ``(arrival_time, element)`` pairs.

        A list is replayed in place by every run of the flow, not copied
        (any other sequence is materialised once, here).
        """
        stage_name = self._next_name(name, "source")
        if not isinstance(timeline, list):
            timeline = list(timeline)

        def factory() -> Operator:
            return ListSource(stage_name, schema, timeline, **op_kwargs)

        prototype = factory()  # validate the timeline eagerly
        node = _Node(stage_name, factory, schema, prototype=prototype)
        node.source_args = (schema, timeline, op_kwargs)
        self._commit_node(node)
        return StreamHandle(self, node)

    def generate(
        self,
        schema: Schema,
        events_factory: Callable[[], Iterable[tuple[float, Any]]],
        *,
        name: str | None = None,
        **op_kwargs: Any,
    ) -> StreamHandle:
        """Add a lazy generator source (arbitrarily long streams)."""
        stage_name = self._next_name(name, "source")
        node = _Node(
            stage_name,
            lambda: GeneratorSource(
                stage_name, schema, events_factory, **op_kwargs
            ),
            schema,
            type_name="GeneratorSource", is_source=True,
        )
        self._commit_node(node)
        return StreamHandle(self, node)

    def from_async_iterable(
        self,
        schema: Schema,
        events_factory: Callable[[], Any],
        *,
        name: str | None = None,
        **op_kwargs: Any,
    ) -> StreamHandle:
        """Add a source fed by an async iterable (network-shaped input).

        ``events_factory`` is a zero-argument callable returning an
        async iterable of ``(arrival_time, element)`` pairs -- typically
        an async generator wrapping a websocket, HTTP feed or broker
        subscription.  On ``engine="asyncio"`` the iterable is awaited
        natively (one parked pump task per feed); the simulated and
        threaded engines pump it through a private event loop, so the
        same flow runs on every backend.  See ``docs/engines.md``.
        """
        stage_name = self._next_name(name, "source")
        node = _Node(
            stage_name,
            lambda: AsyncIterableSource(
                stage_name, schema, events_factory, **op_kwargs
            ),
            schema,
            type_name="AsyncIterableSource", is_source=True,
        )
        self._commit_node(node)
        return StreamHandle(self, node)

    def ingest(
        self,
        schema: Schema,
        *,
        name: str | None = None,
        capacity: int = 256,
        **op_kwargs: Any,
    ) -> StreamHandle:
        """Add a network-fed source backed by a persistent `Channel`.

        The serving verb: returns a stream handle like any other source,
        but input arrives at runtime through :meth:`channel`'s
        :meth:`~repro.stream.Channel.put` -- typically called by the
        serving layer's HTTP/websocket handlers.  ``capacity`` bounds
        the in-channel backlog: when the plan is paused by backpressure,
        producers awaiting ``put`` are suspended rather than dropped, so
        overload propagates to the socket (``docs/serving.md``).

        Unlike the per-run sources, the channel *persists across
        builds*: a supervisor restarting a crashed flow re-attaches a
        fresh source to the same channel, and elements
        admitted during the outage are delivered by the next run.
        """
        stage_name = self._next_name(name, "ingest")
        channel = Channel(stage_name, schema, capacity=capacity)
        handle = self.from_async_iterable(
            schema, channel.runs, name=stage_name,
            idle_flush=lambda: channel.idle, **op_kwargs,
        )
        self._serving_channels[stage_name] = channel
        return handle

    def channel(self, name: str | None = None) -> Channel:
        """The ingest channel created by :meth:`ingest`.

        With one ingest stage the name may be omitted; with several it
        selects by stage name.
        """
        return self._serving_entry(
            self._serving_channels, name, "ingest channel", "ingest()"
        )

    def hub(self, name: str | None = None) -> Broadcast:
        """The delivery hub created by a ``.push()`` terminal."""
        return self._serving_entry(
            self._serving_hubs, name, "delivery hub", ".push()"
        )

    def _serving_entry(
        self, table: dict[str, Any], name: str | None, what: str, verb: str
    ) -> Any:
        if name is not None:
            try:
                return table[name]
            except KeyError:
                raise FlowError(
                    f"flow {self.name!r} has no {what} named {name!r}; "
                    f"declared: {sorted(table) or 'none'}"
                ) from None
        if not table:
            raise FlowError(
                f"flow {self.name!r} declares no {what}; add a {verb} "
                f"stage first"
            )
        if len(table) > 1:
            raise FlowError(
                f"flow {self.name!r} has several {what}s "
                f"({sorted(table)}); pass a name"
            )
        return next(iter(table.values()))

    def merge(
        self,
        operator: Operator | Callable[[], Operator],
        *inputs: StreamHandle,
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
    ) -> StreamHandle:
        """Feed ``inputs`` into a custom n-ary operator, port by port."""
        if not inputs:
            raise FlowError("merge() needs at least one input handle")
        return self._attach_custom(
            operator, inputs=inputs, queue_capacity=queue_capacity,
            configure=configure,
        )

    # -- compilation --------------------------------------------------------------

    def build(self, *, queue_capacity: int | None = None) -> QueryPlan:
        """Compile to a fresh, validated :class:`QueryPlan`.

        ``queue_capacity`` bounds every edge that did not set its own
        capacity via a verb's ``queue_capacity=`` argument -- the
        one-knob way to turn on backpressure for a whole flow.
        """
        if not self._nodes:
            raise FlowError(f"flow {self.name!r} has no stages")
        plan = QueryPlan(self.name)
        instances: dict[int, Operator] = {}
        for node in self._nodes:
            operator = node.make()
            instances[id(node)] = operator
            plan.add(operator)
        for edge in self._edges:
            plan.connect(
                instances[id(edge.producer)],
                instances[id(edge.consumer)],
                port=edge.port,
                page_size=self.page_size,
                capacity=(
                    edge.capacity if edge.capacity is not None
                    else queue_capacity
                ),
            )
        for group in self._shard_regions:
            plan.register_shard_group(group)
        plan.validate()
        return plan

    def describe(self, *, checkpoints: bool = False) -> str:
        """Topology description, rendered exactly as the compiled plan's.

        Produced from the recorded stage specs through the same renderer
        as :meth:`QueryPlan.describe` -- byte-identical to
        ``flow.build().describe()`` but without building, so inspecting a
        flow never spends a single-use ``apply()``'d instance.  With
        ``checkpoints=True``, checkpoint-capable stages (their operator
        class overrides the snapshot seam) are marked ``⌖``.
        """
        return render_describe(
            self.name,
            [
                (
                    node.name,
                    node.type_name
                    + checkpoint_annotation(node.op_type, checkpoints),
                    [
                        f"{edge.consumer.name}[{edge.port}]"
                        f"{edge_annotation(edge.capacity)}"
                        for edge in self._edges if edge.producer is node
                    ],
                )
                for node in self._nodes
            ],
            regions=self._shard_regions,
        )

    def to_dot(self, *, checkpoints: bool = False) -> str:
        """Graphviz DOT export, rendered exactly as the compiled plan's.

        Shares :func:`repro.engine.plan.render_dot` with
        :meth:`QueryPlan.to_dot`, without building; ``checkpoints=True``
        appends ``⌖`` to checkpoint-capable stages' type labels.
        """
        has_output = {id(edge.producer) for edge in self._edges}
        return render_dot(
            self.name,
            [
                (
                    node.name,
                    node.type_name
                    + checkpoint_annotation(node.op_type, checkpoints),
                    node.is_source,
                    id(node) not in has_output,
                )
                for node in self._nodes
            ],
            [
                (node.name, edge.consumer.name, edge.port, edge.capacity)
                for node in self._nodes
                for edge in self._edges if edge.producer is node
            ],
            regions=self._shard_regions,
        )

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        engine: str = "simulated",
        *,
        feedback: Sequence[tuple[float, str, Any]] = (),
        actions: Sequence[tuple[float, Callable[[QueryPlan], None]]] = (),
        queue_capacity: int | None = None,
        optimize: bool = False,
        **engine_options: Any,
    ) -> RunResult:
        """Compile and run on the named engine; returns a ``RunResult``.

        ``optimize=True`` rewrites the compiled plan before engine
        handoff (:func:`repro.optimizer.optimize`): guard pushdown,
        projection pruning, and fusion of stateless chains into
        :class:`~repro.operators.fused.FusedOperator` composites.  The
        rewritten plan is observably equivalent -- same sink data and
        punctuation, same feedback effects at sources.  Note that
        ``feedback``/``actions`` entries must target operators that
        still exist after rewriting: a stage fused into a composite is
        addressable only by the composite's ``a+b+c`` name.

        ``feedback`` declares client feedback injections as ``(time,
        operator_name, FeedbackPunctuation)`` triples: at ``time`` (the
        engine's clock), the named operator -- typically a sink --
        ``inject_feedback``'s the punctuation, which then flows upstream
        like any other feedback.  ``actions`` are ``(time, callable)``
        pairs for anything richer (polls, demands); the callable receives
        the built plan.  An entry may append a third element naming an
        *owner* operator -- ``(time, callable, "sink")`` -- which
        owner-aware engines (multiprocess) use to run the action in the
        worker process holding that operator; other engines ignore it.
        ``queue_capacity`` bounds every edge without its
        own per-verb capacity, enabling runtime backpressure (see
        ``docs/backpressure.md``).  ``engine_options`` pass to the engine
        factory (``control_latency=...``, ...).
        """
        plan = self.build(queue_capacity=queue_capacity)
        if optimize:
            # Imported lazily: flows that never opt in pay nothing for
            # the rewrite machinery.
            from repro.optimizer import optimize as optimize_plan

            optimize_plan(plan)
            plan.validate()
        runner = create_engine(engine, plan, **engine_options)
        # (time, thunk, owner): the owner names the operator the thunk
        # targets, letting owner-aware engines (multiprocess) route the
        # action to the worker holding that operator's plan copy.
        schedule: list[tuple[float, Callable[[], None], str | None]] = []
        for entry in feedback:
            try:
                when, target, punct = entry
            except (TypeError, ValueError):
                raise FlowError(
                    "feedback entries are (time, operator_name, "
                    "FeedbackPunctuation) triples"
                ) from None
            operator = plan.operator(target)
            schedule.append(
                (float(when),
                 lambda op=operator, fb=punct: op.inject_feedback(fb),
                 target)
            )
        for entry in actions:
            try:
                if len(entry) == 3:
                    when, action, owner = entry
                else:
                    when, action = entry
                    owner = None
            except (TypeError, ValueError):
                raise FlowError(
                    "actions entries are (time, callable) pairs or "
                    "(time, callable, owner) triples; the callable "
                    "receives the built plan"
                ) from None
            if not callable(action):
                raise FlowError(
                    f"action at t={when} is not callable: {action!r}"
                )
            if owner is not None:
                plan.operator(owner)  # unknown owner: fail fast
            schedule.append(
                (float(when), lambda act=action: act(plan), owner)
            )
        for when, thunk, owner in schedule:
            runner.at(when, thunk, owner=owner)
        return runner.run()

    # -- internals ----------------------------------------------------------------

    def _next_name(self, name: str | None, base: str) -> str:
        """Resolve a stage name without registering it (pure check).

        Registration happens only when the stage commits -- a verb that
        fails validation must not claim its name (or mutate the flow in
        any other way), so a corrected retry succeeds.
        """
        if name is not None:
            if name in self._names:
                raise FlowError(
                    f"flow {self.name!r} already has a stage named "
                    f"{name!r}"
                )
            return name
        candidate = base
        counter = 1
        while candidate in self._names:
            counter += 1
            candidate = f"{base}_{counter}"
        return candidate

    def _commit_node(self, node: _Node) -> None:
        self._names.add(node.name)
        self._nodes.append(node)

    def _check_same_schema(
        self, verb: str, inputs: Sequence[StreamHandle]
    ) -> None:
        first = inputs[0]._require_schema(verb)
        for other in inputs[1:]:
            schema = other._require_schema(verb)
            if schema.names != first.names:
                raise FlowError(
                    f"{verb}() inputs must share a schema: "
                    f"{first.names} vs {schema.names}"
                )

    def _check_inputs(self, inputs: Sequence[StreamHandle]) -> None:
        """Pre-validate input handles without consuming them.

        Runs before any mutation so a failing verb leaves the flow
        exactly as it was (no half-wired node, no consumed handle).
        The same handle twice in one verb is rejected here too --
        otherwise the second consumption would fail only mid-commit.
        """
        seen: set[int] = set()
        for handle in inputs:
            if handle.flow is not self:
                raise FlowError(
                    f"stream {handle.name!r} belongs to flow "
                    f"{handle.flow.name!r}, not {self.name!r}"
                )
            if id(handle) in seen:
                raise FlowError(
                    f"stream {handle.name!r} is passed twice to one "
                    f"verb; use .split() to duplicate it"
                )
            seen.add(id(handle))
            handle._check_consumable()

    def _derive(
        self,
        make: Callable[[str], Operator],
        *,
        name: str | None,
        base: str,
        inputs: Sequence[StreamHandle],
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None = None,
        fanout_ok: bool = False,
    ) -> StreamHandle:
        # Validate everything first; mutate the flow only on success.
        self._check_inputs(inputs)
        stage_name = self._next_name(name, base)
        factory = lambda: make(stage_name)  # noqa: E731
        prototype = factory()  # validate constructor args eagerly
        if not isinstance(prototype, Operator):
            raise FlowError(
                f"stage {stage_name!r} factory returned "
                f"{prototype!r}, not an Operator"
            )
        node = _Node(
            stage_name, factory, prototype.output_schema,
            fanout_ok=fanout_ok, configure=configure, prototype=prototype,
        )
        return self._attach(
            node, prototype.n_inputs, inputs, queue_capacity
        )

    def _attach_custom(
        self,
        operator: Operator | Callable[[], Operator],
        *,
        inputs: Sequence[StreamHandle],
        queue_capacity: int | None = None,
        configure: Callable[[Operator], None] | None,
    ) -> StreamHandle:
        self._check_inputs(inputs)
        if isinstance(operator, Operator):
            prototype = operator
            single_use = True
            factory: Callable[[], Operator] = lambda: prototype  # noqa: E731
        elif callable(operator):
            prototype = operator()
            if not isinstance(prototype, Operator):
                raise FlowError(
                    f"apply()/merge() factory returned {prototype!r}, "
                    f"not an Operator"
                )
            single_use = False
            factory = operator
        else:
            raise FlowError(
                f"apply()/merge() takes an Operator or a factory, "
                f"got {operator!r}"
            )
        # The name is baked into the operator: a clash raises here.
        stage_name = self._next_name(prototype.name, prototype.name)
        node = _Node(
            stage_name, factory, prototype.output_schema,
            single_use=single_use, configure=configure,
            prototype=None if single_use else prototype,
            type_name=type(prototype).__name__,
            is_source=prototype.n_inputs == 0,
        )
        return self._attach(
            node, prototype.n_inputs, inputs, queue_capacity
        )

    def _attach(
        self,
        node: _Node,
        n_inputs: int,
        inputs: Sequence[StreamHandle],
        queue_capacity: int | None,
    ) -> StreamHandle:
        """Check the stage's port count, commit it, wire ``inputs`` in."""
        if n_inputs != len(inputs):
            raise FlowError(
                f"stage {node.name!r} has {n_inputs} input "
                f"port(s) but {len(inputs)} stream(s) were supplied"
            )
        self._commit_node(node)
        for port, handle in enumerate(inputs):
            producer = handle._consume()
            self._edges.append(_Edge(producer, node, port, queue_capacity))
        return StreamHandle(self, node)

    def __repr__(self) -> str:
        return (
            f"Flow({self.name!r}, stages={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )
