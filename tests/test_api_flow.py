"""Tests for the fluent dataflow API (repro.api.Flow) — system S10."""

import pytest

from repro import (
    CollectSink,
    Flow,
    ListSource,
    Pace,
    PriorityBuffer,
    QueryPlan,
    Schema,
    Select,
    Simulator,
    StreamTuple,
    ThreadedRuntime,
    Union,
    WindowAggregate,
)
from repro.api import AggSpec, avg, count
from repro.core import FeedbackPunctuation
from repro.engine import fork_available
from repro.errors import EngineError, FlowError, PlanError
from repro.operators.passthrough import PassThrough
from repro.punctuation import InSet, Pattern

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])


def rows(n, spacing=0.1):
    return [
        (i * spacing,
         StreamTuple(SCHEMA, (i * spacing, i % 3, float(i % 50))))
        for i in range(n)
    ]


def pipeline_flow(name="flow"):
    """The quickstart pipeline: source -> where -> window -> sink."""
    flow = Flow(name)
    (flow.source(SCHEMA, rows(200), name="source")
         .punctuate(on="ts", every=2.0)
         .where(lambda t: t["value"] >= 0.0, name="keep")
         .window(avg("value"), by="sensor", width=2.0, on="ts",
                 name="average")
         .collect("sink"))
    return flow


def sink_values(result, name="sink"):
    return [t.values for t in result.sink(name).results]


class TestBuild:
    def test_compiles_to_query_plan(self):
        plan = pipeline_flow().build()
        assert isinstance(plan, QueryPlan)
        assert [op.name for op in plan] == [
            "source", "keep", "average", "sink"
        ]
        assert isinstance(plan.operator("keep"), Select)
        assert isinstance(plan.operator("average"), WindowAggregate)
        assert isinstance(plan.operator("sink"), CollectSink)

    def test_builds_are_fresh(self):
        """Every build yields new operator instances (flows re-run)."""
        flow = pipeline_flow()
        first, second = flow.build(), flow.build()
        assert first.operator("keep") is not second.operator("keep")

    def test_auto_names_are_unique(self):
        flow = Flow("auto")
        a = flow.source(SCHEMA, rows(2))
        b = flow.source(SCHEMA, rows(2))
        assert a.name == "source"
        assert b.name == "source_2"

    def test_duplicate_explicit_name_rejected(self):
        flow = Flow("dups")
        flow.source(SCHEMA, rows(2), name="s")
        with pytest.raises(FlowError, match="already has a stage"):
            flow.source(SCHEMA, rows(2), name="s")

    def test_empty_flow_rejected(self):
        with pytest.raises(FlowError, match="no stages"):
            Flow("empty").build()

    def test_schema_tracking(self):
        flow = Flow("schemas")
        handle = flow.source(SCHEMA, rows(4)).window(
            count(), by="sensor", width=1.0, on="ts"
        )
        assert handle.schema.names == ("window", "sensor", "count")

    def test_cost_kwargs_reach_the_operator(self):
        flow = Flow("costs")
        (flow.source(SCHEMA, rows(4))
             .where(lambda t: True, name="w", tuple_cost=0.25,
                    control_cost=0.5)
             .collect("sink"))
        plan = flow.build()
        assert plan.operator("w").tuple_cost == 0.25
        assert plan.operator("w").control_cost == 0.5

    def test_every_edge_takes_the_flows_page_size(self):
        """The page size is the flow's: every edge the verbs wire,
        shard lanes and fan-out branches included, pages at it."""
        flow = Flow("paged", page_size=3)
        left, right = flow.source(SCHEMA, rows(20), name="src").split()
        lanes = left.where(lambda t: True, name="keep").shard(
            2, key="sensor",
            pipeline=lambda lane, index: lane.select("ts", "sensor"),
        )
        (lanes.union(right.select("ts", "sensor", name="narrow"))
              .collect("sink"))
        plan = flow.build()
        assert len(plan.edges) == 11
        assert {edge.queue.page_size for edge in plan.edges} == {3}
        result = flow.run("simulated")
        assert len(result.sink("sink").results) == 40

    def test_configure_applies_per_build(self):
        flow = Flow("conf")
        (flow.source(SCHEMA, rows(4))
             .where(lambda t: True, name="w",
                    configure=lambda op: setattr(op, "relay_enabled", False))
             .collect("sink"))
        assert flow.build().operator("w").relay_enabled is False
        assert flow.build().operator("w").relay_enabled is False


class TestHandleDiscipline:
    def test_handle_single_consumption(self):
        flow = Flow("reuse")
        handle = flow.source(SCHEMA, rows(4))
        handle.where(lambda t: True)
        with pytest.raises(FlowError, match="split"):
            handle.where(lambda t: True)

    def test_split_allows_fanout(self):
        flow = Flow("fanout")
        a, b = flow.source(SCHEMA, rows(4)).split(name="dup")
        a.where(lambda t: True, name="wa").collect("sa")
        b.where(lambda t: False, name="wb").collect("sb")
        plan = flow.build()
        assert len(plan.operator("dup").outputs) == 2

    def test_split_branches_are_single_consumer(self):
        """split(n) bounds the fan-out: each branch handle is one-shot."""
        flow = Flow("bounded-fanout")
        a, b = flow.source(SCHEMA, rows(4)).split(2, name="dup")
        a.where(lambda t: True, name="wa").collect("sa")
        with pytest.raises(FlowError, match="already consumed"):
            a.where(lambda t: True, name="wa2")
        b.where(lambda t: True, name="wb").collect("sb")
        assert len(flow.build().operator("dup").outputs) == 2

    def test_same_handle_twice_in_one_verb_rejected_cleanly(self):
        flow = Flow("twice")
        a = flow.source(SCHEMA, rows(4), name="a")
        with pytest.raises(FlowError, match="passed twice"):
            a.union(a)
        # The failed verb must not have consumed or half-wired anything.
        a.collect("sink")
        plan = flow.build()
        assert [op.name for op in plan] == ["a", "sink"]

    def test_cross_flow_handles_rejected(self):
        flow_a, flow_b = Flow("a"), Flow("b")
        handle_a = flow_a.source(SCHEMA, rows(4))
        handle_b = flow_b.source(SCHEMA, rows(4))
        with pytest.raises(FlowError, match="belongs to flow"):
            handle_a.union(handle_b)

    def test_punctuate_only_on_sources(self):
        flow = Flow("punct")
        handle = flow.source(SCHEMA, rows(4)).where(lambda t: True)
        with pytest.raises(FlowError, match="source stage"):
            handle.punctuate(on="ts", every=1.0)

    def test_union_schema_mismatch_rejected(self):
        other = Schema.of("a", "b")
        flow = Flow("mismatch")
        one = flow.source(SCHEMA, rows(2))
        two = flow.source(other, [])
        with pytest.raises(FlowError, match="share a schema"):
            one.union(two)

    def test_window_requires_agg_spec(self):
        flow = Flow("spec")
        with pytest.raises(FlowError, match="AggSpec"):
            flow.source(SCHEMA, rows(2)).window(
                "avg", on="ts", width=1.0
            )

    def test_apply_instance_makes_flow_single_build(self):
        flow = Flow("instance")
        (flow.source(SCHEMA, rows(4))
             .apply(PassThrough("stage", SCHEMA))
             .collect("sink"))
        flow.build()
        with pytest.raises(FlowError, match="factory"):
            flow.build()

    def test_describe_does_not_spend_a_single_use_instance(self):
        """Inspection must not consume the one permitted build."""
        flow = Flow("inspect")
        (flow.source(SCHEMA, rows(4))
             .apply(PassThrough("stage", SCHEMA))
             .collect("sink"))
        assert "stage (PassThrough)" in flow.describe()
        assert '"stage"' in flow.to_dot()
        result = flow.run(engine="simulated")  # still buildable
        assert len(result.sink("sink").results) == 4

    def test_failed_verb_leaves_flow_untouched(self):
        """A rejected verb must not claim its name or consume handles."""
        flow = Flow("atomic")
        one = flow.source(SCHEMA, rows(4), name="one")
        two = flow.source(SCHEMA, rows(4), name="two")
        with pytest.raises(FlowError):
            flow.merge(lambda: Union("u", SCHEMA, arity=2), one)  # arity
        # The corrected call succeeds: "u" was not claimed, nothing was
        # consumed, no half-wired node remains.
        flow.merge(lambda: Union("u", SCHEMA, arity=2), one, two).collect(
            "sink"
        )
        assert len(flow.build().operator("u").outputs) == 1

    def test_failed_verb_does_not_consume_earlier_inputs(self):
        flow = Flow("atomic2")
        x = flow.source(SCHEMA, rows(4), name="x")
        y = flow.source(SCHEMA, rows(4), name="y")
        y.where(lambda t: True, name="wy").collect("sy")
        with pytest.raises(FlowError, match="already consumed"):
            x.union(y)  # y is spent; x must survive the failure
        x.where(lambda t: True, name="wx").collect("sx")
        flow.build()  # no dangling union node, no unconnected ports

    def test_bad_pace_leaves_no_orphan_empty_source(self):
        flow = Flow("pace-atomic")
        handle = flow.source(SCHEMA, rows(4))
        with pytest.raises(Exception):
            handle.pace(on="ts", interval=1.0, feedback_bound="nonsense")
        handle.pace(on="ts", interval=1.0, name="pace").collect("sink")
        plan = flow.build()
        assert [op.name for op in plan] == [
            "source", "pace_empty", "pace", "sink"
        ]

    def test_apply_factory_keeps_flow_rerunnable(self):
        flow = Flow("factory")
        (flow.source(SCHEMA, rows(4))
             .apply(lambda: PassThrough("stage", SCHEMA))
             .collect("sink"))
        flow.build()
        flow.build()  # no error


class TestBuilderManualEquivalence:
    """Same topology by hand and by builder -> same RunResult tuples."""

    def manual_plan(self, name="manual"):
        plan = QueryPlan(name)
        source = ListSource("source", SCHEMA, rows(200))
        keep = Select("keep", SCHEMA, lambda t: t["value"] >= 0.0)
        average = WindowAggregate(
            "average", SCHEMA,
            kind="avg", window_attribute="ts", width=2.0,
            value_attribute="value", group_by=("sensor",),
        )
        sink = CollectSink("sink", average.output_schema)
        plan.add(source)
        plan.chain(source, keep, average, sink)
        return plan

    def builder_flow(self, name="built"):
        flow = Flow(name)
        (flow.source(SCHEMA, rows(200), name="source")
             .where(lambda t: t["value"] >= 0.0, name="keep")
             .window(avg("value"), by="sensor", width=2.0, on="ts",
                     name="average")
             .collect("sink"))
        return flow

    def test_same_topology(self):
        manual = self.manual_plan()
        built = self.builder_flow().build()
        assert manual.describe().splitlines()[1:] == (
            built.describe().splitlines()[1:]
        )

    def test_same_tuples_simulated(self):
        manual = self.manual_plan()
        Simulator(manual).run()
        expected = [t.values for t in manual.operator("sink").results]
        result = self.builder_flow().run(engine="simulated")
        assert sink_values(result) == expected
        assert expected  # non-vacuous

    def test_same_tuples_threaded(self):
        manual = self.manual_plan()
        ThreadedRuntime(manual).run()
        expected = [t.values for t in manual.operator("sink").results]
        result = self.builder_flow().run(engine="threaded")
        assert sink_values(result) == expected

    def test_same_tuples_asyncio(self):
        manual = self.manual_plan()
        Simulator(manual).run()
        expected = [t.values for t in manual.operator("sink").results]
        result = self.builder_flow().run(engine="asyncio")
        assert sink_values(result) == expected

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_same_tuples_multiprocess(self):
        manual = self.manual_plan()
        Simulator(manual).run()
        expected = [t.values for t in manual.operator("sink").results]
        result = self.builder_flow().run(engine="multiprocess")
        assert sink_values(result) == expected

    def test_engines_agree_through_the_builder(self):
        flow = pipeline_flow()
        simulated = flow.run(engine="simulated")
        threaded = flow.run(engine="threaded")
        aio = flow.run(engine="asyncio")
        assert sink_values(simulated) == sink_values(threaded)
        assert sink_values(simulated) == sink_values(aio)
        if fork_available():
            mp = flow.run(engine="multiprocess")
            assert sink_values(simulated) == sink_values(mp)

    def test_engine_options_pass_through(self):
        flow = pipeline_flow()
        result = flow.run(engine="simulated", control_latency=0.5)
        assert result.metrics.events_processed > 0


class TestNonLinearTopologies:
    def test_split_union_roundtrip(self):
        flow = Flow("diamond")
        a, b = flow.source(SCHEMA, rows(50), name="source").split(
            name="dup"
        )
        evens = a.where(lambda t: t["sensor"] != 1, name="not1")
        ones = b.where(lambda t: t["sensor"] == 1, name="only1")
        evens.union(ones, name="merge").collect("sink")
        result = flow.run(engine="simulated")
        assert len(result.sink("sink").results) == 50

    def test_pace_merges_two_streams(self):
        # Small pages so the fast branch's watermark advances before the
        # straggler is processed (lateness is a scheduling property).
        flow = Flow("paced", page_size=16)
        fast = flow.source(SCHEMA, rows(40), name="fast")
        late = flow.source(
            SCHEMA, [(3.0, StreamTuple(SCHEMA, (0.5, 0, 99.0)))],
            name="slow",
        )
        fast.pace(late, on="ts", interval=1.0, name="pace").collect("sink")
        result = flow.run(engine="simulated")
        assert isinstance(result.plan.operator("pace"), Pace)
        assert len(result.sink("sink").results) == 40
        assert result.plan.operator("pace").late_drops == 1

    def test_unary_pace_gets_empty_second_input(self):
        flow = Flow("paced1")
        flow.source(SCHEMA, rows(10)).pace(
            on="ts", interval=5.0, name="pace"
        ).collect("sink")
        plan = flow.build()
        assert isinstance(plan.operator("pace_empty"), ListSource)
        Simulator(plan).run()
        assert len(plan.operator("sink").results) == 10

    def test_join_two_branches(self):
        left_schema = Schema([("k", "int", True), ("l", "float")])
        right_schema = Schema([("k", "int", True), ("r", "float")])
        left_rows = [
            (i * 0.1, StreamTuple(left_schema, (i, float(i))))
            for i in range(10)
        ]
        right_rows = [
            (i * 0.1, StreamTuple(right_schema, (i, float(-i))))
            for i in range(10)
        ]
        flow = Flow("joined")
        left = flow.source(left_schema, left_rows, name="left")
        right = flow.source(right_schema, right_rows, name="right")
        left.join(right, on=[("k", "k")], name="join").collect("sink")
        result = flow.run(engine="simulated")
        assert len(result.sink("sink").results) == 10

    def test_merge_custom_operator(self):
        flow = Flow("custom-merge")
        one = flow.source(SCHEMA, rows(5), name="one")
        two = flow.source(SCHEMA, rows(5), name="two")
        handle = flow.merge(
            lambda: Union("u", SCHEMA, arity=2), one, two
        )
        handle.collect("sink")
        result = flow.run(engine="simulated")
        assert len(result.sink("sink").results) == 10

    def test_merge_arity_mismatch_rejected(self):
        flow = Flow("arity")
        one = flow.source(SCHEMA, rows(2))
        with pytest.raises(FlowError, match="input port"):
            flow.merge(lambda: Union("u", SCHEMA, arity=2), one)

    def test_buffer_verb(self):
        flow = Flow("buffered")
        (flow.source(SCHEMA, rows(10))
             .buffer(capacity=4, name="buf")
             .collect("sink"))
        plan = flow.build()
        assert isinstance(plan.operator("buf"), PriorityBuffer)
        assert plan.operator("buf").capacity == 4


class TestDeclarativeRun:
    def feedback_for(self, schema):
        return FeedbackPunctuation.assumed(
            Pattern.from_mapping(schema, {"sensor": InSet({1})}),
            issuer="client",
        )

    def test_feedback_injection_simulated(self):
        flow = pipeline_flow()
        baseline = flow.run(engine="simulated")
        out_schema = baseline.sink("sink").output_schema
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(out_schema, {"sensor": InSet({1})}),
            issuer="client",
        )
        run = flow.run(engine="simulated", feedback=[(0.0, "sink", fb)])
        assert all(t["sensor"] != 1 for t in run.sink("sink").results)
        assert len(run.sink("sink").results) < len(
            baseline.sink("sink").results
        )

    def test_feedback_injection_threaded(self):
        """Wall-clock injection lands mid-stream via a gated source.

        The source holds the second half of its stream until the window
        has taken the feedback -- its guard is installed -- so the
        injection provably lands mid-stream, however late it fires.
        """
        import threading

        gate = threading.Event()
        data = rows(100)

        def events():
            yield from data[:50]
            gate.wait(10.0)  # hold the stream open for the injection
            yield from data[50:]

        def open_gate_on_feedback(operator):
            receive = operator.receive_feedback

            def receive_then_open(feedback, **kwargs):
                actions = receive(feedback, **kwargs)
                gate.set()
                return actions

            operator.receive_feedback = receive_then_open

        flow = Flow("threaded-fb")
        handle = (
            flow.generate(SCHEMA, events, name="source")
                .window(avg("value"), by="sensor", width=2.0, on="ts",
                        name="average", configure=open_gate_on_feedback)
        )
        handle.collect("sink")
        fb = FeedbackPunctuation.assumed(
            Pattern.from_mapping(handle.schema, {"sensor": InSet({1})}),
            issuer="client",
        )
        run = flow.run(engine="threaded", feedback=[(0.05, "sink", fb)])
        assert gate.is_set()
        assert all(t["sensor"] != 1 for t in run.sink("sink").results)
        assert run.sink("sink").results  # other sensors made it through

    def test_threaded_action_errors_propagate(self):
        """A failing injection must not silently yield a feedback-free run.

        It fails the run at once, as on the heap engines: the source
        opened by the action takes no further step, so the sink never
        holds the whole stream.
        """
        import threading

        gate = threading.Event()
        data = rows(20)
        sinks = []

        def events():
            yield from data[:10]
            gate.wait(10.0)
            yield from data[10:]

        def boom(plan):
            sinks.append(plan.operator("sink"))
            gate.set()
            raise RuntimeError("injection failed")

        flow = Flow("threaded-err")
        flow.generate(SCHEMA, events, name="source").collect("sink")
        with pytest.raises(RuntimeError, match="injection failed"):
            flow.run(engine="threaded", actions=[(0.05, boom)])
        assert len(sinks[0].results) < len(data)

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_feedback_injection_multiprocess(self, monkeypatch):
        """Declarative feedback crosses the process boundary.

        ``feedback=`` entries name their target sink, so ``Flow.run``
        hands the multiprocess engine an owner and the injection fires
        inside the worker that owns the sink; the assumed pattern then
        relays upstream over a control frame to the source's worker.
        The source gates mid-stream on an event its worker sets when the
        feedback lands in the source's control channel.  The source
        drains its control before it emits its next run, so the guard
        provably goes in before the second half of the stream.
        """
        import threading

        from repro.stream.control import ControlChannel, ControlMessageKind

        gate = threading.Event()
        data = rows(60)

        def events():
            yield from data[:10]
            gate.wait(10.0)
            yield from data[10:]

        send = ControlChannel.send

        def send_then_open(channel, message):
            send(channel, message)
            if message.kind is ControlMessageKind.FEEDBACK:
                gate.set()  # in whichever worker the message landed

        monkeypatch.setattr(ControlChannel, "send", send_then_open)
        flow = Flow("mp-feedback")
        flow.generate(SCHEMA, events, name="source").collect("sink")
        fb = self.feedback_for(SCHEMA)
        run = flow.run(
            engine="multiprocess", feedback=[(0.05, "sink", fb)],
        )
        source = run.metrics.operator_metrics["source"]
        assert source.feedback_received == 1
        assert source.output_guard_drops > 0
        # Everything after the gate (ts >= 1.0) had the guard applied.
        kept = run.sink("sink").results
        assert not [t for t in kept if t["sensor"] == 1 and t["ts"] >= 1.0]
        assert [t for t in kept if t["ts"] >= 1.0]  # stream did resume

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_multiprocess_actions_require_owner(self):
        """Owner-less actions cannot run anywhere meaningful: each worker
        holds a fork copy of the plan, so the engine rejects them."""
        flow = pipeline_flow()
        with pytest.raises(EngineError, match="owner"):
            flow.run(engine="multiprocess",
                     actions=[(0.1, lambda plan: None)])

    def test_simulated_action_errors_propagate(self):
        flow = pipeline_flow()
        with pytest.raises(RuntimeError, match="injection failed"):
            flow.run(
                engine="simulated",
                actions=[(1.0, lambda plan: (_ for _ in ()).throw(
                    RuntimeError("injection failed")))],
            )

    def test_actions_receive_the_plan(self):
        flow = pipeline_flow()
        seen = []
        flow.run(
            engine="simulated",
            actions=[(1.0, lambda plan: seen.append(plan))],
        )
        assert len(seen) == 1
        assert isinstance(seen[0], QueryPlan)

    def test_feedback_to_unknown_operator_rejected(self):
        flow = pipeline_flow()
        fb = self.feedback_for(SCHEMA)
        with pytest.raises(PlanError, match="no operator"):
            flow.run(feedback=[(0.0, "nonexistent", fb)])

    def test_malformed_feedback_entry_rejected(self):
        flow = pipeline_flow()
        with pytest.raises(FlowError, match="triples"):
            flow.run(feedback=[(0.0, "sink")])

    def test_malformed_actions_entry_rejected(self):
        flow = pipeline_flow()
        # Owner goes third -- a callable in the owner slot means the
        # second slot is not the action.
        with pytest.raises(FlowError, match="not callable"):
            flow.run(actions=[(0.0, "sink", lambda plan: None)])
        with pytest.raises(FlowError, match="not callable"):
            flow.run(actions=[(0.0, "sink")])
        with pytest.raises(FlowError, match="pairs"):
            flow.run(actions=[(0.0,)])
        with pytest.raises(PlanError, match="no operator"):
            flow.run(actions=[(0.0, lambda plan: None, "nonexistent")])


class TestDescribeAndDot:
    def test_describe_delegates_to_plan(self):
        flow = pipeline_flow("described")
        assert flow.describe() == flow.build().describe()

    def test_to_dot_matches_compiled_plan(self):
        """The spec renderer must not drift from QueryPlan.to_dot()."""
        flow = pipeline_flow("dot-eq")
        assert flow.to_dot() == flow.build().to_dot()
        # Non-linear shape too (fan-out, multi-port fan-in).
        flow2 = Flow("dot-eq2")
        a, b = flow2.source(SCHEMA, rows(10)).split(name="dup")
        a.where(lambda t: True, name="wa").union(
            b.where(lambda t: False, name="wb"), name="merge"
        ).collect("sink")
        assert flow2.to_dot() == flow2.build().to_dot()

    def test_to_dot_structure(self):
        dot = pipeline_flow("dotted").to_dot()
        assert dot.startswith('digraph "dotted" {')
        assert dot.rstrip().endswith("}")
        assert '"source" -> "keep" [label="[0]"];' in dot
        # Sources are ellipses, sinks double-bordered.
        assert 'shape=ellipse' in dot
        assert 'peripheries=2' in dot

    def test_to_dot_quotes_names(self):
        flow = Flow('quo"ted')
        flow.source(SCHEMA, rows(2), name="src").collect("sink")
        dot = flow.to_dot()
        assert 'digraph "quo\\"ted" {' in dot


class TestAggSpecHelpers:
    def test_helpers_build_specs(self):
        assert avg("value") == AggSpec("avg", "value")
        assert count() == AggSpec("count", None)

    def test_shadowed_builtins(self):
        from repro.api import aggregates
        assert aggregates.sum("v") == AggSpec("sum", "v")
        assert aggregates.max("v") == AggSpec("max", "v")
        assert aggregates.min("v") == AggSpec("min", "v")
