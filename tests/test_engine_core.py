"""Engine-core parity: every engine runs the shared RuntimeCore mechanism.

The same small plans run on the Simulator (event heap + virtual clock),
the ThreadedRuntime (threads + condition waits) and the AsyncioEngine
(the simulator's heap on the wall clock); per-operator tuple, punctuation
and feedback counts must be identical -- the scheduling policy may
reorder work, but the mechanism (control before data, guards, completion,
finish) decides every count.

Plans are built so counts are schedule-independent: feedback is injected
before any data flows (sink ``on_start``) and relaying is disabled at the
exploiting operator, so no guard installation races an upstream thread.

Also here: direct unit tests for the simulator's round-robin port
selection (``_next_port_with_work``) and ``DataQueue.stamp_ready``.
"""

import time

import pytest

from repro.core import FeedbackPunctuation
from repro.engine import (
    AsyncioEngine,
    MultiprocessEngine,
    QueryPlan,
    Simulator,
    ThreadedRuntime,
    fork_available,
)
from repro.operators import (
    CollectSink,
    ListSource,
    PassThrough,
    Project,
    Select,
    SymmetricHashJoin,
    Union,
)
from repro.punctuation import Pattern, ProgressPunctuator, Punctuation
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])

ENGINES = [
    pytest.param(lambda plan: Simulator(plan), id="simulator"),
    pytest.param(
        lambda plan: ThreadedRuntime(plan, timeout=30.0), id="threaded"
    ),
    pytest.param(
        lambda plan: AsyncioEngine(plan, timeout=30.0), id="asyncio"
    ),
    pytest.param(
        lambda plan: MultiprocessEngine(plan, timeout=60.0),
        id="multiprocess",
        marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable"
        ),
    ),
]


def counts(plan: QueryPlan) -> dict[str, tuple[int, int, int, int]]:
    """Per-operator (tuples_out, punctuations_out, feedback_received,
    input_guard_drops) -- the parity signature of a finished run."""
    return {
        op.name: (
            op.metrics.tuples_out,
            op.metrics.punctuations_out,
            op.metrics.feedback_received,
            op.metrics.input_guard_drops,
        )
        for op in plan
    }


def inject_on_start(sink, feedback):
    """Queue ``feedback`` from ``sink`` before any data flows.

    ``on_start`` runs in both engines before sources emit (and before
    threads start), so the exploiting producer is guaranteed to drain the
    message ahead of its first data page -- the property that makes
    cross-engine counts deterministic.
    """
    original = sink.on_start

    def patched():
        original()
        sink.inject_feedback(feedback)

    sink.on_start = patched


# -- shared parity plans -------------------------------------------------------


def build_guarded_select_chain():
    """source -> passthrough -> select -> project -> sink, with assumed
    feedback from the sink guarding the projection's input."""
    punctuator = ProgressPunctuator(SCHEMA, "ts", interval=10.0)
    timeline = []
    for i in range(150):
        ts = i * 0.5
        timeline.append((0.0, StreamTuple(SCHEMA, (ts, i % 5, float(i)))))
        for punct in punctuator.observe(ts):
            timeline.append((0.0, punct))
    timeline.append((0.0, punctuator.final()))

    plan = QueryPlan("guarded-chain")
    source = ListSource("src", SCHEMA, timeline)
    ingest = PassThrough("ingest", SCHEMA)
    keep = Select("keep", SCHEMA, lambda t: t["seg"] != 4)
    shape = Project("shape", SCHEMA, ("ts", "seg"))
    sink = CollectSink("sink", shape.output_schema)
    plan.add(source)
    plan.chain(source, ingest, keep, shape, sink)
    # Counts must not depend on thread interleaving: the projection
    # exploits (input guard via exact back-mapping) but does not relay.
    shape.relay_enabled = False
    inject_on_start(
        sink,
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(shape.output_schema, {"seg": 2})
        ),
    )
    return plan


def build_feedback_join():
    """Binary symmetric hash join with assumed feedback from the sink."""
    left_schema = Schema([("k", "int"), ("l", "int")])
    right_schema = Schema([("k", "int"), ("r", "int")])
    left_timeline = [
        (0.0, StreamTuple(left_schema, (i % 7, i))) for i in range(80)
    ]
    left_timeline.append(
        (0.0, Punctuation(Pattern.all_wildcards(2), source="left"))
    )
    right_timeline = [
        (0.0, StreamTuple(right_schema, (i % 5, i))) for i in range(60)
    ]
    right_timeline.append(
        (0.0, Punctuation(Pattern.all_wildcards(2), source="right"))
    )

    plan = QueryPlan("feedback-join")
    left = ListSource("left", left_schema, left_timeline)
    right = ListSource("right", right_schema, right_timeline)
    join = SymmetricHashJoin(
        "join", left_schema, right_schema, on=[("k", "k")]
    )
    sink = CollectSink("sink", join.output_schema)
    for op in (left, right, join, sink):
        plan.add(op)
    plan.connect(left, join, port=0)
    plan.connect(right, join, port=1)
    plan.connect(join, sink)
    join.relay_enabled = False  # keep source counts schedule-independent
    inject_on_start(
        sink,
        FeedbackPunctuation.assumed(
            Pattern.from_mapping(join.output_schema, {"k": 3})
        ),
    )
    return plan


def build_source_only():
    """A bare source draining straight into a sink."""
    punctuator = ProgressPunctuator(SCHEMA, "ts", interval=5.0)
    timeline = []
    for i in range(40):
        ts = float(i)
        timeline.append((0.0, StreamTuple(SCHEMA, (ts, i % 3, float(i)))))
        for punct in punctuator.observe(ts):
            timeline.append((0.0, punct))
    timeline.append((0.0, punctuator.final()))
    plan = QueryPlan("source-only")
    source = ListSource("src", SCHEMA, timeline)
    sink = CollectSink("sink", SCHEMA, keep_punctuation=True)
    plan.add(source)
    plan.chain(source, sink)
    return plan


PLANS = [
    pytest.param(build_guarded_select_chain, id="guarded-select-chain"),
    pytest.param(build_feedback_join, id="binary-join-feedback"),
    pytest.param(build_source_only, id="source-only"),
]


class TestEngineParity:
    @pytest.mark.parametrize("build", PLANS)
    def test_identical_counts_across_engines(self, build):
        plan_sim = build()
        Simulator(plan_sim).run()
        plan_thr = build()
        ThreadedRuntime(plan_thr, timeout=30.0).run()
        plan_aio = build()
        AsyncioEngine(plan_aio, timeout=30.0).run()
        assert counts(plan_sim) == counts(plan_thr)
        assert counts(plan_sim) == counts(plan_aio)
        if fork_available():
            plan_mp = build()
            MultiprocessEngine(plan_mp, timeout=60.0).run()
            assert counts(plan_sim) == counts(plan_mp)

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_guarded_chain_exploits_feedback(self, make_engine):
        plan = build_guarded_select_chain()
        make_engine(plan).run()
        shape = plan.operator("shape")
        sink = plan.operator("sink")
        assert shape.metrics.feedback_received == 1
        assert shape.metrics.input_guard_drops > 0
        assert not [r for r in sink.results if r["seg"] == 2]

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_join_results_match_reference(self, make_engine):
        plan = build_feedback_join()
        make_engine(plan).run()
        sink = plan.operator("sink")
        # Inner join on k with k=3 assumed away: reference by brute force.
        expected = sorted(
            (i % 7, i, j)
            for i in range(80)
            for j in range(60)
            if i % 7 == j % 5 and i % 7 != 3
        )
        got = sorted((r["k"], r["l"], r["r"]) for r in sink.results)
        assert got == expected

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_pages_flow_through_batch_path(self, make_engine):
        plan = build_guarded_select_chain()
        make_engine(plan).run()
        keep = plan.operator("keep")
        assert keep.metrics.pages_in > 0
        # Zero-cost operators take whole pages on every engine.
        assert keep.metrics.pages_batched == keep.metrics.pages_in


class TestThreadedControlLatency:
    """The threaded runtime honours control_latency (it used to ignore it)."""

    def _feedback(self):
        return FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"seg": 1})
        )

    def test_in_flight_feedback_to_exhausted_source_drops_on_all_engines(self):
        """Messages that have not arrived when the target finishes are
        dropped -- the same rule on every engine (the stream is over)."""
        makers = [
            lambda p: Simulator(p, control_latency=60.0),
            lambda p: ThreadedRuntime(p, timeout=30.0, control_latency=60.0),
            lambda p: AsyncioEngine(p, timeout=30.0, control_latency=60.0),
        ]
        if fork_available():
            makers.append(
                lambda p: MultiprocessEngine(
                    p, timeout=60.0, control_latency=60.0
                )
            )
        for make in makers:
            plan = QueryPlan("latency-drop")
            source = ListSource(
                "src", SCHEMA,
                [(0.0, StreamTuple(SCHEMA, (float(i), i % 3, 0.0)))
                 for i in range(10)],
            )
            sink = CollectSink("sink", SCHEMA)
            plan.add(source)
            plan.chain(source, sink)
            inject_on_start(sink, self._feedback())
            make(plan).run()
            assert source.metrics.feedback_received == 0
            assert len(source.output_guards) == 0
            assert source.metrics.tuples_out == 10

    def test_feedback_delivered_once_arrival_time_passes(self):
        """A message in flight for 50 ms lands mid-stream: early matching
        tuples escape, later ones are suppressed by the installed guard."""
        from repro.operators import GeneratorSource

        def slow_events():
            for i in range(20):
                time.sleep(0.01)  # ~200 ms of stream against 50 ms latency
                yield 0.0, StreamTuple(SCHEMA, (float(i), i % 2, 0.0))

        plan = QueryPlan("latency-mid-stream")
        source = GeneratorSource("src", SCHEMA, slow_events)
        sink = CollectSink("sink", SCHEMA)
        plan.add(source)
        plan.chain(source, sink, page_size=1)
        inject_on_start(sink, self._feedback())
        ThreadedRuntime(plan, timeout=30.0, control_latency=0.05).run()
        assert source.metrics.feedback_received == 1
        emitted_matching = [r for r in sink.results if r["seg"] == 1]
        # Delivery engaged mid-stream: the guard suppressed at least one
        # later matching tuple.  (No lower bound on early escapes -- a
        # scheduler stall before the first matching tuple may legitimately
        # leave none, and that must not flake CI.)
        assert len(emitted_matching) < 10
        assert source.metrics.output_guard_drops > 0


# -- round-robin port selection ------------------------------------------------


def _stamped(queue, values, at):
    for v in values:
        queue.put(StreamTuple(SCHEMA, (0.0, 0, float(v))))
    queue.flush()
    queue.stamp_ready(at)


class TestNextPortWithWork:
    def _union_sim(self):
        plan = QueryPlan("rr")
        a = ListSource("a", SCHEMA, [])
        b = ListSource("b", SCHEMA, [])
        union = Union("union", SCHEMA, arity=2)
        sink = CollectSink("sink", SCHEMA)
        for op in (a, b, union, sink):
            plan.add(op)
        plan.connect(a, union, port=0, page_size=1)
        plan.connect(b, union, port=1, page_size=1)
        plan.connect(union, sink, page_size=1)
        sim = Simulator(plan)
        sim._rr_port[union.name] = 0
        return sim, union

    def test_equal_availability_alternates(self):
        sim, union = self._union_sim()
        _stamped(union.inputs[0].queue, [1, 2], at=0.0)
        _stamped(union.inputs[1].queue, [3, 4], at=0.0)
        picks = []
        for _ in range(4):
            port = sim._next_port_with_work(union)
            picks.append(port.index)
            port.queue.get_page()
        assert picks == [0, 1, 0, 1]

    def test_earliest_availability_wins_over_rotation(self):
        sim, union = self._union_sim()
        _stamped(union.inputs[0].queue, [1], at=5.0)
        _stamped(union.inputs[1].queue, [2], at=1.0)
        port = sim._next_port_with_work(union)
        assert port.index == 1  # later page despite rotation pointing at 0

    def test_no_ready_pages_returns_none(self):
        sim, union = self._union_sim()
        assert sim._next_port_with_work(union) is None


# -- DataQueue.stamp_ready ------------------------------------------------------


class TestStampReady:
    def _queue(self):
        from repro.stream.queues import DataQueue

        return DataQueue("t", page_size=2)

    def test_stamps_only_fresh_pages(self):
        q = self._queue()
        q.put(StreamTuple(SCHEMA, (0.0, 0, 1.0)))
        q.put(StreamTuple(SCHEMA, (0.0, 0, 2.0)))  # completes page 1
        assert q.stamp_ready(3.0) is True
        q.put(StreamTuple(SCHEMA, (0.0, 0, 3.0)))
        q.put(StreamTuple(SCHEMA, (0.0, 0, 4.0)))  # completes page 2
        assert q.stamp_ready(7.0) is True
        first, second = q.get_page(), q.get_page()
        assert first.available_at == 3.0   # earlier stamp untouched
        assert second.available_at == 7.0

    def test_no_fresh_pages_returns_false(self):
        q = self._queue()
        assert q.stamp_ready(1.0) is False
        q.put(StreamTuple(SCHEMA, (0.0, 0, 1.0)))  # open page only
        assert q.stamp_ready(1.0) is False

    def test_stops_scanning_at_first_stamped_page(self):
        q = self._queue()
        for v in range(4):  # two complete pages
            q.put(StreamTuple(SCHEMA, (0.0, 0, float(v))))
        assert q.stamp_ready(2.0) is True
        # Both were fresh, so both carry the same stamp.
        assert [p.available_at for p in (q.get_page(), q.get_page())] == [
            2.0, 2.0,
        ]
