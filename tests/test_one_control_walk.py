"""One control walk, one control-out site.

``Operator._receive`` is to control what ``Operator._deliver`` is to
data: the one function that knows what a control kind means.  And
``ControlChannel.stamp`` is the one function that builds and sends a
control message.  Pinned here:

* the structure -- nothing else in ``src/`` compares a message's kind to
  dispatch it, a fused composite does not know the kinds at all, every
  synchronous engine's ``run`` is ``RuntimeCore.run``, and the feature
  options are declared on ``RuntimeCore`` alone;
* the behaviour -- a message of each kind fires the same hook with the
  same arguments, and counts once, whether the operator sits in a plan
  under ``drain_control``, is a stage of a ``FusedOperator``, or is
  driven by the ``OperatorHarness``; and the three places that end an
  operator's stream run one lifecycle;
* the way out -- only the stamp builds a message to send, pause and
  resume share one signalling body, feedback originates in
  ``produce_feedback`` alone, and on every single-process engine each
  stamped message is either taken by ``_receive`` or still pending at a
  finished operator.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import (
    FeedbackIntent,
    FeedbackPunctuation,
    Flow,
    Pattern,
    Schema,
    StreamTuple,
)
from repro.api import avg, count
from repro.core.feedback import CheckpointPunctuation, FlowControlPunctuation
from repro.elasticity import ElasticConfig, GreedySlotPolicy
from repro.engine import (
    AsyncioEngine,
    MultiprocessEngine,
    QueryPlan,
    RuntimeCore,
    Simulator,
    ThreadedRuntime,
)
from repro.engine.harness import OperatorHarness
from repro.operators import (
    CollectSink,
    FusedOperator,
    ListSource,
    OnDemandSink,
    PassThrough,
)
from repro.operators.base import Operator
from repro.optimizer import optimize
from repro.stream.clock import VirtualClock
from repro.stream.control import (
    ControlChannel,
    ControlMessage,
    ControlMessageKind,
    Direction,
)

SRC = Path(repro.__file__).resolve().parent
SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])
UP, DOWN = Direction.UPSTREAM, Direction.DOWNSTREAM
FEATURE_OPTIONS = (
    "checkpoint_every", "checkpoint_store", "recover_from",
    "ingestion_policy", "elastic",
)


# -- structure -----------------------------------------------------------------


def owners(matches):
    """``(file, Class.function)`` around every node in ``src/`` that
    ``matches`` (``<module>`` for one outside any function)."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if not matches(node):
                continue
            names = []
            while node in parents:
                node = parents[node]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.append(node.name)
            found.add((
                str(path.relative_to(SRC)),
                ".".join(reversed(names)) or "<module>",
            ))
    return found


def kind_attribute(node, *kinds):
    return (
        isinstance(node, ast.Attribute)
        and node.attr in kinds
        and isinstance(node.value, ast.Name)
        and node.value.id == "ControlMessageKind"
    )


def kind_comparisons(*kinds):
    """Where a message kind is compared against one of ``kinds``."""
    return owners(lambda node: isinstance(node, ast.Compare) and any(
        kind_attribute(side, *kinds)
        for side in [node.left, *node.comparators]
    ))


def calls_to(name):
    """Where ``name(...)`` or ``<anything>.name(...)`` is called."""
    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )
    return owners(matches)


def writes(*attributes):
    """Where ``<anything>.attribute`` is assigned or augmented."""
    def matches(node):
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AugAssign)
            else []
        )
        return any(
            isinstance(target, ast.Attribute) and target.attr in attributes
            for target in targets
        )
    return owners(matches)


def log_records(node):
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr == "record"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "feedback_log"
    )


class TestStructure:
    def test_feedback_and_result_request_are_compared_in_one_function(self):
        assert kind_comparisons("FEEDBACK", "RESULT_REQUEST") == {
            ("operators/base.py", "Operator._receive")
        }

    def test_no_other_function_dispatches_on_a_kind(self):
        every_kind = [kind.name for kind in ControlMessageKind]
        assert kind_comparisons(*every_kind) == {
            ("operators/base.py", "Operator._receive")
        }

    def test_a_composite_does_not_know_the_kinds(self):
        source = (SRC / "operators" / "fused.py").read_text()
        assert "ControlMessageKind" not in source
        assert "FeedbackPunctuation" not in source
        # ...and has no per-kind hook of its own to keep in step.
        for hook in ("receive_feedback", "on_result_request",
                     "forward_control", "on_rebalance_control",
                     "on_pause", "on_resume"):
            assert hook not in vars(FusedOperator), hook

    def test_one_run_envelope(self):
        for engine in (Simulator, ThreadedRuntime, MultiprocessEngine):
            assert engine.run is RuntimeCore.run, engine
        # The event loop needs its own entry points; nothing else does.
        assert "_notify_run_aborted" in inspect.getsource(AsyncioEngine.arun)
        for engine in (Simulator, ThreadedRuntime, MultiprocessEngine):
            assert "_notify_run_aborted" not in inspect.getsource(
                inspect.getmodule(engine)
            ), engine

    def test_feature_options_are_declared_once(self):
        declared = inspect.signature(RuntimeCore.__init__).parameters
        assert set(FEATURE_OPTIONS) <= set(declared)
        for engine in (Simulator, ThreadedRuntime, AsyncioEngine,
                       MultiprocessEngine):
            own = inspect.signature(engine.__init__).parameters
            source = inspect.getsource(engine.__init__)
            for option in FEATURE_OPTIONS:
                if engine is MultiprocessEngine and option == "elastic":
                    continue  # named there only to be declined
                assert option not in own, (engine, option)
                assert option not in source, (engine, option)

    def test_engines_still_take_the_options_by_name(self):
        plan = linear_plan(Probe("probe"))
        engine = Simulator(
            plan, control_latency=0.25, checkpoint_every=10,
            ingestion_policy="at-least-once",
        )
        assert engine.control_latency == 0.25
        assert engine.checkpoints.every == 10
        assert engine.checkpoints.policy == "at-least-once"
        with pytest.raises(TypeError, match="no_such_option"):
            ThreadedRuntime(linear_plan(Probe("probe")), no_such_option=1)


# -- behaviour: one message, three settings -----------------------------------------


class Probe(Operator):
    """Single-input pass-through recording every control hook call."""

    feedback_aware = True

    def __init__(self, name, *, claims_rebalance=False):
        super().__init__(name, SCHEMA)
        self.calls = []
        self.claims_rebalance = claims_rebalance

    def on_page(self, port_index, batch):
        self.emit_many(batch)

    def receive_feedback(self, feedback, from_edge=None):
        self.calls.append(("receive_feedback", feedback, from_edge))
        return []

    def on_result_request(self, pattern):
        self.calls.append(("on_result_request", pattern))

    def on_rebalance_control(self, message):
        self.calls.append(("on_rebalance_control", key(message)))
        return self.claims_rebalance

    def forward_control(self, message):
        self.calls.append(("forward_control", key(message)))

    def on_pause(self, punct, from_edge):
        self.calls.append(("on_pause", punct, from_edge))

    def on_resume(self, punct, from_edge):
        self.calls.append(("on_resume", punct, from_edge))

    def on_input_done(self, port_index):
        done = [port.done for port in self.inputs]
        self.calls.append(("on_input_done", port_index, done, self.finished))

    def on_finish(self):
        self.calls.append(("on_finish", self.finished))


def key(message):
    return message.kind, message.direction, message.payload


class BareRuntime(RuntimeCore):
    """The mechanism alone: no scheduling policy to get in the way."""

    def notify_control(self, operator, at=None):
        pass


def linear_plan(middle):
    plan = QueryPlan("walk")
    source = ListSource("src", SCHEMA, [])
    plan.add(source)
    plan.chain(source, middle, CollectSink("sink", SCHEMA))
    return plan


def send(operator, message):
    """Queue ``message`` where ``operator`` reads it, as a neighbour would."""
    if message.direction is UP:
        operator.outputs[0].control.send(message)
    else:
        operator.inputs[0].control.send(message)


def in_a_plan(probe, message):
    runtime = BareRuntime(linear_plan(probe), VirtualClock())
    runtime._start_operators()
    send(probe, message)
    assert runtime.drain_control(probe) is True
    return runtime


def as_a_stage(probe, message):
    """``probe`` fused with a neighbour, at the end ``message`` enters."""
    other = PassThrough("other", SCHEMA)
    stages = [other, probe] if message.direction is UP else [probe, other]
    fused = FusedOperator(stages)
    runtime = BareRuntime(linear_plan(fused), VirtualClock())
    runtime._start_operators()
    send(fused, message)
    assert runtime.drain_control(fused) is True
    assert fused.metrics.control_messages == 1
    return runtime, fused


def in_the_harness(probe, message):
    harness = OperatorHarness(probe)
    harness.control(
        message.kind, message.payload, direction=message.direction
    )


ASSUMED = FeedbackPunctuation(
    FeedbackIntent.ASSUMED, Pattern.from_mapping(SCHEMA, {"k": 1})
)
MARKER = CheckpointPunctuation(3, source="src", offset=30, issued_at=0.0)
CASES = {
    "feedback": (ControlMessageKind.FEEDBACK, UP, ASSUMED),
    "feedback-unknown-payload": (ControlMessageKind.FEEDBACK, UP, "later"),
    "pause": (
        ControlMessageKind.FLOW_CONTROL, UP,
        FlowControlPunctuation.pause("edge", issuer="sink", issued_at=0.0),
    ),
    "resume": (
        ControlMessageKind.FLOW_CONTROL, UP,
        FlowControlPunctuation.resume("edge", issuer="sink", issued_at=0.0),
    ),
    "result-request": (
        ControlMessageKind.RESULT_REQUEST, UP,
        Pattern.from_mapping(SCHEMA, {"k": 2}),
    ),
    "checkpoint-ack": (ControlMessageKind.CHECKPOINT, UP, MARKER),
    "rebalance-ack": (ControlMessageKind.REBALANCE, UP, "record"),
    "rebalance-command": (ControlMessageKind.REBALANCE, DOWN, "command"),
    "end-of-stream": (ControlMessageKind.END_OF_STREAM, DOWN, None),
    "shutdown-up": (ControlMessageKind.SHUTDOWN, UP, "operator asked"),
    "shutdown-down": (ControlMessageKind.SHUTDOWN, DOWN, "operator asked"),
}


def expected_calls(kind, direction, payload, own_edge):
    """What a probe must have heard, in order."""
    message = (kind, direction, payload)
    if kind is ControlMessageKind.FEEDBACK:
        if isinstance(payload, FeedbackPunctuation):
            return [("receive_feedback", payload, own_edge)]
        return [("forward_control", message)]
    if kind is ControlMessageKind.FLOW_CONTROL:
        hook = "on_pause" if payload.is_pause else "on_resume"
        return [(hook, payload, own_edge)]
    if kind is ControlMessageKind.RESULT_REQUEST:
        return [("on_result_request", payload)]
    if kind is ControlMessageKind.REBALANCE:
        return [("on_rebalance_control", message),
                ("forward_control", message)]
    return [("forward_control", message)]


class TestSameWalkEverywhere:
    def test_every_kind_has_a_case(self):
        assert {case[0] for case in CASES.values()} == set(ControlMessageKind)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("setting", ["plan", "stage", "harness"])
    def test_same_hook_same_arguments_counted_once(self, case, setting):
        kind, direction, payload = CASES[case]
        message = ControlMessage(kind, direction, payload=payload)
        probe = Probe("probe")
        if setting == "plan":
            in_a_plan(probe, message)
        elif setting == "stage":
            as_a_stage(probe, message)
        else:
            in_the_harness(probe, message)
        own_edge = probe.outputs[0] if direction is UP else None
        assert probe.calls == expected_calls(
            kind, direction, payload, own_edge
        )
        assert probe.metrics.control_messages == 1

    @pytest.mark.parametrize("setting", ["plan", "stage", "harness"])
    def test_a_claimed_rebalance_is_not_forwarded(self, setting):
        message = ControlMessage(
            ControlMessageKind.REBALANCE, UP, payload="record"
        )
        probe = Probe("probe", claims_rebalance=True)
        {"plan": in_a_plan, "stage": as_a_stage,
         "harness": in_the_harness}[setting](probe, message)
        assert probe.calls == [("on_rebalance_control", key(message))]

    def test_a_pause_taken_by_the_last_stage_stalls_the_composite(self):
        kind, direction, pause = CASES["pause"]
        probe = Probe("probe")
        runtime, fused = as_a_stage(
            probe, ControlMessage(kind, direction, payload=pause)
        )
        assert runtime.is_paused(fused)
        assert fused.metrics.pauses_received == 1
        _, _, resume = CASES["resume"]
        send(fused, ControlMessage(kind, direction, payload=resume))
        runtime.drain_control(fused)
        assert not runtime.is_paused(fused)
        assert [call[0] for call in probe.calls] == ["on_pause", "on_resume"]

    def test_what_leaves_a_composite_is_restamped_on_its_real_ports(self):
        """An upstream message no stage consumes crosses every stage and
        leaves on the composite's input, sent by the composite."""
        fused = FusedOperator(
            [PassThrough("a", SCHEMA), PassThrough("b", SCHEMA)]
        )
        runtime = BareRuntime(linear_plan(fused), VirtualClock())
        runtime._start_operators()
        send(fused, ControlMessage(
            ControlMessageKind.CHECKPOINT, UP, payload=MARKER, sender="sink"
        ))
        runtime.drain_control(fused)
        for stage in fused.fused_stages:
            assert stage.metrics.control_messages == 1
            assert stage.metrics.control_forwarded == 1
        left = fused.inputs[0].control.receive_upstream()
        assert (left.kind, left.payload, left.sender) == (
            ControlMessageKind.CHECKPOINT, MARKER, "a+b"
        )

    def test_checkpoint_ack_ends_at_a_source(self):
        class Coordinator:
            acks = []

            def acknowledge(self, source, marker):
                self.acks.append((source.name, marker))

        source = ListSource("src", SCHEMA, [])
        harness = OperatorHarness(source)
        source.runtime.checkpoints = Coordinator()
        harness.control(ControlMessageKind.CHECKPOINT, MARKER)
        assert Coordinator.acks == [("src", MARKER)]
        assert source.metrics.control_messages == 1
        assert source.metrics.control_forwarded == 0

    def test_acks_reach_the_source_through_a_composite_in_a_run(self):
        def acks(fuse):
            flow = Flow("acked")
            rows = [(i * 0.01, StreamTuple(SCHEMA, (i * 0.01, i % 4, 1.0)))
                    for i in range(350)]
            (flow.source(SCHEMA, rows, name="src")
                 .where(lambda t: t["k"] != 3, name="keep")
                 .extend([("w", "float")], lambda t: (t["v"] * 2,), name="ext")
                 .collect("sink"))
            plan = flow.build()
            if fuse:
                assert optimize(plan).fused == [("keep+ext", ("keep", "ext"))]
            engine = Simulator(plan, checkpoint_every=100)
            result = engine.run()
            stages = {
                name: metrics.control_messages
                for name, metrics in result.metrics.operator_metrics.items()
                if name.split("::")[-1] in ("keep", "ext")
            }
            return dict(engine.checkpoints.acks), stages
        base_acks, base_stages = acks(fuse=False)
        fused_acks, fused_stages = acks(fuse=True)
        assert base_acks == fused_acks == {1: 1, 2: 1, 3: 1}
        assert base_stages == {"keep": 3, "ext": 3}
        assert fused_stages == {"keep+ext::keep": 3, "keep+ext::ext": 3}


# -- behaviour: one end-of-stream lifecycle ---------------------------------------------


class TestOneFinishLifecycle:
    EXPECTED = [
        ("on_input_done", 0, [True], False),
        ("on_finish", True),
    ]

    def check(self, probe, closes=None):
        assert probe.calls == self.EXPECTED
        assert probe.finished is True
        assert [port.done for port in probe.inputs] == [True]
        assert (closes or probe).outputs[0].queue.closed

    def test_runtime(self):
        probe = Probe("probe")
        runtime = BareRuntime(linear_plan(probe), VirtualClock())
        runtime._start_operators()
        runtime.check_input_completion(probe)
        assert probe.calls == [] and not probe.finished  # input still open
        probe.inputs[0].queue.close()
        runtime.check_input_completion(probe)
        self.check(probe)
        runtime.check_input_completion(probe)  # idempotent
        self.check(probe)

    def test_harness(self):
        probe = Probe("probe")
        OperatorHarness(probe).finish()
        self.check(probe)

    def test_fused_stage(self):
        probe = Probe("probe")
        fused = FusedOperator([PassThrough("other", SCHEMA), probe])
        runtime = BareRuntime(linear_plan(fused), VirtualClock())
        runtime._start_operators()
        fused.inputs[0].queue.close()
        runtime.check_input_completion(fused)
        # The last stage's output is the composite's own.
        self.check(probe, closes=fused)
        assert fused.finished

    def test_multi_input_ports_close_one_at_a_time(self):
        class Two(Probe):
            n_inputs = 2

        by_harness = Two("two")
        OperatorHarness(by_harness).finish()

        by_runtime = Two("two")
        plan = QueryPlan("two")
        left, right = ListSource("l", SCHEMA, []), ListSource("r", SCHEMA, [])
        plan.add(left), plan.add(right), plan.add(by_runtime)
        plan.connect(left, by_runtime, port=0)
        plan.connect(right, by_runtime, port=1)
        plan.chain(by_runtime, CollectSink("sink", SCHEMA))
        runtime = BareRuntime(plan, VirtualClock())
        runtime._start_operators()
        for port in by_runtime.inputs:
            port.queue.close()
        runtime.check_input_completion(by_runtime)

        assert by_harness.calls == by_runtime.calls == [
            ("on_input_done", 0, [True, False], False),
            ("on_input_done", 1, [True, True], False),
            ("on_finish", True),
        ]


# -- one control-out site ---------------------------------------------------------------


class TestOneWayOut:
    def test_one_function_builds_a_message_to_send(self):
        # The harness builds one too, but hands it straight to _receive.
        assert calls_to("ControlMessage") == {
            ("stream/control.py", "ControlChannel.stamp"),
            ("engine/harness.py", "OperatorHarness.control"),
        }

    def test_every_sender_goes_through_the_stamp(self):
        assert calls_to("stamp") == {
            ("operators/base.py", "Operator._send_upstream"),
            ("operators/base.py", "Operator._send_downstream"),
            ("engine/runtime.py", "RuntimeCore._signal_flow"),
            ("elasticity/controller.py", "ElasticController._send"),
        }

    def test_pause_and_resume_share_one_signalling_body(self):
        assert owners(
            lambda node: kind_attribute(node, "FLOW_CONTROL")
        ) == {
            ("operators/base.py", "Operator._receive"),
            ("engine/runtime.py", "RuntimeCore._signal_flow"),
        }
        assert calls_to("_signal_flow") == {
            ("engine/runtime.py", "RuntimeCore.check_pressure"),
            ("engine/runtime.py", "RuntimeCore.check_relief"),
        }

    def test_feedback_originates_in_one_function(self):
        origin = {("operators/base.py", "Operator.produce_feedback")}
        assert writes("feedback_produced") == origin
        # An origination entry is the one that records no exploit actions.
        assert owners(lambda node: log_records(node) and any(
            isinstance(arg, ast.Tuple) and not arg.elts
            for arg in node.args[3:4]
        )) == origin
        assert owners(log_records) == origin | {
            ("operators/base.py", "Operator.receive_feedback")
        }

    def test_injected_and_demanded_feedback_are_produced(self, monkeypatch):
        notes = []
        produce = Operator.produce_feedback

        def spy(self, feedback, **options):
            notes.append(options.get("note"))
            return produce(self, feedback, **options)

        monkeypatch.setattr(Operator, "produce_feedback", spy)
        sink = OnDemandSink("sink", SCHEMA)
        harness = OperatorHarness(sink)
        sink.produce_feedback(ASSUMED)
        sink.inject_feedback(ASSUMED)
        sink.demand(ASSUMED.pattern)
        assert notes == [None, "injected", "demanded by client"]
        assert [event.note for event in sink.runtime.feedback_log] == [
            "produced", "injected", "demanded by client"
        ]
        assert sink.metrics.feedback_produced == 3
        sent = harness.upstream_feedback()
        assert [fb.intent for fb in sent] == [
            FeedbackIntent.ASSUMED, FeedbackIntent.ASSUMED,
            FeedbackIntent.DEMANDED,
        ]


class Ledger:
    """Every message the stamp built, and every one ``_receive`` took."""

    def __init__(self, monkeypatch):
        self.stamped = []  # (message, channel)
        self.taken = []
        self.taken_at = []  # the engine clock when each was taken
        stamp, receive = ControlChannel.stamp, Operator._receive

        def stamping(channel, *args, **kwargs):
            message = stamp(channel, *args, **kwargs)
            self.stamped.append((message, channel))
            return message

        def receiving(operator, message, from_edge=None):
            self.taken.append(message)
            self.taken_at.append(operator.runtime.now())
            return receive(operator, message, from_edge)

        monkeypatch.setattr(ControlChannel, "stamp", stamping)
        monkeypatch.setattr(Operator, "_receive", receiving)

    def check(self, plan):
        """Conservation: nothing taken twice or unstamped, and what was
        not taken is still queued where a finished operator reads it."""
        readers = {}
        for producer in plan:
            for edge in producer.outputs:
                readers[id(edge.control), UP] = producer
                readers[id(edge.control), DOWN] = edge.consumer
        taken = Counter(id(message) for message in self.taken)
        assert set(taken.values()) <= {1}
        assert set(taken) <= {id(message) for message, _ in self.stamped}
        left = Counter(
            (channel, message.direction)
            for message, channel in self.stamped
            if id(message) not in taken
        )
        for (channel, direction), n in left.items():
            assert n == (
                channel.pending_upstream if direction is UP
                else channel.pending_downstream
            ), channel
            assert readers[id(channel), direction].finished
        return Counter(message.kind for message, _ in self.stamped)


HOT_KEYS = (28, 6, 4, 35)  # all on lane 0 of a 4-lane, 16-slot region


def conserving_flow(shape):
    """Feedback from the sink at start-up, a burst that fills the bounded
    queues, and a window or a shard region whose skew the elastic
    controller can undo."""
    rows = [
        (0.0, StreamTuple(SCHEMA, (i * 0.001, HOT_KEYS[i % 4], 1.0)))
        for i in range(400)
    ]
    flow = Flow("conserve", page_size=4)
    stream = (flow.source(SCHEMA, rows, name="src")
                  .punctuate(on="ts", every=0.05)
                  .where(lambda t: True, name="keep", tuple_cost=0.001))
    if shape == "window":
        stream = stream.window(avg("v"), by="k", on="ts", width=0.05)
    else:
        stream = stream.shard(4, key="k", name="region",
                              pipeline=lambda lane: lane.window(
                                  count(), by="k", on="ts", width=0.05))
    feedback = FeedbackPunctuation(
        FeedbackIntent.ASSUMED,
        Pattern.from_mapping(stream.schema, {"k": HOT_KEYS[1]}),
    )

    def inject_on_start(sink):
        start = sink.on_start

        def on_start():
            start()
            sink.inject_feedback(feedback)

        sink.on_start = on_start

    stream.collect("sink", configure=inject_on_start)
    return flow


CONSERVATION = {
    "checkpointed": ("window", {"checkpoint_every": 50}),
    "elastic": ("shard", {"elastic": ElasticConfig(
        interval=0.02, slots_per_lane=4,
        policy=GreedySlotPolicy(imbalance=1.1, max_moves=1),
    )}),
}


class TestConservation:
    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    @pytest.mark.parametrize("case", sorted(CONSERVATION))
    def test_every_stamped_message_is_taken_or_pending(
        self, monkeypatch, engine, case
    ):
        shape, options = CONSERVATION[case]
        if engine != "simulated":
            options = {**options, "timeout": 60.0}
        ledger = Ledger(monkeypatch)
        result = conserving_flow(shape).run(
            engine, queue_capacity=8, **options
        )
        kinds = ledger.check(result.plan)
        assert kinds[ControlMessageKind.FEEDBACK] > 0
        if case == "checkpointed":
            assert kinds[ControlMessageKind.CHECKPOINT] > 0
        if engine == "simulated":
            assert kinds[ControlMessageKind.FLOW_CONTROL] > 0
            if case == "elastic":
                assert kinds[ControlMessageKind.REBALANCE] > 0


# -- control between queued pages ---------------------------------------------------------
#
# A page step skips the control walk when none of the operator's control
# sides holds a message (``RuntimeCore.drain_control``'s fast exit).  These
# pin that the exit loses nothing: feedback comes up and a notice goes
# down while the costed filter's input holds queued pages, and every
# message is still taken once, no earlier than it arrives.


def queued_control_flow():
    """Every tuple due at time zero in front of a costed filter, whose
    input queue then holds pages for the whole run; ``keep`` relays no
    feedback, so no message is bound for the finished source."""

    def stop_relay(operator):
        operator.relay_enabled = False

    rows = [
        (0.0, StreamTuple(SCHEMA, (i * 0.001, i % 4, 1.0)))
        for i in range(400)
    ]
    flow = Flow("queued", page_size=4)
    (flow.source(SCHEMA, rows, name="src")
         .where(lambda t: True, name="keep", tuple_cost=0.002,
                configure=stop_relay)
         .where(lambda t: True, name="pass")
         .collect("sink"))
    return flow


def notice(plan):
    """A control notice from the source down the chain: nothing consumes
    the kind, so each operator forwards it to its consumer."""
    source = plan.operator("src")
    edge = source.outputs[0]
    edge.control.stamp(
        ControlMessageKind.SHUTDOWN, DOWN, "notice", sender="src",
        at=source.runtime.now(), runtime=source.runtime,
        reader=edge.consumer,
    )


def sink_feedback(k):
    return FeedbackPunctuation.assumed(Pattern.from_mapping(SCHEMA, {"k": k}))


def queued(operator):
    """Whether any control side ``operator`` reads holds a message."""
    return any(edge.control.pending_upstream for edge in operator.outputs) or any(
        port.control.pending_downstream
        for port in operator.inputs if port is not None
    )


def run_queued_control(engine, latency):
    options = {} if engine == "simulated" else {
        "emulate_costs": True, "timeout": 60.0,
    }
    return queued_control_flow().run(
        engine, control_latency=latency,
        feedback=[(0.0, "sink", sink_feedback(1)),
                  (0.04, "sink", sink_feedback(2))],
        actions=[(0.02, notice), (0.06, notice)],
        **options,
    )


class TestControlBetweenQueuedPages:
    @pytest.mark.parametrize("latency", [0.0, 0.05])
    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    def test_every_message_is_taken_once_after_it_arrives(
        self, monkeypatch, engine, latency
    ):
        ledger = Ledger(monkeypatch)
        behind_pages = []
        receive = Operator._receive

        def receiving(operator, message, from_edge=None):
            if operator.name == "keep":
                behind_pages.append(operator.inputs[0].queue.ready_pages)
            return receive(operator, message, from_edge)

        monkeypatch.setattr(Operator, "_receive", receiving)
        result = run_queued_control(engine, latency)

        kinds = ledger.check(result.plan)
        assert kinds[ControlMessageKind.SHUTDOWN] == 6  # 2 notices x 3 hops
        assert kinds[ControlMessageKind.FEEDBACK] == 4  # 2 x (sink, pass)
        taken_at = {
            id(message): at
            for message, at in zip(ledger.taken, ledger.taken_at)
        }
        assert len(ledger.taken) == len(ledger.stamped)
        for message, _channel in ledger.stamped:
            assert taken_at[id(message)] >= (
                message.sent_at + latency - 1e-9
            ), message
        # The messages reached keep while its input held pages.
        assert max(behind_pages) > 0
        assert result.plan.operator("keep").metrics.input_guard_drops > 0

    def test_a_page_step_with_no_queued_control_reads_none(
        self, monkeypatch
    ):
        steps, entered, violations = [], [], []
        quiet = [None]  # the operator of a page step begun with none queued
        handle, next_arrived = (
            Simulator._handle_work, RuntimeCore._next_arrived_control,
        )

        def step(self, operator):
            steps.append(queued(operator))
            quiet[0] = None if steps[-1] else operator
            try:
                return handle(self, operator)
            finally:
                quiet[0] = None

        def looking(self, operator):
            entered.append(operator.name)
            if operator is quiet[0]:
                violations.append(operator.name)
            return next_arrived(self, operator)

        monkeypatch.setattr(Simulator, "_handle_work", step)
        monkeypatch.setattr(RuntimeCore, "_next_arrived_control", looking)
        run_queued_control("simulated", 0.0)
        assert steps.count(False) > 0 and entered  # both paths were taken
        assert violations == []
