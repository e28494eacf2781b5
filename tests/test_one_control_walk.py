"""One control walk.

``Operator._receive`` is to control what ``Operator._deliver`` is to
data: the one function that knows what a control kind means.  Pinned
here:

* the structure -- nothing else in ``src/`` compares a message's kind to
  dispatch it, a fused composite does not know the kinds at all, every
  synchronous engine's ``run`` is ``RuntimeCore.run``, and the feature
  options are declared on ``RuntimeCore`` alone;
* the behaviour -- a message of each kind fires the same hook with the
  same arguments, and counts once, whether the operator sits in a plan
  under ``drain_control``, is a stage of a ``FusedOperator``, or is
  driven by the ``OperatorHarness``; and the three places that end an
  operator's stream run one lifecycle.
"""

from __future__ import annotations

import ast
import inspect
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
from repro.core.feedback import CheckpointPunctuation, FlowControlPunctuation
from repro.engine import (
    AsyncioEngine,
    MultiprocessEngine,
    QueryPlan,
    RuntimeCore,
    Simulator,
    ThreadedRuntime,
)
from repro.engine.harness import OperatorHarness
from repro.operators import CollectSink, FusedOperator, ListSource, PassThrough
from repro.operators.base import Operator
from repro.optimizer import optimize
from repro.stream.clock import VirtualClock
from repro.stream.control import ControlMessage, ControlMessageKind, Direction

SRC = Path(repro.__file__).resolve().parent
SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])
UP, DOWN = Direction.UPSTREAM, Direction.DOWNSTREAM
FEATURE_OPTIONS = (
    "checkpoint_every", "checkpoint_store", "recover_from",
    "ingestion_policy", "elastic",
)


# -- structure -----------------------------------------------------------------


def kind_comparisons(*kinds):
    """``(file, function)`` of every comparison against one of ``kinds``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Compare):
                    continue
                for side in [node.left, *node.comparators]:
                    if (
                        isinstance(side, ast.Attribute)
                        and side.attr in kinds
                        and isinstance(side.value, ast.Name)
                        and side.value.id == "ControlMessageKind"
                    ):
                        found.add(
                            (str(path.relative_to(SRC)), function.name)
                        )
    return found


class TestStructure:
    def test_feedback_and_result_request_are_compared_in_one_function(self):
        assert kind_comparisons("FEEDBACK", "RESULT_REQUEST") == {
            ("operators/base.py", "_receive")
        }

    def test_no_other_function_dispatches_on_a_kind(self):
        every_kind = [kind.name for kind in ControlMessageKind]
        assert kind_comparisons(*every_kind) == {
            ("operators/base.py", "_receive")
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
