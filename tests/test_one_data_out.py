"""One data-out site.

``Operator._emit`` is to data leaving an operator what ``_deliver`` is to
data arriving: the one method that puts an element on an output edge
and the only place the output rules live.  Pinned here:

* the structure -- outside the queues themselves, the multiprocess
  transport and the ``OperatorHarness``, nothing else puts on, flushes or
  closes an output edge's queue, touches the output guards' filters, or
  writes the three output counters; the ``emit*`` calls are one-line
  views of it, every queue-like takes a run through ``put_many`` alone,
  and a fused chain's tail forwards to it without looking;
* the behaviour -- a ledger wraps ``_emit`` and ``_deliver`` and shows,
  on every single-process engine, that each edge's consumer walked
  exactly the sequence its producer sent (a checkpoint stash re-walked
  is counted once), and that every output counter is one pass through
  the method.
"""

from __future__ import annotations

import ast
import inspect
import sys
import textwrap
from collections import Counter, defaultdict

import pytest

from repro import (
    FeedbackIntent,
    FeedbackPunctuation,
    Flow,
    Pattern,
    Schema,
    StreamTuple,
)
from repro.api import avg, count
from repro.operators.base import Operator
from repro.operators.fused import _TailQueue
from repro.punctuation.embedded import Punctuation
from test_one_control_walk import owners, writes

EMIT = {("operators/base.py", "Operator._emit")}
#: Queue implementations and the places that stand in for a consumer.
TRANSPORT = {"stream/queues.py", "engine/multiprocess.py", "engine/harness.py"}


def method_calls(*names, on=None):
    """Where ``<x>.name(...)`` is called -- with ``on``, only where
    ``<x>`` is itself an attribute of that name (``edge.queue.put``)."""
    def matches(node):
        func = getattr(node, "func", None)
        return (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in names
            and (on is None or (
                isinstance(func.value, ast.Attribute)
                and func.value.attr == on
            ))
        )
    return {
        site for site in owners(matches) if site[0] not in TRANSPORT
    }


class TestStructure:
    def test_only_the_method_puts_on_an_edge(self):
        assert method_calls("put", "put_many") == EMIT

    def test_flush_and_close_have_one_owner_each(self):
        assert method_calls("flush", on="queue") == {
            ("operators/base.py", "Operator.flush_outputs")
        }
        assert method_calls("close", on="queue") == {
            ("operators/base.py", "Operator._finish")
        }

    def test_the_output_rules_live_in_the_method(self):
        assert method_calls(
            "filter_batch", "blocks", "expire_with", on="output_guards"
        ) == EMIT
        assert writes(
            "tuples_out", "output_guard_drops", "punctuations_out"
        ) == EMIT

    @pytest.mark.parametrize("view", [
        "emit", "emit_to", "emit_many", "emit_many_to", "emit_punctuation",
    ])
    def test_every_emit_call_is_a_view(self, view):
        function = ast.parse(
            textwrap.dedent(inspect.getsource(getattr(Operator, view)))
        ).body[0]
        body = [
            statement for statement in function.body
            if not (isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Constant))
        ]
        assert len(body) == 1
        called = {
            node.func.attr for node in ast.walk(body[0])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }
        assert called == {"_emit"}

    def test_an_edge_takes_runs_through_one_call(self):
        """``put_many`` is the one way into every queue-like; only
        ``DataQueue`` keeps ``put``, as a run of one."""
        from repro.engine.multiprocess import _ShippingQueue
        from repro.operators.fused import _LinkQueue
        from repro.stream.queues import DataQueue

        for shim in (_LinkQueue, _TailQueue, _ShippingQueue):
            assert "put" not in vars(shim)
            assert "put_many" in vars(shim)
        function = ast.parse(
            textwrap.dedent(inspect.getsource(DataQueue.put))
        ).body[0]
        assert len(function.body) == 2  # the docstring and the view
        assert "self.put_many(" in ast.unparse(function.body[1])
        emit = ast.parse(
            textwrap.dedent(inspect.getsource(Operator._emit))
        )
        called = {
            node.func.attr for node in ast.walk(emit)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }
        assert "put_many" in called and "put" not in called

    def test_a_fused_tail_forwards_without_looking(self):
        source = inspect.getsource(_TailQueue)
        assert "is_punctuation" not in source
        assert "emit_punctuation" not in source


# -- the ledger ------------------------------------------------------------------------


class Ledger:
    """What each edge was sent, and what its consumer walked."""

    def __init__(self, monkeypatch):
        self.sent = defaultdict(list)    # id(queue) -> elements
        self.walked = defaultdict(list)  # id(queue) -> elements
        self.passed = Counter()          # (operator, "tuples"|"punct")
        self.calls = Counter()  # "raw", "hold", "marker", "rewalk"
        emit, deliver = Operator._emit, Operator._deliver
        rewalk = Operator._ckpt_pump.__code__

        def emitting(operator, elements, lane=None, raw=False, hold=False):
            head = elements[0] if elements else None
            passed = emit(operator, elements, lane, raw=raw, hold=hold)
            if raw:
                self.calls["raw"] += 1
            elif head is None or not head.is_punctuation:
                self.passed[operator, "tuples"] += len(passed)
            elif isinstance(head, Punctuation):
                self.passed[operator, "punct"] += 1
            else:
                self.calls["marker"] += 1
            if hold:
                self.calls["hold"] += 1
                return passed
            edges = (
                operator.outputs if lane is None
                else [operator.outputs[lane]]
            )
            for edge in edges:
                self.sent[id(edge.queue)].extend(passed)
            return passed

        def delivering(operator, port_index, elements, punctuated=None):
            # A checkpoint stash drained by the pump was walked once
            # already, when it arrived.
            if sys._getframe(1).f_code is rewalk:
                self.calls["rewalk"] += 1
            else:
                queue = operator.inputs[port_index].queue
                self.walked[id(queue)].extend(elements)
            return deliver(operator, port_index, elements, punctuated)

        monkeypatch.setattr(Operator, "_emit", emitting)
        monkeypatch.setattr(Operator, "_deliver", delivering)

    def check(self, plan):
        """Per edge, sent == walked; per operator, the output counters
        are what passed through the method.  Returns the edges seen."""
        operators = list(plan)
        operators += [
            stage for op in plan for stage in getattr(op, "fused_stages", ())
        ]
        edges = 0
        for op in operators:
            for edge in op.outputs:
                port = edge.consumer.inputs[edge.consumer_port]
                if port.queue is not edge.queue:
                    continue  # a fused tail: what it gets, the composite sends
                sent = self.sent[id(edge.queue)]
                walked = self.walked[id(edge.queue)]
                assert len(sent) == len(walked), (op.name, edge)
                assert all(a is b for a, b in zip(sent, walked)), (
                    op.name, edge
                )
                edges += 1
            metrics = op.metrics
            assert metrics.tuples_out == self.passed[op, "tuples"], op.name
            assert metrics.punctuations_out == self.passed[op, "punct"], (
                op.name
            )
        return edges


SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])
HOT_KEYS = (28, 6, 4, 35)  # all on lane 0 of a 4-lane region


def data_flow(shape):
    """A burst through bounded queues with feedback from the sink at
    start-up, ending in a window, a fused chain or a shard region."""
    rows = [
        (0.0, StreamTuple(SCHEMA, (i * 0.001, HOT_KEYS[i % 4], 1.0)))
        for i in range(400)
    ]
    flow = Flow("data-out", page_size=4)
    stream = (flow.source(SCHEMA, rows, name="src")
                  .punctuate(on="ts", every=0.05)
                  .where(lambda t: True, name="keep", tuple_cost=0.001))
    if shape == "fused":
        stream = (stream.extend([("w", "float")], lambda t: (t["v"] * 2,),
                                name="ext")
                        .select("ts", "k", "w", name="narrow"))
    if shape == "shard":
        stream = stream.shard(4, key="k", name="region",
                              pipeline=lambda lane: lane.window(
                                  count(), by="k", on="ts", width=0.05,
                                  tuple_cost=0.002))
    else:
        stream = stream.window(
            avg(stream.schema.names[-1]), by="k", on="ts", width=0.05
        )
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


#: Each case's shape and run options.
CASES = {
    "burst": ("window", {}),
    "checkpointed": ("shard", {"checkpoint_every": 50}),
    "fused": ("fused", {"optimize": True}),
}


class TestSentIsWalked:
    @pytest.mark.parametrize("engine", ["simulated", "threaded", "asyncio"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_edge_walks_what_it_was_sent(self, monkeypatch, engine, case):
        shape, options = CASES[case]
        if engine != "simulated":
            options = {**options, "timeout": 60.0}
        ledger = Ledger(monkeypatch)
        result = data_flow(shape).run(engine, queue_capacity=8, **options)
        assert ledger.check(result.plan) >= 3
        metrics = result.metrics.operator_metrics
        assert sum(m.output_guard_drops for m in metrics.values()) + sum(
            m.input_guard_drops for m in metrics.values()
        ) > 0
        if case == "checkpointed":
            assert ledger.calls["marker"] > 0
            if engine == "simulated":
                assert ledger.calls["rewalk"] > 0
                # Lane 0 takes every hot key: its pauses fill the
                # partition's stash and the resumes release it.
                assert ledger.calls["raw"] > 0 and ledger.calls["hold"] > 0
        if case == "fused":
            assert any(
                getattr(op, "fused_stages", ()) for op in result.plan
            )
