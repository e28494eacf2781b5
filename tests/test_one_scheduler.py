"""One cooperative scheduler, two clocks.

The asyncio engine is the simulator's event heap driven by the wall
clock, not a second scheduling discipline.  Pinned here:

* the structure -- the coroutine-per-operator machinery (an
  ``asyncio.Condition``, its waiter adapter, the shared notification
  mixin) is gone from ``src/``, and :class:`AsyncioEngine` inherits the
  source / control / work handlers instead of carrying copies;
* the engine contract for scheduled actions -- one ``at(time, action, *,
  owner=None)`` on :class:`RuntimeCore`, which ``Flow.run`` calls without
  probing signatures;
* the shared handlers really are what runs on the wall clock: pause
  stash-and-replay and the step counter behave the same on both clocks.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import threading
from pathlib import Path

import pytest

import repro
import repro.stream
from repro import Flow, Schema, StreamHandle, StreamTuple
from repro.engine import (
    AsyncioEngine,
    MultiprocessEngine,
    RuntimeCore,
    Simulator,
    ThreadedRuntime,
    available_engines,
    engine_factory,
)

SRC = Path(repro.__file__).resolve().parent
SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])


def offenders(pattern, *packages):
    return [
        f"{path.relative_to(SRC)}:{number}"
        for package in packages
        for path in sorted((SRC / package).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]


class TestStructure:
    def test_condition_machinery_is_gone_from_src(self):
        assert offenders(
            r"asyncio\.Condition|AsyncioConditionWaiter|NotificationPolicy",
            "",
        ) == []

    def test_notify_module_and_waiter_seam_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.notify")
        assert not hasattr(repro.stream, "AsyncioConditionWaiter")
        assert not hasattr(repro.stream, "Waiter")
        assert "ThreadConditionWaiter" in repro.stream.__all__

    def test_asyncio_engine_inherits_the_handlers(self):
        assert issubclass(AsyncioEngine, Simulator)
        shared = {
            "_handle_work", "_handle_control", "_handle_source",
            "_after_activity", "_step", "drain_control",
            "schedule_work", "schedule_control", "_on_resumed",
        }
        assert shared & set(vars(AsyncioEngine)) == set()

    def test_no_elastic_autoscaling_is_left(self):
        """Shard regions route by one static rule; nothing rebalances."""
        assert offenders(
            r"[Ee]lastic|[Rr]ebalanc|_quiescent|slot_loads", ""
        ) == []
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.elasticity")

    def test_no_surface_only_tests_used_is_left(self):
        """The engine table is fixed, a bare reader is read through a
        ``FrameBuffer``, the page size is the flow's, the relief marks
        follow from the high-water marks, and recovery is exactly-once."""
        assert offenders(
            r"register_engine|\brun_plan\b|_ws_partial|ingestion_policy|"
            r"merge_name",
            "",
        ) == []
        parameters = {
            arg.arg
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in (*node.args.args, *node.args.kwonlyargs)
        }
        assert parameters.isdisjoint(
            {"low_water", "ingestion_policy", "merge_name"}
        )
        for cls in (Flow, StreamHandle):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert "page_size" not in inspect.signature(
                    member
                ).parameters, f"{cls.__name__}.{name}"

    def test_no_signature_probe_of_at(self):
        assert offenders(r"signature\([^)]*\.at\b", "engine", "api") == []

    def test_threaded_timing_is_one_clock(self):
        """Actions and in-flight control all ride the threaded runtime's
        one clock heap; failures take one path."""
        assert offenders(
            r"threading\.Timer|_control_deadline|_elastic_body|_action_errors",
            "engine",
        ) == []

    def test_threaded_run_starts_one_thread_per_operator_and_a_clock(
        self, monkeypatch
    ):
        """Forty scheduled actions add no thread: a ``threading.Timer``
        is a ``Thread`` too, so it would be counted here."""
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        rows = [(0.0, StreamTuple(SCHEMA, (float(i), i, 0.0)))
                for i in range(50)]
        flow = Flow("budget")
        flow.source(SCHEMA, rows).where(lambda t: True).collect("sink")
        plan = flow.build()
        engine = ThreadedRuntime(plan, timeout=30.0)
        for index in range(40):
            engine.at(30.0 + index, lambda: None)
        engine.run()
        assert len(started) == len(list(plan)) + 1, started


class TestOneAt:
    def test_every_builtin_engine_shares_the_core_signature(self):
        expected = str(inspect.signature(RuntimeCore.at))
        assert expected == (
            "(self, time: 'float', action: 'Callable[[], None]', *, "
            "owner: 'str | None' = None) -> 'None'"
        )
        for name in available_engines():
            factory = engine_factory(name)
            assert issubclass(factory, RuntimeCore), name
            assert str(inspect.signature(factory.at)) == expected, name

    def test_only_multiprocess_overrides_it(self):
        for engine in (Simulator, ThreadedRuntime, AsyncioEngine):
            assert engine.at is RuntimeCore.at
        assert MultiprocessEngine.at is not RuntimeCore.at

    def test_flow_run_passes_owner_to_every_engine(self):
        """``Flow.run`` hands the owner over unconditionally; in-process
        engines take it and ignore it."""
        fired = []
        flow = Flow("owned")
        rows = [(0.0, StreamTuple(SCHEMA, (float(i), i, 0.0)))
                for i in range(10)]
        flow.source(SCHEMA, rows).collect("sink")
        flow.run(
            "simulated",
            actions=[(0.0, lambda plan: fired.append(plan.name), "sink")],
        )
        assert fired == ["owned"]


class TestSameHandlersOnBothClocks:
    @staticmethod
    def backpressured(engine, **options):
        rows = [(0.0, StreamTuple(SCHEMA, (float(i), i % 3, float(i))))
                for i in range(200)]
        flow = Flow("bp", page_size=4)
        (flow.source(SCHEMA, rows, name="source")
             .where(lambda t: True, name="keep")
             .collect("sink", tuple_cost=0.0005))
        return flow.run(engine, queue_capacity=16, **options)

    def test_pause_stash_and_replay_on_the_wall_clock(self):
        sim = self.backpressured("simulated")
        aio = self.backpressured("asyncio", emulate_costs=True, timeout=30.0)
        for result in (sim, aio):
            source = result.metrics.operator_metrics["source"]
            assert source.pauses_received > 0
            assert source.resumes_received > 0
        assert (
            [t.values for t in aio.sink("sink").results]
            == [t.values for t in sim.sink("sink").results]
        )

    def test_wall_clock_runs_report_their_step_count(self):
        result = self.backpressured("asyncio", timeout=30.0)
        # At least one source step per tuple plus the exhaustion step.
        assert result.metrics.events_processed > 200
