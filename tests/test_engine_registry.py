"""Tests for the named-engine registry (repro.engine.registry)."""

import pytest

from repro import (
    CollectSink,
    ListSource,
    QueryPlan,
    Schema,
    Simulator,
    StreamTuple,
    ThreadedRuntime,
)
from repro.engine.registry import (
    available_engines,
    create_engine,
    engine_factory,
)
from repro.engine.runtime import RuntimeCore
from repro.errors import EngineError

SCHEMA = Schema.of("ts", "v")


def tiny_plan():
    plan = QueryPlan("tiny")
    source = ListSource(
        "src", SCHEMA,
        [(float(i), StreamTuple(SCHEMA, (i, i * 10))) for i in range(5)],
    )
    plan.chain(source, CollectSink("out", SCHEMA))
    return plan


class TestBuiltins:
    def test_builtin_engines_registered(self):
        assert "asyncio" in available_engines()
        assert "simulated" in available_engines()
        assert "threaded" in available_engines()

    def test_the_table_is_the_four_engines(self):
        assert available_engines() == (
            "asyncio", "multiprocess", "simulated", "threaded"
        )

    @pytest.mark.parametrize("name", available_engines())
    def test_every_engine_takes_timed_actions(self, name):
        """``Flow.run`` schedules its feedback and actions through
        ``at``, which every engine in the table has from the core."""
        assert issubclass(engine_factory(name), RuntimeCore)
        assert callable(create_engine(name, tiny_plan()).at)

    def test_factories_resolve_to_engine_classes(self):
        from repro.engine import AsyncioEngine

        assert engine_factory("simulated") is Simulator
        assert engine_factory("threaded") is ThreadedRuntime
        assert engine_factory("asyncio") is AsyncioEngine

    def test_create_engine_builds_over_plan(self):
        engine = create_engine("simulated", tiny_plan())
        assert isinstance(engine, Simulator)

    def test_create_engine_forwards_options(self):
        engine = create_engine(
            "simulated", tiny_plan(), control_latency=0.5, max_events=123
        )
        assert engine.control_latency == 0.5
        assert engine.max_events == 123

    def test_create_engine_forwards_asyncio_policy_options(self):
        from repro.engine import AsyncioEngine

        engine = create_engine(
            "asyncio", tiny_plan(),
            control_latency=0.25, timeout=7.5, emulate_costs=True,
        )
        assert isinstance(engine, AsyncioEngine)
        assert engine.control_latency == 0.25
        assert engine.timeout == 7.5
        assert engine.emulate_costs is True


class TestErrorPaths:
    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(EngineError, match="simulated"):
            engine_factory("warp-drive")

    def test_unknown_engine_error_lists_every_registered_name(self):
        """The message enumerates the full registry, sorted -- the user's
        next command is in the error text."""
        with pytest.raises(EngineError) as caught:
            engine_factory("warp-drive")
        message = str(caught.value)
        for name in available_engines():
            assert name in message
        listed = message.split("registered engines: ", 1)[1]
        assert listed == ", ".join(sorted(available_engines()))

    def test_unknown_engine_on_create(self):
        with pytest.raises(EngineError, match="unknown engine"):
            create_engine("warp-drive", tiny_plan())

    def test_unknown_engine_on_flow_run(self):
        from repro import Flow

        flow = Flow("unknown")
        flow.source(
            SCHEMA, [(float(i), StreamTuple(SCHEMA, (i, i))) for i in range(3)]
        ).collect("out")
        with pytest.raises(EngineError, match="registered engines: asyncio"):
            flow.run(engine="warp-drive")
