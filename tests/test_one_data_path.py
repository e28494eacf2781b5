"""One data path: ``process_page -> on_page`` is the only way data arrives.

Three things are pinned here:

* the hook contract -- an operator implements ``on_page`` *or* the
  per-tuple convenience ``on_tuple``, never both; a class that defines
  ``on_tuple`` under an ``on_page`` (where it could never run) is refused
  at class creation instead of being silently bypassed on the engines
  that deliver whole pages;
* the structure -- no operator class carries both hooks, and the
  per-element entry point and run-time override probes are gone;
* the checkpoint-alignment stash drains through the same walk as live
  pages, markers of later epochs included.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.core.centralized
import repro.operators
from repro import Flow, Schema, StreamTuple
from repro.core.feedback import CheckpointPunctuation
from repro.engine.harness import OperatorHarness
from repro.operators import Operator, Select, Union

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])


def tup(ts, seg=0, v=0.0):
    return StreamTuple(SCHEMA, (float(ts), seg, float(v)))


class Doubler(Operator):
    """A UDF-style operator: ``on_tuple`` only."""

    def on_tuple(self, port_index, t):
        if t["seg"] != 3:
            self.emit(StreamTuple(SCHEMA, (t["ts"], t["seg"], t["v"] * 2)))


class TestHookContract:
    def test_on_tuple_below_an_on_page_is_refused_at_class_creation(self):
        with pytest.raises(TypeError, match=r"Spy.*on_tuple.*Select.*on_page"):
            class Spy(Select):
                def on_tuple(self, port_index, t):
                    self.emit(t)

    def test_the_ancestor_that_owns_on_page_is_named(self):
        class Batchy(Operator):
            def on_page(self, port_index, batch):
                self.emit_many(batch)

        class Middle(Batchy):
            pass

        with pytest.raises(TypeError, match=r"Leaf.*Batchy defines on_page"):
            class Leaf(Middle):
                def on_tuple(self, port_index, t):
                    self.emit(t)

    def test_both_hooks_in_one_class_is_refused(self):
        with pytest.raises(TypeError, match="Both"):
            class Both(Operator):
                def on_tuple(self, port_index, t):
                    self.emit(t)

                def on_page(self, port_index, batch):
                    self.emit_many(batch)

    def test_on_page_below_an_on_tuple_is_fine(self):
        class Bulk(Doubler):
            def on_page(self, port_index, batch):
                self.emit_many(batch)

        harness = OperatorHarness(Bulk("bulk", SCHEMA))
        harness.push_page([tup(0, seg=3), tup(1)])
        assert len(harness.emitted_tuples()) == 2  # Doubler.on_tuple unused

    def test_neither_hook_fails_on_first_tuple(self):
        class Hollow(Operator):
            pass

        harness = OperatorHarness(Hollow("hollow", SCHEMA))
        with pytest.raises(NotImplementedError, match="Hollow"):
            harness.push(tup(0))

    @staticmethod
    def run_doubler(engine, tuple_cost):
        rows = [(i * 0.1, tup(i * 0.1, seg=i % 5, v=i)) for i in range(40)]
        flow = Flow("udf", page_size=8)
        (flow.source(SCHEMA, rows)
             .punctuate(on="ts", every=1.0)
             .apply(lambda: Doubler("double", SCHEMA, tuple_cost=tuple_cost))
             .collect("sink"))
        result = flow.run(engine=engine)
        return sorted(t.values for t in result.sink("sink").results)

    def test_on_tuple_only_operator_sees_every_tuple_on_every_engine(self):
        expected = sorted(
            (i * 0.1, i % 5, i * 2.0) for i in range(40) if i % 5 != 3
        )
        assert self.run_doubler("simulated", 0.0) == expected
        assert self.run_doubler("simulated", 1e-6) == expected
        assert self.run_doubler("threaded", 0.0) == expected
        assert self.run_doubler("asyncio", 0.0) == expected


def operator_classes():
    modules = [repro.core.centralized]
    for info in pkgutil.iter_modules(repro.operators.__path__):
        modules.append(
            importlib.import_module(f"repro.operators.{info.name}")
        )
    seen = set()
    for module in modules:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Operator) and cls not in seen:
                seen.add(cls)
                yield cls


class TestStructure:
    def test_no_class_defines_both_hooks(self):
        classes = list(operator_classes())
        assert len(classes) > 20
        both = [
            cls.__name__ for cls in classes
            if cls is not Operator
            and "on_tuple" in vars(cls) and "on_page" in vars(cls)
        ]
        assert both == []

    def test_per_element_entry_point_is_gone(self):
        assert not hasattr(Operator, "process_element")

    def test_no_runtime_override_probes_or_second_entry_in_src(self):
        src = Path(repro.__file__).resolve().parent
        offenders = [
            f"{path.relative_to(src)}:{number}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if re.search(r"\.on_tuple is not|process_element", line)
        ]
        assert offenders == []

    def test_default_on_page_is_the_only_on_tuple_caller_in_src(self):
        src = Path(repro.__file__).resolve().parent
        callers = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if re.search(r"\.on_tuple\(", path.read_text())
        ]
        assert callers == ["operators/base.py"]
        base = (src / "operators" / "base.py").read_text()
        assert len(re.findall(r"\.on_tuple\(", base)) == 1


class TestAlignmentStashDrain:
    """The stash behind a checkpoint head drains through the page walk."""

    @staticmethod
    def marker(epoch):
        return CheckpointPunctuation(epoch, source="src", offset=epoch)

    def stashed_union(self):
        """A 2-input union whose port 0 is blocked at epoch 1 with a stash
        holding two later epochs' markers."""
        union = Union("u", SCHEMA, arity=2)
        harness = OperatorHarness(union)
        harness.push_page(
            [tup(1), self.marker(1), tup(2), self.marker(2)], port=0
        )
        harness.push_page(
            [tup(3), self.marker(3), tup(4)], port=0
        )
        assert [e.values[0] for e in harness.emitted()] == [1.0]
        assert len(union._ckpt_blocked[0]) == 5
        return union, harness

    @staticmethod
    def trace(harness):
        out = []
        for element in harness.emitted():
            if isinstance(element, CheckpointPunctuation):
                out.append(f"M{element.epoch}")
            else:
                out.append(element.values[0])
        return out

    def test_epochs_release_one_at_a_time_as_the_sibling_catches_up(self):
        union, harness = self.stashed_union()
        harness.push_page([tup(10), self.marker(1)], port=1)
        # Epoch 1 completes; the drain stops at epoch 2's marker.
        assert self.trace(harness) == [1.0, 10.0, "M1", 2.0]
        assert union._ckpt_heads[0].epoch == 2
        assert len(union._ckpt_blocked[0]) == 3
        harness.push_page([tup(20), self.marker(2)], port=1)
        # Epoch 2, then epoch 3's marker re-blocks with one tuple still
        # behind it.
        assert self.trace(harness)[4:] == [20.0, "M2", 3.0]
        assert union._ckpt_heads[0].epoch == 3
        assert [e.values[0] for e in union._ckpt_blocked[0]] == [4.0]
        harness.push_page([self.marker(3), tup(30)], port=1)
        assert self.trace(harness)[7:] == ["M3", 4.0, 30.0]
        assert not union._ckpt_heads and not union._ckpt_blocked
        assert union.metrics.tuples_in == 7
        assert union.metrics.tuples_out == 7

    def test_whole_stash_cascades_when_the_sibling_finishes(self):
        union, harness = self.stashed_union()
        union.inputs[1].done = True
        union._ckpt_port_done(1)
        # With port 0 the only live input every surfaced marker aligns at
        # once, so one pump call walks all three epochs -- in order.
        assert self.trace(harness) == [
            1.0, "M1", 2.0, "M2", 3.0, "M3", 4.0,
        ]
        assert not union._ckpt_heads and not union._ckpt_blocked
        assert not union._ckpt_port_busy(0)
