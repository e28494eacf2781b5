"""One source path, in runs.

Source elements enter a plan one way -- ``RuntimeCore.dispatch_source_run``
-- on the simulated, threaded and asyncio engines, and the engines cut
consecutive tuples off a source's cursor (``SourceOperator.cursor``) as
one run.  Pinned here:

* the cursor: whatever the limits and arrival bounds its runs are cut
  with, and whatever recovery prefix it skips, a list, punctuated or
  generator source hands out exactly ``events()``, with a punctuated
  source's final punctuation last;
* batching is invisible: on virtual time a run-ahead simulator and a
  reference that dispatches **runs of one** through the same
  ``dispatch_source_run`` agree on every observable -- sink arrival times
  and values, each page's ``available_at``, pauses, queue peaks, the event
  count, makespan, operator counters, the feedback log, checkpoint epochs
  and the source offsets recorded for them -- over random timelines with
  tied arrivals, punctuation (embedded, or made by a punctuated source
  over disordered values), generator sources, page sizes, bounded queues,
  costed consumers, feedback injected at arrival instants, control
  latency, two sources into a union and punctuation-aligned checkpoints;
* on the wall clock (threaded, asyncio) the sink sees the same tuples and a
  bounded source edge never holds more than its capacity;
* the structure: the per-element dispatch is gone from ``src/``, the
  engines pull no ``events()`` iterator, and they never call
  ``Operator.emit`` themselves.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import (
    AsyncioEngine,
    CollectSink,
    FeedbackPunctuation,
    GeneratorSource,
    ListSource,
    Pattern,
    PunctuatedSource,
    QueryPlan,
    Schema,
    Select,
    Simulator,
    StreamTuple,
    ThreadedRuntime,
)
from repro.errors import WorkloadError
from repro.operators.union import Union
from repro.punctuation import ProgressPunctuator, Punctuation

SRC = Path(repro.__file__).resolve().parent
SCHEMA = Schema([("ts", "timestamp", True), ("k", "int"), ("v", "float")])


class RunsOfOne(Simulator):
    """The reference: every source element is its own heap event and its
    own run, dispatched through the same ``dispatch_source_run``."""

    def _handle_source(self, payload):
        source, element = payload
        if element is None:
            self.finish_operator(source)
            return
        if self.is_paused(source):
            self._paused_source_pending[source.name] = element
            return
        self.dispatch_source_run(source, [element])
        self._after_activity(source, at=self.clock.now())
        self._schedule_next_source_event(source)


class PageLog:
    """Mixin: record ``(port, available_at, size)`` of every page taken."""

    def process_page(self, port_index, page, *, meter=None):
        self.__dict__.setdefault("pages_seen", []).append(
            (port_index, page.available_at, len(page))
        )
        super().process_page(port_index, page, meter=meter)


class LoggedUnion(PageLog, Union):
    pass


class LoggedSelect(PageLog, Select):
    pass


class LoggedSink(PageLog, CollectSink):
    pass


# -- scenarios ---------------------------------------------------------------


#: A punctuated value: disordered, on a boundary (with or without the
#: grace of 2.5), one jump across many intervals, or NaN (which crosses
#: nothing).
VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=20.0),
    st.sampled_from([4.0, 6.5, 8.0]),
    st.just(60.0),
    st.just(math.nan),
)
INTERVAL = 4.0


@st.composite
def timelines(draw):
    """``(arrival, is_punctuation, value)`` rows: tied arrivals, 0-50%
    punctuation, disordered values."""
    density = draw(st.sampled_from([0.0, 0.1, 0.5]))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            VALUES,
        ),
        min_size=0, max_size=40,
    ))
    arrival = 0.0
    rows = []
    for step, coin, value in steps:
        arrival += step
        rows.append((arrival, coin < density, value))
    return rows


def make_source(name, kind, rows, *, grace=0.0, index=0, stamp=0):
    """A ``kind`` source over ``rows``: the source, its timeline and the
    last stamp used.

    List and generator sources carry embedded punctuation and ascending
    ``ts``; a punctuated source takes the rows' values as ``ts`` and
    makes its own punctuation.
    """
    timeline = []
    for arrival, is_punctuation, value in rows:
        if kind == "punctuated":
            stamp += 1
            timeline.append((arrival, StreamTuple(
                SCHEMA, (value, stamp % 4, float(index))
            )))
        elif is_punctuation:
            timeline.append(
                (arrival, Punctuation.up_to(SCHEMA, "ts", float(stamp)))
            )
        else:
            stamp += 1
            timeline.append((arrival, StreamTuple(
                SCHEMA, (float(stamp), stamp % 4, float(index))
            )))
    if kind == "punctuated":
        source = PunctuatedSource(
            name, SCHEMA, timeline, punctuate_on="ts",
            punctuation_interval=INTERVAL, grace=grace,
        )
    elif kind == "generator":
        source = GeneratorSource(name, SCHEMA, lambda: list(timeline))
    else:
        source = ListSource(name, SCHEMA, timeline)
    return source, timeline, stamp


@st.composite
def scenarios(draw):
    sources = draw(st.lists(timelines(), min_size=1, max_size=2))
    instants = sorted({a for rows in sources for a, _, _ in rows}) or [0.0]
    return {
        "sources": sources,
        "kinds": draw(st.lists(
            st.sampled_from(["list", "punctuated", "generator"]),
            min_size=len(sources), max_size=len(sources),
        )),
        "grace": draw(st.sampled_from([0.0, 1.5])),
        "page_size": draw(st.sampled_from([1, 3, 64])),
        "capacity": draw(st.sampled_from([None, 4, 32])),
        "cost": draw(st.sampled_from([0.0, 0.3])),
        "control_latency": draw(st.sampled_from([0.0, 0.5])),
        "checkpoint_every": draw(st.sampled_from([None, 7])),
        # Client actions at instants that *are* arrivals (and one between).
        "feedback": draw(st.lists(
            st.tuples(
                st.sampled_from(instants + [instants[-1] / 2 + 0.25]),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=3,
        )),
    }


def build(scenario):
    """A fresh plan: sources -> (union) -> costed select -> sink."""
    plan = QueryPlan("one-source-path")
    stamp = 0
    sources = []
    kinds = scenario.get("kinds") or ["list"] * len(scenario["sources"])
    for index, (rows, kind) in enumerate(zip(scenario["sources"], kinds)):
        source, _timeline, stamp = make_source(
            f"src{index}", kind, rows, grace=scenario.get("grace", 0.0),
            index=index, stamp=stamp,
        )
        sources.append(plan.add(source))
    select = plan.add(LoggedSelect(
        "select", SCHEMA, lambda tup: True, tuple_cost=scenario["cost"]
    ))
    sink = plan.add(LoggedSink("sink", SCHEMA))
    edge = {"page_size": scenario["page_size"],
            "capacity": scenario["capacity"]}
    if len(sources) == 2:
        union = plan.add(LoggedUnion("union", SCHEMA))
        for port, source in enumerate(sources):
            plan.connect(source, union, port=port, **edge)
        plan.connect(union, select, **edge)
    else:
        plan.connect(sources[0], select, **edge)
    plan.connect(select, sink, **edge)
    return plan


def observe(engine_class, scenario):
    plan = build(scenario)
    engine = engine_class(
        plan,
        control_latency=scenario["control_latency"],
        checkpoint_every=scenario["checkpoint_every"],
    )
    sink = plan.operator("sink")
    for when, k in scenario["feedback"]:
        punct = FeedbackPunctuation.assumed(
            Pattern.from_mapping(SCHEMA, {"k": k})
        )
        engine.at(when, lambda p=punct: sink.inject_feedback(p))
    result = engine.run()
    metrics = result.metrics
    counters = {}
    for name, entry in metrics.operator_metrics.items():
        fields = dataclasses.asdict(entry)
        fields.pop("snapshot_time")  # wall-clock seconds spent pickling
        counters[name] = fields
    seen = {
        "arrivals": [(t, e.values) for t, e in sink.arrivals],
        "punctuations": len(sink.punctuations),
        "pages": {
            op.name: op.__dict__.get("pages_seen", []) for op in plan
        },
        "counters": counters,
        "queues": {
            key: (q.peak_occupancy, q.elements_enqueued, q.pages_flushed)
            for key, q in metrics.queue_metrics.items()
        },
        "peak_queue_occupancy": metrics.peak_queue_occupancy(),
        "events_processed": metrics.events_processed,
        "makespan": metrics.makespan,
        "feedback_log": [
            (e.time, e.operator, e.actions, e.note)
            for e in result.feedback_log
        ],
        "checkpoint_epochs": metrics.checkpoint_epochs,
    }
    store = result.checkpoint_store
    if store is not None:
        names = [op.name for op in plan.sources()]
        seen["offsets"] = {
            (epoch, name): store.load_offset(epoch, name)
            for epoch in store.epochs() for name in names
        }
        seen["finished"] = {name: store.load_finished(name) for name in names}
    return seen


class TestBatchingIsInvisibleOnVirtualTime:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_run_ahead_equals_runs_of_one(self, scenario):
        ahead = observe(Simulator, scenario)
        reference = observe(RunsOfOne, scenario)
        for key in reference:
            assert ahead[key] == reference[key], key

    def test_the_pause_fires_at_the_same_element(self):
        """High water cuts a run: 100 tied arrivals into a capacity-4 edge
        behind a slow consumer pause at exactly the fourth tuple."""
        scenario = {
            "sources": [[(0.0, False, 0.0)] * 100],
            "page_size": 64, "capacity": 4, "cost": 1.0,
            "control_latency": 0.0, "checkpoint_every": None,
            "feedback": [],
        }
        ahead = observe(Simulator, scenario)
        assert ahead == observe(RunsOfOne, scenario)
        assert ahead["queues"]["src0->select[0]"][0] == 4
        assert ahead["counters"]["select"]["pauses_issued"] > 0

    def test_a_full_page_is_stamped_with_the_tuple_that_filled_it(self):
        scenario = {
            "sources": [[(float(i), False, 0.0) for i in range(7)]],
            "page_size": 3, "capacity": None, "cost": 0.0,
            "control_latency": 0.0, "checkpoint_every": None,
            "feedback": [],
        }
        ahead = observe(Simulator, scenario)
        assert ahead == observe(RunsOfOne, scenario)
        # Pages of three fill at arrivals 2 and 5; the close flushes the rest.
        assert ahead["pages"]["select"] == [(0, 2.0, 3), (0, 5.0, 3), (0, 6.0, 1)]

    def test_run_ahead_honours_max_events(self):
        from repro.errors import EngineError

        plan = build({
            "sources": [[(0.0, False, 0.0)] * 50], "page_size": 64,
            "capacity": None, "cost": 0.0,
        })
        with pytest.raises(EngineError, match="max_events=10"):
            Simulator(plan, max_events=10).run()
        assert plan.operator("src0").metrics.tuples_out == 10


class TestWallClockEngines:
    @pytest.mark.parametrize("engine_class", [ThreadedRuntime, AsyncioEngine])
    @pytest.mark.parametrize("page_size", [1, 3, 64])
    @pytest.mark.parametrize("capacity", [None, 4, 32])
    @pytest.mark.parametrize("checkpoint_every", [None, 7])
    @pytest.mark.parametrize("kinds", [
        ["list", "list"], ["punctuated", "generator"],
    ])
    def test_same_tuples_and_the_capacity_bound(
        self, engine_class, page_size, capacity, checkpoint_every, kinds
    ):
        rows = [(0.0, i % 5 == 4, float(i % 17)) for i in range(120)]
        scenario = {
            "sources": [rows, rows[:50]], "kinds": kinds,
            "page_size": page_size,
            "capacity": capacity, "cost": 0.0, "control_latency": 0.0,
            "checkpoint_every": checkpoint_every, "feedback": [],
        }
        expected = observe(RunsOfOne, scenario)
        plan = build(scenario)
        result = engine_class(
            plan, timeout=30.0, checkpoint_every=checkpoint_every
        ).run()
        sink = plan.operator("sink")
        assert Counter(t.values for t in sink.results) == Counter(
            values for _t, values in expected["arrivals"]
        )
        assert result.metrics.checkpoint_epochs == expected[
            "checkpoint_epochs"
        ]
        if capacity is not None:
            for source in plan.sources():
                for edge in source.outputs:
                    assert edge.queue.peak_occupancy <= capacity


class TestArrivalOrder:
    """One check, shared: a replayed timeline may not go back in time."""

    DISORDERED = [
        (0.0, StreamTuple(SCHEMA, (0.0, 0, 0.0))),
        (2.0, StreamTuple(SCHEMA, (1.0, 0, 0.0))),
        (1.0, StreamTuple(SCHEMA, (2.0, 0, 0.0))),
    ]
    MESSAGE = "src: timeline arrival times must be non-decreasing"

    def test_list_source_rejects_decreasing_arrivals(self):
        with pytest.raises(WorkloadError, match=self.MESSAGE):
            ListSource("src", SCHEMA, self.DISORDERED)

    def test_punctuated_source_rejects_decreasing_arrivals(self):
        with pytest.raises(WorkloadError, match=self.MESSAGE):
            PunctuatedSource(
                "src", SCHEMA, self.DISORDERED,
                punctuate_on="ts", punctuation_interval=1.0,
            )
        ties = [(0.0, tup) for _arrival, tup in self.DISORDERED]
        PunctuatedSource(
            "src", SCHEMA, ties, punctuate_on="ts", punctuation_interval=1.0
        )


def key(element):
    return (
        ("punctuation", element.pattern) if element.is_punctuation
        else ("tuple", element.values)
    )


def reference_events(kind, timeline, grace):
    """What ``events()`` must yield, built without the source's cursor:
    each tuple is tested against the next boundary on its own, and only
    one that crosses it is observed."""
    if kind != "punctuated":
        return list(timeline)
    punctuator = ProgressPunctuator(
        SCHEMA, "ts", INTERVAL, grace=grace, source="src"
    )
    expected = []
    for arrival, tup in timeline:
        expected.append((arrival, tup))
        if tup["ts"] - grace >= punctuator.next_boundary:
            expected.extend(
                (arrival, p) for p in punctuator.observe(tup["ts"])
            )
    expected.append((timeline[-1][0] if timeline else 0.0, punctuator.final()))
    return expected


def drain(cursor, limit=3):
    elements = []
    while run := cursor.take(limit):
        elements.extend(run)
    return elements


class TestSourceCursor:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["list", "punctuated", "generator"]),
        timelines(),
        st.sampled_from([0.0, 2.5]),
        st.lists(st.tuples(
            st.integers(min_value=0, max_value=6),
            st.sampled_from([-0.5, 0.0, 0.5, 2.0, math.inf]),
        ), max_size=30),
    )
    def test_runs_concatenate_to_the_events(self, kind, rows, grace, takes):
        """Each ``take(limit, before)`` hands out what the definition
        says -- the longest run of tuples that fits, or one punctuation,
        arriving before ``before`` -- with ``before`` drawn around the
        next arrival; the runs add up to ``events()``."""
        source, timeline, _ = make_source("src", kind, rows, grace=grace)
        expected = list(source.events())
        assert [(a, key(e)) for a, e in expected] == [
            (a, key(e)) for a, e in reference_events(kind, timeline, grace)
        ]
        cursor = source.cursor()
        handed, at = [], 0
        for limit, offset in takes:
            before = expected[at][0] + offset if at < len(expected) else offset
            want = []
            for arrival, element in expected[at:]:
                if len(want) == limit or arrival >= before:
                    break
                if element.is_punctuation:
                    want = want or [element]
                    break
                want.append(element)
            run = cursor.take(limit, before)
            assert [key(e) for e in run] == [key(e) for e in want]
            if run:
                at += len(run)
                assert cursor.arrival == expected[at - 1][0]
            handed.extend(run)
        handed.extend(drain(cursor))
        assert cursor.take(1) == []
        assert [key(e) for e in handed] == [key(e) for _a, e in expected]
        if kind == "punctuated":
            finals = [
                i for i, e in enumerate(handed)
                if e.is_punctuation and not e.pattern.constrained_indices()
            ]
            assert finals == [len(handed) - 1]

    def test_a_leading_nan_hides_no_crossing(self):
        """``max`` keeps a leading NaN; the slice behind it still cuts
        at the tuple that crosses."""
        source, _timeline, _ = make_source(
            "src", "punctuated", [(0.0, False, math.nan), (0.0, False, 5.0)]
        )
        cursor = source.cursor()
        runs = [cursor.take(64) for _ in range(3)]
        assert [len(run) for run in runs] == [2, 1, 1]
        assert runs[1][0].pattern == Punctuation.up_to(
            SCHEMA, "ts", INTERVAL, inclusive=False
        ).pattern
        assert cursor.take(64) == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["list", "punctuated", "generator"]),
        timelines(),
        st.sampled_from([0.0, 2.5]),
    )
    def test_skip_drops_exactly_the_prefix(self, kind, rows, grace):
        source, _timeline, _ = make_source("src", kind, rows, grace=grace)
        expected = [key(e) for _a, e in source.events()]
        for count in range(len(expected) + 2):
            cursor = source.cursor()
            cursor.skip(count)
            assert [key(e) for e in drain(cursor)] == expected[count:]


class TestPunctuatedSourceEvents:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=30),
        st.sampled_from([0.0, 2.5]),
    )
    def test_events_are_the_punctuators_own(self, stamps, grace):
        """Skipping ``observe`` below the boundary changes no event."""
        from repro.punctuation import ProgressPunctuator

        timeline = [
            (float(i), StreamTuple(SCHEMA, (ts, 0, 0.0)))
            for i, ts in enumerate(stamps)
        ]
        source = PunctuatedSource(
            "src", SCHEMA, timeline, punctuate_on="ts",
            punctuation_interval=6.0, grace=grace,
        )
        punctuator = ProgressPunctuator(
            SCHEMA, "ts", 6.0, grace=grace, source="src"
        )
        expected = []
        for arrival, tup in timeline:
            expected.append((arrival, tup))
            expected.extend((arrival, p) for p in punctuator.observe(tup["ts"]))
        expected.append(
            (timeline[-1][0] if timeline else 0.0, punctuator.final())
        )
        assert [
            (arrival, element.pattern if element.is_punctuation else element)
            for arrival, element in source.events()
        ] == [
            (arrival, element.pattern if element.is_punctuation else element)
            for arrival, element in expected
        ]


class TestStructure:
    def _offenders(self, pattern, package=""):
        return [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted((SRC / package).rglob("*.py"))
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            )
            if re.search(pattern, line)
        ]

    def test_per_element_dispatch_is_gone_from_src(self):
        assert self._offenders(r"dispatch_source_element") == []

    def test_engines_cut_runs_from_the_cursor(self):
        """No engine pulls ``events()`` itself: an element-by-element
        loop survives only in the cursor that wraps it."""
        assert self._offenders(r"\bevents\(\)|source_events", "engine") == []
        pulls = self._offenders(r"\.events\(\)", "operators")
        assert [where.split(":")[0] for where in pulls] == ["operators/base.py"]

    def test_engines_do_not_call_operator_emit(self):
        assert self._offenders(r"\.emit\(", "engine") == []

    def test_filter_batch_hoists_nothing_per_call(self):
        import inspect

        from repro.core.guards import GuardSet

        body = inspect.getsource(GuardSet.filter_batch)
        assert "constrained" not in body and "arity" not in body
