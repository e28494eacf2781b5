"""Differential plan-equivalence harness for the optimizer.

The optimizer's shipping condition: for ANY plan, the rewritten form is
observably equivalent to the original -- multiset-equal sink data,
identical punctuation delivery at sinks, equal feedback effects at
sources.  This suite generates random plans with hypothesis (chains,
splits/unions, joins, windows, over randomized guard/map/project
stages), runs each one optimized and unoptimized, and compares.

Example budgets: 100 chain plans on the simulated engine plus 60 each on
threaded and asyncio (220 total, >= the 200 the acceptance criteria
require), the same in every run.  Runs are derandomized: a red build is
reproducible.

The multiprocess engine runs on a fixed corpus of representative plans
(process fan-out per generated example would swamp the suite), gated on
fork availability like the rest of the multiprocess legs.

Known divergence, by design: with ``control_latency > 0`` a control
message crosses a fused composite in one boundary hop instead of N
internal hops, so per-hop latency plans are out of scope here (the
default latency of 0 is what every engine ships with).
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FeedbackIntent,
    FeedbackPunctuation,
    Flow,
    Pattern,
    Schema,
    StreamTuple,
)
from repro.engine import fork_available
from repro.optimizer import optimize

SCHEMA = Schema([
    ("ts", "timestamp", True), ("a", "int"), ("b", "int"), ("c", "float"),
])

SIM_EXAMPLES = 100
CONCURRENT_EXAMPLES = 60


# --------------------------------------------------------------------------
# plan-spec strategies: pure-data specs, compiled to flows by build_chain()
# --------------------------------------------------------------------------

def rows_strategy():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),    # a
            st.integers(min_value=0, max_value=3),    # b
            st.floats(
                min_value=-50.0, max_value=50.0,
                allow_nan=False, allow_infinity=False,
            ),                                        # c
        ),
        min_size=20,
        max_size=60,
    )


def stage_strategy():
    """One stage spec: (kind, params) drawn over the *current* schema.

    Params reference attributes by name; build_chain() skips a stage
    whose attribute was projected away earlier, so every generated spec
    compiles.
    """
    return st.one_of(
        st.tuples(
            st.just("pattern_where"),
            st.sampled_from(["a", "b"]),
            st.integers(min_value=0, max_value=7),
        ),
        st.tuples(
            st.just("callable_where"),
            st.sampled_from(["a", "b"]),
            st.integers(min_value=1, max_value=4),
        ),
        st.tuples(
            st.just("extend"),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=9),
        ),
        st.tuples(
            st.just("project"),
            st.sets(
                st.sampled_from(["ts", "a", "b", "c"]),
                min_size=2, max_size=4,
            ),
            st.none(),
        ),
    )


def chain_specs():
    return st.tuples(
        rows_strategy(),
        st.lists(stage_strategy(), min_size=1, max_size=6),
        st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
    )


def make_rows(value_rows):
    return [
        (i * 0.1, StreamTuple(SCHEMA, (i * 0.1, a, b, c)))
        for i, (a, b, c) in enumerate(value_rows)
    ]


def build_chain(value_rows, stages, every):
    """Compile one generated spec to a runnable Flow."""
    flow = Flow("generated")
    handle = flow.source(SCHEMA, make_rows(value_rows), name="src")
    handle = handle.punctuate(on="ts", every=every)
    schema = SCHEMA
    counter = 0
    for kind, arg, extra in stages:
        counter += 1
        name = f"s{counter}_{kind}"
        if kind == "pattern_where":
            if arg not in schema:
                continue
            handle = handle.where(
                Pattern.from_mapping(schema, {arg: extra}), name=name
            )
        elif kind == "callable_where":
            if arg not in schema:
                continue
            divisor = extra

            def pred(t, attr=arg, d=divisor):
                return int(t[attr]) % d != 0

            handle = handle.where(pred, name=name)
        elif kind == "extend":
            if arg not in schema:
                continue
            new_attr = f"x{counter}"

            def compute(t, attr=arg, k=extra):
                return (float(t[attr]) + k,)

            handle = handle.extend(
                [(new_attr, "float")], compute, name=name
            )
            schema = handle.schema
            continue
        elif kind == "project":
            keep = [a.name for a in schema if a.name in arg]
            if len(keep) < 1:
                continue
            handle = handle.select(*keep, name=name)
            schema = handle.schema
            continue
        schema = handle.schema
    handle.collect("sink", keep_punctuation=True)
    return flow


def sink_data(result):
    return [tuple(t.values) for t in result.sink("sink").results]


def sink_punctuation(result):
    return [
        tuple(p.pattern.atoms)
        for p in result.sink("sink").punctuations
    ]


def run_both(flow_factory, engine, **run_options):
    base = flow_factory().run(engine, **run_options)
    opt = flow_factory().run(engine, optimize=True, **run_options)
    return base, opt


# --------------------------------------------------------------------------
# generated chains, per engine
# --------------------------------------------------------------------------

class TestGeneratedChains:
    @given(chain_specs())
    @settings(
        max_examples=SIM_EXAMPLES, deadline=None, derandomize=True
    )
    def test_simulated_exact_equivalence(self, spec):
        """Deterministic engine: data AND punctuation sequences match
        exactly, not just as multisets."""
        value_rows, stages, every = spec
        base, opt = run_both(
            lambda: build_chain(value_rows, stages, every), "simulated"
        )
        assert sink_data(base) == sink_data(opt)
        assert sink_punctuation(base) == sink_punctuation(opt)

    @given(chain_specs())
    @settings(
        max_examples=CONCURRENT_EXAMPLES, deadline=None, derandomize=True
    )
    def test_threaded_equivalence(self, spec):
        value_rows, stages, every = spec
        base, opt = run_both(
            lambda: build_chain(value_rows, stages, every), "threaded"
        )
        assert Counter(sink_data(base)) == Counter(sink_data(opt))
        assert sink_punctuation(base) == sink_punctuation(opt)

    @given(chain_specs())
    @settings(
        max_examples=CONCURRENT_EXAMPLES, deadline=None, derandomize=True
    )
    def test_asyncio_equivalence(self, spec):
        value_rows, stages, every = spec
        base, opt = run_both(
            lambda: build_chain(value_rows, stages, every), "asyncio"
        )
        assert Counter(sink_data(base)) == Counter(sink_data(opt))
        assert sink_punctuation(base) == sink_punctuation(opt)

    @given(chain_specs())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_optimized_plan_validates_and_reports(self, spec):
        """The rewritten IR is still a valid plan, and the report's
        fused composites all name stages that existed."""
        value_rows, stages, every = spec
        flow = build_chain(value_rows, stages, every)
        plan = flow.build()
        before = {op.name for op in plan}
        report = optimize(plan)
        plan.validate()
        for fused_name, stage_names in report.fused:
            assert set(stage_names) <= before
            assert fused_name == "+".join(stage_names)


# --------------------------------------------------------------------------
# feedback effects at sources (simulated: injection time is deterministic)
# --------------------------------------------------------------------------

class TestFeedbackEffects:
    @given(
        chain_specs(),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_source_guard_effects_match(self, spec, guard_value, when):
        """Assumed feedback injected at the sink has the same effect at
        the source -- same guard drops, same sink data -- optimized or
        not."""
        value_rows, stages, every = spec

        def factory():
            return build_chain(value_rows, stages, every)

        sink_schema = factory().build().operator("sink").output_schema
        if "a" not in sink_schema:
            return  # the guarded attribute was projected away
        feedback = FeedbackPunctuation(
            FeedbackIntent.ASSUMED,
            Pattern.from_mapping(sink_schema, {"a": guard_value}),
        )
        base, opt = run_both(
            factory, "simulated", feedback=[(when, "sink", feedback)]
        )
        assert sink_data(base) == sink_data(opt)
        base_src = base.metrics.operator_metrics["src"]
        opt_src = opt.metrics.operator_metrics["src"]
        assert (
            base_src.output_guard_drops == opt_src.output_guard_drops
        )
        assert (
            base_src.feedback_received == opt_src.feedback_received
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP N step 1")
    def test_recorded_divergence(self):
        """The spec the search above once found, through the same
        ``build_chain`` / ``run_both``: twenty ``a=0`` rows, a
        keep-everything projection, punctuation every second and
        ``¬[a=0]`` at the sink at t=1.0.  The plain plan delivers none
        of them and the optimized plan ten, so the optimized plan lets
        through what feedback disclaimed."""

        def factory():
            return build_chain(
                [(0, 0, 0.0)] * 20, [("project", {"a", "b", "c", "ts"}, None)],
                1.0,
            )

        sink_schema = factory().build().operator("sink").output_schema
        feedback = FeedbackPunctuation(
            FeedbackIntent.ASSUMED,
            Pattern.from_mapping(sink_schema, {"a": 0}),
        )
        base, opt = run_both(
            factory, "simulated", feedback=[(1.0, "sink", feedback)]
        )
        assert sink_data(base) == []
        assert sink_data(opt) == sink_data(base)


# --------------------------------------------------------------------------
# non-linear topologies: split/union, join, window
# --------------------------------------------------------------------------

RIGHT_SCHEMA = Schema([
    ("rts", "timestamp", True), ("ra", "int"), ("label", "int"),
])

ENGINES = ["simulated", "threaded", "asyncio"]


def build_split_union(value_rows, every):
    flow = Flow("split-union")
    handle = (
        flow.source(SCHEMA, make_rows(value_rows), name="src")
        .punctuate(on="ts", every=every)
    )
    lo, hi = handle.split(2, name="dup")
    lo = (
        lo.where(lambda t: t["c"] < 0.0, name="flo")
        .extend([("tag", "int")], lambda t: (0,), name="elo")
    )
    hi = (
        hi.where(lambda t: t["c"] >= 0.0, name="fhi")
        .extend([("tag", "int")], lambda t: (1,), name="ehi")
    )
    lo.union(hi, name="u").collect("sink", keep_punctuation=True)
    return flow


def build_join(value_rows, every):
    right_rows = [
        (i * 0.1, StreamTuple(RIGHT_SCHEMA, (i * 0.1, i % 8, i % 2)))
        for i in range(len(value_rows) // 2 + 1)
    ]
    flow = Flow("join")
    left = (
        flow.source(SCHEMA, make_rows(value_rows), name="src")
        .punctuate(on="ts", every=every)
        .where(lambda t: t["b"] != 3, name="pre")
    )
    right = (
        flow.source(RIGHT_SCHEMA, right_rows, name="right")
        .punctuate(on="rts", every=every)
    )
    (
        left.join(right, on=[("a", "ra")], name="j")
        .where(lambda t: t["label"] == 0, name="post")
        .extend([("z", "int")], lambda t: (1,), name="ez")
        .collect("sink", keep_punctuation=True)
    )
    return flow


def build_window(value_rows, every):
    from repro.api import avg

    flow = Flow("window")
    (
        flow.source(SCHEMA, make_rows(value_rows), name="src")
        .punctuate(on="ts", every=every)
        .where(lambda t: t["a"] != 7, name="pre")
        .extend([("c2", "float")], lambda t: (t["c"] * 2,), name="ext")
        .window(avg("c2"), on="ts", width=every, by="b", name="w")
        .collect("sink", keep_punctuation=True)
    )
    return flow


TOPOLOGIES = [build_split_union, build_join, build_window]


class TestTopologies:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "builder", TOPOLOGIES, ids=lambda b: b.__name__
    )
    @given(rows_strategy())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_topology_equivalence(self, engine, builder, value_rows):
        base, opt = run_both(lambda: builder(value_rows, 1.0), engine)
        assert Counter(sink_data(base)) == Counter(sink_data(opt))
        assert Counter(sink_punctuation(base)) == Counter(
            sink_punctuation(opt)
        )


# --------------------------------------------------------------------------
# multiprocess: fixed corpus (per-example process fan-out is too slow)
# --------------------------------------------------------------------------

FIXED_ROWS = [
    (i % 8, i % 4, float((i * 7) % 101) - 50.0) for i in range(120)
]

FIXED_CHAINS = [
    [("callable_where", "a", 3), ("extend", "c", 2),
     ("pattern_where", "b", 1), ("project", {"ts", "a", "b"}, None)],
    [("extend", "a", 1), ("extend", "b", 2), ("callable_where", "a", 2),
     ("extend", "c", 3), ("pattern_where", "a", 4),
     ("callable_where", "b", 3)],
]


@pytest.mark.skipif(
    not fork_available(), reason="multiprocess engine requires fork"
)
class TestMultiprocessCorpus:
    @pytest.mark.parametrize("stages", FIXED_CHAINS, ids=["mixed", "deep"])
    def test_chain_corpus(self, stages):
        base, opt = run_both(
            lambda: build_chain(FIXED_ROWS, stages, 1.0), "multiprocess"
        )
        assert Counter(sink_data(base)) == Counter(sink_data(opt))
        assert Counter(sink_punctuation(base)) == Counter(
            sink_punctuation(opt)
        )

    def test_split_union_corpus(self):
        base, opt = run_both(
            lambda: build_split_union(FIXED_ROWS, 1.0), "multiprocess"
        )
        assert Counter(sink_data(base)) == Counter(sink_data(opt))
