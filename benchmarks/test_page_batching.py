"""Micro-benchmark: whole pages vs pages of one through the one data path.

``process_page`` -> ``on_page`` (guard pre-filtering, bulk emission) is
the only data path; what this measures is what the page is *worth*: the
same stream delivered as full pages against the same stream delivered
one element per page -- the slicing the costed simulator's meter uses --
on a guard-heavy chain where every page pays guard set-up plus dispatch
overhead.

The harness drives a three-deep SELECT chain (each stage carrying two
input guards and a predicate) at the operator layer -- no engine, so the
numbers isolate the data-path cost the engines sit on.  The recorded
series is the benchmark ladder's (``bench/ladder.py``:
``operators.select_page_ns`` / ``select_tuple_ns`` /
``core.guard_filter_batch_ns``); this module keeps the assertions.

Scale knob: ``REPRO_BENCH_TUPLES`` (default 10000).
"""

from __future__ import annotations

import os
import time

from repro.engine import QueryPlan
from repro.operators import CollectSink, Select
from repro.punctuation import Pattern
from repro.stream import Schema, StreamTuple
from repro.stream.control import ControlChannel
from repro.stream.pages import DEFAULT_PAGE_SIZE, Page
from repro.stream.queues import DataQueue

SCHEMA = Schema([("ts", "timestamp", True), ("seg", "int"), ("v", "float")])
N_TUPLES = int(os.environ.get("REPRO_BENCH_TUPLES", "10000"))
REPEATS = 5


def build_input_pages() -> list[Page]:
    """Pre-built pages of the input stream (shared by both paths)."""
    pages: list[Page] = []
    page = Page(DEFAULT_PAGE_SIZE)
    for i in range(N_TUPLES):
        tup = StreamTuple(SCHEMA, (float(i), i % 10, float(i)))
        if page.append(tup):
            pages.append(page)
            page = Page(DEFAULT_PAGE_SIZE)
    if not page.empty:
        page.seal()
        pages.append(page)
    return pages


def build_chain():
    """A guard-heavy chain: three SELECTs into a sink, wired by queues."""
    plan = QueryPlan("bench")
    stages = [
        Select(f"sel{i}", SCHEMA, lambda t, m=7 - i: t["v"] % m != 0.0)
        for i in range(3)
    ]
    sink = CollectSink("sink", SCHEMA)
    plan.chain(*stages, sink)
    head = DataQueue("feed")
    stages[0].attach_input(0, head, ControlChannel("feed"), None)
    for index, op in enumerate(stages):
        # Two active input guards per stage: the guard-heavy regime the
        # feedback experiments produce (assumed feedback accumulates).
        op.input_port(0).guards.install(
            Pattern.from_mapping(SCHEMA, {"seg": 8 - index})
        )
        op.input_port(0).guards.install(
            Pattern.from_mapping(SCHEMA, {"seg": 4 - index})
        )
    queues = [op.outputs[0].queue for op in stages]
    consumers = list(stages[1:]) + [sink]
    return stages[0], list(zip(consumers, queues))


def pump(process, downstream) -> None:
    """Drain every ready page through the rest of the chain."""
    for op, queue in downstream:
        queue.flush()
        while (page := queue.get_page()) is not None:
            process(op, page)
        queue.flush()
        while (page := queue.get_page()) is not None:
            process(op, page)


def run_pages_of_one(pages) -> None:
    head, downstream = build_chain()

    def process(op, page):
        for element in page:
            op.process_page(0, [element])

    for page in pages:
        process(head, page)
    pump(process, downstream)


def run_whole_pages(pages) -> None:
    head, downstream = build_chain()

    def process(op, page):
        op.process_page(0, page)

    for page in pages:
        process(head, page)
    pump(process, downstream)


def best_of(fn, pages) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(pages)
        best = min(best, time.perf_counter() - start)
    return best


class TestPageBatchingThroughput:
    def test_whole_pages_beat_pages_of_one(self, report):
        pages = build_input_pages()

        # Correctness first: both slicings must agree tuple-for-tuple.
        head_e, down_e = build_chain()
        for page in pages:
            for element in page:
                head_e.process_page(0, [element])
        pump(lambda op, p: [op.process_page(0, [e]) for e in p], down_e)
        sink_e = down_e[-1][0]

        head_b, down_b = build_chain()
        for page in pages:
            head_b.process_page(0, page)
        pump(lambda op, p: op.process_page(0, p), down_b)
        sink_b = down_b[-1][0]
        assert [t.values for t in sink_e.results] == [
            t.values for t in sink_b.results
        ]

        element_s = best_of(run_pages_of_one, pages)
        batch_s = best_of(run_whole_pages, pages)
        speedup = element_s / batch_s
        per_tuple_ns = batch_s / N_TUPLES * 1e9

        record = {
            "benchmark": "page_batch_guarded_select_chain",
            "tuples": N_TUPLES,
            "stages": 3,
            "guards_per_stage": 2,
            "page_size": DEFAULT_PAGE_SIZE,
            "pages_of_one_s": round(element_s, 6),
            "whole_pages_s": round(batch_s, 6),
            "speedup": round(speedup, 3),
            "whole_pages_ns_per_input_tuple": round(per_tuple_ns, 1),
        }

        report.append(
            f"page batching: pages of one {element_s * 1e3:.1f} ms, "
            f"whole pages {batch_s * 1e3:.1f} ms, speedup {speedup:.2f}x "
            f"({N_TUPLES} tuples, 3 guarded SELECTs)"
        )
        # The headline claim: batching wins on a guard-heavy chain.
        # Local best-of-5 runs show ~1.15-1.4x; the assertion only gates
        # the *sign* of the result so shared-runner noise cannot flake
        # the tier-1 suite.
        assert speedup > 1.0, record
