"""Micro-benchmark: punctuation-aligned checkpointing overhead.

The durable-feeds subsystem claims checkpointing is cheap: markers ride
the data plane (no extra scheduling passes), snapshots happen at epoch
boundaries only, and none of it charges *virtual* time -- so the
simulated makespan with checkpointing on is identical to the makespan
with it off, and the wall-clock overhead at production-sized epochs
(1000 tuples) stays small (<5% is the design target; the wall-clock
figure is measured by ``bench/run.py --workload speedmap_durable``, not
here).

Three variants run the same windowed pipeline: checkpointing off, every
1000 tuples, and every 100 tuples (an aggressively tight interval that
bounds the worst case).  The per-epoch snapshot-size series of the 1k
run must stay flat: the terminal sink's delivery log is the durable copy
of its output and its snapshot only the cut into that log, so bytes per
epoch do not depend on how much the run has produced.

Scale knob: ``REPRO_BENCH_CKPT_TUPLES`` (default 20000; the CI
bench-smoke job sets it tiny).
"""

from __future__ import annotations

import os
import time

from repro.api import Flow, avg
from repro.durability import MemoryCheckpointStore
from repro.stream import Schema, StreamTuple

SCHEMA = Schema([
    ("ts", "timestamp", True), ("sensor", "int"), ("value", "float"),
])
N_TUPLES = int(os.environ.get("REPRO_BENCH_CKPT_TUPLES", "20000"))
TUPLE_COST = 0.0002


def pipeline() -> Flow:
    timeline = [
        (i * 0.01,
         StreamTuple(SCHEMA, (i * 0.01, i % 16, float(i % 100))))
        for i in range(N_TUPLES)
    ]
    flow = Flow("ckpt-bench")
    (flow.source(SCHEMA, timeline, name="source")
         .punctuate(on="ts", every=5.0)
         .where(lambda t: t["value"] >= 0.0, name="keep",
                tuple_cost=TUPLE_COST)
         .window(avg("value"), by="sensor", width=5.0, on="ts",
                 name="windows")
         .collect("sink"))
    return flow


def run_variant(every: int | None):
    store = MemoryCheckpointStore() if every else None
    options = (
        {"checkpoint_every": every, "checkpoint_store": store}
        if every else {}
    )
    flow = pipeline()
    start = time.perf_counter()
    result = flow.run("simulated", **options)
    wall = time.perf_counter() - start
    return result, store, wall


def snapshot_series(store, result):
    """Total snapshot bytes per epoch (the growth curve)."""
    op_names = [
        name for name in result.metrics.operator_metrics
        if result.metrics.operator_metrics[name].checkpoints
    ]
    series = []
    for epoch in store.epochs():
        total = sum(
            len(store.load_state(epoch, name) or b"")
            for name in op_names
        )
        series.append({"epoch": epoch, "snapshot_bytes": total})
    return series


class TestCheckpointOverhead:
    def test_overhead_and_snapshot_growth(self, report):
        base_result, _, base_wall = run_variant(None)
        k1_result, k1_store, k1_wall = run_variant(1000)
        k100_result, _, k100_wall = run_variant(100)

        # Correctness first: checkpointing must not change output.
        base_values = [t.values for t in base_result.sink("sink").results]
        assert [
            t.values for t in k1_result.sink("sink").results
        ] == base_values
        assert [
            t.values for t in k100_result.sink("sink").results
        ] == base_values

        # The headline claim: markers and snapshots charge no virtual
        # time.  Flush-on-punctuation at each marker can shift page
        # boundaries by a hair, so the makespan is within 0.1% of the
        # uncheckpointed run -- far inside the <5% target at 1k-tuple
        # epochs.
        assert k1_result.makespan <= base_result.makespan * 1.05
        assert abs(k1_result.makespan / base_result.makespan - 1) < 1e-3

        expected_epochs = N_TUPLES and (
            k1_result.metrics.checkpoint_epochs
        )
        assert expected_epochs >= N_TUPLES // 1000 - 1
        assert k1_result.metrics.checkpoint_bytes > 0

        series = snapshot_series(k1_store, k1_result)
        assert len(series) >= 2
        # Window state comes and goes with the punctuation; the sink
        # contributes its cut, never its accumulated results.
        assert series[-1]["snapshot_bytes"] <= 2 * series[0]["snapshot_bytes"]

        makespan_overhead = (
            k1_result.makespan / base_result.makespan - 1
        ) * 100
        report.append(
            f"checkpointing: makespan overhead at 1k epochs "
            f"{makespan_overhead:.3f}% (target <5%), wall "
            f"{(k1_wall / base_wall - 1) * 100:.2f}% at 1k / "
            f"{(k100_wall / base_wall - 1) * 100:.2f}% at 100; "
            f"{k1_result.metrics.checkpoint_epochs} epochs, "
            f"{k1_result.metrics.checkpoint_bytes} snapshot bytes"
        )
