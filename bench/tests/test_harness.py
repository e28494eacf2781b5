"""The harness checks itself: ``python -m pytest bench -q`` (a few seconds).

Every workload runs at about 1/50 of its benchmark size through the same
child processes, oracles and reductions the real runs use.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import compare, env, metrics, oracle, run, serving  # noqa: E402

SMALL_HORIZON = 480.0      # stream seconds: 4 viewer intervals, 8,640 tuples
PINS = env.pin_map()


@pytest.fixture(autouse=True)
def _small_and_unpinned(monkeypatch):
    """Two set-ups a run instead of five; and ``run.main`` pins its
    process to the generator's CPU, which must not outlive the test."""
    monkeypatch.setattr(run, "SETUPS", 2)
    allowed = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, allowed)


# -- vocabulary and manifest ---------------------------------------------------


def test_manifest_lists_exactly_what_run_emits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest(
        manifest["command"], manifest["run_seconds"])
    assert manifest["command"][-1] == "bench/run.py"
    assert 1 <= manifest["run_seconds"] <= 60
    assert "setup_s" in metrics.END_TO_END_NAMES


def test_names_units_and_whys_fit_the_contract():
    names = (metrics.WORKLOAD_NAMES + metrics.END_TO_END_NAMES
             + metrics.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.METRIC_NAME.match(name), name
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    for _name, why in metrics.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    for _name, unit, _better, bound in metrics.END_TO_END:
        assert 0 < bound <= 0.25 and len(unit) <= 16
    assert metrics.BOUNDS["setup_s"] == max(metrics.BOUNDS.values())


# -- machine helpers -----------------------------------------------------------


def test_vm_hwm_parsing():
    status = "Name:\tpython3\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n"
    assert env.parse_vm_hwm_mb(status) == 50.0
    with pytest.raises(ValueError):
        env.parse_vm_hwm_mb("Name:\tpython3\n")
    assert env.vm_hwm_mb() > 1.0
    assert env.cpu_ns() > 0


def test_pin_map_and_its_one_cpu_fallback():
    two = env.pin_map({0, 5})
    assert (two["sut"], two["loadgen"], two["shared_core"]) == (5, 0, False)
    one = env.pin_map({3})
    assert (one["sut"], one["loadgen"], one["shared_core"]) == (3, 3, True)


def test_estimator_and_segment_arithmetic():
    assert env.quiet([5.0, 1.0, 9.0, 2.0, 3.0], "lower") == 2.0
    assert env.quiet([5.0, 1.0, 9.0, 2.0, 3.0], "higher") == pytest.approx(17 / 3)
    assert env.quiet([4.0], "lower") == 4.0
    # From 64 samples on, the best sixteenth: here the four best of 64.
    assert env.quiet([float(i) for i in range(64)], "lower") == 1.5
    ranked = sorted(float(i) for i in range(101))
    assert env.percentile(ranked, 0.5) == 50.0
    assert env.percentile(ranked, 0.9) == 90.0
    # 50 results in segments of 10, one every 0.1 s and 1 ms of server
    # CPU: the first tenth (5 results) is warm-up, so the segment ending
    # at 10 is dropped with it and four full ones remain.
    receipts = serving.Receipts(64, os.getpid(), 10)
    receipts.latencies = [0.001 * (i % 10 + 1) for i in range(50)]
    receipts.received = 50
    receipts.marks = [(n, n / 100.0, n * 100_000) for n in range(0, 51, 10)]
    segments = serving.reduce_segments({"receipts": receipts})
    assert len(segments) == 4
    for segment in segments:
        assert segment["throughput_per_s"] == pytest.approx(100.0)
        assert segment["cpu_us_per_tuple"] == pytest.approx(100.0)
        assert segment["latency_p50_ms"] == pytest.approx(5.0)  # 5th of 10
        assert segment["latency_p90_ms"] == pytest.approx(9.0)


# -- oracles catch wrong output ------------------------------------------------


def test_speedmap_oracle_rejects_wrong_missing_and_extra_rows():
    rows = [(d, d % 9, float(20 * w), 50.0 + d)
            for w in range(12) for d in range(18)]
    expected = oracle.speedmap_rows(rows)
    good = [(w, s, v) for (w, s), v in expected.items()]
    assert oracle.check_speedmap(expected, good).failed == 0
    assert oracle.check_speedmap(expected, good[1:]).failed == 1
    wrong = [(good[0][0], good[0][1], good[0][2] + 1.0)] + good[1:]
    assert oracle.check_speedmap(expected, wrong).failed == 1
    assert oracle.check_speedmap(expected, good + good[:2]).failed == 2
    # The viewer keeps one segment per window inside its intervals.
    viewed = oracle.speedmap_rows(rows, viewer_horizon=240.0)
    assert len(viewed) == 12
    assert all(s == oracle.visible_segment(w) for w, s in viewed)


def test_delivery_oracle_counts_lost_duplicated_and_late():
    verdict = oracle.check_delivery(4, bytes([1, 0, 2, 1]), [0.01, 0.02, 1.5])
    assert (verdict.attempted, verdict.failed) == (4, 3)
    assert oracle.check_no_pauses({"serving.hub_pauses": 1}).failed == 1
    assert oracle.feedback_counts(8640, 480.0) == {
        "core.feedback_relayed": 4,
        "operators.sigma_q.input_guard_drops": 7680,
        "operators.average.tuples_in": 960,
    }


# -- every workload, small, through the real child processes -------------------


@pytest.mark.parametrize("workload", run.IN_PROCESS)
def test_in_process_workload_small(workload):
    args = run.parse_args([
        "--workload", workload, "--seconds", "0.5",
        "--horizon", str(SMALL_HORIZON),
    ])
    record = run.run_workload(workload, args, PINS)
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] > 0
    assert set(record["metrics"]) == set(metrics.END_TO_END_NAMES)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["environment"]["shared_core"] == PINS["shared_core"]
    assert record["environment"]["seed"] == 7


@pytest.mark.parametrize("workload", sorted(serving.LOADS))
def test_serving_workload_small(workload):
    outcome = asyncio.run(serving.run_once(
        workload, PINS, 0.8, seed=7, segment=400))
    assert outcome["failed"] == 0 and outcome["attempted"] > 0
    assert outcome["segments"], "no full segment was measured"
    assert outcome["pinned_to"] == [PINS["sut"]]
    assert outcome["counters"]["serving.hub_pauses"] == 0
    for segment in outcome["segments"]:
        assert all(value > 0 for value in segment.values())


def test_child_pins_itself_even_with_one_allowed_cpu():
    # The one-CPU fallback: SUT and generator share the only CPU.
    only = env.pin_map({PINS["sut"]})
    out = run.run_child("speedmap.py", {
        "cpu": only["sut"], "workload": "speedmap_feedback", "seed": 7,
        "horizon": 120.0, "seconds": 0.05, "spawned_monotonic": 0.0,
    })
    assert out["pinned_to"] == [only["sut"]]
    assert only["shared_core"]


def test_traced_pass_emits_every_per_layer_metric():
    args = run.parse_args([
        "--workload", "speedmap_feedback", "--trace",
        "--horizon", str(SMALL_HORIZON),
    ])
    record = run.run_workload("speedmap_feedback", args, PINS)
    assert set(record["metrics"]) == set(metrics.PER_LAYER_NAMES)
    layers = {k: v["value"] for k, v in record["metrics"].items()}
    assert layers["core.feedback_relayed"] == 4
    assert layers["operators.sigma_q.input_guard_drops"] == 7680
    assert layers["trace.overhead_ratio"] > 0
    assert layers["operators.sigma_q.self_ms"] > 0
    assert layers["serving.span.ws_read_ms"] == 0
    assert layers["stream.tuple_build_ns"] > 0
    assert set(record["diagnostics"]) == set(metrics.UNGATED_DIAGNOSTICS)


def test_last_line_is_the_contracts_json(capsys):
    assert run.main([
        "--workload", "speedmap_feedback", "--seed", "3",
        "--seconds", "0.5", "--trace", "0",
        "--horizon", str(SMALL_HORIZON),
    ]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert set(last["metrics"]) == set(metrics.END_TO_END_NAMES)
    for entry in last["metrics"].values():
        assert set(entry) == {"value", "unit"}


# -- compare -------------------------------------------------------------------


def _result_files(directory: Path, throughputs: list[float]) -> None:
    directory.mkdir()
    for index, value in enumerate(throughputs):
        record = {
            "workload": "speedmap_replay", "attempted": 100, "failed": 0,
            "metrics": {
                name: {"value": value if name == "throughput_per_s" else 1.0,
                       "unit": metrics.UNITS[name]}
                for name in metrics.END_TO_END_NAMES
            },
        }
        (directory / f"r{index}.timed.json").write_text(json.dumps(record))


def test_compare_tells_regressed_from_unresolved(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    _result_files(tmp_path / "a", steady)
    _result_files(tmp_path / "same", [v * 1.01 for v in steady])
    _result_files(tmp_path / "slow", [v * 0.7 for v in steady])
    _result_files(tmp_path / "noisy", [60.0, 140.0, 100.0, 80.0, 120.0])
    a = str(tmp_path / "a")
    assert compare.main([a, str(tmp_path / "same")]) == 0
    assert compare.main([a, str(tmp_path / "slow")]) == 1
    capsys.readouterr()
    assert compare.main([a, str(tmp_path / "noisy")]) == 0
    assert "unresolved" in capsys.readouterr().out
