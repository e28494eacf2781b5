#!/usr/bin/env python3
"""One wall-clock benchmark for the feedback-punctuation engine.

    python3 bench/run.py --seed 7 --out DIR            # all five workloads
    python3 bench/run.py --workload NAME --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --trace                       # the traced pass

Each workload runs in fresh child processes pinned to the highest allowed
CPU (the load generator and this process take the lowest), checks its
outputs against ``bench/oracle.py``, and prints every metric by name with
its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (a separate pass:
end-to-end numbers never come from a traced run).  ``bench/README.md``
explains the workloads, the metrics and the noise discipline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # import `bench` as a package, not as loose files
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env, metrics, oracle

env.require_program()

from bench import serving, speedmap  # noqa: E402  (import the program)

#: Fresh set-ups (child processes) per run: ``peak_rss_mb`` is their
#: median, ``setup_s`` and the timed metrics are ``env.quiet`` over every
#: set-up (and every set-up's reps).
SETUPS = 5
DEFAULT_SECONDS = 20
CHILD_TIMEOUT = 170.0
IN_PROCESS = ("speedmap_replay", "speedmap_feedback", "speedmap_durable")


def run_child(script: str, config: dict) -> dict:
    """Run one ``bench/`` child to completion and parse its JSON line."""
    done = subprocess.run(
        [sys.executable, str(env.BENCH_DIR / script), json.dumps(config)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        env=serving.child_env(), cwd=env.ROOT,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- the timed pass ------------------------------------------------------------


def per_setup(setups: list[dict]) -> dict:
    """The two metrics with one sample per set-up."""
    return {
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
        "setup_s": env.quiet([s["setup_s"] for s in setups], "lower"),
    }


def timed_in_process(workload: str, pins: dict, seed: int, seconds: float,
                     horizon: float) -> dict:
    setups = []
    for _ in range(SETUPS):
        setups.append(run_child("speedmap.py", {
            "cpu": pins["sut"], "workload": workload, "seed": seed,
            "horizon": horizon, "seconds": seconds / SETUPS,
            "spawned_monotonic": time.monotonic(),
        }))
    reps = [rep for setup in setups for rep in setup["reps"]]
    # A replay has one latency: the time from submitting the job to
    # holding its complete result.  Its p50 and p90 coincide.
    job_ms = env.quiet([rep["job_s"] * 1e3 for rep in reps], "lower")
    return {
        "metrics": {
            "throughput_per_s": env.quiet(
                [rep["tuples"] / rep["run_s"] for rep in reps], "higher"),
            "cpu_us_per_tuple": env.quiet(
                [rep["cpu_s"] * 1e6 / rep["tuples"] for rep in reps],
                "lower"),
            "latency_p50_ms": job_ms,
            "latency_p90_ms": job_ms,
            **per_setup(setups),
        },
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "notes": [note for rep in reps for note in rep["notes"]][:8],
        "diagnostics": {"samples": len(reps)},
        "lateness_p99_ms": 0.0,
    }


def timed_serving(workload: str, pins: dict, seed: int,
                  seconds: float) -> dict:
    setups = [
        asyncio.run(serving.run_once(workload, pins, seconds / SETUPS, seed))
        for _ in range(SETUPS)
    ]
    segments = [seg for setup in setups for seg in setup["segments"]]
    if not segments:
        raise RuntimeError(
            f"{workload}: no full segment measured in {seconds} s; "
            f"raise --seconds"
        )
    values = {
        name: env.quiet([seg[name] for seg in segments], metrics.BETTER[name])
        for name in ("throughput_per_s", "cpu_us_per_tuple",
                     "latency_p50_ms", "latency_p90_ms")
    }
    values.update(per_setup(setups))
    return {
        "metrics": values,
        "attempted": sum(s["attempted"] for s in setups),
        "failed": sum(s["failed"] for s in setups),
        "notes": [note for s in setups for note in s["notes"]][:8],
        "diagnostics": {"samples": len(segments)},
        "lateness_p99_ms": max(s["lateness_p99_ms"] for s in setups),
    }


# -- the traced pass -----------------------------------------------------------


def traced_serving(workload: str, pins: dict, seed: int, seconds: float,
                   run_id: str, spans_path: str | None) -> dict:
    """One untraced and one traced server child under the same load."""
    plain = asyncio.run(serving.run_once(workload, pins, seconds, seed))
    traced = asyncio.run(serving.run_once(
        workload, pins, seconds, seed, trace=True, run_id=run_id,
        spans_path=spans_path,
    ))
    layers = {
        f"serving.span.{name}_ms": traced["self_ms"].get(name, 0.0)
        for name in metrics.SERVING_SPANS
    }
    cpu_ms = traced["server_cpu_us_per_tuple"] * traced["tuples"] / 1e3
    wall_ms = traced["elapsed_s"] * 1e3
    layers["engine.residual_ms"] = cpu_ms - sum(layers.values())
    layers["trace.wall_ms"] = wall_ms
    layers["trace.accounted_share"] = cpu_ms / wall_ms
    # The burst schedule fixes the wall clock, so overhead is read off
    # the server's CPU per tuple on both workloads.
    layers["trace.overhead_ratio"] = (
        traced["server_cpu_us_per_tuple"] / plain["server_cpu_us_per_tuple"]
    )
    layers["serving.server_cpu_us_per_tuple"] = (
        plain["server_cpu_us_per_tuple"]
    )
    layers["loadgen.latency_p99_ms"] = plain["latency_p99_ms"]
    layers["loadgen.lateness_p99_ms"] = plain["lateness_p99_ms"]
    layers.update(plain["counters"])
    return {
        "layers": layers,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "notes": plain["notes"] + traced["notes"],
    }


def traced_pass(workload: str, args: argparse.Namespace, pins: dict,
                run_id: str) -> dict:
    """One traced rep of the workload plus the layer ladder.

    Every per-layer metric is reported; a layer this workload does not
    touch reads 0.
    """
    # Spans stay in memory; they are written out only when asked for.
    spans_path = (
        str(Path(args.out) / f"{run_id}.spans.json") if args.out else None
    )
    if workload in IN_PROCESS:
        outcome = run_child("speedmap.py", {
            "cpu": pins["sut"], "workload": workload, "seed": args.seed,
            "horizon": args.horizon, "trace": True, "run_id": run_id,
            "spans_path": spans_path,
        })
    else:
        outcome = traced_serving(
            workload, pins, args.seed, args.seconds / SETUPS, run_id,
            spans_path)
    ladder = run_child("ladder.py", {
        "cpu": pins["sut"], "seed": args.seed, "allowed": pins["allowed"],
        "horizon": max(oracle.VIEW_INTERVAL, args.horizon / 6),
    })
    layers = dict.fromkeys(metrics.PER_LAYER_NAMES, 0.0)
    layers.update(
        (name, ladder[name]) for name in ladder.keys() & layers.keys())
    layers.update(outcome["layers"])
    return {
        "metrics": layers,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "notes": outcome["notes"],
        "diagnostics": {
            name: ladder[name] for name in metrics.UNGATED_DIAGNOSTICS
        },
        "lateness_p99_ms": layers["loadgen.lateness_p99_ms"],
    }


# -- one workload --------------------------------------------------------------


def run_workload(workload: str, args: argparse.Namespace, pins: dict) -> dict:
    """Run one workload's timed or traced pass; returns the result record."""
    run_id = f"{workload}-{args.seed}-{time.time_ns()}"
    spin_before = env.spin_on(pins["sut"])
    if args.trace:
        outcome = traced_pass(workload, args, pins, run_id)
    elif workload in IN_PROCESS:
        outcome = timed_in_process(
            workload, pins, args.seed, args.seconds, args.horizon)
    else:
        outcome = timed_serving(workload, pins, args.seed, args.seconds)
    spin_after = env.spin_on(pins["sut"])
    if args.trace:
        outcome["metrics"]["env.spin_ms_before"] = spin_before
        outcome["metrics"]["env.spin_ms_after"] = spin_after
    record = {
        "workload": workload,
        "pass": "traced" if args.trace else "timed",
        "run_id": run_id,
        "seconds": args.seconds,
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "notes": outcome["notes"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in outcome["metrics"].items()
        },
        "diagnostics": outcome["diagnostics"],
        "environment": env.stamp(args.seed, pins),
        "spin_ms": {"before": spin_before, "after": spin_after},
        # Flagged runs are still reported, never silently retried.
        "disturbed": (
            spin_after > spin_before * 1.15
            or outcome["lateness_p99_ms"] > 10.0
        ),
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{run_id}.{record['pass']}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    return record


def report(record: dict) -> None:
    for name, entry in record["metrics"].items():
        print(f"{record['workload']:18s} {name:40s} "
              f"{entry['value']:16.4f} {entry['unit']}")
    for name, value in record["diagnostics"].items():
        print(f"{record['workload']:18s} {name:40s} {value}")
    print(f"{record['workload']:18s} operations attempted "
          f"{record['attempted']}, failed {record['failed']}"
          f"{'; DISTURBED' if record['disturbed'] else ''}")
    for note in record["notes"]:
        print(f"{record['workload']:18s} ! {note}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload, all set-ups")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="run the traced pass")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--horizon", type=float, default=speedmap.REP_HORIZON,
                        help=argparse.SUPPRESS)  # test-size replays
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pins = env.pin_map()
    env.pin(pins["loadgen"])
    env.WORK_DIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else metrics.WORKLOAD_NAMES
    records = []
    for name in names:
        record = run_workload(name, args, pins)
        report(record)
        records.append(record)
    if args.workload:
        merged = records[0]["metrics"]
    else:
        merged = {
            f"{record['workload']}.{name}": entry
            for record in records
            for name, entry in record["metrics"].items()
        }
    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
