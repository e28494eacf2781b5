"""The three in-process workloads: the paper's Fig. 4(b) speed-map plan.

``source -> punctuate(60 s) -> sigma_q (speed < 120) -> window avg(speed)
by segment, 20 s -> collect``, unmetered, ``page_size=64``, replayed as
fast as it goes.  One *rep* is one job: build a fresh flow over the
materialised timeline, run it to completion, hold the complete result.

This module is also the child-process entry point: ``run.py`` starts it
pinned to the SUT's CPU, once per set-up, and reads one JSON line back.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # child entry: import `bench` as a package
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import env, oracle, spans

env.require_program()

from repro.api import Flow, avg  # noqa: E402
from repro.core.feedback import FeedbackPunctuation  # noqa: E402
from repro.durability import DirectoryCheckpointStore  # noqa: E402
from repro.engine.registry import create_engine  # noqa: E402
from repro.punctuation.atoms import InSet, Interval  # noqa: E402
from repro.punctuation.patterns import Pattern  # noqa: E402
from repro.workloads.traffic import (  # noqa: E402
    DETECTOR_SCHEMA,
    TrafficWorkload,
)

PAGE_SIZE = 64
QUEUE_CAPACITY = 1024
PUNCTUATE_EVERY = 60.0
CHECKPOINT_EVERY = 5000
#: Stream seconds replayed per rep.  One hour (64,800 tuples, ~0.4 s) and
#: not the six the issue sized: disturbance on a shared box comes in
#: 1-2 s bursts, and only reps shorter than a burst can dodge one.
REP_HORIZON = 3600.0
WARMUP_SHARE = 6           # the untimed warm-up rep is 1/6 of a rep

ENGINES = {
    "speedmap_replay": "threaded",
    "speedmap_feedback": "simulated",
    "speedmap_durable": "threaded",
}
OPERATORS = ("punctuate", "sigma_q", "average", "sink")


def timeline(horizon: float, seed: int) -> list:
    return TrafficWorkload(horizon=horizon, seed=seed).detector_timeline()


def _stop_relay(operator) -> None:
    # Experiment 2's relay ends at the feedback-unaware PARSE stage; this
    # plan has none, so the quality filter is where it stops -- otherwise
    # the source would suppress the tuples and sigma_q's input guard, the
    # thing this workload measures, would never see them.
    operator.relay_enabled = False


def build_flow(rows: list, *, feedback: bool = False) -> tuple:
    """The speed-map flow and the schema of AVERAGE's output."""
    flow = Flow("speedmap", page_size=PAGE_SIZE)
    average = (
        flow.source(DETECTOR_SCHEMA, rows, name="punctuate")
        .punctuate(on="timestamp", every=PUNCTUATE_EVERY)
        .where(
            lambda tup: tup["speed"] < oracle.SPEED_LIMIT, name="sigma_q",
            configure=_stop_relay if feedback else None,
        )
        .window(
            avg("speed"), on="timestamp", width=oracle.WINDOW_WIDTH,
            by="segment", name="average",
            **({"exploit_level": 2} if feedback else {}),
        )
    )
    average.collect("sink")
    return flow, average.schema


def viewer_schedule(schema, horizon: float) -> list:
    """Experiment 2's F3 viewer: one assumed feedback per 2 stream-minutes.

    ``¬[window in [lo, hi], segment in {8 invisible}]`` injected at the
    sink when each viewing interval opens; bounding it by the window
    range keeps it supportable (punctuation expires every guard).
    """
    per_interval = int(oracle.VIEW_INTERVAL // oracle.WINDOW_WIDTH)
    schedule = []
    for index in range(int(horizon // oracle.VIEW_INTERVAL)):
        start = index * oracle.VIEW_INTERVAL
        first = index * per_interval
        visible = oracle.visible_segment(first)
        pattern = Pattern.from_mapping(schema, {
            "window": Interval(first, first + per_interval - 1),
            "segment": InSet(frozenset(
                s for s in range(oracle.SEGMENTS) if s != visible
            )),
        })
        schedule.append((
            start, "sink",
            FeedbackPunctuation.assumed(
                pattern, issuer="sink", issued_at=start
            ),
        ))
    return schedule


class Job:
    """One workload bound to its inputs; :meth:`rep` runs it once."""

    def __init__(self, workload: str, rows: list, horizon: float) -> None:
        self.workload = workload
        self.engine = ENGINES[workload]
        self.rows = rows
        self.horizon = horizon
        self.tuples = len(rows)
        self._expected: dict | None = None
        self._reps = 0

    # -- running -----------------------------------------------------------------

    def _engine_options(self, store_dir: Path | None) -> dict:
        if store_dir is None:
            return {}
        return {
            "checkpoint_every": CHECKPOINT_EVERY,
            "checkpoint_store": DirectoryCheckpointStore(store_dir),
        }

    def rep(self, rows: list | None = None, *, prepare=None) -> dict:
        """Build, run and verify one job; timings cover build + run only.

        ``prepare(plan)`` lets the traced pass wrap the built operators
        before the engine starts.
        """
        rows = self.rows if rows is None else rows
        horizon = self.horizon * len(rows) / self.tuples
        self._reps += 1
        store_dir = None
        if self.workload == "speedmap_durable":
            store_dir = env.WORK_DIR / f"ckpt-{os.getpid()}-{self._reps}"
            store_dir.mkdir(parents=True, exist_ok=True)
        try:
            job_started = time.perf_counter()
            flow, out_schema = build_flow(
                rows, feedback=self.workload == "speedmap_feedback"
            )
            # Only the virtual-time run is unbounded: the simulator paces
            # itself, the threaded replay needs backpressure.
            plan = flow.build(queue_capacity=(
                None if self.engine == "simulated" else QUEUE_CAPACITY
            ))
            runner = create_engine(
                self.engine, plan, **self._engine_options(store_dir)
            )
            if self.workload == "speedmap_feedback":
                for when, target, punct in viewer_schedule(
                    out_schema, horizon
                ):
                    sink = plan.operator(target)
                    runner.at(
                        when, lambda s=sink, p=punct: s.inject_feedback(p)
                    )
            if prepare is not None:
                prepare(plan)
            cpu_started = time.process_time()
            run_started = time.perf_counter()
            result = runner.run()
            done = time.perf_counter()
            cpu = time.process_time() - cpu_started
            outcome = {
                "tuples": len(rows),
                "run_s": done - run_started,
                "job_s": done - job_started,
                "cpu_s": cpu,
            }
            outcome.update(self._observe(result, store_dir))
            verdict = self._verify(result, outcome, rows, horizon)
        finally:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        outcome["attempted"] = verdict.attempted
        outcome["failed"] = verdict.failed
        outcome["notes"] = verdict.notes
        return outcome

    # -- observing ---------------------------------------------------------------

    def _observe(self, result, store_dir: Path | None) -> dict:
        """Counters a rep leaves behind, under their per-layer names."""
        metrics = result.metrics
        ops = {name: result.plan.operator(name).metrics for name in OPERATORS}
        counts = {
            "core.feedback_relayed": sum(
                m.feedback_relayed for m in ops.values()
            ),
            "operators.sigma_q.input_guard_drops":
                ops["sigma_q"].input_guard_drops,
            "operators.average.tuples_in": ops["average"].tuples_in,
            "durability.epochs": metrics.checkpoint_epochs,
            "stream.peak_queue_occupancy": metrics.peak_queue_occupancy(),
            "engine.pauses_issued": sum(
                m.pauses_issued for m in ops.values()
            ),
        }
        observed: dict = {"counts": counts}
        if store_dir is not None:
            epochs = max(1, metrics.checkpoint_epochs)
            per_epoch = [
                sum(f.stat().st_size for f in epoch_dir.iterdir())
                for epoch_dir in sorted(store_dir.glob("epoch-*"))
            ]
            written = sum(
                f.stat().st_size for f in store_dir.rglob("*") if f.is_file()
            )
            observed["durability"] = {
                "durability.snapshot_ms_per_epoch":
                    metrics.checkpoint_time * 1e3 / epochs,
                "durability.store_bytes_per_epoch": written / epochs,
                "durability.store_bytes_last_epoch":
                    per_epoch[-1] if per_epoch else 0,
            }
        return observed

    def _verify(self, result, outcome: dict, rows: list, horizon: float):
        whole = rows is self.rows
        if whole and self._expected is not None:
            expected = self._expected
        else:
            expected = oracle.speedmap_rows(
                (tup.values for _arrival, tup in rows),
                viewer_horizon=(
                    horizon if self.workload == "speedmap_feedback" else None
                ),
            )
            if whole:
                self._expected = expected
        verdict = oracle.check_speedmap(
            expected, (tup.values for tup in result.sink("sink").results)
        )
        counts = outcome["counts"]
        if self.workload == "speedmap_feedback":
            verdict.merge(oracle.check_counts(
                oracle.feedback_counts(len(rows), horizon), counts
            ))
        if self.workload == "speedmap_durable":
            punctuations = int(horizon // PUNCTUATE_EVERY) + 1
            verdict.merge(oracle.check_counts(
                {"durability.epochs": oracle.expected_epochs(
                    len(rows) + punctuations, CHECKPOINT_EVERY
                )},
                counts,
            ))
        return verdict


def set_up(workload: str, seed: int, horizon: float) -> Job:
    """Materialise inputs and warm the code paths: everything ``setup_s`` covers."""
    rows = timeline(horizon, seed)
    job = Job(workload, rows, horizon)
    # The input timeline is the generator's data, not the program's:
    # freeze it so the collector's full passes walk the program's heap.
    gc.collect()
    gc.freeze()
    job.rep(rows[: max(PAGE_SIZE, len(rows) // WARMUP_SHARE)])
    return job


def measure(job: Job, seconds: float, min_reps: int = 2) -> list[dict]:
    """Timed reps on fresh flows until ``seconds`` have been measured."""
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(job.rep())
    return reps


SOURCE_SAMPLING = 16       # the source works per element: time 1 in 16
TRACE_REPS = 3


def trace_plan(recorder: spans.Recorder, plan) -> None:
    """Wrap each operator instance's entry points with span recorders.

    Operators take whole pages through ``process_page``; the source has no
    input and works per element, so its event iterator and its emit calls
    are wrapped (sampled) instead.  What the engine does between these
    calls -- queues, scheduling, control drain -- is the residual.
    """
    for name in ("sigma_q", "average", "sink"):
        operator = plan.operator(name)
        operator.process_page = recorder.wrap(operator.process_page, name)
    source = plan.operator("punctuate")
    events = source.events
    source.events = lambda: recorder.wrap_iter_sampled(
        events(), "punctuate", SOURCE_SAMPLING
    )
    source.emit = recorder.wrap_sampled(
        source.emit, "punctuate", SOURCE_SAMPLING
    )
    source.emit_punctuation = recorder.wrap(
        source.emit_punctuation, "punctuate"
    )


def traced_pass(job: Job, run_id: str, spans_path: str | None) -> dict:
    """Per-layer numbers of one traced rep, against untraced reps.

    The fastest of ``TRACE_REPS`` reps stands for each side, so a
    disturbed rep does not pass for tracing overhead.
    """
    clock = (
        time.thread_time_ns if job.engine == "threaded"
        else time.perf_counter_ns
    )
    untraced = min(
        (job.rep() for _ in range(TRACE_REPS)), key=lambda r: r["run_s"]
    )
    traced, recorder = None, None
    for _ in range(TRACE_REPS):
        candidate = spans.Recorder(run_id, clock)
        rep = job.rep(prepare=lambda plan: trace_plan(candidate, plan))
        if traced is None or rep["run_s"] < traced["run_s"]:
            traced, recorder = rep, candidate
    if spans_path:
        recorder.dump(Path(spans_path))
    self_ms = recorder.self_ms()
    wall_ms = traced["run_s"] * 1e3
    cpu_ms = traced["cpu_s"] * 1e3
    layers = {
        f"operators.{name}.self_ms": self_ms.get(name, 0.0)
        for name in OPERATORS
    }
    layers["engine.residual_ms"] = cpu_ms - sum(layers.values())
    layers["trace.wall_ms"] = wall_ms
    # Self times and residual add up to the process's CPU time; what is
    # left of the wall clock is time the pinned process was off the CPU.
    layers["trace.accounted_share"] = cpu_ms / wall_ms
    layers["trace.overhead_ratio"] = traced["run_s"] / untraced["run_s"]
    layers.update(traced["counts"])
    layers.update(traced.get("durability", {}))
    return {
        "layers": layers,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "notes": untraced["notes"] + traced["notes"],
    }


def child_main(config: dict) -> dict:
    env.pin(config["cpu"])
    job = set_up(config["workload"], config["seed"], config["horizon"])
    ready = time.monotonic()
    if config.get("trace"):
        return traced_pass(job, config["run_id"], config.get("spans_path"))
    reps = measure(job, config["seconds"])
    return {
        "setup_s": ready - config["spawned_monotonic"],
        "reps": reps,
        "peak_rss_mb": env.vm_hwm_mb(),
        "pinned_to": sorted(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    print(json.dumps(child_main(json.loads(sys.argv[1]))))
