"""The benchmark's vocabulary: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root lists exactly these names
(``bench/tests/test_harness.py`` holds the two in step); later issues
cite them verbatim.  Every workload reports every end-to-end metric and,
in the traced pass, every per-layer metric: a layer a workload does not
touch reads 0 there, which is the measurement, not a placeholder.
"""

from __future__ import annotations

import re

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: (name, why) -- one line each; the README has the long form.
WORKLOADS = [
    ("speedmap_replay",
     "full-speed replay of the paper's Fig. 4(b) speed-map plan on the "
     "threaded engine: the wall-clock floor of the page path (operators, "
     "queues, engine.threaded); no guards, sockets or snapshots"),
    ("speedmap_feedback",
     "same plan on the simulated engine under Experiment 2's F3 viewer: "
     "guards, pattern matching, control drain and relay carry the load and "
     "8/9 of tuples drop at the quality filter's input guard"),
    ("speedmap_durable",
     "speedmap_replay plus checkpoint_every=5000 into a directory store: "
     "marker alignment, snapshot pickling and store writes beside "
     "processing; the gap to speedmap_replay is the checkpoint overhead"),
    ("serve_ws_saturate",
     "closed loop of 256 one-tuple websocket frames in flight through "
     "ingest-where-push behind StreamServer: capacity of socket in, "
     "operators, socket out; backpressure must not engage"),
    ("serve_http_burst",
     "open loop of one 200-tuple keep-alive POST every 80 ms read back over "
     "SSE at about a third of capacity: bursty sources, HTTP parse, batch "
     "JSON decode and SSE framing; latency is CPU work per burst"),
]

#: (name, unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.20),
    ("cpu_us_per_tuple", "us", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

_LADDER_NS = [
    # page path: should move throughput_per_s on speedmap_replay/_durable
    "stream.tuple_build_ns",
    "stream.queue_put_get_ns",
    "operators.select_page_ns",
    "operators.window_page_ns",
    "operators.sink_collect_ns",
    # per-element twin of the page path (ROADMAP item B's yardstick)
    "operators.select_tuple_ns",
    "operators.window_tuple_ns",
    # feedback mechanism: should move speedmap_feedback only
    "punctuation.pattern_match_ns",
    "core.guard_blocks_ns",
    "core.guard_filter_batch_ns",
    "operators.select_guarded_page_ns",
    # serving: should move serve_* only
    "serving.ws_read_ns",
    "serving.ws_encode_ns",
    "serving.json_to_tuple_ns",
    "serving.tuple_to_json_ns",
    "serving.admission_reserve_ns",
    "serving.sse_event_ns",
    "stream.channel_put_get_ns",
    "stream.hub_publish_ns",
    # diagnostics
    "stream.colpage_encode_ns",
    "stream.colpage_decode_ns",
    "workloads.traffic_gen_ns",
]
_LADDER_US = [
    "engine.threaded_us_per_tuple",
    "engine.simulated_us_per_tuple",
    "engine.simulated_metered_us_per_tuple",
    "engine.asyncio_us_per_tuple",
    "core.guard_expire_us",
    "serving.http_parse_us",
]
_LADDER_MS = ["optimizer.optimize_ms", "api.flow_build_ms"]

#: Counts that must repeat exactly between runs of one workload and seed.
EXACT_COUNTS = [
    "core.feedback_relayed",
    "operators.sigma_q.input_guard_drops",
    "operators.average.tuples_in",
    "durability.epochs",
]
_COUNTS = EXACT_COUNTS + [
    "serving.hub_pauses",
    "serving.channel_peak_backlog",
    "stream.peak_queue_occupancy",
    "engine.pauses_issued",
]
_DURABILITY = [
    ("durability.snapshot_ms_per_epoch", "ms"),
    ("durability.store_bytes_per_epoch", "bytes"),
    ("durability.store_bytes_last_epoch", "bytes"),
]
#: Self times of the traced rep, ms.
OPERATOR_SPANS = ["punctuate", "sigma_q", "average", "sink"]
SERVING_SPANS = [
    "ws_read", "read_request", "tuples_from_body", "ingest",
    "tuple_to_json", "ws_encode", "sse_event",
]
_TRACED_MS = (
    [f"operators.{name}.self_ms" for name in OPERATOR_SPANS]
    + [f"serving.span.{name}_ms" for name in SERVING_SPANS]
    + ["engine.residual_ms", "trace.wall_ms"]
)
_DIAGNOSTIC_MS = [
    "loadgen.latency_p99_ms",
    "loadgen.lateness_p99_ms",
    "env.spin_ms_before",
    "env.spin_ms_after",
]

#: (name, unit, better).  No bounds: these explain, they do not gate.
PER_LAYER = (
    [(name, "ns", "lower") for name in _LADDER_NS]
    + [(name, "us", "lower") for name in _LADDER_US]
    + [(name, "ms", "lower") for name in _LADDER_MS]
    + [(name, "count", "lower") for name in _COUNTS]
    + [(name, unit, "lower") for name, unit in _DURABILITY]
    + [(name, "ms", "lower") for name in _TRACED_MS]
    + [(name, "ms", "lower") for name in _DIAGNOSTIC_MS]
    + [
        ("serving.server_cpu_us_per_tuple", "us", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounted_share", "ratio", "higher"),
    ]
)

#: Emitted to the result file only: not a number on every machine.
UNGATED_DIAGNOSTICS = ["engine.multiprocess_us_per_tuple"]

WORKLOAD_NAMES = [name for name, _why in WORKLOADS]
END_TO_END_NAMES = [name for name, *_rest in END_TO_END]
PER_LAYER_NAMES = [name for name, *_rest in PER_LAYER]
UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}
BETTER = {
    name: better
    for name, _unit, better, *_rest in END_TO_END + PER_LAYER
}
BOUNDS = {name: bound for name, _unit, _better, bound in END_TO_END}


def manifest(command: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` this vocabulary corresponds to."""
    return {
        "command": command,
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
