#!/usr/bin/env python3
"""The speed map of paper Figure 1: sensors ⟕ aggregated probe vehicles.

Plan (Figure 1(b))::

    SENSOR DATA ──────────────────────────────┐
                                        (outer) JOIN ──> speed map
    VEHICLE DATA -> CLEAN -> AGGREGATE ───────┘
                             (segment, 20 s)

The join includes every fixed-sensor reading and attaches the aggregated
vehicle speed only when the sensor reports congestion (< 45 mph).  That
means vehicle readings from *uncongested* segments are cleaned and
aggregated for nothing -- the paper's motivating waste.

``CongestionAwareJoin`` below implements the Introduction's remedy: when
the first sensor report of a (window, segment) shows free flow, the join
issues assumed feedback for that key to the vehicle branch; the AGGREGATE
purges and guards the window, relays the (window -> timestamp-range)
translation to CLEAN, and CLEAN stops paying the cleaning cost for those
probe readings.

Both branches are authored on the fluent surface and meet at the custom
join via ``flow.merge`` -- the escape hatch for operators the verb set
does not cover.

Run:  python examples/speedmap.py
"""

from __future__ import annotations

from repro import (
    FeedbackPunctuation,
    Flow,
    Pattern,
    SymmetricHashJoin,
)
from repro.api import avg
from repro.workloads import DETECTOR_SCHEMA, PROBE_SCHEMA, TrafficWorkload

CONGESTION_THRESHOLD = 45.0
WINDOW = 20.0


class CongestionAwareJoin(SymmetricHashJoin):
    """Left-outer join that reports uncongested (window, segment) keys.

    The first sensor report decides a key's congestion status; free-flow
    keys trigger assumed feedback to the vehicle branch (the right input)
    and a local guard so late aggregates for those keys are dropped.
    Padding still happens for them -- the speed map *wants* the
    sensor-only row for uncongested segments.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._decided: set[tuple] = set()
        self.uncongested_keys = 0

    def on_page(self, port_index: int, batch: list) -> None:
        if port_index == self.LEFT:
            for tup in batch:
                key = self._key_of(self.LEFT, tup)
                if key not in self._decided:
                    self._decided.add(key)
                    if tup["speed"] is not None and tup["speed"] >= CONGESTION_THRESHOLD:
                        self._suppress_vehicle_data(key)
        super().on_page(port_index, batch)

    def _suppress_vehicle_data(self, key: tuple) -> None:
        self.uncongested_keys += 1
        window_id, segment = key
        pattern = Pattern.from_mapping(
            self.right_schema, {"window": window_id, "segment": segment}
        )
        feedback = FeedbackPunctuation.assumed(
            pattern, issuer=self.name, issued_at=self.now()
        )
        self.produce_feedback(feedback, input_indices=(self.RIGHT,))
        # Drop late aggregates for the key locally as well; padding for
        # these keys remains enabled (the sensor-only row is the answer).
        self.input_port(self.RIGHT).guards.install(
            pattern, origin=feedback, at=self.now()
        )


def build(feedback: bool) -> Flow:
    workload = TrafficWorkload(
        segments=9,
        detectors_per_segment=6,
        report_interval=WINDOW,
        horizon=1200.0,           # 20 minutes
        probes_per_segment=8.0,
        seed=21,
    )
    flow = Flow("speedmap" + ("-fb" if feedback else ""))

    # Left branch: fixed sensors, with a derived window id for the join.
    sensor_windows = (
        flow.source(DETECTOR_SCHEMA, workload.detector_timeline(),
                    name="sensors")
            .punctuate(on="timestamp", every=WINDOW)
            .extend(
                [("window", "int", True)],
                lambda t: (int(t["timestamp"] // WINDOW),),
                name="sensor_windows", tuple_cost=0.0001,
            )
    )

    # Right branch: probe vehicles -> CLEAN -> AGGREGATE(segment, 20 s).
    aggregated = (
        flow.source(PROBE_SCHEMA, workload.probe_timeline(),
                    name="vehicles")
            .punctuate(on="timestamp", every=WINDOW)
            .where(
                lambda t: t["speed"] is not None and 0.0 < t["speed"] < 120.0,
                name="clean", tuple_cost=0.004,
            )
            .window(
                avg("speed"),
                on="timestamp", width=WINDOW, by="segment",
                name="aggregate", value_name="vehicle_speed",
                tuple_cost=0.002,
            )
    )

    join_cls = CongestionAwareJoin if feedback else SymmetricHashJoin
    flow.merge(
        lambda: join_cls(
            "speed_join",
            sensor_windows.schema,
            aggregated.schema,
            on=[("window", "window"), ("segment", "segment")],
            condition=lambda sensor, agg: (
                sensor["speed"] is not None
                and sensor["speed"] < CONGESTION_THRESHOLD
            ),
            how="left_outer",
        ),
        sensor_windows, aggregated,
    ).collect("speed_map")
    return flow


def main() -> None:
    for feedback in (False, True):
        result = build(feedback).run(engine="simulated")
        clean = result.plan.operator("clean")
        aggregate = result.plan.operator("aggregate")
        join = result.plan.operator("speed_join")
        sink = result.plan.operator("speed_map")
        label = "with feedback" if feedback else "no feedback  "
        joined = sum(1 for r in sink.results if r["vehicle_speed"] is not None)
        padded = len(sink.results) - joined
        print(
            f"{label}: work={result.total_work:7.2f}s  "
            f"map rows={len(sink.results)} "
            f"(vehicle-backed={joined}, sensor-only={padded})  "
            f"cleaned={clean.metrics.tuples_in - clean.metrics.input_guard_drops}  "
            f"clean-guard-drops={clean.metrics.input_guard_drops}  "
            f"agg-guard-drops={aggregate.metrics.input_guard_drops}"
        )
        if feedback:
            print(
                f"    uncongested keys reported by the join: "
                f"{join.uncongested_keys}; feedback events: "
                f"{len(result.feedback_log)}"
            )


if __name__ == "__main__":
    main()
