"""Workload generators (system S7 in ``docs/architecture.md``).

Deterministic synthetic stand-ins for the paper's data sources: the
Portland traffic feed (detectors + probe vehicles), the alternating
clean/dirty imputation stream, a financial tick stream, and disorder/burst
injectors.
"""

from repro.workloads.auction import AuctionWorkload, BID_SCHEMA
from repro.workloads.disorder import (
    inject_bursts,
    inject_disorder,
    merge_timelines,
)
from repro.workloads.finance import FinanceWorkload, TICK_SCHEMA
from repro.workloads.imputation import ImputationWorkload, SENSOR_SCHEMA
from repro.workloads.traffic import (
    DETECTOR_SCHEMA,
    PROBE_SCHEMA,
    TrafficModel,
    TrafficWorkload,
)

__all__ = [
    "AuctionWorkload",
    "BID_SCHEMA",
    "DETECTOR_SCHEMA",
    "FinanceWorkload",
    "ImputationWorkload",
    "PROBE_SCHEMA",
    "SENSOR_SCHEMA",
    "TICK_SCHEMA",
    "TrafficModel",
    "TrafficWorkload",
    "inject_bursts",
    "inject_disorder",
    "merge_timelines",
]
