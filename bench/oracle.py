"""Reference oracles: what each workload's output must be.

Plain Python over the generated inputs, sharing no code with the
operators it checks.  Every timed rep is verified (outside its timed
region); a run that drops, duplicates or miscomputes reports failed
operations instead of a flattering number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

WINDOW_WIDTH = 20.0        # s, the speed map's tumbling window
SPEED_LIMIT = 120.0        # the quality filter keeps speed < 120
SEGMENTS = 9
VIEW_INTERVAL = 120.0      # s, the F3 viewer switches segment every 2 min
LATE_S = 1.0               # a served result later than this has failed


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if failed and len(self.notes) < 8:
            self.notes.append(note)

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 8 - len(self.notes)])


# -- speed map -----------------------------------------------------------------


def visible_segment(window: int) -> int:
    """The one segment the F3 viewer looks at during ``window``."""
    interval = int(window * WINDOW_WIDTH // VIEW_INTERVAL)
    return interval % SEGMENTS


def viewed_windows(horizon: float) -> int:
    """Windows covered by a viewer interval (a ragged tail has no feedback)."""
    return int(horizon // VIEW_INTERVAL) * int(VIEW_INTERVAL // WINDOW_WIDTH)


def speedmap_rows(
    detector_rows: Iterable[Sequence[Any]], *, viewer_horizon: float | None = None
) -> dict[tuple[int, int], float]:
    """``{(window, segment): avg_speed}`` by plain group-by.

    ``detector_rows`` are ``(detector_id, segment, timestamp, speed)``
    value tuples.  With ``viewer_horizon`` set, rows the F3 viewer
    disclaimed (a segment other than the visible one, inside a viewer
    interval) are absent: feedback may only remove what the issuer
    disclaims.
    """
    sums: dict[tuple[int, int], list[float]] = {}
    for _detector, segment, timestamp, speed in detector_rows:
        if not speed < SPEED_LIMIT:
            continue
        key = (int(timestamp // WINDOW_WIDTH), segment)
        slot = sums.get(key)
        if slot is None:
            sums[key] = [speed, 1]
        else:
            slot[0] += speed
            slot[1] += 1
    rows = {key: total / count for key, (total, count) in sums.items()}
    if viewer_horizon is not None:
        covered = viewed_windows(viewer_horizon)
        rows = {
            (window, segment): value
            for (window, segment), value in rows.items()
            if window >= covered or segment == visible_segment(window)
        }
    return rows


def check_speedmap(
    expected: dict[tuple[int, int], float], results: Iterable[Sequence[Any]]
) -> Verdict:
    """Sink rows ``(window, segment, avg_speed)`` against the reference."""
    verdict = Verdict()
    seen: Counter = Counter()
    wrong = 0
    for window, segment, value in results:
        key = (window, segment)
        seen[key] += 1
        reference = expected.get(key)
        if reference is None or not math.isclose(
            value, reference, rel_tol=1e-9, abs_tol=1e-9
        ):
            wrong += 1
    missing = sum(1 for key in expected if seen[key] == 0)
    duplicated = sum(count - 1 for count in seen.values() if count > 1)
    verdict.add(
        max(1, len(expected)), missing + wrong + duplicated,
        f"sink rows: {missing} missing, {wrong} wrong or unexpected, "
        f"{duplicated} duplicated of {len(expected)}",
    )
    return verdict


def feedback_counts(tuples: int, horizon: float) -> dict[str, int]:
    """Closed-form guard/relay counts of ``speedmap_feedback``.

    One injection per viewer interval; AVERAGE relays each to the quality
    filter, whose input guard then drops the eight invisible segments'
    tuples for that interval.  Tuples per interval are constant (every
    detector reports once per window).
    """
    intervals = int(horizon // VIEW_INTERVAL)
    windows = int(horizon // WINDOW_WIDTH)
    per_window = tuples // windows
    guarded = intervals * int(VIEW_INTERVAL // WINDOW_WIDTH) * per_window
    dropped = guarded * (SEGMENTS - 1) // SEGMENTS
    return {
        "core.feedback_relayed": intervals,
        "operators.sigma_q.input_guard_drops": dropped,
        "operators.average.tuples_in": tuples - dropped,
    }


def check_counts(expected: dict[str, int], observed: dict[str, int]) -> Verdict:
    verdict = Verdict()
    for name, value in expected.items():
        verdict.add(
            1, int(observed.get(name) != value),
            f"{name}: expected {value}, observed {observed.get(name)}",
        )
    return verdict


def expected_epochs(source_events: int, every: int) -> int:
    """Checkpoint epochs a stream of ``source_events`` must complete."""
    return source_events // every


# -- serving -------------------------------------------------------------------


def check_delivery(
    sent: int, receipts: Sequence[int], latencies_s: Sequence[float]
) -> Verdict:
    """Each of ``sent`` sequence numbers delivered once, within ``LATE_S``.

    ``receipts[seq]`` is how many times ``seq`` came back;
    ``latencies_s`` the delay of each delivery.
    """
    verdict = Verdict()
    counts = bytes(receipts[:sent])
    undelivered = counts.count(0)
    duplicated = sent - undelivered - counts.count(1)
    late = sum(1 for value in latencies_s if value > LATE_S)
    verdict.add(
        max(1, sent), undelivered + duplicated + late,
        f"delivery: {undelivered} undelivered, {duplicated} duplicated, "
        f"{late} later than {LATE_S} s of {sent}",
    )
    return verdict


def check_no_pauses(counters: dict[str, float]) -> Verdict:
    """The saturate run sits below every server bound: nothing may pause."""
    verdict = Verdict()
    for name in ("serving.hub_pauses", "engine.pauses_issued"):
        verdict.add(
            1, int(counters.get(name, 0) != 0),
            f"{name} = {counters.get(name)} (backpressure engaged)",
        )
    return verdict
