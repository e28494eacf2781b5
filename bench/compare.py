#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``python3 bench/compare.py A B``.

``A`` (the parent) and ``B`` (the change) are directories of result files
written by ``bench/run.py --out``.  For every workload and end-to-end
metric this prints each side's median and quartiles, the relative
difference of the medians in the *worse* direction against the metric's
bound from ``BENCHMARK.json``, and each side's share of failed
operations.  A pairing is ``unresolved`` when either side's quartile
spread exceeds the bound: the runs cannot tell a regression from noise
there, so it is reported as neither.  Exit status 1 when any pairing
regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

if __name__ == "__main__":  # import `bench` as a package
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import metrics


def load(directory: Path) -> dict:
    """``{workload: {"values": {metric: [...]}, "attempted", "failed"}}``."""
    sets: dict = defaultdict(
        lambda: {"values": defaultdict(list), "attempted": 0, "failed": 0}
    )
    for path in sorted(directory.glob("*.timed.json")):
        record = json.loads(path.read_text())
        entry = sets[record["workload"]]
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        for name, value in record["metrics"].items():
            entry["values"][name].append(value["value"])
    return sets


def summary(values: list[float]) -> dict:
    """Median, quartiles and the quartile spread as a share of the median."""
    middle = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = middle
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else 0.0}


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent."""
    if better == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def compare(a: dict, b: dict, bounds: dict[str, float]) -> list[dict]:
    rows = []
    for workload in metrics.WORKLOAD_NAMES:
        if workload not in a or workload not in b:
            continue
        for name in metrics.END_TO_END_NAMES:
            left = summary(a[workload]["values"][name])
            right = summary(b[workload]["values"][name])
            worse = worsening(
                left["median"], right["median"], metrics.BETTER[name])
            bound = bounds[name]
            if max(left["spread"], right["spread"]) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "a": left, "b": right,
                "runs": (len(a[workload]["values"][name]),
                         len(b[workload]["values"][name])),
                "worse": worse, "bound": bound, "verdict": verdict,
            })
    return rows


def failed_share(entry: dict) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[0] + "\n")
        return 2
    a, b = load(Path(argv[0])), load(Path(argv[1]))
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    rows = compare(a, b, bounds)
    if not rows:
        sys.stderr.write("no workload has results on both sides\n")
        return 2
    print(f"{'workload':18s} {'metric':17s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'spread A/B':>13s} "
          f"{'worse':>7s} {'bound':>6s}  verdict")
    for row in rows:
        cells = [
            f"{s['median']:11.4f} [{s['q1']:9.4f},{s['q3']:10.4f}]"
            for s in (row["a"], row["b"])
        ]
        print(f"{row['workload']:18s} {row['metric']:17s} {cells[0]:>34s} "
              f"{cells[1]:>34s} "
              f"{row['a']['spread']:6.1%}/{row['b']['spread']:6.1%} "
              f"{row['worse']:+7.1%} {row['bound']:6.0%}  {row['verdict']}"
              f"  (n={row['runs'][0]}/{row['runs'][1]})")
    for workload in metrics.WORKLOAD_NAMES:
        if workload in a and workload in b:
            print(f"{workload:18s} failed operations: "
                  f"A {failed_share(a[workload]):.4%} of "
                  f"{a[workload]['attempted']}, "
                  f"B {failed_share(b[workload]):.4%} of "
                  f"{b[workload]['attempted']}")
    regressed = sum(row["verdict"] == "REGRESSED" for row in rows)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"{regressed} regressed, {unresolved} unresolved, "
          f"{len(rows) - regressed - unresolved} ok")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
