#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, judged by the claim rule.

    python3 tools/paired_bench.py PARENT_TREE CHANGE_TREE --workload W --pairs N

Each tree is a checkout of this repository (``git clone`` or
``git archive`` of the two commits).  The script runs each tree's own
``bench/run.py --workload W --out DIR`` once per pair, alternately -- the
parent first in even pairs, the change first in odd ones -- so that slow
drift on the machine lands on both sides alike.  The parent's result files
go to ``OUT/parent``, the change's to ``OUT/change``; then the parent
tree's ``bench/compare.py`` reads the two directories (its bounds verdict,
exit status 1 on a regression).

Last, for every end-to-end metric of ``BENCHMARK.json`` it prints the
claim rule's three numbers: in how many pairs the change read better, the
medians of both sides, and the spread between the parent's quartiles.  A
gain on a metric holds when the change wins at least nine pairs in ten and
its median is better than the parent's by more than that spread.  A pair
with a failed operation or an incorrect result is reported and counts as
a loss.  Nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_side(tree: Path, args: argparse.Namespace, out: Path) -> dict:
    """One ``bench/run.py`` run of ``tree``; its final JSON line."""
    command = [
        sys.executable, "bench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def claim_rows(pairs: list[dict], manifest: dict) -> list[dict]:
    """Per end-to-end metric: wins, medians and the parent's spread."""
    rows = []
    for metric in manifest["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        if any(name not in pair[side]["metrics"]
               for pair in pairs for side in SIDES):
            continue
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in SIDES
        }
        wins = 0
        for pair, parent, change in zip(pairs, *values.values()):
            clean = all(
                pair[side]["correct"] and not pair[side]["failed"]
                for side in SIDES
            )
            wins += clean and (change > parent if higher else change < parent)
        medians = {side: statistics.median(v) for side, v in values.items()}
        if len(pairs) >= 2:
            q1, _q2, q3 = statistics.quantiles(values["parent"], n=4)
        else:
            q1 = q3 = medians["parent"]
        gain = medians["change"] - medians["parent"]
        if not higher:
            gain = -gain
        rows.append({
            "metric": name, "wins": wins, "pairs": len(pairs),
            "parent": medians["parent"], "change": medians["change"],
            "spread": q3 - q1, "gain": gain,
            "holds": wins * 10 >= 9 * len(pairs) and gain > q3 - q1,
        })
    return rows


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="bench/run.py --seconds (default: its own)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None,
                        help="result root (default: a new temporary one)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    root = args.out or Path(tempfile.mkdtemp(prefix="paired_bench-"))
    outs = {side: root / side for side in SIDES}
    pairs = []
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {side: run_side(trees[side], args, outs[side])
                for side in order}
        pairs.append(pair)
        print(f"pair {index + 1}/{args.pairs} ({' first, '.join(order)} "
              f"second): " + ", ".join(
                  f"{side} correct={pair[side]['correct']} "
                  f"failed={pair[side]['failed']}" for side in SIDES),
              flush=True)
    print(f"results under {root}", flush=True)
    compared = subprocess.run(
        [sys.executable, "bench/compare.py", str(outs["parent"]),
         str(outs["change"])],
        cwd=trees["parent"],
    )
    manifest = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    print(f"\nclaim rule on {args.workload}: the change wins >= 9 pairs in "
          f"10 and beats the parent's median by more than its quartile "
          f"spread")
    print(f"{'metric':18s} {'wins':>7s} {'parent median':>14s} "
          f"{'change median':>14s} {'gain':>11s} {'parent q3-q1':>13s}  "
          f"verdict")
    for row in claim_rows(pairs, manifest):
        print(f"{row['metric']:18s} {row['wins']:>3d}/{row['pairs']:<3d} "
              f"{row['parent']:14.4f} {row['change']:14.4f} "
              f"{row['gain']:+11.4f} {row['spread']:13.4f}  "
              f"{'holds' if row['holds'] else 'does not hold'}")
    return compared.returncode


if __name__ == "__main__":
    raise SystemExit(main())
