"""Compare two sets of benchmark runs against the benchmark's own bounds.

    python benchmarks/e2e/compare.py A.json B.json

Each file is a result document written by ``run.py --out`` (use ``--repeat``
to put several runs of a workload into one file).  A is the base: every ratio
printed is B's median over A's.  One row per (metric, workload):

``ok``          B's median is no worse than A's by more than the bound, or
                every run of B reads better than every run of A;
``worse``       it is worse by more than the bound;
``unresolved``  the run-to-run spread (distance between the quartiles, as a
                share of the median) is wider than the bound, so the runs
                cannot tell.

Runs of the same workload, seed, scale and length must also agree exactly on
the result digest and may not read a higher ``sim_runtime_s``: the simulated
clock has no noise to hide behind.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from e2ebench import spec

OK, WORSE, UNRESOLVED = "ok", "worse", "unresolved"


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        document = json.load(handle)
    return document["runs"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def spread(values: Sequence[float]) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / abs(mid) if mid else 0.0


def judge(metric: spec.Metric, base: Sequence[float],
          change: Sequence[float]) -> Tuple[str, float, float, float]:
    """(status, base median, change median, share by which the change is worse)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    lower = metric.better == "lower"
    worse_by = (change_median - base_median) if lower \
        else (base_median - change_median)
    if base_median:
        worse_by /= abs(base_median)
    all_better = max(change) < min(base) if lower else min(change) > max(base)
    if all_better or worse_by <= 0:
        status = OK
    elif max(spread(base), spread(change)) > metric.bound:
        status = UNRESOLVED
    elif worse_by > metric.bound:
        status = WORSE
    else:
        status = OK
    return status, base_median, change_median, worse_by


def exactness(base_runs: List[Dict[str, Any]],
              change_runs: List[Dict[str, Any]]) -> List[Tuple[str, str, str]]:
    """(workload, status, detail) rows for the digest and the simulated clock."""
    seen: Dict[tuple, Dict[str, Any]] = {}
    verdict: Dict[str, Tuple[str, str]] = {}
    for side, runs in (("A", base_runs), ("B", change_runs)):
        for run in runs:
            key = (run["workload"], run["seed"], run["scale"], run["seconds"])
            sim = run["end_to_end"]["sim_runtime_s"]["value"]
            first = seen.setdefault(key, {"digest": run["digest"], "sim": sim,
                                          "side": side})
            verdict.setdefault(run["workload"], (OK, "digest and sim_runtime_s repeat"))
            if run["digest"] != first["digest"]:
                verdict[run["workload"]] = (
                    WORSE, f"digest differs for seed {run['seed']} "
                           f"({first['side']} {first['digest']} vs "
                           f"{side} {run['digest']})")
            elif sim > first["sim"] or (side == first["side"] and sim != first["sim"]):
                verdict[run["workload"]] = (
                    WORSE, f"sim_runtime_s {first['sim']!r} -> {sim!r} "
                           f"for seed {run['seed']}")
    return [(workload, status, detail)
            for workload, (status, detail) in verdict.items()]


def compare(base_runs: List[Dict[str, Any]],
            change_runs: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """The report lines and whether anything is worse."""
    values: Dict[str, Dict[tuple, List[float]]] = {"A": defaultdict(list),
                                                   "B": defaultdict(list)}
    for side, runs in (("A", base_runs), ("B", change_runs)):
        for run in runs:
            for name, entry in run["end_to_end"].items():
                values[side][(name, run["workload"])].append(entry["value"])
    lines = [f"{'metric':<14} {'workload':<17} {'A median':>12} {'B median':>12} "
             f"{'B/A':>8} {'worse by':>9} {'bound':>6} {'spread A/B':>13}  status"]
    any_worse = False
    for metric in spec.END_TO_END:
        for workload in metric.workloads:
            base = values["A"].get((metric.name, workload))
            change = values["B"].get((metric.name, workload))
            if not base or not change:
                continue
            status, base_median, change_median, worse_by = judge(
                metric, base, change
            )
            any_worse |= status == WORSE
            ratio = (f"{change_median / base_median:8.4f}" if base_median
                     else f"{'n/a':>8}")
            lines.append(
                f"{metric.name:<14} {workload:<17} {base_median:>12.6g} "
                f"{change_median:>12.6g} {ratio} {worse_by:>+9.2%} "
                f"{metric.bound:>6.0%} {spread(base):>6.1%}/{spread(change):<6.1%} "
                f" {status}  (base A, n={len(base)}/{len(change)})"
            )
    for workload, status, detail in exactness(base_runs, change_runs):
        any_worse |= status == WORSE
        lines.append(f"{'exact':<14} {workload:<17} {detail}  {status}")
    return lines, any_worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, any_worse = compare(load_runs(argv[0]), load_runs(argv[1]))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
