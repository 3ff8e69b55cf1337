#!/usr/bin/env python
"""Bench-JSON comparator: re-measure every recorded scenario and gate it.

Re-runs each wall-clock scenario recorded in ``BENCH_pipeline.json`` (the
``recorded`` section) on the current tree and exits non-zero when any of
them regresses more than ``REGRESSION_FACTOR`` (2x) against the committed
numbers.  Sub-millisecond recordings get the same noise floors as the
pytest gates, so a loaded machine does not flake the comparator.

``--fail-under <scenario>=<ratio>`` additionally gates a scenario's *live*
speedup: the scenario and its reference baseline are both re-measured on the
current tree (the pushdown scenarios re-run decode-then-reduce behind the
disable toggles; other scenarios fall back to the committed
``seed_baseline``) and the comparator fails when ``baseline / measured``
drops below *ratio*.  Repeatable.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/compare_bench.py
    PYTHONPATH=src python benchmarks/compare_bench.py \\
        --fail-under grouped_agg_pushdown_100k_ms=20 \\
        --fail-under minmax_zero_scan_100k_ms=20

``benchmarks/run_checks.sh`` runs it as part of the full verification gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from test_perf_pipeline import (  # noqa: E402
    BASELINE_MEASUREMENTS,
    BENCH_FILE,
    MEASUREMENTS,
    MIN_AGG_BUDGET_MS,
    MIN_SCAN_BUDGET_MS,
    REGRESSION_FACTOR,
    SCAN_SCENARIOS,
    SHARD_BENCH_SCENARIOS,
)

#: Per-scenario noise floor, in the scenario's own unit.
_FLOORS = {
    "agg_100k_column_ms": MIN_AGG_BUDGET_MS,
    "agg_100k_row_ms": MIN_AGG_BUDGET_MS,
    "group_by_string_100k_ms": MIN_AGG_BUDGET_MS,
    "group_by_string_100k_rowstore_ms": MIN_AGG_BUDGET_MS,
    "grouped_agg_pushdown_100k_ms": MIN_AGG_BUDGET_MS,
    "minmax_zero_scan_100k_ms": MIN_AGG_BUDGET_MS,
    # 100k per-row inserts recorded in the hundreds of ms; a 50ms floor keeps
    # an absurdly fast machine from tripping the 2x budget on noise alone.
    "delta_insert_100k_ms": 50.0,
    # View serving is a sub-0.1ms plan-cache hit + result copy; the agg
    # floor keeps loaded machines from flaking the 2x budget.
    "matview_grouped_agg_100k_ms": MIN_AGG_BUDGET_MS,
    **{key: MIN_SCAN_BUDGET_MS for key in SCAN_SCENARIOS},
    # The shard projections are deterministic simulated runtimes: no noise,
    # no floor needed.
    **{key: 0.0 for key in SHARD_BENCH_SCENARIOS},
}


def _parse_fail_under(arguments) -> dict:
    gates = {}
    for argument in arguments or ():
        scenario, _, ratio = argument.partition("=")
        if not ratio:
            raise SystemExit(
                f"--fail-under expects <scenario>=<ratio>, got {argument!r}"
            )
        if scenario not in MEASUREMENTS:
            raise SystemExit(f"--fail-under: unknown scenario {scenario!r}")
        gates[scenario] = float(ratio)
    return gates


def _check_speedups(gates: dict, payload: dict, failures: list) -> None:
    for scenario, ratio in sorted(gates.items()):
        measured = MEASUREMENTS[scenario]()
        measure_baseline = BASELINE_MEASUREMENTS.get(scenario)
        if measure_baseline is not None:
            baseline = measure_baseline()
            source = "live baseline"
        else:
            baseline = payload.get("seed_baseline", {}).get(scenario)
            source = "committed seed_baseline"
            if baseline is None:
                print(f"  ?? {scenario}: no baseline available, skipping")
                continue
        speedup = baseline / measured if measured else float("inf")
        verdict = "ok" if speedup >= ratio else "TOO SLOW"
        print(
            f"  {verdict:>9}  {scenario}: speedup {speedup:.1f}x "
            f"(need >= {ratio:g}x; measured {measured:.3f}, "
            f"{source} {baseline:.3f})"
        )
        if speedup < ratio:
            failures.append(f"{scenario} (speedup)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fail-under", action="append", metavar="SCENARIO=RATIO",
        help="fail when a scenario's live speedup over its reference "
             "baseline drops below RATIO (repeatable)",
    )
    options = parser.parse_args(argv)
    gates = _parse_fail_under(options.fail_under)

    payload = json.loads(BENCH_FILE.read_text())
    recorded = payload["recorded"]
    failures = []
    for key, committed in sorted(recorded.items()):
        measure = MEASUREMENTS.get(key)
        if measure is None:
            print(f"  ?? {key}: no measurement registered, skipping")
            continue
        measured = measure()
        budget = max(committed * REGRESSION_FACTOR, _FLOORS.get(key, 0.0))
        verdict = "ok" if measured <= budget else "REGRESSED"
        print(
            f"  {verdict:>9}  {key}: measured {measured:.3f}, "
            f"committed {committed:.3f}, budget {budget:.3f}"
        )
        if measured > budget:
            failures.append(key)
    _check_speedups(gates, payload, failures)
    if failures:
        print(f"bench comparator: {len(failures)} gate(s) failed: "
              f"{', '.join(failures)}")
        return 1
    checked = len(recorded) + len(gates)
    print(f"bench comparator: all {checked} gate(s) passed "
          f"(regression budget {REGRESSION_FACTOR}x).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
