#!/usr/bin/env python
"""Re-measure the constants of the shard wall-clock gate on this machine.

``repro.engine.shard_gate.predicted_wall_ms`` decides serial vs scatter/gather
from five committed constants.  This script measures each of them the way
the committed value was obtained and prints both side by side with the
machine fingerprint, so a reader can tell whether the gate's picture of the
hardware still holds here.  Informational: a drift beyond ``DRIFT_FACTOR``
is flagged, nothing ever fails (the exit code is always 0) and nothing is
written back — the gate must stay a pure function of committed numbers.

How each constant is measured (warm, median of ``--repeats`` runs, serial
statements under ``shard_execution_disabled()``, over an ``--rows``-row
column table shaped like the benchmark's ``sales``):

* ``CRC_BYTES_PER_S``      — ``codes_checksum`` over one column's code array;
* ``TASK_DISPATCH_S``      — a grouped aggregate over a 64-row table, sharded
  at fan-out 2 minus serial, per task: the pickles, queue hops, wake-up,
  gather, merge and charge replay with no work to hide them;
* ``MASK_NS_PER_ROW``      — ``SELECT id ... WHERE day = d`` (one code-mask
  pass, a few hundred rows fetched), less the fixed cost of a statement;
* ``GROUP_NS_PER_ROW``     — ``SELECT COUNT(*) ... GROUP BY region``;
* ``AGGREGATE_NS_PER_ROW`` — what ``SUM(qty)`` adds to that statement.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/calibrate_shard_wall.py [--rows N]
"""

from __future__ import annotations

import argparse
import platform
import time
from statistics import median

import numpy as np

from repro.api import connect
from repro.engine import shard, shard_gate
from repro.engine.integrity import codes_checksum
from repro.engine.schema import TableSchema
from repro.engine.types import DataType, Store

#: Flag a constant whose re-measurement is off by more than this factor.
DRIFT_FACTOR = 2.0

SCHEMA = TableSchema.build(
    "sales",
    [("id", DataType.INTEGER), ("region", DataType.VARCHAR),
     ("day", DataType.INTEGER), ("qty", DataType.INTEGER)],
    primary_key=["id"],
)


def build_session(num_rows: int):
    rng = np.random.default_rng(1)
    regions = rng.integers(0, 16, num_rows).tolist()
    days = rng.integers(0, 3_650, num_rows).tolist()
    quantities = rng.integers(1, 100, num_rows).tolist()
    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("sales", [
        {"id": key, "region": f"region_{region:02d}", "day": day, "qty": qty}
        for key, (region, day, qty) in enumerate(zip(regions, days, quantities))
    ])
    return session


def median_s(call, repeats: int) -> float:
    call()  # warm: caches fill, first-touch verification runs
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples)


def measure(num_rows: int, repeats: int) -> dict:
    tiny, big = build_session(64), build_session(num_rows)
    grouped = "SELECT COUNT(*) FROM sales GROUP BY region"
    try:
        with shard.shard_execution_disabled():
            statement_s = median_s(lambda: tiny.sql(grouped), repeats)
            group_s = median_s(lambda: big.sql(grouped), repeats)
            summed_s = median_s(
                lambda: big.sql("SELECT SUM(qty) FROM sales GROUP BY region"),
                repeats,
            )
            mask_s = median_s(
                lambda: big.sql("SELECT id FROM sales WHERE day = 1825"),
                repeats,
            )
        with shard.shard_config(fan_out=2, min_rows=1):
            sharded_s = median_s(lambda: tiny.sql(grouped), repeats)
        codes = big.database.table_object("sales").backend \
            .compressed_column("day").codes
        crc_s = median_s(lambda: codes_checksum(codes), repeats)
    finally:
        tiny.close()
        big.close()
    return {
        "CRC_BYTES_PER_S": codes.nbytes / crc_s,
        "TASK_DISPATCH_S": (sharded_s - statement_s) / 2,
        "MASK_NS_PER_ROW": (mask_s - statement_s) * 1e9 / num_rows,
        "GROUP_NS_PER_ROW": (group_s - statement_s) * 1e9 / num_rows,
        "AGGREGATE_NS_PER_ROW": (summed_s - group_s) * 1e9 / num_rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=15)
    options = parser.parse_args()
    print(f"machine: {shard_gate.usable_cores()} usable core(s), "
          f"{platform.machine()} {platform.system()}, "
          f"python {platform.python_version()}, numpy {np.__version__}; "
          f"{options.rows} rows, median of {options.repeats}")
    print(f"{'constant':<22}{'committed':>12}{'measured':>12}{'ratio':>8}")
    drifted = []
    for name, measured in measure(options.rows, options.repeats).items():
        committed = getattr(shard_gate, name)
        ratio = measured / committed
        print(f"{name:<22}{committed:>12.4g}{measured:>12.4g}{ratio:>8.2f}")
        if not 1 / DRIFT_FACTOR <= ratio <= DRIFT_FACTOR:
            drifted.append(name)
    if drifted:
        print(f"WARNING: {', '.join(drifted)} drifted more than "
              f"{DRIFT_FACTOR:g}x from the committed value; the gate in "
              "repro/engine/shard_gate.py may mis-rank serial vs sharded here")
    else:
        print(f"all constants within {DRIFT_FACTOR:g}x of the committed values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
