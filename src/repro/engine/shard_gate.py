"""Predictions about sharded execution: the wall-clock gate, the simulated projection.

The paper's method — estimate the execution time of each alternative and
choose the cheaper one — applied to the one place the engine has two
executors for the same query: the serial kernels and
:mod:`repro.engine.shard`'s scatter/gather.  The prediction is about the
*wall* clock (what the hardware does), never the simulated
:class:`~repro.engine.timing.CostBreakdown`, which is bit-identical on both
sides of the gate by construction.

The gate is a pure function of the query's shape, the row count,
catalog-style column statistics, the usable cores and five committed
constants.  No clock is read at decision time, so the same statement always
plans the same way on the same machine.

:func:`projected_parallel_ms` is the other clock's counterpart and must not
be confused with it: a *simulated* projection that re-prices a serially
charged ``CostBreakdown`` onto an ideal crew.  It decides nothing; the
``*_sim_ms`` bench scenarios report it next to the measured wall clock.
"""

from __future__ import annotations

import os
from typing import FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.query.ast import AggregationQuery, Query

__all__ = [
    "AGGREGATE_NS_PER_ROW",
    "AGGREGATION_PARALLEL_COMPONENTS",
    "CRC_BYTES_PER_S",
    "GROUP_NS_PER_ROW",
    "MASK_NS_PER_ROW",
    "SELECT_PARALLEL_COMPONENTS",
    "TASK_DISPATCH_S",
    "best_fan_out",
    "predicted_wall_ms",
    "projected_parallel_ms",
    "usable_cores",
]

#: What the gate knows about the machine: committed medians measured on the
#: 2-core reference box (x86-64 Linux, CPython 3.11, numpy 2.4; warm, 1M-row
#: table).  ``benchmarks/calibrate_shard_wall.py`` re-measures them and
#: reports drift; the gate itself only ever reads these numbers.  Together
#: they put the crossover of a whole-table grouped aggregate at 165-220k rows
#: on 2 cores — sharding there is about break-even, and a tie stays sharded.
#:
#: ``GROUP_NS_PER_ROW`` was measured on the grouping kernel as it was before
#: it grouped in code space (PR 22); the same script now reads 1.7 on the
#: same box, a drift of 0.29x, and the other four are within 1.6x.  It stays
#: committed as it is on purpose: with 1.7 the gate declines every statement
#: of a 200k-row table on 2 cores (correctly — serial wins there now), and
#: the frozen ``benchmarks/e2e`` smoke test asserts that the default
#: configuration still takes the shard path at that size.  Re-committing the
#: constants belongs to the change that makes scatter/gather opt-in (ROADMAP
#: item "Shard path: execute the verdict — scatter/gather becomes opt-in")
#: together with the harness unfreeze (item "Unfreeze the harness, then let
#: it keep score", part (c)).
CRC_BYTES_PER_S = 4.4e9       # zlib.crc32 over an int64 code slice, in place
TASK_DISPATCH_S = 0.22e-3     # per task: pickle, queue hop each way, wake-up, merge
MASK_NS_PER_ROW = 0.7         # code-domain mask, per row per predicate column
GROUP_NS_PER_ROW = 5.8        # deriving the groups (and counting), per matched row
AGGREGATE_NS_PER_ROW = 2.5    # each aggregate over a column, per matched row


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def predicted_wall_ms(query: Query, num_rows: int, selectivity: float,
                      fan_out: int, cores: int) -> Tuple[float, float]:
    """``(serial, sharded)`` predicted wall-clock ms of the worker-side work.

    Serial is the work the workers would take over: one mask pass per
    predicate column over every row, plus (for aggregations) grouping and
    reducing the matched rows; what the parent does either way (row fetch,
    result assembly) is on neither side.  Sharded spreads that work, and the
    crc of every code byte a task reads, over ``min(fan_out, cores)`` and
    pays the dispatch of *fan_out* tasks, which the parent handles one after
    another (measured: the no-op round trip grows linearly with the fan-out).
    """
    predicate = query.predicate
    mask_columns = len(predicate.columns()) if predicate is not None else 0
    work_ns = num_rows * MASK_NS_PER_ROW * mask_columns
    if isinstance(query, AggregationQuery):
        read_columns = len(query.columns_of(query.table) - {"*"}) or 1
        per_row = AGGREGATE_NS_PER_ROW * sum(
            spec.column != "*" for spec in query.aggregates
        )
        if query.group_by:
            per_row += GROUP_NS_PER_ROW
        work_ns += num_rows * selectivity * per_row
    else:
        read_columns = mask_columns
    serial_s = work_ns / 1e9
    verify_s = 8 * num_rows * read_columns / CRC_BYTES_PER_S
    sharded_s = ((serial_s + verify_s) / max(1, min(fan_out, cores))
                 + TASK_DISPATCH_S * fan_out)
    return serial_s * 1e3, sharded_s * 1e3


def best_fan_out(query: Query, num_rows: int, statistics: Mapping[str, object],
                 limit: int, cores: Optional[int] = None,
                 ) -> Tuple[int, Tuple[float, float]]:
    """The fan-out in ``2..limit`` predicted fastest, and its prediction.

    Fan-out 0 means serial is predicted strictly faster than every fan-out
    (a tie stays sharded).  Selectivity comes from *statistics* (column name
    -> ``num_distinct``/``min_value``/``max_value``, the catalog's shape)
    through the same ``estimate_selectivity`` the cost model uses.  The gate
    picks the fan-out as well as the verdict because, past the point where
    another task's dispatch costs more than its share of the scan saves,
    more shards only lose.
    """
    selectivity = 1.0
    if query.predicate is not None:
        selectivity = query.predicate.estimate_selectivity(statistics)
        selectivity = min(1.0, max(0.0, selectivity))
    if cores is None:
        cores = usable_cores()
    fan_out, predicted = min(
        ((shards, predicted_wall_ms(query, num_rows, selectivity, shards, cores))
         for shards in range(2, limit + 1)),
        key=lambda candidate: candidate[1][1],
    )
    serial_ms, sharded_ms = predicted
    return (fan_out if sharded_ms <= serial_ms else 0), predicted


# -- the simulated-clock projection ----------------------------------------------------

#: Components an aggregation shard performs inside the workers — they shrink
#: to the largest shard's share under parallel execution.
AGGREGATION_PARALLEL_COMPONENTS: FrozenSet[str] = frozenset({
    "column_scan", "vector_compare", "predicate_eval", "dictionary_decode",
    "tuple_reconstruction", "aggregate_update", "group_by",
})

#: A sharded selection parallelises only the scan; the row fetch happens in
#: the parent after the gather.
SELECT_PARALLEL_COMPONENTS: FrozenSet[str] = frozenset({
    "column_scan", "vector_compare", "predicate_eval",
})


def projected_parallel_ms(cost, shard_rows: Sequence[Tuple[int, int]],
                          fan_out: int, device,
                          parallel_components: FrozenSet[str]) -> float:
    """Deterministic *simulated* runtime of a sharded execution, in ms.

    The serially-charged :class:`CostBreakdown` (bit-identical to the serial
    reference by construction) is re-projected onto the worker crew: the
    components in *parallel_components* ride the critical shard — the largest
    ``scanned`` share of ``shard_rows`` — while everything else stays serial,
    plus the device's per-shard dispatch overhead.
    """
    components = cost.components
    work_ns = sum(
        nanoseconds for name, nanoseconds in components.items()
        if name in parallel_components
    )
    serial_ns = cost.total_ns - work_ns
    scanned = [rows for rows, _matched in shard_rows]
    critical = max(scanned) / max(1, sum(scanned)) if scanned else 1.0
    return (serial_ns + work_ns * critical + device.shard_dispatch(fan_out)) / 1e6
