"""Perf smoke test for the vectorized columnar batch pipeline.

``BENCH_pipeline.json`` (committed next to this file) records the wall-clock
of the read-pipeline microbenchmarks on the machine that produced it:

* ``seed_baseline`` — the pipeline *before* the optimisation that the
  scenario pins: the scalar row-at-a-time pipeline for the ``agg_100k`` and
  ``fig10`` scenarios (PR 1), the decode-up-front batch pipeline for the
  ``group_by_string_100k`` scenario (late materialization), the
  decode-and-compare scan path (code domain + zone pruning disabled) for the
  ``selective_scan_100k`` scenarios, and the per-row ``random.Random`` loop
  for ``tpch_datagen``,
* ``recorded`` — the current pipeline at the time the optimisation landed,
* ``speedup`` — the ratio of the two.

The tests here re-measure the hot benchmarks and fail when they regress more
than :data:`REGRESSION_FACTOR` against the recorded baseline, so a future
change that silently de-vectorizes a hot path shows up in CI.  The
``shard_*_1m_sim_ms`` scenarios are *simulated projections*, not wall-clock
(the wall-clock side of the shard path is ``benchmarks/e2e``'s
``olap_shard_1m``): a real scatter/gather over the 1M-row table — forced
with ``shard_config(fan_out=4, min_rows=1)``, since the default wall-clock
gate declines the selective scan — produces the serially-charged
``CostBreakdown`` and per-shard row counts, and ``projected_parallel_ms``
re-prices them for an ideal 4-worker crew — deterministic on any machine,
gated at >= 2x over the serial reference.  The
string-group-by gate additionally pins the late-materialization acceptance
bar (>= 2x over decode-up-front), and the selective-scan gates pin the
code-domain/zone-map acceptance bar: the partitioned narrow-range scan must
stay >= 5x faster than the decode-and-compare path.  Run them explicitly
with ``pytest -m perf benchmarks/test_perf_pipeline.py``;
``benchmarks/compare_bench.py`` re-measures every recorded scenario as a
standalone comparator.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import random
import time

import pytest

from repro.engine.column_store import (
    ColumnStoreTable,
    code_domain_disabled,
    delta_writes_disabled,
)
from repro.engine.compression import CompressedColumn
from repro.engine.database import HybridDatabase
from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
from repro.engine.partitioning import HorizontalPartitionSpec, TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.table import StoredTable
from repro.engine.types import DataType, Store
from repro.engine.zonemap import zone_pruning_disabled
from repro.query.builder import aggregate, select
from repro.query.predicates import Between, Or, ge

BENCH_FILE = pathlib.Path(__file__).with_name("BENCH_pipeline.json")

#: A perf benchmark fails when it is more than this factor slower than the
#: wall-clock recorded in ``BENCH_pipeline.json``.
REGRESSION_FACTOR = 2.0

#: Noise floor for the sub-millisecond aggregation gates: on a slower or
#: loaded machine a 2x factor on a ~0.05 ms recording would flake, so the
#: budget never drops below this.  The scalar pipeline measured ~30 ms, so a
#: true de-vectorization still trips the gate by a wide margin.
MIN_AGG_BUDGET_MS = 5.0

#: Noise floor for the selective-scan gates (recordings are ~0.1-0.5 ms; the
#: decode-and-compare path measures ~5-10 ms, far above this).
MIN_SCAN_BUDGET_MS = 2.0

AGG_ROWS = 100_000

#: Distinct string keys of the group-by scenario: enough that re-sorting the
#: decoded strings (the pre-late-materialization np.unique path) dominates.
GROUP_BY_DISTINCT = 256

SCAN_ROWS = 100_000


def build_aggregation_database(store: Store, distinct_regions: int = 8) -> HybridDatabase:
    schema = TableSchema.build(
        "facts",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("amount", DataType.DOUBLE),
            ("quantity", DataType.INTEGER),
        ],
        primary_key=["id"],
    )
    rng = random.Random(42)
    rows = [
        {
            "id": i,
            "region": f"region_{rng.randrange(distinct_regions):04d}",
            "amount": round(rng.uniform(0, 1000), 2),
            "quantity": rng.randrange(1, 50),
        }
        for i in range(AGG_ROWS)
    ]
    database = HybridDatabase()
    database.create_table(schema, store=store)
    database.load_rows("facts", rows)
    return database


def best_of(callable_, repetitions: int = 5) -> float:
    """Best wall-clock (seconds) of *repetitions* runs."""
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def measure_aggregation_ms(store: Store) -> float:
    """Wall-clock of the 100k-row single-column SUM through the executor."""
    database = build_aggregation_database(store)
    query = aggregate("facts").sum("amount").build()
    return best_of(lambda: database.execute(query)) * 1000.0


def measure_string_group_by_ms() -> float:
    """Wall-clock of a 100k-row group-by on a dictionary-encoded string column.

    The late-materialized pipeline factorizes the carried codes in O(n); the
    decode-up-front pipeline gathered 100k strings and re-sorted them with
    ``np.unique``.
    """
    database = build_aggregation_database(Store.COLUMN, GROUP_BY_DISTINCT)
    query = aggregate("facts").count().group_by("region").build()
    return best_of(lambda: database.execute(query)) * 1000.0


def measure_string_group_by_rowstore_ms() -> float:
    """Wall-clock of the same 100k-row string group-by on the *row* store.

    The row store has no dictionary; its interning/factorization cache
    (``RowStoreTable.column_interned``) factorizes the strings once per table
    state, so repeated group-bys run on int codes instead of
    ``np.unique``-sorting 100k strings per query (~28 ms -> ~1 ms).
    ``best_of`` measures the warm path, which is what repeated queries pay.
    """
    database = build_aggregation_database(Store.ROW, GROUP_BY_DISTINCT)
    query = aggregate("facts").count().group_by("region").build()
    return best_of(lambda: database.execute(query)) * 1000.0


def measure_fig10_s() -> float:
    from repro.bench.experiments.fig10_tpch import run_fig10

    start = time.perf_counter()
    run_fig10(scale_factor=0.005, num_queries=2_000, olap_fraction=0.01)
    return time.perf_counter() - start


def measure_tpch_datagen_ms() -> float:
    """Wall-clock of generating the sf=0.01 TPC-H data set (~78k rows).

    The vectorized generator builds each random column with one numpy
    ``Generator`` draw; the seed baseline is the per-row ``random.Random``
    loop it replaced.
    """
    from repro.workloads.tpch.datagen import TpchGenerator

    TpchGenerator(scale_factor=0.001).generate_all()  # warm imports
    return best_of(
        lambda: TpchGenerator(scale_factor=0.01).generate_all(), repetitions=3
    ) * 1000.0


# -- aggregate pushdown (zero-scan + code-domain grouped aggregation) ------------------


@contextlib.contextmanager
def _decode_up_front():
    """Force every column read to decode (the pre-late-materialization shape).

    Combined with ``aggregate_pushdown_disabled()`` this is the
    decode-then-reduce reference the pushdown speedups are recorded against.
    """
    original = StoredTable.column_batched

    def forced(self, column, positions=None, accountant=None):
        return self.column_array(column, positions, accountant)

    StoredTable.column_batched = forced
    try:
        yield
    finally:
        StoredTable.column_batched = original


_AGG_DATABASES: dict = {}


def _pushdown_database() -> HybridDatabase:
    """The 100k-row column-store fact table (cached; the scenarios only read)."""
    cached = _AGG_DATABASES.get("column")
    if cached is None:
        cached = build_aggregation_database(Store.COLUMN, GROUP_BY_DISTINCT)
        _AGG_DATABASES["column"] = cached
    return cached


def _grouped_pushdown_query():
    return aggregate("facts").sum("amount").count().group_by("region").build()


def _minmax_query():
    return (
        aggregate("facts")
        .min("region").max("region").min("amount").max("quantity").count()
        .build()
    )


def measure_grouped_agg_pushdown_ms(decode_baseline: bool = False) -> float:
    """Wall-clock of a 100k-row SUM+COUNT group-by on encoded key + value.

    The pushdown path groups on the raw dictionary codes and sums in the
    dictionary domain; ``decode_baseline=True`` measures the same query with
    pushdown disabled and every column decoded up front (decode-then-reduce).
    """
    database = _pushdown_database()
    query = _grouped_pushdown_query()
    runner = lambda: database.execute(query)  # noqa: E731
    if decode_baseline:
        with aggregate_pushdown_disabled(), _decode_up_front():
            return best_of(runner) * 1000.0
    return best_of(runner) * 1000.0


def measure_minmax_zero_scan_ms(decode_baseline: bool = False) -> float:
    """Wall-clock of ungrouped MIN/MAX/COUNT with no predicate (zero-scan).

    The pushdown path answers from the zone synopses without touching a
    row; the baseline (pushdown disabled) collects and reduces the value
    arrays — including a scalar fold over 100k decoded strings.
    """
    database = _pushdown_database()
    query = _minmax_query()
    runner = lambda: database.execute(query)  # noqa: E731
    if decode_baseline:
        with aggregate_pushdown_disabled(), _decode_up_front():
            return best_of(runner) * 1000.0
    return best_of(runner) * 1000.0


#: Aggregate-pushdown scenarios and their acceptance bars.  The grouped bar
#: sits between what ten live runs read with the rows renumbered per group
#: (14.0-20.2x) and with the codes used as group ids (27.9-32.3x).
PUSHDOWN_SCENARIOS = {
    "grouped_agg_pushdown_100k_ms": (measure_grouped_agg_pushdown_ms, 20.0),
    "minmax_zero_scan_100k_ms": (measure_minmax_zero_scan_ms, 20.0),
}


# -- per-row writes (delta/main split) -------------------------------------------------

DELTA_INSERT_ROWS = 100_000


def measure_delta_insert_ms(inline_baseline: bool = False) -> float:
    """Wall-clock of 100k per-row column-store inserts, plus one final merge.

    Per-statement writes are the write-optimised delta's reason to exist:
    each append lands in the uncompressed delta in O(1), and the dictionary
    rebuild is paid once at merge time.  ``inline_baseline=True`` measures
    the identical loop under ``delta_writes_disabled()`` — the pre-split
    path, which re-extends the compressed codes array on every statement.
    One repetition: the scenario is a 100k-statement stream, not a warm read.
    """
    schema = TableSchema.build(
        "delta_bench",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("amount", DataType.DOUBLE),
        ],
        primary_key=["id"],
    )
    rng = random.Random(7)
    rows = [
        {
            "id": i,
            "region": f"r{i % 64:03d}",
            "amount": round(rng.uniform(0.0, 100.0), 2),
        }
        for i in range(DELTA_INSERT_ROWS)
    ]
    table = ColumnStoreTable(schema)

    def run_inline():
        with delta_writes_disabled():
            for row in rows:
                table.insert_rows([row])

    def run_delta():
        for row in rows:
            table.insert_rows([row])
        table.merge_delta()

    return best_of(run_inline if inline_baseline else run_delta, repetitions=1) * 1000.0


# -- materialized views (serve vs recompute) -------------------------------------------


def measure_matview_grouped_agg_ms(recompute_baseline: bool = False) -> float:
    """Wall-clock of the recurring 100k-row grouped aggregate, served from a view.

    The view session answers the statement from the materialized rows (a
    plan-cache hit plus a copy of the grouped result);
    ``recompute_baseline=True`` measures the identical statement under
    ``matview_disabled()`` — the full scan-and-aggregate path, which is what
    every recurrence pays without the view.
    """
    from repro.api import connect
    from repro.engine.matview import matview_disabled

    session = connect(
        database=build_aggregation_database(Store.COLUMN, GROUP_BY_DISTINCT)
    )
    query = aggregate("facts").sum("amount").count().group_by("region").build()
    session.create_view("mv_facts", query)
    runner = lambda: session.execute(query)  # noqa: E731
    if recompute_baseline:
        with matview_disabled():
            return best_of(runner) * 1000.0
    return best_of(runner) * 1000.0


# -- shard-parallel scatter/gather (1M-row projection scenarios) -----------------------

SHARD_BENCH_ROWS = 1_000_000

_SHARD_DATABASES: dict = {}


def build_shard_database() -> HybridDatabase:
    """1M-row column-store fact table for the shard scenarios (cached).

    Deterministic arithmetic values (no RNG): the scenarios compare simulated
    cost projections, which must be bit-stable across runs and machines.
    Every column is low-cardinality on purpose — a unique-id column would
    build a million-entry dictionary whose Python objects drag down garbage
    collection for the rest of the process (the table is module-cached).
    """
    cached = _SHARD_DATABASES.get("column")
    if cached is None:
        schema = TableSchema.build(
            "shard_facts",
            [
                ("bucket", DataType.VARCHAR),
                ("value", DataType.DOUBLE),
                ("hits", DataType.INTEGER),
            ],
        )
        rows = [
            {
                "bucket": f"b{i % 16:02d}",
                "value": float((i * 7) % 1000),
                "hits": (i * 13) % 997,
            }
            for i in range(SHARD_BENCH_ROWS)
        ]
        cached = HybridDatabase()
        cached.create_table(schema, store=Store.COLUMN)
        cached.load_rows("shard_facts", rows)
        _SHARD_DATABASES["column"] = cached
    return cached


def _shard_grouped_agg_query():
    return (
        aggregate("shard_facts")
        .sum("value").count()
        .group_by("bucket")
        .where(ge("hits", 100))
        .build()
    )


def _shard_scan_query():
    # ~0.1% selectivity: the parent-side row fetch stays small enough that
    # the parallelised scan dominates the projected bill.
    return (
        select("shard_facts")
        .columns("bucket", "value")
        .where(ge("hits", 996))
        .build()
    )


def _measure_shard_projection_ms(query, parallel_components,
                                 serial_baseline: bool = False) -> float:
    """Simulated runtime of *query* at fan-out 4 over the 1M-row table.

    The sharded execution really scatters to the worker pool (a silent
    fallback leaves ``shard_stats`` empty and fails the measurement); its
    serially-charged :class:`CostBreakdown` — bit-identical to the
    ``shard_execution_disabled()`` reference by construction — is projected
    onto the crew with :func:`projected_parallel_ms`.  The baseline is the
    serial reference's own simulated runtime.  Both are deterministic: this
    scenario gates the cost model's parallel projection, not wall-clock.
    """
    from repro.engine.shard import shard_config, shard_execution_disabled
    from repro.engine.shard_gate import projected_parallel_ms

    database = build_shard_database()
    if serial_baseline:
        with shard_execution_disabled():
            return database.execute(query).cost.total_ms
    with shard_config(fan_out=4, min_rows=1):
        result = database.execute(query)
    fan_out, shards = result.shard_stats["shard_facts"]
    return projected_parallel_ms(
        result.cost, shards, fan_out, database.device, parallel_components
    )


def measure_shard_grouped_agg_ms(serial_baseline: bool = False) -> float:
    from repro.engine.shard_gate import AGGREGATION_PARALLEL_COMPONENTS

    return _measure_shard_projection_ms(
        _shard_grouped_agg_query(), AGGREGATION_PARALLEL_COMPONENTS,
        serial_baseline,
    )


def measure_shard_scan_ms(serial_baseline: bool = False) -> float:
    from repro.engine.shard_gate import SELECT_PARALLEL_COMPONENTS

    return _measure_shard_projection_ms(
        _shard_scan_query(), SELECT_PARALLEL_COMPONENTS, serial_baseline
    )


#: Shard scenarios and their acceptance bars (>= 2x at fan-out 4).
SHARD_BENCH_SCENARIOS = {
    "shard_grouped_agg_1m_sim_ms": measure_shard_grouped_agg_ms,
    "shard_scan_1m_sim_ms": measure_shard_scan_ms,
}


# -- selective range scans (code-domain predicates + zone-map pruning) -----------------


def _scan_date(i: int) -> str:
    """Deterministic pseudo-random 'YYYY-MM-DD' date (lexicographic = temporal)."""
    offset = (i * 2654435761) % 2520  # ~7 years of day offsets
    year = 1992 + offset // 360
    month = 1 + (offset % 360) // 30
    day = 1 + offset % 30
    return f"{year:04d}-{month:02d}-{day:02d}"


_SCAN_DATABASES: dict = {}


def build_scan_database(partitioned: bool) -> HybridDatabase:
    """100k-row column-store fact table filtered by a VARCHAR date column.

    The partitioned variant splits horizontally on the date: rows from 1997
    on live in a row-store hot partition, the rest in the column store —
    range scans below 1997 prune the hot partition via its zone map.
    Cached per layout: the scan scenarios never mutate it.
    """
    cached = _SCAN_DATABASES.get(partitioned)
    if cached is not None:
        return cached
    schema = TableSchema.build(
        "scan_facts",
        [
            ("id", DataType.INTEGER),
            ("ship_date", DataType.VARCHAR),
            ("qty", DataType.INTEGER),
            ("price", DataType.DOUBLE),
        ],
        primary_key=["id"],
    )
    rows = [
        {
            "id": i,
            "ship_date": _scan_date(i),
            "qty": 1 + i % 50,
            "price": float(i % 1000),
        }
        for i in range(SCAN_ROWS)
    ]
    database = HybridDatabase()
    database.create_table(schema, store=Store.COLUMN)
    database.load_rows("scan_facts", rows)
    if partitioned:
        database.apply_partitioning(
            "scan_facts",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(
                    predicate=ge("ship_date", "1997-01-01"),
                    hot_store=Store.ROW,
                    cold_store=Store.COLUMN,
                )
            ),
        )
    _SCAN_DATABASES[partitioned] = database
    return database


def _scan_predicate(narrow: bool):
    """An OR of two date ranges, entirely below the 1997 hot-partition split.

    ``narrow`` selects ~2.5% of the rows (two one-month windows), the wide
    variant ~29% (two full years).  Both compile to code intervals of one
    column (the OR is their union); the decode-and-compare reference gathers
    and compares 100k strings per referenced leaf.  The scenarios repeat one
    statement on a cached, never-mutated table: the narrow ones run on
    ``ship_date``'s position index once their first 16 repeats have built it
    (``measure_selective_scan_ms`` runs those before it times, so the
    recorded number is the lookup whatever ran earlier in the process), the
    wide ones select too many rows for a lookup and keep measuring the scan.
    """
    if narrow:
        return Or((
            Between("ship_date", "1994-06-01", "1994-06-30"),
            Between("ship_date", "1995-06-01", "1995-06-30"),
        ))
    return Or((
        Between("ship_date", "1993-01-01", "1993-12-31"),
        Between("ship_date", "1996-01-01", "1996-12-31"),
    ))


def measure_selective_scan_ms(
    partitioned: bool, narrow: bool, decode_baseline: bool = False
) -> float:
    """Wall-clock of a filtered COUNT(*) over the 100k-row scan table.

    ``decode_baseline=True`` measures the same query over the same data with
    code-domain predicates and zone pruning disabled — the decode-and-compare
    reference path the speedup is recorded against.
    """
    database = build_scan_database(partitioned)
    query = aggregate("scan_facts").count().where(_scan_predicate(narrow)).build()
    runner = lambda: database.execute(query)  # noqa: E731
    if decode_baseline:
        with code_domain_disabled(), zone_pruning_disabled():
            return best_of(runner) * 1000.0
    for _ in range(CompressedColumn.SERVED_SCANS_PER_PASS):
        runner()
    return best_of(runner) * 1000.0


SCAN_SCENARIOS = {
    "selective_scan_100k_narrow_ms": (False, True),
    "selective_scan_100k_wide_ms": (False, False),
    "selective_scan_100k_narrow_partitioned_ms": (True, True),
    "selective_scan_100k_wide_partitioned_ms": (True, False),
}

#: key -> zero-argument measurement, for the re-record block and the
#: standalone comparator (``benchmarks/compare_bench.py``).
MEASUREMENTS = {
    "agg_100k_column_ms": lambda: measure_aggregation_ms(Store.COLUMN),
    "agg_100k_row_ms": lambda: measure_aggregation_ms(Store.ROW),
    "group_by_string_100k_ms": measure_string_group_by_ms,
    "group_by_string_100k_rowstore_ms": measure_string_group_by_rowstore_ms,
    "tpch_datagen_sf001_ms": measure_tpch_datagen_ms,
    **{
        key: (lambda p=p, n=n: measure_selective_scan_ms(p, n))
        for key, (p, n) in SCAN_SCENARIOS.items()
    },
    **{
        key: measure for key, (measure, _) in PUSHDOWN_SCENARIOS.items()
    },
    "delta_insert_100k_ms": measure_delta_insert_ms,
    "matview_grouped_agg_100k_ms": measure_matview_grouped_agg_ms,
    **SHARD_BENCH_SCENARIOS,
    "fig10_s": measure_fig10_s,
}

#: Live decode-then-reduce baselines of the pushdown scenarios (used by the
#: re-record block and ``compare_bench.py --fail-under``).
BASELINE_MEASUREMENTS = {
    key: (lambda measure=measure: measure(decode_baseline=True))
    for key, (measure, _) in PUSHDOWN_SCENARIOS.items()
}
#: The delta-insert baseline re-runs the inline write path live: it still
#: exists behind ``delta_writes_disabled()`` and *is* the seed pipeline.
BASELINE_MEASUREMENTS["delta_insert_100k_ms"] = lambda: measure_delta_insert_ms(
    inline_baseline=True
)
#: The matview baseline re-runs the recompute path live behind
#: ``matview_disabled()`` — the full scan-and-aggregate every recurrence of
#: the statement pays without the view.
BASELINE_MEASUREMENTS["matview_grouped_agg_100k_ms"] = (
    lambda: measure_matview_grouped_agg_ms(recompute_baseline=True)
)
#: The shard baselines re-run the serial path live behind
#: ``shard_execution_disabled()`` — it *is* the reference the sharded
#: execution's charges are pinned against.
for _key, _measure in SHARD_BENCH_SCENARIOS.items():
    BASELINE_MEASUREMENTS[_key] = (
        lambda measure=_measure: measure(serial_baseline=True)
    )


@pytest.fixture(scope="module")
def recorded():
    with BENCH_FILE.open() as handle:
        return json.load(handle)["recorded"]


@pytest.mark.perf
def test_agg_100k_column_store_has_not_regressed(recorded):
    measured_ms = measure_aggregation_ms(Store.COLUMN)
    budget_ms = max(recorded["agg_100k_column_ms"] * REGRESSION_FACTOR, MIN_AGG_BUDGET_MS)
    assert measured_ms <= budget_ms, (
        f"100k-row column-store aggregation took {measured_ms:.3f}ms, "
        f"budget is {budget_ms:.3f}ms (recorded {recorded['agg_100k_column_ms']:.3f}ms)"
    )


@pytest.mark.perf
def test_agg_100k_row_store_has_not_regressed(recorded):
    measured_ms = measure_aggregation_ms(Store.ROW)
    budget_ms = max(recorded["agg_100k_row_ms"] * REGRESSION_FACTOR, MIN_AGG_BUDGET_MS)
    assert measured_ms <= budget_ms, (
        f"100k-row row-store aggregation took {measured_ms:.3f}ms, "
        f"budget is {budget_ms:.3f}ms (recorded {recorded['agg_100k_row_ms']:.3f}ms)"
    )


@pytest.mark.perf
def test_string_group_by_has_not_regressed(recorded):
    measured_ms = measure_string_group_by_ms()
    budget_ms = max(
        recorded["group_by_string_100k_ms"] * REGRESSION_FACTOR, MIN_AGG_BUDGET_MS
    )
    assert measured_ms <= budget_ms, (
        f"100k-row string group-by took {measured_ms:.3f}ms, "
        f"budget is {budget_ms:.3f}ms "
        f"(recorded {recorded['group_by_string_100k_ms']:.3f}ms)"
    )


@pytest.mark.perf
def test_string_group_by_rowstore_has_not_regressed(recorded):
    measured_ms = measure_string_group_by_rowstore_ms()
    budget_ms = max(
        recorded["group_by_string_100k_rowstore_ms"] * REGRESSION_FACTOR,
        MIN_AGG_BUDGET_MS,
    )
    assert measured_ms <= budget_ms, (
        f"100k-row row-store string group-by took {measured_ms:.3f}ms, "
        f"budget is {budget_ms:.3f}ms "
        f"(recorded {recorded['group_by_string_100k_rowstore_ms']:.3f}ms)"
    )


@pytest.mark.perf
def test_string_group_by_rowstore_speedup_is_recorded():
    """The interning-cache acceptance bar: >=2x over per-query np.unique."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["group_by_string_100k_rowstore_ms"] >= 2.0


@pytest.mark.perf
def test_string_group_by_speedup_is_recorded():
    """The late-materialization acceptance bar: >=2x over decode-up-front."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["group_by_string_100k_ms"] >= 2.0


@pytest.mark.perf
@pytest.mark.parametrize("key", sorted(SCAN_SCENARIOS))
def test_selective_scan_has_not_regressed(recorded, key):
    partitioned, narrow = SCAN_SCENARIOS[key]
    measured_ms = measure_selective_scan_ms(partitioned, narrow)
    budget_ms = max(recorded[key] * REGRESSION_FACTOR, MIN_SCAN_BUDGET_MS)
    assert measured_ms <= budget_ms, (
        f"{key} took {measured_ms:.3f}ms, budget is {budget_ms:.3f}ms "
        f"(recorded {recorded[key]:.3f}ms)"
    )


@pytest.mark.perf
def test_selective_scan_speedups_are_recorded():
    """The code-domain/zone-map acceptance bar.

    The partitioned narrow-range scan (zone pruning + code-domain intervals)
    must be recorded >= 5x faster than the decode-and-compare path; every
    other scan scenario must hold at least the generic 2x bar.
    """
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["selective_scan_100k_narrow_partitioned_ms"] >= 5.0
    for key in SCAN_SCENARIOS:
        assert payload["speedup"][key] >= 2.0, key


@pytest.mark.perf
@pytest.mark.parametrize("key", sorted(PUSHDOWN_SCENARIOS))
def test_aggregate_pushdown_has_not_regressed(recorded, key):
    measure, _ = PUSHDOWN_SCENARIOS[key]
    measured_ms = measure()
    budget_ms = max(recorded[key] * REGRESSION_FACTOR, MIN_AGG_BUDGET_MS)
    assert measured_ms <= budget_ms, (
        f"{key} took {measured_ms:.3f}ms, budget is {budget_ms:.3f}ms "
        f"(recorded {recorded[key]:.3f}ms)"
    )


@pytest.mark.perf
def test_aggregate_pushdown_speedups_are_recorded():
    """The pushdown acceptance bars.

    The grouped aggregate over a dictionary-encoded key + value must be
    recorded >= 20x faster than decode-then-reduce, and the no-predicate
    MIN/MAX must be recorded >= 20x (zero-scan answers from zone synopses).
    """
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    for key, (_, bar) in PUSHDOWN_SCENARIOS.items():
        assert payload["speedup"][key] >= bar, key


@pytest.mark.perf
def test_delta_insert_has_not_regressed(recorded):
    measured_ms = measure_delta_insert_ms()
    budget_ms = recorded["delta_insert_100k_ms"] * REGRESSION_FACTOR
    assert measured_ms <= budget_ms, (
        f"100k per-row delta inserts took {measured_ms:.1f}ms, "
        f"budget is {budget_ms:.1f}ms "
        f"(recorded {recorded['delta_insert_100k_ms']:.1f}ms)"
    )


@pytest.mark.perf
def test_delta_insert_speedup_is_recorded():
    """The delta-split acceptance bar: >=5x over inline per-row inserts."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["delta_insert_100k_ms"] >= 5.0


@pytest.mark.perf
@pytest.mark.shard
@pytest.mark.parametrize("key", sorted(SHARD_BENCH_SCENARIOS))
def test_shard_projection_has_not_regressed(recorded, key):
    """The projections are deterministic: 2x headroom only absorbs cost-model
    recalibration, not machine noise."""
    measured_ms = SHARD_BENCH_SCENARIOS[key]()
    budget_ms = recorded[key] * REGRESSION_FACTOR
    assert measured_ms <= budget_ms, (
        f"{key} projected {measured_ms:.3f}ms, budget is {budget_ms:.3f}ms "
        f"(recorded {recorded[key]:.3f}ms)"
    )


@pytest.mark.perf
@pytest.mark.shard
@pytest.mark.parametrize("key", sorted(SHARD_BENCH_SCENARIOS))
def test_shard_live_speedup_holds(key):
    """The shard acceptance bar, live: >= 2x over serial at fan-out 4.

    Both sides are simulated runtimes from the same bit-identical
    :class:`CostBreakdown`; the sharded side additionally proves the
    scatter/gather really executed (``shard_stats`` feeds the projection).
    """
    measure = SHARD_BENCH_SCENARIOS[key]
    projected_ms = measure()
    serial_ms = measure(serial_baseline=True)
    assert serial_ms / projected_ms >= 2.0, (
        f"{key}: projected {projected_ms:.3f}ms vs serial {serial_ms:.3f}ms "
        f"({serial_ms / projected_ms:.2f}x < 2x)"
    )


@pytest.mark.perf
@pytest.mark.shard
def test_shard_speedups_are_recorded():
    """The recorded shard bars: >= 2x at 4 workers on scan + grouped agg."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    for key in SHARD_BENCH_SCENARIOS:
        assert payload["speedup"][key] >= 2.0, key


@pytest.mark.perf
@pytest.mark.matview
def test_matview_serve_has_not_regressed(recorded):
    measured_ms = measure_matview_grouped_agg_ms()
    budget_ms = max(
        recorded["matview_grouped_agg_100k_ms"] * REGRESSION_FACTOR,
        MIN_AGG_BUDGET_MS,
    )
    assert measured_ms <= budget_ms, (
        f"matview-served 100k grouped aggregate took {measured_ms:.3f}ms, "
        f"budget is {budget_ms:.3f}ms "
        f"(recorded {recorded['matview_grouped_agg_100k_ms']:.3f}ms)"
    )


@pytest.mark.perf
@pytest.mark.matview
def test_matview_live_speedup_holds():
    """The matview acceptance bar, live: >= 5x over recompute-per-query."""
    served_ms = measure_matview_grouped_agg_ms()
    recompute_ms = measure_matview_grouped_agg_ms(recompute_baseline=True)
    assert recompute_ms / served_ms >= 5.0, (
        f"served {served_ms:.3f}ms vs recompute {recompute_ms:.3f}ms "
        f"({recompute_ms / served_ms:.2f}x < 5x)"
    )


@pytest.mark.perf
@pytest.mark.matview
def test_matview_speedup_is_recorded():
    """The recorded matview bar: >= 5x over the recompute baseline."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["matview_grouped_agg_100k_ms"] >= 5.0


@pytest.mark.perf
def test_tpch_datagen_has_not_regressed(recorded):
    measured_ms = measure_tpch_datagen_ms()
    budget_ms = recorded["tpch_datagen_sf001_ms"] * REGRESSION_FACTOR
    assert measured_ms <= budget_ms, (
        f"TPC-H datagen took {measured_ms:.1f}ms, budget is {budget_ms:.1f}ms "
        f"(recorded {recorded['tpch_datagen_sf001_ms']:.1f}ms)"
    )


@pytest.mark.perf
def test_tpch_datagen_speedup_is_recorded():
    """The vectorized generator must stay >= 2x over the per-row RNG loop."""
    with BENCH_FILE.open() as handle:
        payload = json.load(handle)
    assert payload["speedup"]["tpch_datagen_sf001_ms"] >= 2.0


@pytest.mark.perf
def test_fig10_scenario_has_not_regressed(recorded):
    measured_s = measure_fig10_s()
    budget_s = recorded["fig10_s"] * REGRESSION_FACTOR
    assert measured_s <= budget_s, (
        f"fig10 TPC-H scenario took {measured_s:.2f}s, "
        f"budget is {budget_s:.2f}s (recorded {recorded['fig10_s']:.2f}s)"
    )


if __name__ == "__main__":
    # Re-record the "recorded" section (run after intentional perf changes):
    #   PYTHONPATH=src python benchmarks/test_perf_pipeline.py
    payload = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}
    payload["recorded"] = {key: measure() for key, measure in MEASUREMENTS.items()}
    baseline = payload.setdefault("seed_baseline", {})
    # The selective-scan and pushdown baselines are re-measured here rather
    # than pinned: the decode-and-compare / decode-then-reduce paths still
    # exist behind the disable toggles and *are* the seed pipeline for these
    # scenarios.
    for key, (partitioned, narrow) in SCAN_SCENARIOS.items():
        baseline[key] = measure_selective_scan_ms(
            partitioned, narrow, decode_baseline=True
        )
    for key, measure_baseline in BASELINE_MEASUREMENTS.items():
        baseline[key] = measure_baseline()
    payload["speedup"] = {
        key: baseline[key] / value
        for key, value in payload["recorded"].items()
        if baseline.get(key)
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
