"""Shard-parallel scatter/gather execution: decision, charges, pool, advisor.

The tentpole contracts pinned here:

* :func:`derive_shard_decision` shards only plain column stores,
  with aggregations (NaN included) and filtered selections, where the
  wall-clock gate predicts scatter/gather no slower than serial (or, under
  ``shard_config(min_rows=n)``, at or above the row floor); the recorded
  :class:`ShardDecision` goes stale — and re-derives — on DML, toggle flips
  and ``shard_config`` changes, like ``ScanDecision``;
* every sharded execution charges the :class:`CostBreakdown` **bit-identically**
  to the serial reference behind ``shard_execution_disabled()``, and a failed
  scatter/gather falls back to serial without leaving a partial bill behind;
* ``QueryResult.shard_stats`` reports the per-shard scanned/matched rows only
  when the query really ran sharded;
* the worker pool survives repeated queries, is replaced on a start-method
  change (the spawn-vs-fork determinism smoke) and is shut down by
  ``Session.close()``;
* :func:`projected_parallel_ms` is a deterministic sub-serial projection of
  the (serially-charged) breakdown onto the crew.
"""

import math

import numpy as np
import pytest

from repro.engine import shard as shard_module
from repro.engine.database import HybridDatabase
from repro.engine.executor.rewrite import access_path_for
from repro.engine.schema import Column, TableSchema
from repro.engine.shard import (
    ShardExecutionError,
    derive_shard_decision,
    get_worker_pool,
    shard_bounds,
    shard_config,
    shard_execution_disabled,
    shutdown_worker_pool,
)
from repro.engine.shard_gate import (
    AGGREGATION_PARALLEL_COMPONENTS,
    SELECT_PARALLEL_COMPONENTS,
    best_fan_out,
    projected_parallel_ms,
)
from repro.engine.statistics import ColumnStatistics
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, insert, select
from repro.query.predicates import between, eq, ge

pytestmark = pytest.mark.shard

SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("value", DataType.DOUBLE, nullable=True),
        Column("hits", DataType.INTEGER),
    ),
)

NUM_ROWS = 4_000


def make_rows(num_rows, offset=0):
    """NULL-bearing rows, with NaN values in bucket ``b3`` alone."""
    return [
        {
            "id": offset + i,
            "bucket": f"b{i % 5}",
            "value": (None if i % 11 == 0 else math.nan if i % 85 == 3
                      else round((i % 97) * 0.5, 2)),
            "hits": i % 13,
        }
        for i in range(num_rows)
    ]


def build_database(num_rows=NUM_ROWS, store=Store.COLUMN):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=store)
    database.load_rows("metrics", make_rows(num_rows))
    return database


def grouped_query():
    return (
        aggregate("metrics")
        .sum("value").count().min("hits")
        .group_by("bucket")
        .where(ge("hits", 3))
        .build()
    )


def rows_key(row):
    return sorted((key, repr(value)) for key, value in row.items())


def assert_same_rows(left, right):
    assert sorted(map(rows_key, left)) == sorted(map(rows_key, right))


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_worker_pool()


# -- bounds ----------------------------------------------------------------------------


def test_shard_bounds_cover_and_balance():
    for num_rows, fan_out in ((10, 4), (4_001, 4), (7, 7), (3, 2)):
        bounds = shard_bounds(num_rows, fan_out)
        assert len(bounds) == fan_out
        assert bounds[0][0] == 0 and bounds[-1][1] == num_rows
        sizes = [stop - start for start, stop in bounds]
        assert sum(sizes) == num_rows
        assert max(sizes) - min(sizes) <= 1
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start


# -- the planner decision --------------------------------------------------------------


class TestShardDecision:
    def test_row_store_and_floor_reject(self):
        query = grouped_query()
        row_path = access_path_for(build_database(50, Store.ROW).table_object("metrics"))
        decision = derive_shard_decision(row_path, query)
        assert not decision.sharded and "column store" in decision.reason

        column_path = access_path_for(build_database(50).table_object("metrics"))
        decision = derive_shard_decision(column_path, query)
        assert not decision.sharded and "predicted" in decision.reason

        with shard_config(fan_out=4, min_rows=100):
            decision = derive_shard_decision(column_path, query)
        assert not decision.sharded and "below 100-row floor" in decision.reason
        assert decision.predicted_ms is None

        with shard_config(fan_out=4, min_rows=1):
            decision = derive_shard_decision(column_path, query)
        assert decision.sharded
        assert decision.fan_out == 4
        assert decision.bounds == shard_bounds(50, 4)
        assert "fan-out 4" in decision.describe()

    def test_a_sharded_read_over_pending_inserts_bills_as_serial(self):
        sharded_db, serial_db = build_database(200), build_database(200)
        for database in (sharded_db, serial_db):
            database.execute(insert("metrics", make_rows(3, offset=NUM_ROWS)))
            assert database.table_object("metrics").delta_rows == 3
        with shard_config(fan_out=4, min_rows=1):
            sharded = sharded_db.execute(grouped_query())
        with shard_execution_disabled():
            serial = serial_db.execute(grouped_query())
        assert sharded.shard_stats["metrics"][0] == 4
        assert_same_rows(sharded.rows, serial.rows)
        assert sharded.cost.components == serial.cost.components
        assert sharded_db.table_object("metrics").delta_rows == 0

    def test_select_requires_predicate_and_joins_reject(self):
        path = access_path_for(build_database(100).table_object("metrics"))
        with shard_config(min_rows=1):
            unfiltered = derive_shard_decision(path, select("metrics").build())
            assert not unfiltered.sharded and "unfiltered" in unfiltered.reason
            filtered = derive_shard_decision(
                path, select("metrics").where(ge("hits", 3)).build()
            )
            assert filtered.sharded
            joined = (
                aggregate("metrics").count()
                .join("other", "id", "id").build()
            )
            assert not derive_shard_decision(path, joined).sharded

    def test_zero_scan_answers_never_shard(self):
        path = access_path_for(build_database(100).table_object("metrics"))
        query = aggregate("metrics").count().max("hits").build()
        with shard_config(min_rows=1):
            decision = derive_shard_decision(path, query)
        assert not decision.sharded and "zero-scan" in decision.reason

    def test_decision_staleness_and_reuse(self):
        database = build_database(100)
        path = access_path_for(database.table_object("metrics"))
        query = grouped_query()
        with shard_config(min_rows=1):
            decision = path.plan_shards(query)
            assert decision.sharded
            # Fresh token, same config: the recorded object is reused.
            assert path.shard_decision_for(query) is decision
            # Toggle flip: stale, re-derived as serial.
            with shard_execution_disabled():
                redecided = path.shard_decision_for(query)
                assert redecided is not decision and not redecided.sharded
            # Config change: stale, re-derived with the new fan-out.
            with shard_config(fan_out=2):
                assert path.shard_decision_for(query).fan_out == 2
            # DML moves the zone epoch: stale, re-derived.
            assert path.shard_decision_for(query) is path.shard_decision
            database.execute(insert("metrics", make_rows(1, offset=NUM_ROWS)))
            redecided = path.shard_decision_for(query)
            assert redecided is not decision
        # Outside the config override the decision is stale by construction.
        assert not path.shard_decision_for(query).sharded


# -- the wall-clock gate ---------------------------------------------------------------


def _sales_query(shape):
    """The benchmark's statement shapes over ``sales(region, day, revenue, qty)``."""
    if shape == "grouped-1agg":
        return aggregate("sales").sum("qty").group_by("region").build()
    if shape == "grouped-2agg":
        return aggregate("sales").sum("qty").sum("revenue").group_by("region").build()
    if shape == "window-agg":
        return (aggregate("sales").sum("revenue").group_by("region")
                .where(between("day", 1200, 1230)).build())
    assert shape == "selective-select"
    return select("sales").columns("id", "revenue").where(eq("day", 1356)).build()


#: What the catalog records for the predicate column of the shapes above.
SALES_STATISTICS = {
    "day": ColumnStatistics("day", DataType.INTEGER, 3_650, 0, 3_649),
}

#: shape -> rows -> the fan-out the gate picks at 2 / 4 / 8 usable cores
#: (0 = serial).  Selective filtered shapes lose wherever a 2-core box can
#: look: their serial path is one code-mask pass, cheaper per row than the
#: crc a worker owes (only a 10M-row scan on 8 cores amortises it).
#: Whole-table grouped shapes cross over between 100k and 200k rows (the
#: e2e benchmark's ``olap_serial_100k`` must stay serial, its 200k-row smoke
#: ``olap_shard_1m`` must still shard), and past the crossover more cores buy
#: wider fan-outs — up to where another task's dispatch costs more than it
#: saves.
GATE_TABLE = {
    "grouped-1agg": {100_000: (0, 0, 0), 200_000: (2, 3, 3),
                     1_000_000: (2, 4, 7), 10_000_000: (2, 4, 8)},
    "grouped-2agg": {100_000: (0, 0, 0), 200_000: (2, 4, 4),
                     1_000_000: (2, 4, 8), 10_000_000: (2, 4, 8)},
    "window-agg": {100_000: (0, 0, 0), 200_000: (0, 0, 0),
                   1_000_000: (0, 0, 0), 10_000_000: (0, 0, 0)},
    "selective-select": {100_000: (0, 0, 0), 200_000: (0, 0, 0),
                         1_000_000: (0, 0, 0), 10_000_000: (0, 0, 8)},
}


@pytest.mark.parametrize("shape", sorted(GATE_TABLE))
def test_gate_decision_table(shape):
    query = _sales_query(shape)
    for num_rows, expected in GATE_TABLE[shape].items():
        picked = tuple(
            best_fan_out(query, num_rows, SALES_STATISTICS, limit=cores,
                         cores=cores)[0]
            for cores in (2, 4, 8)
        )
        assert picked == expected, (shape, num_rows)


def test_gate_is_a_pure_function_of_its_inputs():
    """Same inputs, same verdict, same prediction — no clock in the decision."""
    query = _sales_query("grouped-2agg")
    first = best_fan_out(query, 200_000, SALES_STATISTICS, limit=2, cores=2)
    assert all(
        best_fan_out(query, 200_000, SALES_STATISTICS, limit=2, cores=2) == first
        for _ in range(5)
    )
    fan_out, (serial_ms, sharded_ms) = first
    assert fan_out == 2 and sharded_ms <= serial_ms
    # One usable core can never win: the same work plus verification plus
    # dispatch, on the same core.
    assert best_fan_out(query, 10_000_000, SALES_STATISTICS, limit=2,
                        cores=1)[0] == 0
    # The recorded decision of a real table repeats too, reason included.
    path = access_path_for(build_database(300).table_object("metrics"))
    decisions = [derive_shard_decision(path, grouped_query()) for _ in range(3)]
    assert decisions[0] == decisions[1] == decisions[2]
    assert not decisions[0].sharded and decisions[0].predicted_ms is not None


def test_explain_states_why_the_gate_declined():
    from repro.api import connect

    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("metrics", make_rows(800))
    first = session.explain(grouped_query())
    assert "shards: serial (predicted 0.0 ms serial < 0.4 ms sharded)" in first
    assert "ladder:" not in first
    assert session.explain(grouped_query()) == first
    # A structurally ineligible query (row store) prints no verdict at all.
    session.create_table(
        TableSchema("plain", SCHEMA.columns), Store.ROW
    )
    session.load_rows("plain", [dict(row) for row in make_rows(10)])
    assert "shards:" not in session.explain(
        aggregate("plain").count().group_by("bucket").build()
    )
    session.close()


# -- charge identity against the serial reference --------------------------------------


class TestChargeIdentity:
    def assert_identical(self, database, query, expect_sharded=True):
        with shard_config(fan_out=4, min_rows=1):
            sharded = database.execute(query)
        with shard_execution_disabled():
            reference = database.execute(query)
        assert_same_rows(sharded.rows, reference.rows)
        assert sharded.cost.components == reference.cost.components
        assert not reference.shard_stats
        if expect_sharded:
            fan_out, shards = sharded.shard_stats["metrics"]
            assert fan_out == 4
            assert sum(scanned for scanned, _ in shards) == NUM_ROWS
        return sharded

    def test_grouped_aggregation_with_predicate(self):
        database = build_database()
        result = self.assert_identical(database, grouped_query())
        assert len(result.rows) == 5

    def test_ungrouped_aggregation_without_predicate(self):
        database = build_database()
        query = aggregate("metrics").sum("value").avg("hits").min("bucket").build()
        self.assert_identical(database, query)

    def test_grouped_aggregation_over_nullable_group_key(self):
        database = build_database()
        query = (
            aggregate("metrics").count().sum("hits")
            .group_by("value")
            .where(between("hits", 2, 9))
            .build()
        )
        self.assert_identical(database, query)

    def test_select_with_predicate_and_limit(self):
        database = build_database()
        query = (
            select("metrics").columns("id", "bucket")
            .where(eq("bucket", "b2")).limit(17).build()
        )
        with shard_config(fan_out=4, min_rows=1):
            sharded = database.execute(query)
        with shard_execution_disabled():
            reference = database.execute(query)
        # Selection preserves row order exactly: shard order == row order.
        assert sharded.rows == reference.rows
        assert len(sharded.rows) == 17
        assert sharded.cost.components == reference.cost.components
        assert sharded.shard_stats["metrics"][0] == 4

    def test_repeated_queries_reuse_the_pool(self):
        database = build_database()
        with shard_config(min_rows=1):
            database.execute(grouped_query())
            pool = shard_module._POOL
            assert pool is not None and pool.alive()
            database.execute(grouped_query())
            assert shard_module._POOL is pool


class TestFallback:
    def test_failed_scatter_leaves_no_charges(self, monkeypatch):
        database = build_database()

        def explode(*args, **kwargs):
            raise ShardExecutionError("injected")

        with shard_execution_disabled():
            reference_agg = database.execute(grouped_query())
            reference_sel = database.execute(
                select("metrics").where(ge("hits", 5)).build()
            )
        monkeypatch.setattr(shard_module, "_scatter_gather", explode)
        with shard_config(min_rows=1):
            fallback_agg = database.execute(grouped_query())
            fallback_sel = database.execute(
                select("metrics").where(ge("hits", 5)).build()
            )
        for fallback, reference in (
            (fallback_agg, reference_agg),
            (fallback_sel, reference_sel),
        ):
            assert_same_rows(fallback.rows, reference.rows)
            assert fallback.cost.components == reference.cost.components
            assert not fallback.shard_stats


# -- pool lifecycle --------------------------------------------------------------------


def test_session_close_shuts_down_pool():
    from repro.api import connect

    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("metrics", make_rows(500))
    with shard_config(min_rows=1):
        result = session.execute(grouped_query())
        assert result.shard_stats
    assert shard_module._POOL is not None
    session.close()
    assert shard_module._POOL is None


def test_spawn_and_fork_agree():
    """Start-method determinism smoke: spawn workers == fork workers == serial."""
    database = build_database(600)
    query = grouped_query()
    with shard_execution_disabled():
        reference = database.execute(query)
    with shard_config(fan_out=2, min_rows=1):
        for method in ("fork", "spawn"):
            shutdown_worker_pool()
            pool = get_worker_pool(method)
            assert pool.start_method == method
            result = database.execute(query)
            assert result.shard_stats["metrics"][0] == 2
            assert_same_rows(result.rows, reference.rows)
            assert result.cost.components == reference.cost.components


# -- EXPLAIN surface -------------------------------------------------------------------


def test_explain_analyze_reports_shards():
    from repro.api import connect

    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("metrics", make_rows(800))
    with shard_config(fan_out=4, min_rows=1):
        text = session.explain(grouped_query(), analyze=True)
    assert "shards: fan-out 4 (4 x ~200 rows)" in text
    assert "shard execution (scanned/matched):" in text
    assert "fan-out 4: 200/" in text
    session.close()


# -- parallel-runtime projection -------------------------------------------------------


def test_projected_parallel_ms_is_sub_serial_and_deterministic():
    # Large enough that the parallelisable scan work dwarfs the per-shard
    # dispatch overhead; tiny tables correctly project *slower* than serial.
    database = build_database(60_000)
    with shard_config(min_rows=1):
        result = database.execute(grouped_query())
    fan_out, shards = result.shard_stats["metrics"]
    projected = projected_parallel_ms(
        result.cost, shards, fan_out, database.device,
        AGGREGATION_PARALLEL_COMPONENTS,
    )
    with shard_execution_disabled():
        serial_ms = database.execute(grouped_query()).cost.total_ms
    # Balanced shards put the critical fraction near 1/fan_out; with the
    # scan dominating the bill the projection lands well under serial.
    assert projected < serial_ms
    assert projected == projected_parallel_ms(
        result.cost, shards, fan_out, database.device,
        AGGREGATION_PARALLEL_COMPONENTS,
    )
    # The select projection parallelises strictly less of the bill.
    select_projected = projected_parallel_ms(
        result.cost, shards, fan_out, database.device,
        SELECT_PARALLEL_COMPONENTS,
    )
    assert select_projected >= projected
