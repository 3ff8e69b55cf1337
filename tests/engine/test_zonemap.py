"""Zone-map synopses: correctness of pruning and maintenance under DML.

Two invariants matter:

* **safety** — a zone may be wider than the live data (updates leave
  orphaned dictionary entries) but never narrower: ``zone_can_match`` must
  never return ``False`` for a predicate that actually matches a row;
* **maintenance** — every mutator (insert, update, delete, bulk load, store
  conversion, repartitioning) bumps the zone epoch, so a stale synopsis is
  rebuilt on the next consult — including the delete case where a
  partition's range shrinks and the rebuilt zone re-tightens.

The suite also pins the plan-vs-execution contract: a cached plan whose
pruning decision went stale (DML after planning) re-derives it at execution
time instead of skipping rows that became visible.
"""

import random

import pytest

from repro.engine import DataType, HybridDatabase, Store, TableSchema
from repro.engine.column_store import ColumnStoreTable
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column
from repro.engine.table import StoredTable, load_rows
from repro.engine.zonemap import ColumnZone, zone_can_match
from repro.query.builder import select
from repro.query.predicates import (
    And,
    Between,
    InList,
    IsNull,
    Not,
    Or,
    between,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)

SCHEMA = TableSchema(
    "events",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("day", DataType.INTEGER),
        Column("kind", DataType.VARCHAR),
        Column("score", DataType.DOUBLE, nullable=True),
    ),
)


def make_rows(start, stop, null_every=0):
    return [
        {
            "id": i,
            "day": i,
            "kind": f"k{i % 5}",
            "score": None if null_every and i % null_every == 0 else float(i),
        }
        for i in range(start, stop)
    ]


@pytest.fixture(params=[Store.ROW, Store.COLUMN], ids=["row", "column"])
def table(request):
    stored = StoredTable(SCHEMA, request.param)
    load_rows(stored, make_rows(0, 100, null_every=10))
    return stored


class TestZoneCanMatch:
    def test_disjoint_ranges_prune(self):
        zone = ColumnZone(10, 20, null_count=0, num_rows=5)
        zones = {"x": zone}
        assert not zone_can_match(lt("x", 10), zones, 5)
        assert not zone_can_match(gt("x", 20), zones, 5)
        assert not zone_can_match(between("x", 30, 40), zones, 5)
        assert not zone_can_match(eq("x", 25), zones, 5)
        assert not zone_can_match(InList("x", (1, 2, 30)), zones, 5)
        assert not zone_can_match(IsNull("x"), zones, 5)

    def test_overlapping_ranges_scan(self):
        zone = ColumnZone(10, 20, null_count=1, num_rows=5)
        zones = {"x": zone}
        assert zone_can_match(le("x", 10), zones, 5)
        assert zone_can_match(ge("x", 20), zones, 5)
        assert zone_can_match(between("x", 15, 40), zones, 5)
        assert zone_can_match(eq("x", 10), zones, 5)
        assert zone_can_match(IsNull("x"), zones, 5)
        assert zone_can_match(InList("x", (None,)), zones, 5)

    def test_all_null_zone_fails_comparisons_matches_is_null(self):
        zone = ColumnZone(None, None, null_count=5, num_rows=5)
        zones = {"x": zone}
        assert not zone_can_match(eq("x", 1), zones, 5)
        assert not zone_can_match(between("x", 0, 9), zones, 5)
        assert not zone_can_match(InList("x", (1,)), zones, 5)
        assert zone_can_match(InList("x", (1, None)), zones, 5)
        assert zone_can_match(IsNull("x"), zones, 5)

    def test_nan_zone_is_conservative(self):
        zone = ColumnZone(1.0, 2.0, null_count=0, num_rows=5, has_nan=True)
        zones = {"x": zone}
        # NaN passes BETWEEN (exclusion test) and matches !=.
        assert zone_can_match(between("x", 100.0, 200.0), zones, 5)
        assert zone_can_match(ne("x", 1.0), zones, 5)
        # Ordered comparisons never match NaN; the real range still decides.
        assert not zone_can_match(gt("x", 50.0), zones, 5)

    def test_boolean_combinators(self):
        zones = {"x": ColumnZone(10, 20, null_count=0, num_rows=5)}
        assert not zone_can_match(And((ge("x", 0), gt("x", 30))), zones, 5)
        assert zone_can_match(Or((gt("x", 30), lt("x", 15))), zones, 5)
        assert not zone_can_match(Or((gt("x", 30), lt("x", 5))), zones, 5)
        # NOT is conservative: never prunes.
        assert zone_can_match(Not(gt("x", 30)), zones, 5)

    def test_unknown_columns_and_incomparable_literals_scan(self):
        zones = {"x": ColumnZone(10, 20, null_count=0, num_rows=5)}
        assert zone_can_match(eq("y", 99), zones, 5)
        assert zone_can_match(gt("x", "a-string"), zones, 5)

    def test_unknown_null_count_disables_null_proofs(self):
        zone = ColumnZone(10, 20, null_count=None, num_rows=5)
        assert zone_can_match(IsNull("x"), {"x": zone}, 5)
        assert not zone_can_match(eq("x", 25), {"x": zone}, 5)


class TestZoneMaintenance:
    def test_zone_reflects_data(self, table):
        zone = table.column_zone("day")
        assert (zone.min_value, zone.max_value) == (0, 99)
        score = table.column_zone("score")
        assert score.null_count == 10
        assert (score.min_value, score.max_value) == (1.0, 99.0)

    def test_insert_widens_zone(self, table):
        epoch = table.zone_epoch
        table.insert_rows([{"id": 100, "day": 500, "kind": "k9", "score": -3.5}])
        assert table.zone_epoch != epoch
        zone = table.column_zone("day")
        assert (zone.min_value, zone.max_value) == (0, 500)
        assert table.column_zone("score").min_value == -3.5

    def test_delete_shrinks_stale_zone(self, table):
        """The stale-synopsis case: deletes shrink the range, the zone follows."""
        zone = table.column_zone("day")
        assert zone.max_value == 99
        doomed = table.filter_positions(ge("day", 50))
        table.delete_rows(doomed)
        rebuilt = table.column_zone("day")
        assert rebuilt.max_value == 49
        assert rebuilt.num_rows == 50
        assert not zone_can_match(ge("day", 50), {"day": rebuilt}, 50)

    def test_update_keeps_zone_safe(self, table):
        """A zone may be wider than the live data but never narrower.

        (Both backends now compute exact post-update bounds — the column
        store reduces its live codes instead of trusting the dictionary,
        whose ``column_min_max`` may retain the orphaned old value — so the
        live data range is computed from the rows themselves here.)
        """
        positions = table.filter_positions(eq("day", 99))
        table.update_rows(positions, {"day": 10})
        zone = table.column_zone("day")
        days = [row["day"] for row in table.all_rows()]
        assert zone.min_value <= min(days) and zone.max_value >= max(days)

    def test_null_count_tracks_updates(self, table):
        positions = table.filter_positions(IsNull("score"))
        table.update_rows(positions, {"score": 1.25})
        assert table.column_zone("score").null_count == 0
        table.update_rows([0, 1, 2], {"score": None})
        assert table.column_zone("score").null_count == 3

    def test_store_conversion_rebuilds_zones(self, table):
        target = Store.COLUMN if table.store is Store.ROW else Store.ROW
        before = table.column_zone("day")
        table.convert_to(target)
        after = table.column_zone("day")
        assert (after.min_value, after.max_value) == (
            before.min_value, before.max_value
        )
        assert table.column_zone("score").null_count == 10

    def test_randomized_dml_never_prunes_matching_rows(self, table):
        """Safety invariant under interleaved DML, on both stores."""
        rng = random.Random(7)
        next_id = 1000
        for _ in range(30):
            action = rng.randrange(3)
            if action == 0:
                table.insert_rows([{
                    "id": next_id,
                    "day": rng.randrange(-50, 400),
                    "kind": f"k{rng.randrange(8)}",
                    "score": None if rng.random() < 0.3 else rng.uniform(-5, 5),
                }])
                next_id += 1
            elif action == 1 and table.num_rows:
                positions = table.filter_positions(
                    between("day", rng.randrange(0, 200), rng.randrange(200, 400))
                )
                if len(positions):
                    table.update_rows(positions[:3], {"day": rng.randrange(-20, 420)})
            elif table.num_rows:
                positions = table.filter_positions(ge("day", rng.randrange(0, 400)))
                table.delete_rows(positions[:5])
            # Every value actually present must survive its own point lookup.
            probe = rng.randrange(-60, 430)
            predicate = eq("day", probe)
            zones = {"day": table.column_zone("day")}
            matches = len(table.filter_positions(predicate))
            if matches and zones["day"] is not None:
                assert zone_can_match(predicate, zones, table.num_rows), (
                    f"zone pruned a predicate with {matches} matching rows"
                )


def build_partitioned_database():
    database = HybridDatabase()
    database.create_table(SCHEMA, store=Store.ROW)
    database.load_rows("events", make_rows(0, 200, null_every=7))
    database.apply_partitioning(
        "events",
        TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("day", 150)),
            vertical=VerticalPartitionSpec(
                row_store_columns=("kind",),
                column_store_columns=("day", "score"),
            ),
        ),
    )
    return database


class TestPartitionedPruning:
    def test_hot_partition_skipped_for_cold_range(self):
        database = build_partitioned_database()
        query = select("events").where(between("day", 10, 20)).build()
        result = database.execute(query)
        assert sorted(row["day"] for row in result.rows) == list(range(10, 21))
        assert result.scan_stats["events"] == (1, 1)  # main scanned, hot skipped

    def test_main_partition_skipped_for_hot_range(self):
        database = build_partitioned_database()
        query = select("events").where(ge("day", 180)).build()
        result = database.execute(query)
        assert sorted(row["day"] for row in result.rows) == list(range(180, 200))
        assert result.scan_stats["events"] == (1, 1)  # hot scanned, main skipped

    def test_fully_disjoint_predicate_skips_everything(self):
        database = build_partitioned_database()
        query = select("events").where(gt("day", 10_000)).build()
        result = database.execute(query)
        assert result.rows == []
        assert result.scan_stats["events"] == (0, 2)

    def test_repartitioning_refreshes_zones(self):
        database = build_partitioned_database()
        database.apply_partitioning(
            "events",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(predicate=ge("day", 100)),
            ),
        )
        query = select("events").where(lt("day", 50)).build()
        result = database.execute(query)
        assert len(result.rows) == 50
        assert result.scan_stats["events"] == (1, 1)

    def test_inserts_route_to_hot_and_unprune_it(self):
        database = build_partitioned_database()
        cold_query = select("events").where(between("day", 10, 20)).build()
        assert database.execute(cold_query).scan_stats["events"] == (1, 1)
        # Inserts land in the hot partition regardless of the predicate; a
        # cold-range row there must widen the hot zone and stop the skip.
        from repro.query.builder import insert

        database.execute(insert("events", [
            {"id": 9_000, "day": 15, "kind": "kx", "score": 1.0}
        ]))
        result = database.execute(cold_query)
        assert 9_000 in {row["id"] for row in result.rows}
        assert result.scan_stats["events"] == (2, 0)


class TestPruningToggle:
    def test_disabling_pruning_invalidates_cached_decisions(self):
        """The reference path must be reachable through session-cached plans.

        A recorded skip decision carries the toggle state it was derived
        under; entering ``zone_pruning_disabled()`` re-derives it, so the
        decode-path differential really compares two different scan paths.
        """
        from repro.api import connect
        from repro.engine.zonemap import zone_pruning_disabled

        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("events", make_rows(0, 50))
        sql = "SELECT id FROM events WHERE day > 1000"
        pruned = session.execute(sql)
        assert pruned.scan_stats["events"] == (0, 1)
        with zone_pruning_disabled():
            unpruned = session.execute(sql)
            assert unpruned.scan_stats["events"] == (1, 0)
        assert pruned.rows == unpruned.rows == []
        # Leaving the context restores the pruned decision.
        assert session.execute(sql).scan_stats["events"] == (0, 1)


class TestStaleDecisionRecovery:
    def test_cached_plan_rederives_after_dml(self):
        """A plan's recorded skip must not survive DML that adds matching rows."""
        from repro.api import connect

        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("events", make_rows(0, 50))
        sql = "SELECT id FROM events WHERE day > 1000"
        assert session.execute(sql).rows == []
        plan = session.plan_for(sql)
        decision = plan.scan_decisions["events"]
        assert decision.skipped == 1
        # DML does not bump the layout version -> the same plan object stays
        # cached; its decision token goes stale and must be re-derived.
        session.database.table_object("events").insert_rows(
            [{"id": 777, "day": 2000, "kind": "kz", "score": None}]
        )
        assert session.plan_for(sql) is plan
        result = session.execute(sql)
        assert [row["id"] for row in result.rows] == [777]
        assert result.scan_stats["events"] == (1, 0)


# -- the prunable unit, pinned once -----------------------------------------------------

HORIZONTAL = HorizontalPartitionSpec(predicate=ge("day", 150))
VERTICAL = VerticalPartitionSpec(
    row_store_columns=("kind",), column_store_columns=("day", "score")
)

LAYOUTS = {
    "row": Store.ROW,
    "column": Store.COLUMN,
    "hot+main": TablePartitioning(horizontal=HORIZONTAL),
    "vertical": TablePartitioning(vertical=VERTICAL),
    "hot+vertical": TablePartitioning(horizontal=HORIZONTAL, vertical=VERTICAL),
}


def build_layout(layout):
    database = HybridDatabase()
    if isinstance(layout, Store):
        database.create_table(SCHEMA, store=layout)
        database.load_rows("events", make_rows(0, 200, null_every=7))
    else:
        database.create_table(SCHEMA, store=Store.ROW)
        database.load_rows("events", make_rows(0, 200, null_every=7))
        database.apply_partitioning("events", layout)
    return database


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_zone_units_describe_every_layout(layout):
    """Labels, row counts, tokens and zones of ``zone_units()`` — and the
    catalog's per-partition statistics — all come from the parts that store
    the data."""
    database = build_layout(layout)
    table = database.table_object("events")
    units = table.zone_units()

    if isinstance(layout, Store):
        stored = {"events": (table.num_rows, [table])}
    else:
        stored = {"main": (table.main_num_rows, table.main_parts)}
        if table.hot is not None:
            stored["hot"] = (table.hot.num_rows, [table.hot])
    assert [unit.label for unit in units] == list(stored)
    assert sum(unit.num_rows for unit in units) == table.num_rows == 200

    for unit in units:
        num_rows, parts = stored[unit.label]
        assert unit.num_rows == num_rows
        assert unit.token == tuple(part.zone_epoch for part in parts)
        for column in SCHEMA.column_names:
            if unit.label == "main":
                owner = table.part_containing(column)
            else:
                owner = parts[0]
            assert owner.schema.has_column(column)
            assert unit.zone(column) == owner.column_zone(column)
            assert unit.zone(column).num_rows == num_rows
        assert unit.zone("no_such_column") is None
    # A decision is checked against the table's token: the units' tokens, flat.
    assert table.zone_token == tuple(
        epoch for unit in units for epoch in unit.token
    )

    recorded = database.catalog.statistics_of("events").partitions
    if isinstance(layout, Store):
        assert recorded == ()
        return
    assert [partition.label for partition in recorded] == [u.label for u in units]
    for partition, unit in zip(recorded, units):
        assert partition.num_rows == unit.num_rows
        assert set(partition.columns) == set(SCHEMA.column_names)
        for column, statistics in partition.columns.items():
            zone = unit.zone(column)
            assert (statistics.min_value, statistics.max_value,
                    statistics.null_count, statistics.has_nan) == (
                zone.min_value, zone.max_value, zone.null_count, zone.has_nan)


def test_zone_units_are_kept_per_backend_and_token():
    """A table hands the same units out while backend and zone token stand;
    a DML moves the token, a store conversion the backend — even one whose
    new backend starts at the old epoch."""
    table = build_layout(Store.ROW).table_object("events")
    units = table.zone_units()
    assert table.zone_units() is units
    table.insert_rows(make_rows(200, 201))
    widened = table.zone_units()
    assert widened is not units and widened[0].num_rows == 201

    old_epoch = table.zone_epoch
    table.convert_to(Store.COLUMN)
    table.backend._zone_epoch = old_epoch  # same epoch, another backend
    converted = table.zone_units()
    assert converted is not widened
    assert converted[0].token == widened[0].token
    assert converted[0].zone("day") == table.backend.column_zone("day")
    assert table.zone_units() is converted


def test_unit_verdicts_are_the_zone_functions():
    """``can_match`` / ``must_match`` ask the zone functions about the
    predicate's columns — a ``table.column`` reference by its bare column."""
    from repro.engine.zonemap import zone_must_match

    table = build_layout(Store.COLUMN).table_object("events")
    (unit,) = table.zone_units()
    zones = {name: table.column_zone(name) for name in SCHEMA.column_names}
    for predicate in (
        gt("day", 1_000), between("day", 0, 199), ge("day", 100),
        IsNull("score"), And((ge("day", 0), le("id", 500))),
        eq("no_such_column", 1), None,
    ):
        assert unit.can_match(predicate) == zone_can_match(predicate, zones, 200)
        assert unit.must_match(predicate) == zone_must_match(predicate, zones, 200)
    assert not unit.can_match(gt("events.day", 1_000))
    assert unit.must_match(between("events.day", 0, 199))


# -- the one freshness rule -------------------------------------------------------------


def _scan_decision(path):
    predicate = between("day", 10, 20)
    return (lambda: path.plan_scan(predicate),
            lambda: path.decision_for(predicate),
            lambda: path.decision_for(between("day", 30, 40)))


def _aggregate_strategy(path):
    from repro.query.builder import aggregate

    query = aggregate("events").sum("score").group_by("kind").build()
    other = aggregate("events").count().group_by("kind").build()
    return (lambda: path.plan_aggregate(query),
            lambda: path.aggregate_decision_for(query),
            lambda: path.aggregate_decision_for(other))


def _shard_decision(path):
    from repro.query.builder import aggregate

    query = aggregate("events").sum("score").group_by("kind").build()
    other = aggregate("events").count().group_by("kind").build()
    return (lambda: path.plan_shards(query),
            lambda: path.shard_decision_for(query),
            lambda: path.shard_decision_for(other))


def _toggle_of(kind):
    from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
    from repro.engine.shard import shard_execution_disabled
    from repro.engine.zonemap import zone_pruning_disabled

    return {_scan_decision: zone_pruning_disabled,
            _aggregate_strategy: aggregate_pushdown_disabled,
            _shard_decision: shard_execution_disabled}[kind]


@pytest.mark.parametrize("stale_by", ["dml", "subject", "toggle", "shard_config"])
@pytest.mark.parametrize(
    "kind", [_scan_decision, _aggregate_strategy, _shard_decision],
    ids=["scan", "aggregate", "shard"],
)
def test_recorded_decisions_share_one_freshness_rule(kind, stale_by):
    """Every decision kind is the identical object while nothing moved, and
    re-derived after DML, for a different subject, on a toggle flip and on a
    ``shard_config`` change."""
    from repro.engine.executor.rewrite import access_path_for
    from repro.engine.shard import shard_config

    table = build_layout(Store.COLUMN).table_object("events")
    path = access_path_for(table)
    plan, valid, valid_for_other = kind(path)
    recorded = plan()
    assert valid() is recorded and valid() is recorded

    if stale_by == "dml":
        table.insert_rows([{"id": 999, "day": 15, "kind": "kx", "score": 1.0}])
        fresh = valid()
    elif stale_by == "subject":
        fresh = valid_for_other()
    elif stale_by == "toggle":
        with _toggle_of(kind)():
            fresh = valid()
            assert fresh is not recorded and valid() is fresh
        assert valid() is not fresh  # leaving the scope is a flip too
    else:
        with shard_config(fan_out=3):
            fresh = valid()
            assert fresh is not recorded and valid() is fresh
        assert valid() is not fresh
    assert fresh is not recorded
    assert valid() is valid()
    assert plan() is not plan()  # planning always derives
