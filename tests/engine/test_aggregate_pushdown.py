"""Aggregate pushdown: zero-scan answers, code-domain grouped aggregation,
partition-partial merging, zone-pruned DML, and the strategy plumbing.

The tentpole contracts pinned here:

* zero-scan answers (ungrouped COUNT/MIN/MAX, predicate absent or
  zone-decidable) decode **nothing** — counted by instrumenting
  ``ColumnDictionary.decode_array``, like ``test_late_materialization``;
* every pushdown tier charges the :class:`CostBreakdown` bit-identically to
  the decode-then-reduce reference behind ``aggregate_pushdown_disabled()``;
* the strategy recorded at plan time is exactly what execution consumes
  (``EXPLAIN ANALYZE`` pins the coincidence) and stale zone-epoch tokens
  re-derive it, so DML after planning can never serve a stale answer;
* UPDATE/DELETE predicate scans reuse the read path's ScanDecision — a
  provably-empty DML scan is skipped with its charges replayed, keeping the
  write path's accounting identical to the seed;
* the catalog records per-partition min/max/null-count statistics, and the
  estimator prices partition pruning from them exactly.
"""

import random

import pytest

from repro.engine.column_store import ColumnStoreTable
from repro.engine.compression import ColumnDictionary
from repro.engine.database import HybridDatabase
from repro.engine.executor.agg_pushdown import (
    TIER_CODE_DOMAIN,
    TIER_OPERATOR,
    TIER_PARTITION_PARTIAL,
    TIER_ZERO_SCAN,
    aggregate_pushdown_disabled,
)
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.engine.zonemap import (
    ColumnZone,
    zone_must_match,
    zone_pruning_disabled,
)
from repro.query.builder import aggregate, delete, insert, select, update
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


def build_database(store, rows):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=store)
    if rows:
        database.load_rows("events", rows)
    return database


def build_partitioned_database(rows, split_at=150, vertical=True):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=Store.ROW)
    if rows:
        database.load_rows("events", rows)
    specs = {"horizontal": HorizontalPartitionSpec(predicate=ge("day", split_at))}
    if vertical:
        specs["vertical"] = VerticalPartitionSpec(
            row_store_columns=("kind",),
            column_store_columns=("day", "score"),
        )
    database.apply_partitioning("events", TablePartitioning(**specs))
    return database


class DecodeCounter:
    """Counts values decoded through ``ColumnDictionary.decode_array``."""

    def __init__(self, monkeypatch):
        self.decoded = 0
        original = ColumnDictionary.decode_array

        def counting_decode_array(dictionary, codes):
            self.decoded += len(codes)
            return original(dictionary, codes)

        monkeypatch.setattr(ColumnDictionary, "decode_array", counting_decode_array)


def strategy_of(result):
    return result.agg_strategies["events"]


# -- zone_must_match -------------------------------------------------------------------


class TestZoneMustMatch:
    def test_covering_ranges_prove_all_true(self):
        zone = ColumnZone(10, 20, null_count=0, num_rows=5)
        zones = {"x": zone}
        assert zone_must_match(ge("x", 10), zones, 5)
        assert zone_must_match(le("x", 20), zones, 5)
        assert zone_must_match(between("x", 10, 20), zones, 5)
        assert zone_must_match(between("x", 0, 100), zones, 5)
        assert zone_must_match(ne("x", 99), zones, 5)
        assert not zone_must_match(ge("x", 11), zones, 5)
        assert not zone_must_match(between("x", 11, 20), zones, 5)
        assert not zone_must_match(eq("x", 10), zones, 5)
        assert not zone_must_match(ne("x", 15), zones, 5)

    def test_single_value_zone_proves_equality(self):
        zone = ColumnZone(7, 7, null_count=0, num_rows=3)
        zones = {"x": zone}
        assert zone_must_match(eq("x", 7), zones, 3)
        assert zone_must_match(InList("x", (5, 7)), zones, 3)
        assert not zone_must_match(InList("x", (5, 6)), zones, 3)

    def test_nulls_defeat_comparison_proofs(self):
        zone = ColumnZone(10, 20, null_count=1, num_rows=5)
        zones = {"x": zone}
        # A comparison never matches a NULL row: not provably all-true.
        assert not zone_must_match(ge("x", 0), zones, 5)
        assert not zone_must_match(between("x", 0, 100), zones, 5)
        all_null = ColumnZone(None, None, null_count=5, num_rows=5)
        assert zone_must_match(IsNull("x"), {"x": all_null}, 5)
        assert not zone_must_match(IsNull("x"), zones, 5)

    def test_nan_semantics(self):
        nan_zone = ColumnZone(1.0, 2.0, null_count=0, num_rows=5, has_nan=True)
        zones = {"x": nan_zone}
        # NaN fails ordered comparisons and BETWEEN (its two comparisons),
        # and passes !=.
        assert not zone_must_match(ge("x", 0.0), zones, 5)
        assert not zone_must_match(between("x", 0.0, 10.0), zones, 5)
        assert zone_must_match(between("x", 0.0, 10.0),
                               {"x": ColumnZone(1.0, 2.0, null_count=0, num_rows=5)}, 5)
        assert zone_must_match(ne("x", 99.0), zones, 5)
        assert not zone_must_match(eq("x", float("nan")), zones, 5)

    def test_boolean_combinators(self):
        zones = {"x": ColumnZone(10, 20, null_count=0, num_rows=5)}
        assert zone_must_match(And((ge("x", 0), le("x", 50))), zones, 5)
        assert not zone_must_match(And((ge("x", 0), ge("x", 15))), zones, 5)
        assert zone_must_match(Or((ge("x", 15), le("x", 50))), zones, 5)
        # NOT p is all-true exactly when p is provably empty.
        assert zone_must_match(Not(gt("x", 30)), zones, 5)
        assert not zone_must_match(Not(gt("x", 15)), zones, 5)

    def test_uncertainty_is_never_a_proof(self):
        zones = {"x": ColumnZone(10, 20, null_count=None, num_rows=5)}
        assert not zone_must_match(ge("x", 0), zones, 5)  # unknown null count
        assert not zone_must_match(ge("y", 0), zones, 5)  # no zone at all
        assert not zone_must_match(
            gt("x", "a-string"), zones, 5
        )  # incomparable literal
        assert zone_must_match(None, zones, 5)
        assert zone_must_match(ge("x", 99), zones, 0)  # vacuous on empty


# -- zero-scan -------------------------------------------------------------------------


class TestZeroScan:
    def test_no_predicate_answers_decode_nothing(self, monkeypatch):
        rows = make_rows(0, 100, null_every=10)
        database = build_database(Store.COLUMN, rows)
        counter = DecodeCounter(monkeypatch)
        result = database.execute(
            aggregate("events")
            .count().count("score").min("kind").max("kind").min("score")
            .build()
        )
        assert counter.decoded == 0
        assert result.rows == [{
            "count_star": 100,
            "count_score": 90,
            "min_kind": "k0",
            "max_kind": "k4",
            "min_score": 1.0,
        }]
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)

    def test_all_true_predicate_answers_from_synopses(self, monkeypatch):
        rows = make_rows(0, 100)
        database = build_database(Store.COLUMN, rows)
        query = (
            aggregate("events").count().min("day").max("day")
            .where(Between("day", -10, 10_000)).build()
        )
        counter = DecodeCounter(monkeypatch)
        result = database.execute(query)
        assert counter.decoded == 0
        assert result.rows == [{"count_star": 100, "min_day": 0, "max_day": 99}]
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert reference.rows == result.rows
        assert reference.cost.components == result.cost.components

    def test_all_false_predicate_yields_identity_answers(self):
        database = build_database(Store.COLUMN, make_rows(0, 50))
        query = (
            aggregate("events").count().count("score").min("kind")
            .where(gt("day", 10_000)).build()
        )
        result = database.execute(query)
        assert result.rows == [
            {"count_star": 0, "count_score": 0, "min_kind": None}
        ]
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert reference.rows == result.rows
        assert reference.cost.components == result.cost.components

    def test_undecidable_predicate_is_not_zero_scan(self):
        database = build_database(Store.COLUMN, make_rows(0, 50))
        result = database.execute(
            aggregate("events").count().where(between("day", 10, 20)).build()
        )
        assert result.rows == [{"count_star": 11}]
        assert strategy_of(result).startswith(TIER_CODE_DOMAIN)

    def test_all_null_column_min_is_none(self):
        rows = [{"id": i, "day": i, "kind": "k", "score": None} for i in range(8)]
        for store in Store:
            result = build_database(store, rows).execute(
                aggregate("events").min("score").max("score").count("score").build()
            )
            assert result.rows == [
                {"min_score": None, "max_score": None, "count_score": 0}
            ], store
            assert strategy_of(result).startswith(TIER_ZERO_SCAN)

    def test_nan_zero_scan_minmax_matches_the_reference(self):
        # NaN ranks above every number: the zones answer MAX NaN and MIN the
        # least real value, as the decode-then-reduce reference does.
        nan = float("nan")
        rows = [
            {"id": 0, "day": 0, "kind": "a", "score": 2.0},
            {"id": 1, "day": 1, "kind": "b", "score": nan},
            {"id": 2, "day": 2, "kind": "c", "score": 0.5},
        ]
        query = aggregate("events").min("score").max("score").build()
        for store in Store:
            database = build_database(store, rows)
            result = database.execute(query)
            assert strategy_of(result).startswith(TIER_ZERO_SCAN)
            with aggregate_pushdown_disabled():
                reference = database.execute(query)
            assert repr(result.rows) == repr(reference.rows) == repr(
                [{"min_score": 0.5, "max_score": nan}]
            ), store

    def test_count_star_still_zero_scans_with_nan(self):
        rows = [
            {"id": 0, "day": 0, "kind": "a", "score": float("nan")},
            {"id": 1, "day": 1, "kind": "b", "score": 1.0},
        ]
        result = build_database(Store.COLUMN, rows).execute(
            aggregate("events").count().count("score").build()
        )
        # NaN is a value, not a NULL: COUNT needs no NaN-free proof.
        assert result.rows == [{"count_star": 2, "count_score": 2}]
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)

    def test_empty_table(self):
        for store in Store:
            result = build_database(store, []).execute(
                aggregate("events").count().min("day").build()
            )
            assert result.rows == [{"count_star": 0, "min_day": None}]

    def test_stale_strategy_rederives_after_dml(self):
        """A cached plan's zero-scan answer must not survive DML."""
        from repro.api import connect

        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("events", make_rows(0, 50))
        query = aggregate("events").count().max("day").build()
        assert session.execute(query).rows == [{"count_star": 50, "max_day": 49}]
        plan = session.plan_for(query)
        strategy = plan.table_plans[0].aggregate_strategy
        assert strategy.tier == TIER_ZERO_SCAN
        # Plain DML does not bump the layout version: the same plan object
        # stays cached, its strategy token goes stale and must re-derive.
        session.database.table_object("events").insert_rows(
            [{"id": 777, "day": 2_000, "kind": "kz", "score": None}]
        )
        assert session.plan_for(query) is plan
        result = session.execute(query)
        assert result.rows == [{"count_star": 51, "max_day": 2_000}]

    def test_zero_scan_exact_after_update_orphans_dictionary_entry(self):
        """CS zones are exact: an orphaned dictionary max must not surface."""
        database = build_database(Store.COLUMN, make_rows(0, 50))
        database.execute(update("events", {"day": 5}, eq("day", 49)))
        result = database.execute(aggregate("events").max("day").build())
        assert result.rows == [{"max_day": 48}]


class TestDeltaDmlZoneExactness:
    """Zone synopses stay exact when DML hits values that live in the *delta*.

    Per-row inserts land in the column store's uncompressed delta; a later
    DELETE/UPDATE merges the delta into main and rebuilds the dictionary
    from the surviving codes.  These regressions pin that a zero-scan
    MIN/MAX can never surface a value that only ever existed in the delta
    and was deleted (or overwritten) before the query ran.
    """

    def _delta_database(self):
        database = build_database(Store.COLUMN, make_rows(0, 50))
        backend = database.table_object("events").backend
        # Keep the spike in the delta: no threshold-triggered merge.
        backend.merge_threshold = 1_000_000
        database.execute(insert("events", [
            {"id": 900, "day": 10_000, "kind": "zz", "score": 99_999.0},
            {"id": 901, "day": -10_000, "kind": "aa", "score": -99_999.0},
        ]))
        assert backend.delta_rows > 0  # the spikes really live in the delta
        return database

    def test_delta_delete_then_zero_scan(self):
        database = self._delta_database()
        database.execute(delete("events", InList("id", (900, 901))))
        query = (
            aggregate("events")
            .min("day").max("day").min("score").max("score").count()
            .build()
        )
        result = database.execute(query)
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)
        assert result.rows == [{
            "min_day": 0, "max_day": 49,
            "min_score": 0.0, "max_score": 49.0,
            "count_star": 50,
        }]
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert reference.rows == result.rows
        assert reference.cost.components == result.cost.components

    def test_delta_update_then_zero_scan(self):
        database = self._delta_database()
        database.execute(update("events", {"day": 5, "score": 5.0},
                                gt("day", 5_000)))
        database.execute(update("events", {"day": 6, "score": 6.0},
                                lt("day", -5_000)))
        result = database.execute(
            aggregate("events").min("day").max("day").max("score").build()
        )
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)
        assert result.rows == [{"min_day": 0, "max_day": 49, "max_score": 49.0}]

    def test_delta_delete_with_zone_decidable_predicate(self):
        """The all-false proof must hold after the delta spike is deleted."""
        database = self._delta_database()
        database.execute(delete("events", gt("day", 5_000)))
        database.execute(delete("events", lt("day", -5_000)))
        query = (
            aggregate("events").count().min("kind")
            .where(gt("day", 1_000)).build()
        )
        result = database.execute(query)
        assert strategy_of(result).startswith(TIER_ZERO_SCAN)
        assert result.rows == [{"count_star": 0, "min_kind": None}]
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert reference.rows == result.rows
        assert reference.cost.components == result.cost.components


# -- cost-breakdown identity over deterministic query batteries ------------------------


class TestChargesBitIdentical:
    def queries(self):
        return [
            aggregate("events").count().build(),
            aggregate("events").min("kind").max("day").count("score").build(),
            aggregate("events").sum("day").avg("score").group_by("kind").build(),
            aggregate("events").sum("score").count().group_by("kind", "day").build(),
            aggregate("events").count().where(between("day", 50, 120)).build(),
            (
                aggregate("events").sum("day").min("score")
                .where(Or((lt("day", 30), gt("day", 170)))).group_by("kind").build()
            ),
            aggregate("events").count("score").where(IsNull("score")).build(),
            aggregate("events").min("day").where(Between("day", -5, 10_000)).build(),
        ]

    def layouts(self):
        rows = make_rows(0, 200, null_every=7)
        return {
            "row": build_database(Store.ROW, rows),
            "column": build_database(Store.COLUMN, rows),
            "partitioned": build_partitioned_database(rows),
        }

    def test_pushdown_on_off_rows_and_charges_agree(self):
        for label, database in self.layouts().items():
            for query in self.queries():
                pushed = database.execute(query)
                with aggregate_pushdown_disabled():
                    reference = database.execute(query)
                context = f"[{label}] {query!r}"
                assert pushed.cost.components == reference.cost.components, context
                assert len(pushed.rows) == len(reference.rows), context
                for left, right in zip(pushed.rows, reference.rows):
                    assert set(left) == set(right), context
                    for key in left:
                        if isinstance(left[key], float):
                            assert left[key] == pytest.approx(right[key]), context
                        else:
                            assert left[key] == right[key], context


# -- partition-partial -----------------------------------------------------------------


class TestPartitionPartial:
    def test_grouped_aggregation_merges_partials(self):
        rows = make_rows(0, 200, null_every=9)
        database = build_partitioned_database(rows)
        query = (
            aggregate("events").sum("score").avg("score").count()
            .group_by("kind").build()
        )
        result = database.execute(query)
        assert strategy_of(result).startswith(TIER_PARTITION_PARTIAL)
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert strategy_of(reference).startswith(TIER_OPERATOR)
        assert [row["kind"] for row in result.rows] == [
            row["kind"] for row in reference.rows
        ]
        by_kind = {row["kind"]: row for row in reference.rows}
        for row in result.rows:
            reference_row = by_kind[row["kind"]]
            assert row["count_star"] == reference_row["count_star"]
            assert row["sum_score"] == pytest.approx(reference_row["sum_score"])
            assert row["avg_score"] == pytest.approx(reference_row["avg_score"])
        assert result.cost.components == reference.cost.components

    def test_pruned_partition_contributes_nothing(self):
        database = build_partitioned_database(make_rows(0, 200))
        query = (
            aggregate("events").count().sum("day").group_by("kind")
            .where(lt("day", 100)).build()
        )
        result = database.execute(query)
        # The hot partition (day >= 150) is zone-skipped outright.
        assert result.scan_stats["events"] == (1, 1)
        assert sum(row["count_star"] for row in result.rows) == 100

    def test_main_group_keys_decode_per_group_next_to_hot(self, monkeypatch):
        """No concat: the main portion's codes group without full decode."""
        rows = make_rows(0, 200)
        database = build_partitioned_database(rows, vertical=False)
        counter = DecodeCounter(monkeypatch)
        result = database.execute(
            aggregate("events").count().group_by("kind").build()
        )
        assert sum(row["count_star"] for row in result.rows) == 200
        num_groups = len({row["kind"] for row in rows if row["day"] < 150})
        # Only the main partition's per-*group* keys decode (the hot
        # partition is a row store); the pre-pushdown pipeline decoded all
        # 150 main rows to concatenate them with the hot batch.
        assert counter.decoded == num_groups

    def test_nan_group_keys_merge_partial_states(self):
        # Every NaN key is one group, so partial states merge across the
        # partitions exactly like the concatenate-then-reduce reference.
        rows = make_rows(0, 40)
        for index in (3, 7, 25):
            rows[index]["score"] = float("nan")
        database = build_partitioned_database(rows, split_at=20)
        query = aggregate("events").count().max("score").group_by("score").build()
        result = database.execute(query)
        assert strategy_of(result).startswith(TIER_PARTITION_PARTIAL)
        with aggregate_pushdown_disabled():
            reference = database.execute(query)
        assert repr(result.rows) == repr(reference.rows)
        assert len(result.rows) == 38
        assert sum(row["count_star"] for row in result.rows) == 40


# -- zone-pruned DML -------------------------------------------------------------------


class TestDmlPruning:
    def _paired(self, build, statement):
        """Run *statement* pruned and unpruned on identical databases."""
        pruned_database = build()
        reference_database = build()
        pruned = pruned_database.execute(statement)
        with zone_pruning_disabled():
            reference = reference_database.execute(statement)
        final = select("events").build()
        assert (
            pruned_database.execute(final).rows
            == reference_database.execute(final).rows
        )
        return pruned, reference

    @pytest.mark.parametrize("store", list(Store))
    def test_no_match_update_skips_scan_with_seed_charges(self, store):
        build = lambda: build_database(store, make_rows(0, 100))  # noqa: E731
        statement = update("events", {"kind": "zzz"}, gt("day", 10_000))
        pruned, reference = self._paired(build, statement)
        assert pruned.affected_rows == reference.affected_rows == 0
        assert pruned.cost.components == reference.cost.components

    @pytest.mark.parametrize("store", list(Store))
    def test_no_match_delete_skips_scan_with_seed_charges(self, store):
        build = lambda: build_database(store, make_rows(0, 100))  # noqa: E731
        statement = delete("events", lt("day", -50))
        pruned, reference = self._paired(build, statement)
        assert pruned.affected_rows == reference.affected_rows == 0
        assert pruned.cost.components == reference.cost.components

    def test_indexed_no_match_update_replays_index_charges(self):
        build = lambda: build_database(Store.ROW, make_rows(0, 100))  # noqa: E731
        statement = update("events", {"kind": "zzz"}, eq("id", 10_000))
        pruned, reference = self._paired(build, statement)
        assert pruned.affected_rows == reference.affected_rows == 0
        assert pruned.cost.components == reference.cost.components

    @pytest.mark.parametrize("vertical", [False, True])
    def test_partitioned_no_match_dml_charges_match_seed(self, vertical):
        build = lambda: build_partitioned_database(  # noqa: E731
            make_rows(0, 200, null_every=6), vertical=vertical
        )
        statements = [
            update("events", {"kind": "zzz"}, gt("day", 10_000)),
            delete("events", lt("day", -10)),
            # Predicate spanning both vertical parts (multi-part filter).
            update("events", {"score": 1.0},
                   And((gt("day", 10_000), eq("kind", "nope")))),
        ]
        for statement in statements:
            pruned, reference = self._paired(build, statement)
            assert pruned.affected_rows == reference.affected_rows == 0, statement
            assert pruned.cost.components == reference.cost.components, statement

    def test_partially_pruned_update_only_touches_matching_partition(self):
        database = build_partitioned_database(make_rows(0, 200), vertical=False)
        # Matches only hot rows: the main portion's scan is zone-skipped.
        result = database.execute(
            update("events", {"kind": "hotfix"}, ge("day", 180))
        )
        assert result.affected_rows == 20
        matching = database.execute(select("events").where(eq("kind", "hotfix")).build())
        assert sorted(row["day"] for row in matching.rows) == list(range(180, 200))

    def test_matching_dml_is_unaffected(self):
        for store in Store:
            database = build_database(store, make_rows(0, 100))
            assert database.execute(
                update("events", {"kind": "zz"}, between("day", 10, 19))
            ).affected_rows == 10
            assert database.execute(
                delete("events", between("day", 10, 14))
            ).affected_rows == 5
            assert database.execute(
                aggregate("events").count().build()
            ).rows == [{"count_star": 95}]

    LAYOUTS = {
        "row": lambda rows: build_database(Store.ROW, rows),
        "column": lambda rows: build_database(Store.COLUMN, rows),
        "hot+main": lambda rows: build_partitioned_database(
            rows, split_at=60, vertical=False
        ),
        "hot+vertical": lambda rows: build_partitioned_database(
            rows, split_at=60, vertical=True
        ),
    }

    @staticmethod
    def _random_predicate(rng):
        low = rng.randrange(-100, 300)
        simple = [
            between("day", low, low + rng.randrange(0, 80)),
            gt("day", rng.randrange(-100, 400)),
            eq("kind", rng.choice(["k1", "k3", "nope"])),
            IsNull("score"),
        ]
        # Compound shapes; ``kind`` and ``day``/``score`` live in different
        # vertical parts, so these span both.
        far = rng.choice([lt("day", -20), gt("day", 5_000)])
        compound = [
            And((far, eq("kind", rng.choice(["k2", "nope"])))),
            And((gt("score", 9_000.0), Not(eq("kind", "k1")))),
            Or((far, And((lt("score", -1.0), eq("kind", "k4"))))),
            Or((between("day", low, low + 10), eq("kind", "nope"))),
            Not(Or((ge("day", -1_000), eq("kind", "k0")))),
        ]
        return rng.choice(simple + compound)

    @staticmethod
    def _execute(database, statement):
        """``(result, None)`` or ``(None, (error type, message))``."""
        try:
            return database.execute(statement), None
        except Exception as error:  # noqa: BLE001 — compared, not swallowed
            return None, (type(error), str(error))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_randomized_dml_pruning_differential(self, layout, charge_trace):
        """Interleaved DML with pruning on vs off: identical states, charges
        (totals *and* order) and errors, on every layout the rewrite touches."""
        from repro.engine.executor.rewrite import access_path_for

        rng = random.Random(11)
        build = self.LAYOUTS[layout]
        pruned_database = build(make_rows(0, 80, null_every=8))
        reference_database = build(make_rows(0, 80, null_every=8))
        next_id = 1_000
        filtered = pruned_count = invalid = 0
        for step in range(60):
            roll = rng.random()
            predicate = self._random_predicate(rng)
            if roll < 0.45:
                assignments = rng.choice([
                    {"kind": rng.choice(["k0", "patched"])},
                    {"score": float(rng.randrange(100))},
                    {"kind": "both", "score": 1.5},
                    # Uncoercible SET values must raise whether or not the
                    # scan was pruned.
                    {"score": "not-a-number"},
                    {"kind": "fine", "day": "tomorrow"},
                ])
                statement = update("events", assignments, predicate)
            elif roll < 0.75:
                statement = delete("events", predicate)
            else:
                predicate = None
                statement = insert("events", [{
                    "id": next_id, "day": rng.randrange(-50, 400),
                    "kind": f"k{rng.randrange(8)}", "score": None,
                }])
                next_id += 1
            if predicate is not None:
                filtered += 1
                path = access_path_for(pruned_database.table_object("events"))
                pruned_count += path.plan_scan(predicate).skipped > 0
            charge_trace.take()
            pruned, pruned_error = self._execute(pruned_database, statement)
            pruned_trace = charge_trace.take()
            with zone_pruning_disabled():
                reference, reference_error = self._execute(
                    reference_database, statement
                )
            reference_trace = charge_trace.take()
            context = f"layout={layout} step={step} {statement!r}"
            assert pruned_error == reference_error, context
            if pruned_error is not None:
                invalid += 1
                continue
            assert pruned_trace == reference_trace, context
            assert pruned.affected_rows == reference.affected_rows, context
            assert pruned.cost.components == reference.cost.components, context
        final = select("events").build()
        assert (
            pruned_database.execute(final).rows
            == reference_database.execute(final).rows
        ), layout
        assert pruned_count >= filtered // 4, (layout, pruned_count, filtered)
        assert invalid >= 3, (layout, invalid)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("pruned", [True, False])
    def test_zero_match_update_is_side_effect_free(self, layout, pruned):
        """A zone-pruned — or merely zero-match — UPDATE touches nothing:
        same zone epochs, pending delta and held snapshot; a bad SET value
        still raises."""
        from repro.errors import SchemaError

        database = self.LAYOUTS[layout](make_rows(0, 80, null_every=8))
        database.execute(insert("events", [
            {"id": 500, "day": 70, "kind": "k1", "score": 7.0},
        ]))
        table = database.table_object("events")
        parts = getattr(table, "all_parts", [table])
        snapshot = table.snapshot()
        before = (
            [part.zone_epoch for part in parts],
            [part.delta_rows for part in parts],
            snapshot.rows(),
        )
        # Provably empty for the zones, vs in range but matching no row.
        predicate = gt("day", 10_000) if pruned else eq("kind", "k15")
        result = database.execute(update("events", {"kind": "zz"}, predicate))
        assert result.affected_rows == 0
        with pytest.raises(SchemaError, match="not-a-number"):
            database.execute(
                update("events", {"score": "not-a-number"}, predicate)
            )
        assert before == (
            [part.zone_epoch for part in parts],
            [part.delta_rows for part in parts],
            snapshot.rows(),
        )
        assert table.snapshot().rows() == snapshot.rows()


# -- EXPLAIN pinning -------------------------------------------------------------------


class TestExplainStrategyPinned:
    @pytest.fixture
    def session(self):
        from repro.api import connect

        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("events", make_rows(0, 100))
        return session

    def test_zero_scan_strategy_line_golden(self, session):
        query = aggregate("events").min("day").max("day").count().build()
        text = session.explain(query)
        assert (
            "   strategy: zero-scan (answered from 1 partition synopsis(es))"
            in text
        )

    def test_analyze_strategy_equals_plan_strategy(self, session):
        query = aggregate("events").sum("day").group_by("kind").build()
        plan = session.plan_for(query)
        planned = plan.table_plans[0].aggregate_strategy.describe()
        result = session.execute(query)
        assert result.agg_strategies["events"] == planned
        text = session.explain(query, analyze=True)
        assert f"   strategy: {planned}" in text
        assert "  aggregate pushdown:" in text
        assert f"    {'events':<22}{planned}" in text

    def test_partitioned_analyze_pins_partial_strategy(self):
        from repro.api import connect

        session = connect(database=build_partitioned_database(make_rows(0, 200)))
        query = aggregate("events").count().group_by("kind").build()
        planned = session.plan_for(query).table_plans[0].aggregate_strategy
        assert planned.tier == TIER_PARTITION_PARTIAL
        result = session.execute(query)
        assert result.agg_strategies["events"] == planned.describe()
        text = session.explain(query, analyze=True)
        assert f"    {'events':<22}{planned.describe()}" in text


# -- per-partition statistics and the estimator ----------------------------------------


class TestPartitionStatistics:
    def test_catalog_records_partition_synopses(self):
        database = build_partitioned_database(make_rows(0, 200, null_every=7))
        statistics = database.statistics("events")
        labels = [partition.label for partition in statistics.partitions]
        assert labels == ["main", "hot"]
        main, hot = statistics.partitions
        assert main.num_rows == 150 and hot.num_rows == 50
        assert main.columns["day"].min_value == 0
        assert main.columns["day"].max_value == 149
        assert hot.columns["day"].min_value == 150
        assert hot.columns["day"].null_count == 0
        assert main.columns["score"].null_count == len(
            [i for i in range(150) if i % 7 == 0]
        )

    def test_unpartitioned_tables_record_no_partitions(self):
        database = build_database(Store.COLUMN, make_rows(0, 50))
        assert database.statistics("events").partitions == ()

    def test_estimator_prices_partition_pruning_exactly(self):
        from repro.core.cost_model.estimator import (
            TableProfile,
            partition_scan_fraction,
        )

        database = build_partitioned_database(make_rows(0, 200))
        profile = TableProfile(
            schema=SCHEMA, statistics=database.statistics("events")
        )
        assert partition_scan_fraction(None, profile) == 1.0
        assert partition_scan_fraction(lt("day", 50), profile) == pytest.approx(0.75)
        assert partition_scan_fraction(ge("day", 150), profile) == pytest.approx(0.25)
        assert partition_scan_fraction(gt("day", 10_000), profile) == 0.0
        with zone_pruning_disabled():
            assert partition_scan_fraction(lt("day", 50), profile) == 1.0

    def test_statistics_fingerprint_tracks_partition_bounds(self):
        database = build_partitioned_database(make_rows(0, 200))
        before = database.statistics("events").fingerprint
        database.execute(insert("events", [
            {"id": 900, "day": 400, "kind": "kx", "score": 1.0}
        ]))
        database.refresh_statistics("events")
        assert database.statistics("events").fingerprint != before
