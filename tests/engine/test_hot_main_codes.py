"""A table's parts meet in main's code domain.

When a populated hot row-store partition and the column-store main are
stacked (``ColumnBatch.concat``), a column whose hot values main's sorted
dictionary already holds stays an :class:`EncodedColumn` over that
dictionary.  Integer, boolean and string columns qualify; floats, NULL-
bearing object arrays and hot values main lacks keep the decoded stack.

The property runs grouped aggregates and joins over a hot/main layout and a
hot + vertical-main layout and compares them, by ``repr`` (rows, group
order, float bits), with the same statements over an unpartitioned
row-store table holding the same rows in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import DataType, Store, TableSchema
from repro.engine.batch import EncodedColumn
from repro.engine.database import HybridDatabase
from repro.engine.executor.rewrite import PartitionedAccessPath
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column
from repro.engine.timing import CostAccountant
from repro.query.builder import aggregate, delete, insert, update
from repro.query.predicates import eq, ge, in_list

pytestmark = [pytest.mark.fuzz, pytest.mark.filterwarnings("error::RuntimeWarning")]

SCHEMA = TableSchema(
    "t",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("k", DataType.INTEGER, nullable=True),
        Column("s", DataType.VARCHAR, nullable=True),
        Column("f", DataType.DOUBLE, nullable=True),
        Column("b", DataType.BOOLEAN),
        Column("v", DataType.INTEGER),
    ),
)

#: ``d`` joins ``t`` both ways: ``t.k = d.id`` with ``t`` as the base, and
#: ``d.k = t.id`` with ``t`` as the dimension whose columns are fetched.
DIMENSION = TableSchema(
    "d",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("k", DataType.INTEGER),
        Column("s", DataType.VARCHAR),
    ),
)

#: Rows with ``id >= HOT_FROM`` start in the hot partition; inserts follow.
HOT_FROM = 1000

LAYOUTS = {
    "hot/main": TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=ge("id", HOT_FROM)),
    ),
    "hot+vertical": TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=ge("id", HOT_FROM)),
        vertical=VerticalPartitionSpec(
            row_store_columns=("v",), column_store_columns=("k", "s", "f", "b"),
        ),
    ),
}

# Every pool holds 0.0 beside -0.0: a float has one zero in every store.
# Floats are multiples of 1/8: every sum here is exact in any order.
MAIN_K = [None, -3, 0, 1, 2, 7, 2 ** 40]
HOT_K = [1, 2, -3, 5, 99, 0, 7, 2 ** 40]
MAIN_S = [None, "", "a", "b", "é", "zz"]
HOT_S = ["a", "b", "c", "", "new", "é", "zz"]
MAIN_F = [None, -0.0, 0.125, 0.5, 0.0, 2.25]
HOT_F = [0.5, 0.0, 9.5, 0.125, -0.0, 2.25]


def cells(k_pool, s_pool, f_pool):
    """Rows over the pools, each NULL-able and the floats NaN-able.

    Main's pools lead with NULL, so main's dictionaries often reserve code
    0; hot rows reach NULL last, so they often hold none and take the rule.
    Every NaN cell is its own object, as a parsed or computed NaN is.
    """
    def nullable(pool):
        return st.one_of(st.sampled_from(pool), st.none())

    floats = st.one_of(nullable(f_pool), st.builds(float, st.just("nan")))
    return st.fixed_dictionaries({
        "k": nullable(k_pool),
        "s": nullable(s_pool),
        "f": floats,
        "b": st.booleans(),
        "v": st.integers(-50, 50),
    })


@st.composite
def scenarios(draw):
    main = draw(st.lists(cells(MAIN_K, MAIN_S, MAIN_F), min_size=1, max_size=25))
    hot = draw(st.lists(cells(HOT_K, HOT_S, MAIN_F[1:]), max_size=8))
    inserted = draw(st.lists(cells(HOT_K, HOT_S, HOT_F), min_size=1, max_size=10))
    rows = [dict(row, id=i) for i, row in enumerate(main)]
    rows += [dict(row, id=HOT_FROM + i) for i, row in enumerate(hot)]
    inserted = [dict(row, id=2 * HOT_FROM + i) for i, row in enumerate(inserted)]
    doomed = draw(st.lists(st.integers(0, len(main) - 1), max_size=4))
    changed = draw(st.integers(0, len(main) - 1))
    return rows, doomed, changed, inserted


DIMENSION_ROWS = [
    {"id": i, "k": (i * 7) % 30, "s": "abc"[i % 3]} for i in range(-5, 30)
] + [{"id": HOT_FROM + i, "k": 2 * HOT_FROM + i, "s": "x"} for i in range(12)]


def build(store, partitioning, scenario):
    """``t`` and ``d`` with *scenario*'s rows, deletes, update and inserts."""
    rows, doomed, changed, inserted = scenario
    database = HybridDatabase()
    database.create_table(SCHEMA, store)
    database.load_rows("t", rows)
    if partitioning is not None:
        database.apply_partitioning("t", partitioning)
    database.create_table(DIMENSION, Store.COLUMN)
    database.load_rows("d", DIMENSION_ROWS)
    if doomed:
        database.execute(delete("t", in_list("id", sorted(set(doomed)))))
    # One main row takes values main does not hold, which may orphan the
    # dictionary entries it held alone.
    database.execute(update("t", {"k": 11, "s": "orphan-maker"}, eq("id", changed)))
    database.execute(insert("t", inserted))
    return database


QUERIES = [
    aggregate("t").count().sum("v").min("s").max("k").group_by("k").build(),
    aggregate("t").count().sum("k").min("f").max("s").avg("v").group_by("s").build(),
    aggregate("t").count().sum("v").max("b").group_by("f").build(),
    aggregate("t").count().min("f").max("f").sum("f").group_by("b").build(),
    aggregate("t").count().min("v").group_by("b", "s").build(),
    aggregate("t").count().sum("v").group_by("k", "s").build(),
    aggregate("t").count().sum("v").min("d.s").group_by("d.s")
    .join("d", "k", "id").build(),
    aggregate("t").count().sum("v").group_by("s", "d.k").join("d", "k", "id").build(),
    aggregate("d").count().sum("t.v").min("t.s").group_by("t.s")
    .join("t", "k", "id").build(),
    aggregate("d").count().max("t.f").group_by("t.k").join("t", "k", "id").build(),
    aggregate("d").count().sum("t.f").min("t.f").group_by("t.s")
    .join("t", "k", "id").build(),
    aggregate("d").count().group_by("t.b", "t.s").join("t", "k", "id").build(),
]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_aggregates_and_joins_over_hot_and_main_equal_the_row_store(layout, scenario):
    reference = build(Store.ROW, None, scenario)
    partitioned = build(Store.COLUMN, LAYOUTS[layout], scenario)
    assert partitioned.table_object("t").hot.num_rows > 0
    for query in QUERIES:
        expected = reference.execute(query).rows
        assert repr(partitioned.execute(query).rows) == repr(expected), query


# -- representation ---------------------------------------------------------------


def hot_main_table(hot_rows):
    database = HybridDatabase()
    database.create_table(SCHEMA, Store.COLUMN)
    database.load_rows("t", [
        {"id": i, "k": i % 4, "s": "abc"[i % 3], "f": i / 8, "b": i % 2 == 0, "v": i}
        for i in range(40)
    ])
    database.apply_partitioning("t", LAYOUTS["hot/main"])
    if hot_rows:
        database.execute(insert("t", hot_rows))
    return database.table_object("t")


def collected(table, encode_columns=()):
    return PartitionedAccessPath(table).collect_batch(
        ["id", "k", "s", "f", "b"], None, CostAccountant(),
        encode_columns=encode_columns,
    )


@pytest.mark.parametrize("encode_columns", [(), ("s", "k")])
def test_hot_values_main_holds_stay_in_mains_code_domain(encode_columns):
    hot_rows = [
        {"id": 100 + i, "k": i % 4, "s": "cab"[i % 3], "f": 0.5, "b": True, "v": i}
        for i in range(6)
    ]
    table = hot_main_table(hot_rows)
    main = table.main_parts[0].backend
    batch = collected(table, encode_columns)
    for name in ("k", "s", "b"):
        column = batch.raw(name)
        assert isinstance(column, EncodedColumn), name
        assert column.dictionary is main.compressed_column(name).dictionary
        assert column.values.tolist() == (
            main.column_values(name) + [row[name] for row in hot_rows]
        )
    # Hot ids are new to main; floats never take the rule.
    assert isinstance(batch.raw("id"), np.ndarray)
    assert isinstance(batch.raw("f"), np.ndarray)


def test_a_hot_value_main_lacks_keeps_the_decoded_stack():
    hot_rows = [
        {"id": 100, "k": 1, "s": "a", "f": 0.5, "b": True, "v": 0},
        {"id": 101, "k": 77, "s": "not-in-main", "f": 0.5, "b": True, "v": 1},
    ]
    table = hot_main_table(hot_rows)
    batch = collected(table, ("s",))
    for name in ("k", "s"):
        assert isinstance(batch.raw(name), np.ndarray), name
        assert batch.raw(name).tolist()[-2:] == [row[name] for row in hot_rows]


def test_an_orphaned_entry_serves_the_hot_value_it_holds():
    table = hot_main_table([])
    main = table.main_parts[0].backend
    # Row 1 takes "zz" and gives it back: "zz" stays in main's dictionary
    # with no main row holding it.
    path = PartitionedAccessPath(table)
    path.update({"s": "zz"}, eq("id", 1), CostAccountant())
    path.update({"s": "b"}, eq("id", 1), CostAccountant())
    dictionary = main.compressed_column("s").dictionary
    assert "zz" in dictionary.real_values
    assert "zz" not in main.column_values("s")
    table.insert_rows([{"id": 500, "k": 9, "s": "zz", "f": 0.0, "b": False, "v": 0}])
    column = collected(table, ("s",)).raw("s")
    assert isinstance(column, EncodedColumn) and column.dictionary is dictionary
    assert column.values.tolist()[-1] == "zz"
