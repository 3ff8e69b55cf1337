"""One float order: NaN equals every NaN and ranks above every number.

``GROUP BY`` puts every NaN row in one group, ``MAX`` is NaN if any input is
NaN, ``MIN`` is NaN only if every non-NULL input is, and a float has one
zero (-0.0 is stored as 0.0).  So an answer depends neither on row order nor
on the layout, the aggregation tier or the shard fan-out — checked here down
to ``float.hex`` against an oracle computed from the rows' multiset.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import DataType, Store, TableSchema
from repro.engine.database import HybridDatabase
from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column
from repro.engine.shard import shard_config, shutdown_worker_pool
from repro.engine.statistics import compute_table_statistics
from repro.query.builder import aggregate, insert, select
from repro.query.predicates import eq, ge

pytestmark = pytest.mark.fuzz

NAN = float("nan")

SCHEMA = TableSchema("t", (
    Column("id", DataType.INTEGER, primary_key=True),
    Column("g", DataType.INTEGER),
    Column("f", DataType.DOUBLE, nullable=True),
))


def hot_main(hot_from):
    return TablePartitioning(horizontal=HorizontalPartitionSpec(predicate=ge("id", hot_from)))


def hot_vertical(hot_from):
    return TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=ge("id", hot_from)),
        vertical=VerticalPartitionSpec(row_store_columns=("g",), column_store_columns=("f",)),
    )


#: layout name -> (store, partitioning for a hot partition from id ``h``).
LAYOUTS = {
    "row": (Store.ROW, None),
    "column": (Store.COLUMN, None),
    "hot/main": (Store.COLUMN, hot_main),
    "hot+vertical": (Store.COLUMN, hot_vertical),
}


def build(layout, floats, loaded=None, groups=None):
    """``t`` holding *floats* in row order (id = position): the first
    *loaded* rows bulk-loaded, the partitioning applied, the rest inserted."""
    store, partitioning = LAYOUTS[layout]
    loaded = len(floats) if loaded is None else loaded
    rows = [
        {"id": i, "g": 0 if groups is None else groups[i], "f": f}
        for i, f in enumerate(floats)
    ]
    database = HybridDatabase()
    database.create_table(SCHEMA, store)
    database.load_rows("t", rows[:loaded])
    if partitioning is not None:
        database.apply_partitioning("t", partitioning(max(1, loaded // 2)))
    if rows[loaded:]:
        database.execute(insert("t", rows[loaded:]))
    return database


def bits(value):
    """*value* down to its float bits (``float.hex`` reads every NaN ``nan``)."""
    return value.hex() if isinstance(value, float) else repr(value)


def answer(rows):
    """Result rows as a sorted multiset of bit-exact tuples."""
    return sorted(tuple(sorted((name, bits(value)) for name, value in row.items()))
                  for row in rows)


PROBE_LAYOUTS = ["row", "column", "hot/main"]


# -- the probe findings -------------------------------------------------------------


@pytest.mark.parametrize("layout", PROBE_LAYOUTS)
@pytest.mark.parametrize("order", list(itertools.permutations([1.0, NAN, 0.5])),
                         ids=lambda order: "-".join(map(repr, order)))
def test_min_and_max_do_not_depend_on_row_order(layout, order):
    database = build(layout, list(order), loaded=2)
    row, = database.execute(aggregate("t").min("f").max("f").build()).rows
    assert (bits(row["min_f"]), bits(row["max_f"])) == (bits(0.5), bits(NAN))


@pytest.mark.parametrize("layout", PROBE_LAYOUTS)
def test_nan_rows_make_one_group(layout):
    floats = [NAN, 1.0, float("nan"), NAN * 0, 1.0]
    database = build(layout, floats, loaded=3)
    rows = database.execute(aggregate("t").count().group_by("f").build()).rows
    assert answer(rows) == answer([{"f": NAN, "count_star": 3},
                                   {"f": 1.0, "count_star": 2}])


@pytest.mark.parametrize("layout", PROBE_LAYOUTS)
@pytest.mark.parametrize("loaded", [1, 2])
def test_a_signed_zero_reads_back_as_the_one_zero(layout, loaded):
    database = build(layout, [-0.0, 0.0, 2.0], loaded=loaded)
    for key in (0, 1):
        row, = database.execute(select("t").columns("f").where(eq("id", key)).build()).rows
        assert bits(row["f"]) == bits(0.0)
    row, = database.execute(aggregate("t").min("f").max("f").build()).rows
    assert (bits(row["min_f"]), bits(row["max_f"])) == (bits(0.0), bits(2.0))
    groups = database.execute(aggregate("t").count().group_by("f").build()).rows
    assert answer(groups) == answer([{"f": 0.0, "count_star": 2},
                                     {"f": 2.0, "count_star": 1}])


@pytest.mark.parametrize("layout", ["row", "column"])
@pytest.mark.parametrize("floats", [[NAN, float("nan"), None, 1.0], [NAN, 1.0, 0.5]],
                         ids=["nan-nan-null-one", "nan-one-half"])
def test_catalog_statistics_follow_the_one_float_order(layout, floats):
    """What the estimator prices plans from: one distinct NaN, NaN the
    maximum and never the minimum while a number is present."""
    database = build(layout, floats)
    stats = compute_table_statistics(database.table_object("t")).column("f")
    reals = [f for f in floats if f is not None and f == f]
    assert stats.num_distinct == len(set(reals)) + 1 + (None in floats)
    assert (bits(stats.min_value), bits(stats.max_value)) == (bits(min(reals)), bits(NAN))


# -- the property -------------------------------------------------------------------


def expected(query_name, floats, groups):
    """The oracle: the one float order applied to the rows' multiset."""
    def fold(values):
        present = [f for f in values if f is not None]
        reals = [f + 0.0 for f in present if f == f]  # + 0.0: the one zero
        has_nan = len(reals) < len(present)
        return {
            "count_star": len(values),
            "count_f": len(present),
            "min_f": min(reals) if reals else (NAN if has_nan else None),
            "max_f": NAN if has_nan else (max(reals) if reals else None),
        }

    def key(value):
        if isinstance(value, float):
            return "NaN" if value != value else value + 0.0
        return value

    if query_name == "ungrouped":
        return answer([fold(floats)])
    name = query_name[-1]
    members = {}
    for value, f in zip(floats if name == "f" else groups, floats):
        members.setdefault(key(value), []).append(f)
    return answer([
        dict(fold(values), **{name: NAN if k == "NaN" else k})
        for k, values in members.items()
    ])


QUERIES = {
    "ungrouped": aggregate("t").count().count("f").min("f").max("f").build(),
    "by f": aggregate("t").count().count("f").min("f").max("f").group_by("f").build(),
    "by g": aggregate("t").count().count("f").min("f").max("f").group_by("g").build(),
}

FLOATS = st.sampled_from([None, NAN, 0.0, -0.0, 1.5, -2.25, float("inf")])


@st.composite
def multisets(draw):
    """One multiset of ``(g, f)`` rows, drawn in one order and permuted."""
    cells = draw(st.lists(st.tuples(st.integers(0, 2), FLOATS), min_size=2, max_size=12))
    order = draw(st.permutations(range(len(cells))))
    loaded = draw(st.integers(1, len(cells)))
    return [cells[i] for i in order], loaded


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_worker_pool()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=multisets())
def test_every_order_layout_and_tier_answers_the_oracle(case):
    cells, loaded = case
    groups = [g for g, _ in cells]
    floats = [f for _, f in cells]
    oracle = {name: expected(name, floats, groups) for name in QUERIES}
    for layout in LAYOUTS:
        database = build(layout, floats, loaded, groups)
        for name, query in QUERIES.items():
            assert answer(database.execute(query).rows) == oracle[name], (layout, name)
            with aggregate_pushdown_disabled():
                assert answer(database.execute(query).rows) == oracle[name], (layout, name)
    sharded = build("column", floats, groups=groups)
    with shard_config(fan_out=2, min_rows=1):
        for name, query in QUERIES.items():
            with aggregate_pushdown_disabled():
                result = sharded.execute(query)
            assert result.shard_stats, name
            assert answer(result.rows) == oracle[name], ("sharded", name)
            if name != "ungrouped":  # else answered zero-scan from the zones
                result = sharded.execute(query)
                assert result.shard_stats, name
                assert answer(result.rows) == oracle[name], ("sharded", name)
