"""A column's derived state serves whole-column GROUP BY.

A column-store column keeps, per version of its codes, the group summary
(counts, codes in use, first rows in first-occurrence order) and the float
weights that a whole-column grouped ``SUM`` / ``AVG`` / ``COUNT`` would
otherwise recompute on every statement.  What is pinned here:

* a second whole-table ``GROUP BY`` reuses the very arrays the first built
  and recomputes no summary;
* a filtered statement builds none, and the decode-then-reduce reference
  behind ``aggregate_pushdown_disabled()`` reads none;
* representation is not billed: charges are equal cold and warm;
* under DML, delta merges, a dictionary-shrinking ``DELETE`` and corruption
  plus repair, answers equal a row-store copy down to ``float.hex``, and a
  flipped code is still detected.
"""

from __future__ import annotations

import random

import pytest

from repro.api import connect
from repro.engine import compression
from repro.engine.column_store import delta_writes_disabled
from repro.engine.compression import DerivedState
from repro.engine.database import HybridDatabase
from repro.engine.executor import aggregates
from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.errors import DataCorruptionError
from repro.query.builder import aggregate, delete, insert, update
from repro.query.predicates import eq, lt
from repro.testing.faults import flip_code_bit

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def schema(name):
    return TableSchema(name, (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("g", DataType.VARCHAR),
        Column("k", DataType.INTEGER),
        Column("v", DataType.DOUBLE),
        Column("q", DataType.INTEGER),
        Column("n", DataType.DOUBLE, nullable=True),
    ))


def make_row(rng, key):
    return {
        "id": key,
        "g": f"g{rng.randrange(7)}",
        "k": rng.randrange(-3, 12),
        "v": rng.choice([0.1, 0.25, 1.5, -2.75, 1e-3, 3.0, 1e16]),
        "q": rng.randrange(-50, 50),
        "n": rng.choice([None, 0.5, 2.0, 0.1]),
    }


def rows(count, seed=0):
    rng = random.Random(seed)
    return [make_row(rng, key) for key in range(count)]


WHOLE = aggregate("t").sum("v").avg("v").count().count("n").group_by("g").build()


def column_database(count=2_000):
    database = HybridDatabase()
    database.create_table(schema("t"), Store.COLUMN)
    database.load_rows("t", rows(count))
    return database


def spy(monkeypatch, method):
    """Every value ``DerivedState.<method>`` returns, in call order."""
    returned = []
    original = getattr(DerivedState, method)

    def recording(self, *args):
        result = original(self, *args)
        returned.append(result)
        return result

    monkeypatch.setattr(DerivedState, method, recording)
    return returned


def count_summaries(monkeypatch):
    """Calls of ``group_summary`` — cached or not — in call order."""
    calls = []
    original = compression.group_summary

    def counting(ids, capacity):
        calls.append(len(ids))
        return original(ids, capacity)

    monkeypatch.setattr(compression, "group_summary", counting)
    monkeypatch.setattr(aggregates, "group_summary", counting)
    return calls


class TestRepresentation:
    def test_a_second_whole_table_group_by_reuses_the_arrays(self, monkeypatch):
        database = column_database()
        summaries = spy(monkeypatch, "group_summary")
        weights = spy(monkeypatch, "float_weights")
        computed = count_summaries(monkeypatch)
        first = database.execute(WHOLE).rows
        assert computed == [2_000]
        second = database.execute(WHOLE).rows
        assert computed == [2_000]  # no bincount over the key any more
        assert repr(first) == repr(second)
        assert len(summaries) == 2 and summaries[0] is summaries[1] is not None
        # SUM(v) and AVG(v) read one weights array, built once.
        assert len(weights) == 4 and all(w is weights[0] for w in weights)
        assert weights[0] is not None and not weights[0].flags.writeable

    def test_a_filtered_statement_builds_none(self, monkeypatch):
        database = column_database()
        summaries = spy(monkeypatch, "group_summary")
        weights = spy(monkeypatch, "float_weights")
        database.execute(
            aggregate("t").sum("v").count().group_by("g").where(lt("id", 500)).build()
        )
        backend = database.table_object("t").backend
        assert summaries == [] and weights == []
        for name in ("g", "v"):
            derived = backend.compressed_column(name).derived
            assert not derived.has_group_summary and not derived.has_float_weights

    def test_the_decode_then_reduce_reference_reads_none(self, monkeypatch):
        database = column_database()
        pushed = database.execute(WHOLE)  # warm
        summaries = spy(monkeypatch, "group_summary")
        weights = spy(monkeypatch, "float_weights")
        with aggregate_pushdown_disabled():
            reference = database.execute(WHOLE)
        assert summaries == [] and weights == []
        assert repr(pushed.rows) == repr(reference.rows)
        assert pushed.cost.components == reference.cost.components

    def test_charges_are_equal_cold_and_warm(self, charge_trace):
        database = column_database()
        for query in (WHOLE, aggregate("t").sum("q").avg("n").group_by("k").build()):
            cold = database.execute(query)
            cold_trace = charge_trace.take()
            warm = database.execute(query)
            assert charge_trace.take() == cold_trace
            assert warm.cost.components == cold.cost.components
            assert repr(warm.rows) == repr(cold.rows)
        backend = database.table_object("t").backend
        assert backend.compressed_column("k").derived.has_group_summary
        assert backend.compressed_column("q").derived.has_float_weights
        # A NULL slot: the gather skips NULL rows, no whole-column weights.
        assert not backend.compressed_column("n").derived.has_float_weights


# -- the differential ------------------------------------------------------------------

#: Whole-table grouped SUM / AVG / COUNT: a string, an integer and a nullable
#: float key and a pair of keys; float, integer and nullable inputs.
GROUPED = [
    lambda table: aggregate(table).sum("v").avg("v").count().group_by("g").build(),
    lambda table: aggregate(table).sum("q").avg("q").count("n").group_by("k").build(),
    lambda table: aggregate(table).sum("n").avg("v").count().group_by("n").build(),
    # Two keys: the ids are a combination, no column's codes.
    lambda table: aggregate(table).sum("v").count().group_by("g", "k").build(),
]


def bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


def answer(result_rows):
    """Rows in order, every float down to its bits."""
    return [tuple((name, bits(value)) for name, value in row.items())
            for row in result_rows]


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(4))
def test_answers_equal_a_row_store_copy_under_dml_and_repair(seed, tmp_path):
    """Both tables hold the same rows in the same order (an inline insert
    waits for the delta to merge), so group order and float bits agree."""
    rng = random.Random(seed)
    session = connect(wal_path=str(tmp_path / "derived.wal"))
    loaded = rows(600, seed)
    for name, store in (("t", Store.COLUMN), ("r", Store.ROW)):
        session.create_table(schema(name), store)
        session.load_rows(name, loaded)
    group_of = {row["id"]: row["g"] for row in loaded}
    next_key = len(loaded)

    def both(statement):
        for name in ("t", "r"):
            session.execute(statement(name))

    def compare():
        for query in GROUPED:
            assert answer(session.execute(query("t")).rows) == answer(
                session.execute(query("r")).rows)

    for _ in range(30):
        compare()
        compare()  # warm: the second statement reads the derived state
        op = rng.choice(["insert", "inline", "update", "delete", "merge", "flip"])
        if op in ("insert", "inline"):
            batch = [make_row(rng, next_key + i) for i in range(rng.randrange(1, 4))]
            next_key += len(batch)
            group_of.update((row["id"], row["g"]) for row in batch)
            if op == "inline":
                session.merge_deltas("t")
                with delta_writes_disabled():
                    both(lambda name: insert(name, batch))
            else:
                both(lambda name: insert(name, batch))
        elif op == "update" and group_of:
            key = rng.choice(sorted(group_of))
            assignments = {"g": f"g{rng.randrange(9)}", "v": rng.choice([0.3, -7.5])}
            group_of[key] = assignments["g"]
            both(lambda name: update(name, assignments, eq("id", key)))
        elif op == "delete":
            # Every row of one group goes: the dictionary shrinks.
            doomed = f"g{rng.randrange(9)}"
            group_of = {key: g for key, g in group_of.items() if g != doomed}
            both(lambda name: delete(name, eq("g", doomed)))
        elif op == "merge":
            session.merge_deltas("t")
        elif op == "flip" and group_of:
            session.merge_deltas("t")
            assert session.verify_integrity().clean  # baselines of this epoch
            backend = session.database.table_object("t").backend
            column = rng.choice(["g", "k", "v"])
            flip_code_bit(backend, column, index=rng.randrange(len(group_of)),
                          bit=rng.randrange(3))
            assert not session.verify_integrity().clean
            with pytest.raises(DataCorruptionError):
                session.execute(aggregate("t").count().group_by(column).build())
            assert session.repair() >= 1
    compare()
    session.close()
