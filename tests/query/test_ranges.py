"""One property over every consumer of a leaf's value ranges.

:func:`repro.query.ranges.ranges_of` is the one statement of what a leaf
predicate matches; every engine consumer is an interval operation over it.
For random value multisets and random leaves of all six kinds — NULL and NaN
literals, exclusive and open bounds included — each consumer must agree with
the scalar reference :meth:`Predicate.evaluate`:

* zone can-match is a superset of the reference, must-match a subset, for
  the zones either store derives;
* the column store's code mask (with and without a position index, with a
  delta), the row store's sorted-index and hash-index positions, and the
  value mask each equal it.

Run under ``-W error::RuntimeWarning``: a value mask that makes numpy warn
would warn users too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import column_store
from repro.engine.batch import values_to_array, vectorized_value_mask
from repro.engine.column_store import ColumnStoreTable
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.zonemap import ColumnZone, zone_can_match, zone_must_match
from repro.query.predicates import Between, CompareOp, Comparison, InList, IsNull, Not

pytestmark = [pytest.mark.fuzz, pytest.mark.filterwarnings("error::RuntimeWarning")]

NAN = float("nan")

#: Cell values and literals per column type: NULL, NaN, ±0.0 and integers
#: stored as DOUBLE; strings with a trailing NUL, which numpy's fixed-width
#: strings would silently drop.
_DOUBLE_CELLS = [None, NAN, 0.0, -0.0, -1.0, 1.0, 2.0, 1.5, 3.0]
_DOUBLE_LITERALS = [None, NAN, 0.0, -0.0, -1.0, 1.0, 1, 2, 1.5, 2.5, 3.0, -5.0, 9.0]
_TEXT_CELLS = [None, "", "a", "a\x00", "b", "ab"]
_TEXT_LITERALS = [None, "", "a", "a\x00", "aa", "b", "c"]

_COLUMNS = {"x": ("DOUBLE", _DOUBLE_CELLS, _DOUBLE_LITERALS),
            "s": ("VARCHAR", _TEXT_CELLS, _TEXT_LITERALS)}


def _schema(column, dtype):
    from repro.engine.types import DataType

    return TableSchema(
        "t",
        (Column("id", DataType.INTEGER, primary_key=True),
         Column(column, getattr(DataType, dtype), nullable=True)),
    )


def _leaf(column, literals):
    literal = st.sampled_from(literals)
    bound = st.one_of(st.none(), literal.filter(lambda value: value is not None))
    return st.one_of(
        st.builds(Comparison, st.just(column), st.sampled_from(list(CompareOp)), literal),
        st.tuples(bound, bound, st.booleans(), st.booleans())
        .filter(lambda drawn: drawn[:2] != (None, None))
        .map(lambda drawn: Between(column, *drawn)),
        st.builds(InList, st.just(column),
                  st.lists(literal, min_size=1, max_size=4).map(tuple)),
        st.builds(IsNull, st.just(column)),
    )


@st.composite
def _cases(draw):
    column = draw(st.sampled_from(sorted(_COLUMNS)))
    dtype, cells, literals = _COLUMNS[column]
    values = draw(st.lists(st.sampled_from(cells), max_size=24))
    delta = draw(st.lists(st.sampled_from(cells), max_size=4))
    return column, dtype, values, delta, draw(_leaf(column, literals))


def _reference(leaf, column, values):
    return [position for position, value in enumerate(values)
            if leaf.evaluate({column: value})]


def _synopsis(values):
    reals = [value for value in values if value is not None and value == value]
    return ColumnZone(
        min(reals) if reals else None, max(reals) if reals else None,
        sum(value is None for value in values), len(values),
        any(value is not None and value != value for value in values),
    )


def _rows(column, values, offset=0):
    return [{"id": offset + i, column: value} for i, value in enumerate(values)]


def _check_zones(leaf, column, zones, expected, num_rows):
    for zone in zones:
        if expected:
            assert zone_can_match(leaf, {column: zone}, num_rows), (leaf, zone)
        if zone_must_match(leaf, {column: zone}, num_rows):
            assert len(expected) == num_rows, (leaf, zone)


def _check_column_store(leaf, column, dtype, values, delta):
    everything = values + delta
    expected = _reference(leaf, column, everything)
    table = ColumnStoreTable(_schema(column, dtype))
    load_rows(table, _rows(column, values))
    table.insert_rows(_rows(column, delta, offset=len(values)))
    assert table.filter_positions(leaf).tolist() == expected, leaf
    assert table.filter_positions(Not(leaf)).tolist() == [
        position for position in range(len(everything)) if position not in expected
    ], leaf
    _check_zones(leaf, column, [table.column_zone(column)], expected, len(everything))
    table.merge_delta()
    assert table.filter_positions(leaf).tolist() == expected, leaf
    table.compressed_column(column).build_position_index()
    with mock.patch.object(column_store, "_lookup_pays", return_value=True):
        assert table.filter_positions(leaf).tolist() == expected, leaf


def _check_row_store(leaf, column, dtype, values, expected):
    for hashed in (False, True):
        table = RowStoreTable(_schema(column, dtype))
        load_rows(table, _rows(column, values))
        table.create_sorted_index(column)
        if hashed:
            table.create_hash_index(column)
        access = table.index_access(leaf)
        if access is not None:
            _, probe, args = access
            assert sorted(probe(*args)) == expected, (leaf, hashed)
        # An index hands its positions out in key order.
        assert sorted(table.filter_positions(leaf).tolist()) == expected, leaf
        _check_zones(leaf, column, [table.column_zone(column)], expected, len(values))


class TestEveryConsumerAgreesWithTheReference:
    @settings(max_examples=400, deadline=None)
    @given(case=_cases())
    @example(case=("x", "DOUBLE", [3.0, NAN, 1.5, 5.0, 4.5, 2.0, 0.5], [],
                   Comparison("x", CompareOp.GT, 1.0)))
    @example(case=("x", "DOUBLE", [NAN, 1.5, None], [NAN],
                   Between("x", NAN, 2.0, False, True)))
    @example(case=("x", "DOUBLE", [NAN, 1.5, 5.0, None], [],
                   Between("x", 1.0, 2.0)))
    def test_property(self, case):
        column, dtype, values, delta, leaf = case
        expected = _reference(leaf, column, values)
        _check_zones(leaf, column, [_synopsis(values)], expected, len(values))
        mask = vectorized_value_mask(leaf, {column: values_to_array(values)}, len(values))
        if mask is not None:
            assert np.flatnonzero(mask).tolist() == expected, leaf
        _check_row_store(leaf, column, dtype, values, expected)
        _check_column_store(leaf, column, dtype, values, delta)
