"""Tests for the predicate model (evaluation, columns, selectivity)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.statistics import ColumnStatistics
from repro.engine.types import DataType
from repro.errors import QueryError
from repro.query.predicates import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    TruePredicate,
    between,
    eq,
    ge,
    gt,
    in_list,
    le,
    lt,
    ne,
)

ROW = {"a": 5, "b": "x", "c": None, "d": 2.5}


class TestEvaluation:
    def test_comparison_operators(self):
        assert eq("a", 5).evaluate(ROW)
        assert not eq("a", 6).evaluate(ROW)
        assert ne("a", 6).evaluate(ROW)
        assert lt("a", 6).evaluate(ROW)
        assert le("a", 5).evaluate(ROW)
        assert gt("a", 4).evaluate(ROW)
        assert ge("a", 5).evaluate(ROW)

    def test_null_values_never_match_comparisons(self):
        assert not eq("c", 1).evaluate(ROW)
        assert not lt("c", 1).evaluate(ROW)

    def test_between_bounds(self):
        assert between("a", 1, 5).evaluate(ROW)
        assert not between("a", 6, 10).evaluate(ROW)
        assert not Between("a", 1, 5, include_high=False).evaluate(ROW)
        assert Between("a", 5, None).evaluate(ROW)
        assert Between("a", None, 5).evaluate(ROW)

    def test_between_is_its_two_comparisons_over_nan(self):
        nan = float("nan")
        assert not between("a", 1.0, 2.0).evaluate({"a": nan})
        assert not Between("a", nan, None).evaluate({"a": 1.5})
        assert not Between("a", None, nan, include_high=False).evaluate({"a": 1.5})
        for low, high in ((1.0, 2.0), (nan, 2.0), (1.0, nan)):
            for value in (nan, 0.5, 1.0, 1.5, 2.0, 3.0):
                assert between("a", low, high).evaluate({"a": value}) == (
                    ge("a", low).evaluate({"a": value}) and le("a", high).evaluate({"a": value})
                )
        with pytest.raises(QueryError):
            Between("a")

    def test_in_list_and_is_null(self):
        assert in_list("b", ["x", "y"]).evaluate(ROW)
        assert not in_list("b", ["z"]).evaluate(ROW)
        assert IsNull("c").evaluate(ROW)
        assert not IsNull("a").evaluate(ROW)
        with pytest.raises(QueryError):
            InList("b", ())

    def test_boolean_combinators(self):
        assert And((eq("a", 5), eq("b", "x"))).evaluate(ROW)
        assert not And((eq("a", 5), eq("b", "y"))).evaluate(ROW)
        assert Or((eq("a", 9), eq("b", "x"))).evaluate(ROW)
        assert Not(eq("a", 9)).evaluate(ROW)
        assert (eq("a", 5) & eq("b", "x")).evaluate(ROW)
        assert (eq("a", 9) | eq("b", "x")).evaluate(ROW)
        assert (~eq("a", 9)).evaluate(ROW)

    def test_true_predicate(self):
        assert TruePredicate().evaluate({})
        assert TruePredicate().estimate_selectivity() == 1.0

    def test_columns_collection(self):
        predicate = And((eq("a", 1), Or((between("d", 0, 1), eq("b", "x")))))
        assert predicate.columns() == frozenset({"a", "b", "d"})


class TestSelectivity:
    def make_stats(self):
        return {
            "a": ColumnStatistics("a", DataType.INTEGER, num_distinct=100,
                                  min_value=0, max_value=999),
            "b": ColumnStatistics("b", DataType.VARCHAR, num_distinct=4),
        }

    def test_equality_uses_distinct_count(self):
        stats = self.make_stats()
        assert eq("a", 5).estimate_selectivity(stats) == pytest.approx(0.01)
        assert eq("b", "x").estimate_selectivity(stats) == pytest.approx(0.25)

    def test_range_interpolates_within_min_max(self):
        stats = self.make_stats()
        assert le("a", 499).estimate_selectivity(stats) == pytest.approx(0.5, abs=0.01)
        assert ge("a", 900).estimate_selectivity(stats) == pytest.approx(0.1, abs=0.01)
        assert between("a", 0, 99).estimate_selectivity(stats) == pytest.approx(0.1, abs=0.01)

    def test_defaults_without_statistics(self):
        assert eq("z", 1).estimate_selectivity() == pytest.approx(0.01)
        assert between("z", 0, 1).estimate_selectivity() == pytest.approx(0.25)

    def test_in_list_selectivity(self):
        stats = self.make_stats()
        assert in_list("b", ["x", "y"]).estimate_selectivity(stats) == pytest.approx(0.5)

    def test_combinators_stay_within_bounds(self):
        stats = self.make_stats()
        both = And((eq("a", 1), eq("b", "x"))).estimate_selectivity(stats)
        either = Or((eq("a", 1), eq("b", "x"))).estimate_selectivity(stats)
        negated = Not(eq("a", 1)).estimate_selectivity(stats)
        assert 0.0 <= both <= either <= 1.0
        assert 0.0 <= negated <= 1.0


class TestPredicateProperties:
    @given(
        value=st.integers(min_value=-100, max_value=100),
        threshold=st.integers(min_value=-100, max_value=100),
        op=st.sampled_from(list(CompareOp)),
    )
    @settings(max_examples=100, deadline=None)
    def test_comparison_matches_python_semantics(self, value, threshold, op):
        predicate = Comparison("v", op, threshold)
        python_result = {
            CompareOp.EQ: value == threshold,
            CompareOp.NE: value != threshold,
            CompareOp.LT: value < threshold,
            CompareOp.LE: value <= threshold,
            CompareOp.GT: value > threshold,
            CompareOp.GE: value >= threshold,
        }[op]
        assert predicate.evaluate({"v": value}) == python_result

    @given(
        value=st.integers(min_value=-100, max_value=100),
        low=st.integers(min_value=-100, max_value=100),
        width=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_between_matches_python_semantics(self, value, low, width):
        predicate = Between("v", low, low + width)
        assert predicate.evaluate({"v": value}) == (low <= value <= low + width)

    @given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_not_inverts_evaluation(self, value, threshold):
        predicate = eq("v", threshold)
        assert Not(predicate).evaluate({"v": value}) != predicate.evaluate({"v": value})
