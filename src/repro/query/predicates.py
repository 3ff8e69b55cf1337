"""Predicate (WHERE-clause) model shared by queries and storage backends.

Predicates are small immutable trees.  They support three operations:

* ``columns()`` — the set of referenced columns (used by the advisor's
  workload statistics and by the vertical-partitioning heuristic),
* ``evaluate(row)`` — row-at-a-time evaluation used by the row store and as
  the fallback path of the column store, and
* ``estimate_selectivity(stats)`` — a cheap selectivity estimate from column
  statistics, used by the cost model's ``f_selectivity`` adjustment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError

#: Default selectivity used when no statistics are available.
DEFAULT_EQUALITY_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 0.25


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def apply(self, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if self is CompareOp.LT:
            return left < right
        if self is CompareOp.LE:
            return left <= right
        if self is CompareOp.GT:
            return left > right
        return left >= right


class Predicate:
    """Base class of all predicates."""

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def estimate_selectivity(self, stats: Optional[Mapping[str, "ColumnStatsLike"]] = None) -> float:
        raise NotImplementedError

    # Convenience combinators -------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


class ColumnStatsLike:
    """Protocol-ish description of the statistics a predicate can use.

    Anything with ``num_distinct``, ``min_value`` and ``max_value`` attributes
    works (see :class:`repro.engine.statistics.ColumnStatistics`).
    """

    num_distinct: int
    min_value: Any
    max_value: Any


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """A predicate that accepts every row (used for unconditional updates)."""

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return True

    def estimate_selectivity(self, stats=None) -> float:
        return 1.0


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> literal`` comparison."""

    column: str
    op: CompareOp
    value: Any

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return self.op.apply(row.get(self.column), self.value)

    def estimate_selectivity(self, stats=None) -> float:
        column_stats = (stats or {}).get(self.column)
        if self.op is CompareOp.EQ:
            if column_stats and getattr(column_stats, "num_distinct", 0) > 0:
                return 1.0 / column_stats.num_distinct
            return DEFAULT_EQUALITY_SELECTIVITY
        if self.op is CompareOp.NE:
            return 1.0 - self.estimate_selectivity_eq(column_stats)
        # Range comparison: interpolate within [min, max] if numeric stats exist.
        if column_stats is not None:
            low = getattr(column_stats, "min_value", None)
            high = getattr(column_stats, "max_value", None)
            if _is_number(low) and _is_number(high) and _is_number(self.value) and high > low:
                fraction = (float(self.value) - float(low)) / (float(high) - float(low))
                fraction = min(1.0, max(0.0, fraction))
                if self.op in (CompareOp.LT, CompareOp.LE):
                    return max(fraction, 1e-6)
                return max(1.0 - fraction, 1e-6)
        return DEFAULT_RANGE_SELECTIVITY

    def estimate_selectivity_eq(self, column_stats) -> float:
        if column_stats and getattr(column_stats, "num_distinct", 0) > 0:
            return 1.0 / column_stats.num_distinct
        return DEFAULT_EQUALITY_SELECTIVITY


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= column <= high`` (bounds optionally exclusive or open)."""

    column: str
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise QueryError("BETWEEN predicate needs at least one bound")

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        """The conjunction of the two comparisons: NaN, on either side, fails it."""
        value = row.get(self.column)
        if value is None:
            return False
        if self.low is not None and not (
            value >= self.low if self.include_low else value > self.low
        ):
            return False
        return self.high is None or bool(
            value <= self.high if self.include_high else value < self.high
        )

    def estimate_selectivity(self, stats=None) -> float:
        column_stats = (stats or {}).get(self.column)
        if column_stats is not None:
            low = getattr(column_stats, "min_value", None)
            high = getattr(column_stats, "max_value", None)
            if _is_number(low) and _is_number(high) and high > low:
                lo = float(self.low) if _is_number(self.low) else float(low)
                hi = float(self.high) if _is_number(self.high) else float(high)
                lo = max(lo, float(low))
                hi = min(hi, float(high))
                if hi <= lo:
                    return 1e-6
                return min(1.0, (hi - lo) / (float(high) - float(low)))
        return DEFAULT_RANGE_SELECTIVITY


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)``.

    Membership is SQL-style chained *equality*: a ``NULL`` member matches
    exactly the NULL rows, and a NaN member matches nothing (``NaN = NaN``
    is false).  Python's ``in`` would additionally match NaN by object
    identity, which depends on how a store boxes its floats — dictionary
    encoding dedups NaN objects while the row store may preserve them — so
    identity semantics cannot be store-independent and are deliberately not
    offered.
    """

    column: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError("IN predicate needs at least one value")
        object.__setattr__(self, "values", tuple(self.values))

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        value = row.get(self.column)
        if value is None:
            return any(member is None for member in self.values)
        return any(
            member is not None and value == member for member in self.values
        )

    def estimate_selectivity(self, stats=None) -> float:
        column_stats = (stats or {}).get(self.column)
        if column_stats and getattr(column_stats, "num_distinct", 0) > 0:
            return min(1.0, len(self.values) / column_stats.num_distinct)
        return min(1.0, len(self.values) * DEFAULT_EQUALITY_SELECTIVITY)


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS NULL``."""

    column: str

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return row.get(self.column) is None

    def estimate_selectivity(self, stats=None) -> float:
        return DEFAULT_EQUALITY_SELECTIVITY


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    predicates: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise QueryError("AND needs at least one operand")
        object.__setattr__(self, "predicates", tuple(self.predicates))

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return all(predicate.evaluate(row) for predicate in self.predicates)

    def estimate_selectivity(self, stats=None) -> float:
        selectivity = 1.0
        for predicate in self.predicates:
            selectivity *= predicate.estimate_selectivity(stats)
        return selectivity


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    predicates: Tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise QueryError("OR needs at least one operand")
        object.__setattr__(self, "predicates", tuple(self.predicates))

    def columns(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return any(predicate.evaluate(row) for predicate in self.predicates)

    def estimate_selectivity(self, stats=None) -> float:
        miss_probability = 1.0
        for predicate in self.predicates:
            miss_probability *= 1.0 - predicate.estimate_selectivity(stats)
        return 1.0 - miss_probability


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    predicate: Predicate

    def columns(self) -> FrozenSet[str]:
        return self.predicate.columns()

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return not self.predicate.evaluate(row)

    def estimate_selectivity(self, stats=None) -> float:
        return max(0.0, 1.0 - self.predicate.estimate_selectivity(stats))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- convenience constructors -------------------------------------------------

def eq(column: str, value: Any) -> Comparison:
    """``column = value``."""
    return Comparison(column, CompareOp.EQ, value)


def ne(column: str, value: Any) -> Comparison:
    """``column != value``."""
    return Comparison(column, CompareOp.NE, value)


def lt(column: str, value: Any) -> Comparison:
    """``column < value``."""
    return Comparison(column, CompareOp.LT, value)


def le(column: str, value: Any) -> Comparison:
    """``column <= value``."""
    return Comparison(column, CompareOp.LE, value)


def gt(column: str, value: Any) -> Comparison:
    """``column > value``."""
    return Comparison(column, CompareOp.GT, value)


def ge(column: str, value: Any) -> Comparison:
    """``column >= value``."""
    return Comparison(column, CompareOp.GE, value)


def between(column: str, low: Any, high: Any) -> Between:
    """``low <= column <= high``."""
    return Between(column, low, high)


def in_list(column: str, values: Sequence[Any]) -> InList:
    """``column IN values``."""
    return InList(column, tuple(values))
