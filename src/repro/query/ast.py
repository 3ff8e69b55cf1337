"""Query model (a small, typed abstract syntax of the supported queries).

The storage advisor reasons about five query classes, exactly those of the
paper's cost model (Section 3.1):

* :class:`AggregationQuery` — OLAP: aggregates, optional grouping, optional
  joins against other tables.
* :class:`SelectQuery` — point and range queries (OLTP reads).
* :class:`InsertQuery`, :class:`UpdateQuery`, :class:`DeleteQuery` — OLTP
  writes.

Queries are immutable dataclasses.  Columns of joined tables are referenced
with a ``"table.column"`` qualified name (used by group-by lists and join
predicates in the star-schema and TPC-H workloads).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Mapping, Optional, Tuple, Union

from repro.errors import QueryError
from repro.query.predicates import Predicate


class QueryType(enum.Enum):
    """The query classes distinguished by the cost model."""

    AGGREGATION = "aggregation"
    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class AggregateFunction(enum.Enum):
    """Supported aggregation functions."""

    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT = "count"


@dataclass(frozen=True)
class Parameter:
    """A placeholder for a literal, bound at execute time.

    The parser produces one per ``?`` (positional, numbered left to right
    from 0) or ``:name`` (named) placeholder; the session layer's bind step
    (:mod:`repro.api.binder`) substitutes the actual value — type-checked and
    coerced against the catalog schema — before execution.  A query carrying
    unbound parameters can be *planned* (placeholders contribute default
    selectivities) but never executed.
    """

    index: Optional[int] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.index is None) == (self.name is None):
            raise QueryError("a parameter is either positional or named")

    @property
    def label(self) -> str:
        return "?" if self.name is None else f":{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.label})"


@dataclass(frozen=True)
class LiteralSlot:
    """Where literal number *index* of a statement's text stood.

    The parser lifts literals out of the text before the grammar runs
    (:func:`repro.query.parser.split_literals`), so every statement of one
    shape shares one parsed template; the values travel beside it and are
    put back per execution.  A slot is not a :class:`Parameter`: its value
    binds with *literal* semantics (type-checked, never coerced), and a
    template is never seen outside the parser and the session's caches.
    """

    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"${self.index}"


def split_qualified(name: str) -> Tuple[Optional[str], str]:
    """Split ``"table.column"`` into ``(table, column)``; plain names get ``None``."""
    if "." in name:
        table, column = name.split(".", 1)
        return table, column
    return None, name


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate expression, e.g. ``SUM(revenue)``."""

    function: AggregateFunction
    column: str
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        column = "star" if self.column == "*" else self.column.replace(".", "_")
        return f"{self.function.value}_{column}"


@dataclass(frozen=True)
class JoinClause:
    """Equi-join of the query's base table with another table.

    ``left_column`` belongs to the base table, ``right_column`` to *table*.
    """

    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class AggregationQuery:
    """An OLAP aggregation query, optionally grouped and joined."""

    table: str
    aggregates: Tuple[AggregateSpec, ...]
    group_by: Tuple[str, ...] = ()
    predicate: Optional[Predicate] = None
    joins: Tuple[JoinClause, ...] = ()

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("an aggregation query needs at least one aggregate")
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "joins", tuple(self.joins))

    @property
    def query_type(self) -> QueryType:
        return QueryType.AGGREGATION

    @property
    def is_olap(self) -> bool:
        return True

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,) + tuple(join.table for join in self.joins)

    @property
    def has_group_by(self) -> bool:
        return bool(self.group_by)

    def columns_of(self, table: str) -> FrozenSet[str]:
        """Columns of *table* referenced anywhere in the query."""
        columns = set()
        for aggregate in self.aggregates:
            agg_table, column = split_qualified(aggregate.column)
            if (agg_table or self.table) == table:
                columns.add(column)
        for name in self.group_by:
            group_table, column = split_qualified(name)
            if (group_table or self.table) == table:
                columns.add(column)
        if self.predicate is not None:
            for name in self.predicate.columns():
                pred_table, column = split_qualified(name)
                if (pred_table or self.table) == table:
                    columns.add(column)
        for join in self.joins:
            if table == self.table:
                columns.add(join.left_column)
            if table == join.table:
                columns.add(join.right_column)
        return frozenset(columns)

    def aggregated_columns(self, table: Optional[str] = None) -> FrozenSet[str]:
        """Columns used inside aggregate functions (optionally for one table)."""
        columns = set()
        for aggregate in self.aggregates:
            agg_table, column = split_qualified(aggregate.column)
            owner = agg_table or self.table
            if table is None or owner == table:
                columns.add(column)
        return frozenset(columns)


@dataclass(frozen=True)
class SelectQuery:
    """A point or range query returning (a projection of) matching tuples."""

    table: str
    columns: Tuple[str, ...] = ()
    predicate: Optional[Predicate] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def query_type(self) -> QueryType:
        return QueryType.SELECT

    @property
    def is_olap(self) -> bool:
        return False

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    @property
    def selects_all_columns(self) -> bool:
        return not self.columns

    def columns_of(self, table: str) -> FrozenSet[str]:
        if table != self.table:
            return frozenset()
        columns = set(self.columns)
        if self.predicate is not None:
            columns |= self.predicate.columns()
        return frozenset(columns)


@dataclass(frozen=True)
class InsertQuery:
    """Insertion of one or more new tuples."""

    table: str
    rows: Tuple[Mapping[str, Any], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise QueryError("an insert query needs at least one row")
        object.__setattr__(self, "rows", tuple(dict(row) for row in self.rows))

    @property
    def query_type(self) -> QueryType:
        return QueryType.INSERT

    @property
    def is_olap(self) -> bool:
        return False

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def columns_of(self, table: str) -> FrozenSet[str]:
        if table != self.table:
            return frozenset()
        columns: set = set()
        for row in self.rows:
            columns |= set(row)
        return frozenset(columns)


@dataclass(frozen=True)
class UpdateQuery:
    """Update of the tuples matching a predicate."""

    table: str
    assignments: Mapping[str, Any]
    predicate: Optional[Predicate] = None

    def __post_init__(self) -> None:
        if not self.assignments:
            raise QueryError("an update query needs at least one assignment")
        object.__setattr__(self, "assignments", dict(self.assignments))

    @property
    def query_type(self) -> QueryType:
        return QueryType.UPDATE

    @property
    def is_olap(self) -> bool:
        return False

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    @property
    def updated_columns(self) -> FrozenSet[str]:
        return frozenset(self.assignments)

    def columns_of(self, table: str) -> FrozenSet[str]:
        if table != self.table:
            return frozenset()
        columns = set(self.assignments)
        if self.predicate is not None:
            columns |= self.predicate.columns()
        return frozenset(columns)


@dataclass(frozen=True)
class DeleteQuery:
    """Deletion of the tuples matching a predicate."""

    table: str
    predicate: Optional[Predicate] = None

    @property
    def query_type(self) -> QueryType:
        return QueryType.DELETE

    @property
    def is_olap(self) -> bool:
        return False

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,)

    def columns_of(self, table: str) -> FrozenSet[str]:
        if table != self.table or self.predicate is None:
            return frozenset()
        return self.predicate.columns()


Query = Union[AggregationQuery, SelectQuery, InsertQuery, UpdateQuery, DeleteQuery]

WRITE_QUERY_TYPES = frozenset({QueryType.INSERT, QueryType.UPDATE, QueryType.DELETE})
