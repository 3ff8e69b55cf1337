"""The bind step: resolve a parsed query against the catalog.

Binding sits between parsing and planning in the session pipeline
(``parse → bind → plan → execute``).  It

* checks that every referenced table and column exists in the catalog,
* type-checks literals against the catalog schema (a string compared to an
  INTEGER column is a :class:`~repro.errors.BindError`, not a silent empty
  result) — the literals a parser template carries beside it
  (:class:`~repro.query.ast.LiteralSlot`) exactly like the ones written
  into an AST: lifted literals are not parameters, and
* substitutes :class:`~repro.query.ast.Parameter` placeholders with the
  supplied parameter values, coercing each through the target column's
  :meth:`~repro.engine.types.DataType.coerce`.

Binding never rewrites literals that already type-check — the bound query
executes with exactly the values the caller wrote, which keeps the session
path result- and cost-identical to the legacy ``HybridDatabase.execute``
path.  The one exception is DATE columns, where ISO string literals are
coerced to :class:`datetime.date` (the legacy path would crash on ordered
comparisons of mixed types).
"""

from __future__ import annotations

import datetime
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.catalog import Catalog
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.errors import BindError, CatalogError, SchemaError
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    LiteralSlot,
    Parameter,
    Query,
    SelectQuery,
    UpdateQuery,
    split_qualified,
)
from repro.query.predicates import (
    And,
    Between,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

Params = Union[None, Sequence[Any], Mapping[str, Any]]


def statement_parameters(query: Query) -> Tuple[Parameter, ...]:
    """All placeholders of *query*, positional ones in index order."""
    found: List[Parameter] = []
    _collect_parameters(query, found)
    positional = sorted(
        (p for p in found if p.index is not None), key=lambda p: p.index
    )
    named: List[Parameter] = []
    seen = set()
    for parameter in found:
        if parameter.name is not None and parameter.name not in seen:
            seen.add(parameter.name)
            named.append(parameter)
    return tuple(positional) + tuple(named)


def has_parameters(query: Query) -> bool:
    return bool(statement_parameters(query))


def bind(query: Query, catalog: Catalog, params: Params = None,
         partial: bool = False, literals: Sequence[Any] = ()) -> Query:
    """Bind *query* against *catalog*, substituting *params* for placeholders.

    *literals* are the values of a parser template's
    :class:`~repro.query.ast.LiteralSlot` markers; they go through the same
    checks as a literal written into the query.

    Returns a (possibly new) query object that is safe to plan and execute;
    raises :class:`BindError` for unknown tables/columns, literals or
    parameters that do not type-check, and parameter lists that do not match
    the statement's placeholders.

    With ``partial=True`` and no *params*, placeholders are left unbound
    (names and types still validate) — this is how ``prepare`` and plain
    ``EXPLAIN`` validate a parameterized statement without values; a
    partially bound query can be planned but not executed.
    """
    binder = _Binder(query, catalog, params, partial=partial, literals=literals)
    return binder.bind()


class _Binder:
    def __init__(self, query: Query, catalog: Catalog, params: Params,
                 partial: bool = False, literals: Sequence[Any] = ()) -> None:
        self.query = query
        self.catalog = catalog
        self.params = params
        self.partial = partial
        self.literals = literals
        self._used_positional = 0
        self._used_named: set = set()

    # -- entry ------------------------------------------------------------------

    def bind(self) -> Query:
        query = self.query
        placeholders = statement_parameters(query)
        self._check_params_shape(placeholders)
        for table in query.tables:
            self._schema(table)
        if isinstance(query, AggregationQuery):
            bound = self._bind_aggregation(query)
        elif isinstance(query, SelectQuery):
            bound = self._bind_select(query)
        elif isinstance(query, InsertQuery):
            bound = self._bind_insert(query)
        elif isinstance(query, UpdateQuery):
            bound = self._bind_update(query)
        elif isinstance(query, DeleteQuery):
            predicate = self._bind_predicate(query.predicate, query.table)
            bound = query if predicate is query.predicate else replace(
                query, predicate=predicate
            )
        else:  # pragma: no cover - exhaustive over the Query union
            raise BindError(f"cannot bind query type {type(query).__name__}")
        self._check_params_consumed(placeholders)
        return bound

    # -- per-statement binding ---------------------------------------------------

    def _bind_aggregation(self, query: AggregationQuery) -> AggregationQuery:
        base = self._schema(query.table)
        for join in query.joins:
            joined = self._schema(join.table)
            self._column(base, join.left_column, query.table)
            self._column(joined, join.right_column, join.table)
        for spec in query.aggregates:
            if spec.column == "*":
                continue
            self._resolve_column(spec.column)
        for name in query.group_by:
            self._resolve_column(name)
        predicate = self._bind_predicate(query.predicate, query.table)
        if predicate is query.predicate:
            return query
        return replace(query, predicate=predicate)

    def _bind_select(self, query: SelectQuery) -> SelectQuery:
        schema = self._schema(query.table)
        for name in query.columns:
            self._column(schema, name, query.table)
        predicate = self._bind_predicate(query.predicate, query.table)
        if predicate is query.predicate:
            return query
        return replace(query, predicate=predicate)

    def _bind_insert(self, query: InsertQuery) -> InsertQuery:
        schema = self._schema(query.table)
        rows = []
        changed = False
        for row in query.rows:
            bound_row: Dict[str, Any] = {}
            for name, value in row.items():
                column = self._column(schema, name, query.table)
                bound = self._bind_value(value, column, query.table)
                bound_row[name] = bound
                changed = changed or bound is not value
            rows.append(bound_row)
        return replace(query, rows=tuple(rows)) if changed else query

    def _bind_update(self, query: UpdateQuery) -> UpdateQuery:
        schema = self._schema(query.table)
        assignments: Dict[str, Any] = {}
        changed = False
        for name, value in query.assignments.items():
            column = self._column(schema, name, query.table)
            bound = self._bind_value(value, column, query.table)
            assignments[name] = bound
            changed = changed or bound is not value
        predicate = self._bind_predicate(query.predicate, query.table)
        if not changed and predicate is query.predicate:
            return query
        return replace(query, assignments=assignments, predicate=predicate)

    # -- predicate binding --------------------------------------------------------

    def _bind_predicate(
        self, predicate: Optional[Predicate], base_table: str
    ) -> Optional[Predicate]:
        if predicate is None or isinstance(predicate, TruePredicate):
            return predicate
        if isinstance(predicate, Comparison):
            name, column = self._resolve_column(predicate.column)
            value = self._bind_value(predicate.value, column, base_table)
            if value is predicate.value and name is predicate.column:
                return predicate
            return Comparison(name, predicate.op, value)
        if isinstance(predicate, Between):
            name, column = self._resolve_column(predicate.column)
            low = self._bind_value(predicate.low, column, base_table)
            high = self._bind_value(predicate.high, column, base_table)
            if (low is predicate.low and high is predicate.high
                    and name is predicate.column):
                return predicate
            return Between(name, low, high,
                           predicate.include_low, predicate.include_high)
        if isinstance(predicate, InList):
            name, column = self._resolve_column(predicate.column)
            values = tuple(
                self._bind_value(value, column, base_table)
                for value in predicate.values
            )
            if (name is predicate.column
                    and all(new is old for new, old in zip(values, predicate.values))):
                return predicate
            return InList(name, values)
        if isinstance(predicate, IsNull):
            name, _ = self._resolve_column(predicate.column)
            return predicate if name is predicate.column else IsNull(name)
        if isinstance(predicate, (And, Or)):
            children = tuple(
                self._bind_predicate(child, base_table)
                for child in predicate.predicates
            )
            if all(new is old for new, old in zip(children, predicate.predicates)):
                return predicate
            return type(predicate)(children)
        if isinstance(predicate, Not):
            child = self._bind_predicate(predicate.predicate, base_table)
            return predicate if child is predicate.predicate else Not(child)
        raise BindError(
            f"cannot bind predicate of type {type(predicate).__name__}"
        )  # pragma: no cover - future predicates

    # -- lookups -----------------------------------------------------------------

    def _schema(self, table: str) -> TableSchema:
        try:
            return self.catalog.schema(table)
        except CatalogError:
            raise BindError(f"unknown table {table!r}") from None

    def _column(self, schema: TableSchema, name: str, table: str) -> Column:
        try:
            return schema.column(name)
        except SchemaError:
            raise BindError(
                f"table {table!r} has no column {name!r}"
            ) from None

    def _resolve_column(self, name: str) -> Tuple[str, Column]:
        """Resolve a possibly qualified *name*: ``(name to execute with, Column)``.

        No store understands ``table.column``, so an unqualified name or one
        qualified with the statement's own table executes as the bare
        column.  A reference to a joined table keeps its qualifier (the
        executor routes — or, in predicates, rejects — by it); a qualifier
        naming any other table is an error.
        """
        query = self.query
        owner, column = split_qualified(name)
        if owner is None or owner == query.table:
            return column, self._column(self._schema(query.table), column, query.table)
        if owner not in {join.table for join in getattr(query, "joins", ())}:
            raise BindError(
                f"column {name!r} references table {owner!r}, which the query "
                "neither selects from nor joins"
            )
        return name, self._column(self._schema(owner), column, owner)

    # -- values and parameters -----------------------------------------------------

    def _bind_value(self, value: Any, column: Column, table: str) -> Any:
        if type(value) is LiteralSlot:
            value = self.literals[value.index]
        elif isinstance(value, Parameter):
            if self.partial and self.params is None:
                return value  # leave unbound: plan-only binding
            raw = self._parameter_value(value)
            if raw is None:
                return None
            try:
                return column.dtype.coerce(raw)
            except SchemaError:
                raise BindError(
                    f"parameter {value.label} = {raw!r} is not valid for column "
                    f"{table}.{column.name} ({column.dtype.value})"
                ) from None
        self._check_literal(value, column, table)
        if column.dtype is DataType.DATE and isinstance(value, str):
            # ISO date strings are the only literal form the parser can
            # produce for DATE columns; coerce them (mixed-type ordered
            # comparisons would crash at execution otherwise).
            try:
                return column.dtype.coerce(value)
            except SchemaError:
                raise BindError(
                    f"literal {value!r} is not a valid date for column "
                    f"{table}.{column.name}"
                ) from None
        return value

    def _check_literal(self, value: Any, column: Column, table: str) -> None:
        if value is None:
            return
        dtype = column.dtype
        ok = True
        if dtype in (DataType.INTEGER, DataType.BIGINT, DataType.DOUBLE,
                     DataType.DECIMAL):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif dtype is DataType.VARCHAR:
            ok = isinstance(value, str)
        elif dtype is DataType.BOOLEAN:
            ok = isinstance(value, bool)
        elif dtype is DataType.DATE:
            ok = isinstance(value, (datetime.date, str))
        if not ok:
            raise BindError(
                f"literal {value!r} ({type(value).__name__}) does not type-check "
                f"against column {table}.{column.name} ({dtype.value})"
            )

    def _parameter_value(self, parameter: Parameter) -> Any:
        if parameter.name is not None:
            if not isinstance(self.params, Mapping):
                raise BindError(
                    f"statement uses named parameter {parameter.label} but "
                    "params is not a mapping"
                )
            if parameter.name not in self.params:
                raise BindError(f"missing value for parameter {parameter.label}")
            self._used_named.add(parameter.name)
            return self.params[parameter.name]
        if isinstance(self.params, Mapping) or self.params is None:
            raise BindError(
                "statement uses positional '?' parameters but params is not a "
                "sequence"
            )
        if parameter.index >= len(self.params):
            raise BindError(
                f"statement needs {parameter.index + 1} positional parameters, "
                f"got {len(self.params)}"
            )
        self._used_positional = max(self._used_positional, parameter.index + 1)
        return self.params[parameter.index]

    def _check_params_shape(self, placeholders: Tuple[Parameter, ...]) -> None:
        positional = [p for p in placeholders if p.index is not None]
        named = [p for p in placeholders if p.name is not None]
        if positional and named:
            raise BindError(
                "statement mixes positional '?' and named ':name' parameters"
            )
        if not placeholders:
            if self.params:
                raise BindError(
                    "params supplied but the statement has no placeholders"
                )
            return
        if self.params is None:
            if self.partial:
                return
            kinds = "?" if positional else ":name"
            raise BindError(
                f"statement has {len(placeholders)} unbound {kinds} "
                "parameter(s) but no params were supplied"
            )

    def _check_params_consumed(self, placeholders: Tuple[Parameter, ...]) -> None:
        if not placeholders or self.params is None:
            return
        positional = [p for p in placeholders if p.index is not None]
        if positional:
            expected = max(p.index for p in positional) + 1
            supplied = len(self.params)  # sequence, checked in _parameter_value
            if supplied != expected:
                raise BindError(
                    f"statement has {expected} positional parameter(s), "
                    f"got {supplied}"
                )
            return
        extra = set(self.params) - self._used_named
        if extra:
            raise BindError(
                f"params contain names the statement does not use: "
                f"{sorted(extra)}"
            )


def _collect_parameters(query: Query, out: List[Parameter]) -> None:
    predicate = getattr(query, "predicate", None)
    if isinstance(query, InsertQuery):
        for row in query.rows:
            for value in row.values():
                if isinstance(value, Parameter):
                    out.append(value)
    if isinstance(query, UpdateQuery):
        for value in query.assignments.values():
            if isinstance(value, Parameter):
                out.append(value)
    if predicate is not None:
        _collect_predicate_parameters(predicate, out)


def _collect_predicate_parameters(predicate: Predicate, out: List[Parameter]) -> None:
    if isinstance(predicate, Comparison):
        if isinstance(predicate.value, Parameter):
            out.append(predicate.value)
    elif isinstance(predicate, Between):
        for value in (predicate.low, predicate.high):
            if isinstance(value, Parameter):
                out.append(value)
    elif isinstance(predicate, InList):
        for value in predicate.values:
            if isinstance(value, Parameter):
                out.append(value)
    elif isinstance(predicate, (And, Or)):
        for child in predicate.predicates:
            _collect_predicate_parameters(child, out)
    elif isinstance(predicate, Not):
        _collect_predicate_parameters(predicate.predicate, out)
