"""The bind step: resolve a statement against the catalog, then substitute its values.

Binding sits between parsing and planning in the session pipeline
(``parse → bind → plan → execute``).  It has two phases, split by what
decides each answer:

* **resolve** (:func:`resolve`) runs once per statement shape and layout.
  It looks every name up in the catalog — tables, join keys and the
  projected, grouped, aggregated, assigned, inserted and predicate columns
  (a qualifier naming the statement's own table is stripped, one naming a
  joined table kept) — and collects the placeholders: positional ones in
  index order, then named ones in order of first use.  It raises every
  :class:`~repro.errors.BindError` no value can change: an unknown table or
  column, a qualifier naming a table the statement neither selects from nor
  joins, a statement mixing ``?`` and ``:name``.  What it returns, a
  :class:`Resolution`, stays valid while the tables' layout versions stand;
  the session keeps it beside the parsed template.
* **substitute** (:meth:`Resolution.substitute`) runs once per execution.
  Every value position is checked against the column resolve found for it.
  A literal — written into an AST, or lifted out of SQL text and carried
  beside the template (:class:`~repro.query.ast.LiteralSlot`) — must
  type-check: a string compared to an INTEGER column is a ``BindError``,
  not a silent empty result.  A :class:`~repro.query.ast.Parameter` takes
  its value from *params*, coerced through the column's
  :meth:`~repro.engine.types.DataType.coerce`.  It raises what depends on
  the values: a literal that does not type-check, a parameter value the
  column cannot take, params that do not match the placeholders.  The bound
  statement is built by the nodes' constructors; a node with nothing
  substituted in it is returned as it is.

:func:`bind` runs the two back to back, which is what an AST statement does.
A statement carrying both kinds of error reports the name error.

Binding never rewrites literals that already type-check — the bound query
executes with exactly the values the caller wrote, which keeps the session
path result- and cost-identical to the legacy ``HybridDatabase.execute``
path.  The one exception is DATE columns, where ISO string literals are
coerced to :class:`datetime.date` (the legacy path would crash on ordered
comparisons of mixed types).
"""

from __future__ import annotations

import datetime
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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

#: What substitution does at one node of a statement: ``fill(literals,
#: params)`` returns the bound node.  ``params`` is ``None`` when
#: placeholders stay unbound (plan-only binding).
Fill = Callable[[Sequence[Any], Params], Any]

#: A resolved node: ``(node, fill)`` — *node* as it binds when *fill* is
#: ``None`` (nothing in it depends on a value), else *fill* builds it.
Compiled = Tuple[Any, Optional[Fill]]

_NUMERIC_TYPES = (DataType.INTEGER, DataType.BIGINT, DataType.DOUBLE, DataType.DECIMAL)


def statement_parameters(query: Query) -> Tuple[Parameter, ...]:
    """All placeholders of *query*, positional ones in index order."""
    found: List[Parameter] = []
    _collect_parameters(query, found)
    return _ordered(found)


def bind(query: Query, catalog: Catalog, params: Params = None,
         partial: bool = False, literals: Sequence[Any] = ()) -> Query:
    """Bind *query* against *catalog*, substituting *params* for placeholders.

    Both phases back to back: :func:`resolve`, then
    :meth:`Resolution.substitute` with *literals* — the values of a parser
    template's :class:`~repro.query.ast.LiteralSlot` markers, checked like a
    literal written into the query — and *params*.

    Returns a (possibly new) query object that is safe to plan and execute;
    raises :class:`BindError` for unknown tables/columns, literals or
    parameters that do not type-check, and parameter lists that do not match
    the statement's placeholders.

    With ``partial=True`` and no *params*, placeholders are left unbound
    (names and types still validate) — this is how ``prepare`` and plain
    ``EXPLAIN`` validate a parameterized statement without values; a
    partially bound query can be planned but not executed.
    """
    return resolve(query, catalog).substitute(literals, params, partial)


def resolve(query: Query, catalog: Catalog) -> "Resolution":
    """The resolve phase of binding *query* (see the module docstring)."""
    return _Binder(query, catalog).resolve()


class Resolution:
    """A statement resolved against the catalog: what each execution binds with.

    ``parameters`` are the statement's placeholders (positional first, in
    index order).  :meth:`substitute` is the per-execution phase.
    """

    __slots__ = ("parameters", "_node", "_fill", "_named", "_positional")

    def __init__(self, parameters: Tuple[Parameter, ...], compiled: Compiled) -> None:
        self.parameters = parameters
        self._node, self._fill = compiled
        self._named = frozenset()
        self._positional = 0
        if parameters:
            self._named = frozenset(p.name for p in parameters if p.name is not None)
            self._positional = max(
                (p.index + 1 for p in parameters if p.index is not None), default=0
            )

    def substitute(self, literals: Sequence[Any] = (), params: Params = None,
                   partial: bool = False) -> Query:
        """The bound statement for these *literals* and *params*."""
        parameters = self.parameters
        if not parameters:
            if params:
                raise BindError(
                    "params supplied but the statement has no placeholders"
                )
            params = None
        elif params is None and not partial:
            kinds = "?" if self._positional else ":name"
            raise BindError(
                f"statement has {len(parameters)} unbound {kinds} "
                "parameter(s) but no params were supplied"
            )
        fill = self._fill
        bound = self._node if fill is None else fill(literals, params)
        if params is not None:
            self._check_consumed(params)
        return bound

    def _check_consumed(self, params: Params) -> None:
        """Every supplied value has a placeholder (each placeholder got one)."""
        if self._positional:
            supplied = len(params)  # a sequence: checked per parameter
            if supplied != self._positional:
                raise BindError(
                    f"statement has {self._positional} positional parameter(s), "
                    f"got {supplied}"
                )
            return
        extra = set(params) - self._named
        if extra:
            raise BindError(
                f"params contain names the statement does not use: "
                f"{sorted(extra)}"
            )


class _Binder:
    """The resolve phase: one walk over a statement, each table looked up once."""

    def __init__(self, query: Query, catalog: Catalog) -> None:
        self.query = query
        self.catalog = catalog
        self._schemas: Dict[str, TableSchema] = {}
        #: Placeholders in the order the walk meets them.
        self._found: List[Parameter] = []

    def resolve(self) -> Resolution:
        query = self.query
        schemas = self._schemas
        for table in query.tables:
            if table not in schemas:
                try:
                    schemas[table] = self.catalog.schema(table)
                except CatalogError:
                    raise BindError(f"unknown table {table!r}") from None
        if isinstance(query, AggregationQuery):
            compiled = self._aggregation(query)
        elif isinstance(query, SelectQuery):
            compiled = self._select(query)
        elif isinstance(query, InsertQuery):
            compiled = self._insert(query)
        elif isinstance(query, UpdateQuery):
            compiled = self._update(query)
        elif isinstance(query, DeleteQuery):
            compiled = self._around_predicate(query, (query.table,), ())
        else:  # pragma: no cover - exhaustive over the Query union
            raise BindError(f"cannot bind query type {type(query).__name__}")
        parameters = _ordered(self._found)
        if parameters and parameters[0].index is not None and parameters[-1].name is not None:
            raise BindError(
                "statement mixes positional '?' and named ':name' parameters"
            )
        return Resolution(parameters, compiled)

    # -- statements ----------------------------------------------------------------

    def _aggregation(self, query: AggregationQuery) -> Compiled:
        base = self._schemas[query.table]
        for join in query.joins:
            joined = self._schemas[join.table]
            self._column(base, join.left_column, query.table)
            self._column(joined, join.right_column, join.table)
        for spec in query.aggregates:
            if spec.column != "*":
                self._resolve_column(spec.column)
        for name in query.group_by:
            self._resolve_column(name)
        return self._around_predicate(
            query, (query.table, query.aggregates, query.group_by), (query.joins,)
        )

    def _select(self, query: SelectQuery) -> Compiled:
        schema = self._schemas[query.table]
        for name in query.columns:
            self._column(schema, name, query.table)
        return self._around_predicate(
            query, (query.table, query.columns), (query.limit,)
        )

    def _around_predicate(self, query: Query, before: tuple, after: tuple) -> Compiled:
        """A statement whose predicate is the only part that binds.

        A bound copy is ``type(query)(*before, predicate, *after)``:
        *before* and *after* are the constructor's arguments either side of
        ``predicate``.
        """
        original = query.predicate
        predicate, fill = self._predicate(original, query.table)
        cls = type(query)
        if fill is None:
            if predicate is original:
                return query, None
            return cls(*before, predicate, *after), None

        def fill_statement(literals: Sequence[Any], params: Params) -> Query:
            bound = fill(literals, params)
            return query if bound is original else cls(*before, bound, *after)

        return query, fill_statement

    def _insert(self, query: InsertQuery) -> Compiled:
        table = query.table
        schema = self._schemas[table]
        rows = [
            [
                (name, value, self._value(value, self._column(schema, name, table), table))
                for name, value in row.items()
            ]
            for row in query.rows
        ]

        def fill_insert(literals: Sequence[Any], params: Params) -> InsertQuery:
            bound_rows = []
            changed = False
            for items in rows:
                bound_row: Dict[str, Any] = {}
                for name, value, fill in items:
                    bound = bound_row[name] = fill(literals, params)
                    if bound is not value:
                        changed = True
                bound_rows.append(bound_row)
            return InsertQuery(table, tuple(bound_rows)) if changed else query

        return query, fill_insert

    def _update(self, query: UpdateQuery) -> Compiled:
        table = query.table
        schema = self._schemas[table]
        assignments = [
            (name, value, self._value(value, self._column(schema, name, table), table))
            for name, value in query.assignments.items()
        ]
        original = query.predicate
        predicate, fill_predicate = self._predicate(original, table)

        def fill_update(literals: Sequence[Any], params: Params) -> UpdateQuery:
            bound_assignments: Dict[str, Any] = {}
            changed = False
            for name, value, fill in assignments:
                bound = bound_assignments[name] = fill(literals, params)
                if bound is not value:
                    changed = True
            bound_predicate = (
                predicate if fill_predicate is None
                else fill_predicate(literals, params)
            )
            if not changed and bound_predicate is original:
                return query
            return UpdateQuery(table, bound_assignments, bound_predicate)

        return query, fill_update

    # -- predicates ----------------------------------------------------------------

    def _predicate(self, predicate: Optional[Predicate], table: str) -> Compiled:
        if predicate is None or isinstance(predicate, TruePredicate):
            return predicate, None
        if isinstance(predicate, Comparison):
            return self._comparison(predicate, table)
        if isinstance(predicate, Between):
            return self._between(predicate, table)
        if isinstance(predicate, InList):
            return self._in_list(predicate, table)
        if isinstance(predicate, IsNull):
            name, _ = self._resolve_column(predicate.column)
            return (predicate if name is predicate.column else IsNull(name)), None
        if isinstance(predicate, (And, Or)):
            return self._junction(predicate, table)
        if isinstance(predicate, Not):
            child, fill = self._predicate(predicate.predicate, table)
            if fill is None:
                return (predicate if child is predicate.predicate else Not(child)), None

            def fill_not(literals: Sequence[Any], params: Params) -> Predicate:
                bound = fill(literals, params)
                return predicate if bound is predicate.predicate else Not(bound)

            return predicate, fill_not
        raise BindError(
            f"cannot bind predicate of type {type(predicate).__name__}"
        )  # pragma: no cover - future predicates

    def _comparison(self, predicate: Comparison, table: str) -> Compiled:
        name, column = self._resolve_column(predicate.column)
        fill = self._value(predicate.value, column, table)
        op, value = predicate.op, predicate.value
        renamed = name is not predicate.column

        def fill_comparison(literals: Sequence[Any], params: Params) -> Predicate:
            bound = fill(literals, params)
            if bound is value and not renamed:
                return predicate
            return Comparison(name, op, bound)

        return predicate, fill_comparison

    def _between(self, predicate: Between, table: str) -> Compiled:
        name, column = self._resolve_column(predicate.column)
        fill_low = self._value(predicate.low, column, table)
        fill_high = self._value(predicate.high, column, table)
        low, high = predicate.low, predicate.high
        include_low, include_high = predicate.include_low, predicate.include_high
        renamed = name is not predicate.column

        def fill_between(literals: Sequence[Any], params: Params) -> Predicate:
            bound_low = fill_low(literals, params)
            bound_high = fill_high(literals, params)
            if bound_low is low and bound_high is high and not renamed:
                return predicate
            return Between(name, bound_low, bound_high, include_low, include_high)

        return predicate, fill_between

    def _in_list(self, predicate: InList, table: str) -> Compiled:
        name, column = self._resolve_column(predicate.column)
        members = [
            (value, self._value(value, column, table)) for value in predicate.values
        ]
        renamed = name is not predicate.column

        def fill_in_list(literals: Sequence[Any], params: Params) -> Predicate:
            changed = renamed
            values = []
            for value, fill in members:
                bound = fill(literals, params)
                changed = changed or bound is not value
                values.append(bound)
            return InList(name, tuple(values)) if changed else predicate

        return predicate, fill_in_list

    def _junction(self, predicate: Union[And, Or], table: str) -> Compiled:
        children = [self._predicate(child, table) for child in predicate.predicates]
        originals = predicate.predicates
        cls = type(predicate)
        if all(fill is None for _, fill in children):
            nodes = tuple(node for node, _ in children)
            unchanged = all(new is old for new, old in zip(nodes, originals))
            return (predicate if unchanged else cls(nodes)), None

        def fill_junction(literals: Sequence[Any], params: Params) -> Predicate:
            changed = False
            bound = []
            for (node, fill), original in zip(children, originals):
                if fill is not None:
                    node = fill(literals, params)
                changed = changed or node is not original
                bound.append(node)
            return cls(tuple(bound)) if changed else predicate

        return predicate, fill_junction

    # -- lookups -----------------------------------------------------------------

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
            return column, self._column(self._schemas[query.table], column, query.table)
        if owner not in {join.table for join in getattr(query, "joins", ())}:
            raise BindError(
                f"column {name!r} references table {owner!r}, which the query "
                "neither selects from nor joins"
            )
        return name, self._column(self._schemas[owner], column, owner)

    def _value(self, value: Any, column: Column, table: str) -> Fill:
        """How one value position is filled per execution."""
        if type(value) is LiteralSlot:
            index = value.index
            return lambda literals, params: _bind_literal(literals[index], column, table)
        if isinstance(value, Parameter):
            self._found.append(value)
            return _parameter_fill(value, column, table)
        return lambda literals, params: _bind_literal(value, column, table)


# -- values and parameters (the substitute phase) ---------------------------------------


def _bind_literal(value: Any, column: Column, table: str) -> Any:
    """A literal as it binds to *column*: type-checked, never coerced but for DATE."""
    if value is None:
        return None
    dtype = column.dtype
    ok = True
    if dtype in _NUMERIC_TYPES:
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
    if dtype is DataType.DATE and isinstance(value, str):
        # ISO date strings are the only literal form the parser can
        # produce for DATE columns; coerce them (mixed-type ordered
        # comparisons would crash at execution otherwise).
        try:
            return dtype.coerce(value)
        except SchemaError:
            raise BindError(
                f"literal {value!r} is not a valid date for column "
                f"{table}.{column.name}"
            ) from None
    return value


def _parameter_fill(parameter: Parameter, column: Column, table: str) -> Fill:
    def fill_parameter(literals: Sequence[Any], params: Params) -> Any:
        if params is None:
            return parameter  # leave unbound: plan-only binding
        raw = _parameter_value(parameter, params)
        if raw is None:
            return None
        try:
            return column.dtype.coerce(raw)
        except SchemaError:
            raise BindError(
                f"parameter {parameter.label} = {raw!r} is not valid for column "
                f"{table}.{column.name} ({column.dtype.value})"
            ) from None

    return fill_parameter


def _parameter_value(parameter: Parameter, params: Params) -> Any:
    if parameter.name is not None:
        if not isinstance(params, Mapping):
            raise BindError(
                f"statement uses named parameter {parameter.label} but "
                "params is not a mapping"
            )
        if parameter.name not in params:
            raise BindError(f"missing value for parameter {parameter.label}")
        return params[parameter.name]
    if isinstance(params, Mapping):
        raise BindError(
            "statement uses positional '?' parameters but params is not a "
            "sequence"
        )
    if parameter.index >= len(params):
        raise BindError(
            f"statement needs {parameter.index + 1} positional parameters, "
            f"got {len(params)}"
        )
    return params[parameter.index]


# -- placeholders ------------------------------------------------------------------------


def _ordered(found: List[Parameter]) -> Tuple[Parameter, ...]:
    """Placeholders as a statement lists them: positional by index, then named."""
    if not found:
        return ()
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
