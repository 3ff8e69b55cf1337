"""A small SQL-ish parser for the examples and interactive use.

The parser covers the statement shapes the storage advisor reasons about —
aggregation queries (with GROUP BY and equi-joins), point/range selects,
INSERT, UPDATE and DELETE — and produces the same query objects as the
builders in :mod:`repro.query.builder`.  It is intentionally small: quoted
strings, numbers, ``AND``-connected comparisons and ``BETWEEN`` are supported;
anything fancier should be built with the builder API directly.

A statement is parsed in two steps.  :func:`split_literals` first lifts every
quoted string and number out of the text, leaving a literal-free *template*
(``SELECT * FROM t WHERE id = $0``) and the lifted values; only the template
reaches the grammar (:func:`parse_template`), which turns marker ``$i`` into a
:class:`~repro.query.ast.LiteralSlot`.  So the grammar runs once per statement
*shape* — the session caches templates by their text — and a keyword, comma or
parenthesis inside a string literal can never be mistaken for syntax.
:func:`bind_literals` puts the values back; :func:`parse` is the three in a row.

Two session-layer features surface here:

* **placeholders** — ``?`` (positional, numbered left to right) and ``:name``
  (named) parse into :class:`~repro.query.ast.Parameter` markers wherever a
  literal may appear; the session's bind step substitutes the actual values
  (see :mod:`repro.api.binder`), and
* **positioned errors** — :class:`~repro.errors.ParseError` carries the
  1-based line/column of the offending token *in the original text* whenever
  the parser can locate it (malformed predicates, dangling ``AND``, bad
  literals).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.query.ast import (
    AggregateFunction,
    AggregateSpec,
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    JoinClause,
    LiteralSlot,
    Parameter,
    Query,
    SelectQuery,
    UpdateQuery,
)
from repro.query.predicates import And, Between, CompareOp, Comparison, Predicate

_AGG_FUNCTIONS = {f.value: f for f in AggregateFunction}

_SELECT_RE = re.compile(
    r"^select\s+(?P<projection>.+?)\s+from\s+(?P<table>\w+)"
    r"(?P<joins>(\s+join\s+\w+\s+on\s+[\w.]+\s*=\s*[\w.]+)*)"
    r"(?:\s+where\s+(?P<where>.+?))?"
    r"(?:\s+group\s+by\s+(?P<group>.+?))?"
    r"(?:\s+limit\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_JOIN_RE = re.compile(
    r"join\s+(?P<table>\w+)\s+on\s+(?P<left>[\w.]+)\s*=\s*(?P<right>[\w.]+)",
    re.IGNORECASE,
)
_INSERT_RE = re.compile(
    r"^insert\s+into\s+(?P<table>\w+)\s*\((?P<columns>[^)]*)\)\s*"
    r"values\s*\((?P<values>.*)\)\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_UPDATE_RE = re.compile(
    r"^update\s+(?P<table>\w+)\s+set\s+(?P<assignments>.+?)"
    r"(?:\s+where\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_DELETE_RE = re.compile(
    r"^delete\s+from\s+(?P<table>\w+)(?:\s+where\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_AGGREGATE_ITEM_RE = re.compile(
    r"^(?P<function>\w+)\s*\(\s*(?P<column>[\w.*]+)\s*\)(?:\s+as\s+(?P<alias>\w+))?$",
    re.IGNORECASE,
)
_COMPARISON_RE = re.compile(
    r"^(?P<column>[\w.]+)\s*(?P<op>>=|<=|!=|<>|=|<|>)\s*(?P<value>.+)$",
    re.DOTALL,
)
_BETWEEN_RE = re.compile(
    r"^(?P<column>[\w.]+)\s+between\s+(?P<low>.+?)\s+and\s+(?P<high>.+)$",
    re.IGNORECASE | re.DOTALL,
)
_NAMED_PARAM_RE = re.compile(r"^:(?P<name>[A-Za-z_]\w*)$")
#: A bare literal is one word: ``x OR y = 2`` is not a value the grammar has.
_BARE_WORD_RE = re.compile(r"[\w.+\-]+")
_DANGLING_AND_RE = re.compile(r"(?:^|\s)(and)\s*$", re.IGNORECASE)
_LEADING_AND_RE = re.compile(r"^(and)(?:\s|$)", re.IGNORECASE)

_OPS = {
    "=": CompareOp.EQ,
    "!=": CompareOp.NE,
    "<>": CompareOp.NE,
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
}


#: What :func:`split_literals` takes out of a statement: quoted strings (a
#: doubled quote stays inside) and numbers with their sign, fraction and
#: exponent.  A number touching a word character, dot or sign is not one —
#: ``col1``, ``t2.c3`` and a bare ``2020-01-01`` stay for the grammar — and
#: the ``LIMIT n`` count is part of the statement's shape, so it stays too.
#: The leading lookahead names every character a branch can start with; it
#: lets the scan reject most positions in one test (a third of the time).
_LITERAL_RE = re.compile(
    r"""(?=['"\d.$+\-lL])(?:
        (?P<keep>\blimit\s+\d+)
      | (?P<str>'(?:[^']|'')*'|"(?:[^"]|"")*")
      | (?P<int>(?<![\w.+-])[-+]?\d+(?![\w.+-]))
      | (?P<float>(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.+-]))
      | (?P<marker>\$)
    )""",
    re.IGNORECASE | re.VERBOSE,
)
_SLOT_RE = re.compile(r"\$(\d+)")
_LITERAL_VALUE = {"str": lambda token: token[1:-1], "int": int, "float": float}


def split_literals(statement: str) -> Tuple[str, List[Any]]:
    """Split *statement* into its literal-free template and the lifted values.

    Literal ``i`` (left to right) is replaced by the marker ``$i``.  The
    values keep the type the caller wrote — ``5`` an int, ``5.0`` a float,
    ``'5'`` a string: they are literals, not parameters, and bind as such.
    """
    values: List[Any] = []

    def lift(match: "re.Match[str]") -> str:
        kind = match.lastgroup
        if kind == "keep":
            return match.group()
        if kind == "marker":
            line, column = _line_column(statement, match.start())
            raise ParseError("'$' outside a string literal", line=line,
                             column=column)
        values.append(_LITERAL_VALUE[kind](match.group()))
        return f"${len(values) - 1}"

    return _LITERAL_RE.sub(lift, statement), values


def _line_column(text: str, offset: int) -> Tuple[int, int]:
    """1-based (line, column) of a character *offset* into *text*."""
    prefix = text[:offset]
    return prefix.count("\n") + 1, offset - (prefix.rfind("\n") + 1) + 1


class _ParseContext:
    """Per-statement parsing state: ``?`` numbering and error positions.

    The grammar reads the *template*; errors quote and point into the
    original *statement*, found by putting the lifted literals' source text
    back (:meth:`restore`) — work only a failing parse ever does.
    """

    def __init__(self, template: str, statement: str) -> None:
        self.template = template
        self.statement = statement
        self._next_positional = 0

    def next_parameter(self) -> Parameter:
        parameter = Parameter(index=self._next_positional)
        self._next_positional += 1
        return parameter

    def restore(self, fragment: str) -> str:
        """*fragment* of the template as the caller wrote it."""
        sources = [
            match.group() for match in _LITERAL_RE.finditer(self.statement)
            if match.lastgroup != "keep"
        ]
        return _SLOT_RE.sub(lambda slot: sources[int(slot.group(1))], fragment)

    def error(self, message: str, fragment: Optional[str] = None) -> ParseError:
        """A :class:`ParseError` quoting *fragment* and pointing at it."""
        if not fragment:
            return ParseError(message)
        message = f"{message}: {self.restore(fragment)!r}"
        return self.error_at(message, self.template.find(fragment))

    def error_at(self, message: str, offset: int) -> ParseError:
        """A :class:`ParseError` at character *offset* of the template."""
        if offset < 0 or offset > len(self.template):
            return ParseError(message)
        line, column = _line_column(
            self.statement, len(self.restore(self.template[:offset]))
        )
        return ParseError(message, line=line, column=column)


def parse(statement: str) -> Query:
    """Parse a single SQL-ish statement into a query object.

    Placeholders (``?`` / ``:name``) are preserved as
    :class:`~repro.query.ast.Parameter` markers in the produced query.
    """
    template, values = split_literals(statement)
    return bind_literals(parse_template(template, statement), values)


def parse_template(template: str, statement: str) -> Query:
    """Run the grammar over a literal-free *template* of *statement*.

    The produced query carries a :class:`~repro.query.ast.LiteralSlot`
    wherever :func:`split_literals` lifted a literal out of *statement*
    (which is consulted for error positions only).
    """
    text = template.strip()
    if not text:
        raise ParseError("empty statement")
    context = _ParseContext(template, statement)
    keyword = text.split(None, 1)[0].lower()
    if keyword == "select":
        return _parse_select(text, context)
    if keyword == "insert":
        return _parse_insert(text, context)
    if keyword == "update":
        return _parse_update(text, context)
    if keyword == "delete":
        return _parse_delete(text, context)
    raise context.error("unsupported statement", text)


def bind_literals(template: Query, values: Sequence[Any]) -> Query:
    """The literal-bearing statement: *template* with its lifted *values* back.

    Covers what the grammar produces — ``AND``-connected comparisons and
    ``BETWEEN``, ``INSERT`` rows, ``UPDATE`` assignments.
    """
    if not values:
        return template

    def value_of(item: Any) -> Any:
        return values[item.index] if type(item) is LiteralSlot else item

    def with_values(predicate: Optional[Predicate]) -> Optional[Predicate]:
        if predicate is None:
            return None
        if isinstance(predicate, And):
            return And(tuple(with_values(child) for child in predicate.predicates))
        if isinstance(predicate, Between):
            return replace(predicate, low=value_of(predicate.low),
                           high=value_of(predicate.high))
        return replace(predicate, value=value_of(predicate.value))

    if isinstance(template, InsertQuery):
        return replace(template, rows=tuple(
            {name: value_of(item) for name, item in row.items()}
            for row in template.rows
        ))
    if isinstance(template, UpdateQuery):
        return replace(
            template,
            assignments={name: value_of(item)
                         for name, item in template.assignments.items()},
            predicate=with_values(template.predicate),
        )
    return replace(template, predicate=with_values(template.predicate))


# -- helpers --------------------------------------------------------------------------


def _parse_select(text: str, context: _ParseContext) -> Query:
    match = _SELECT_RE.match(text)
    if not match:
        raise context.error("could not parse SELECT statement", text)
    table = match.group("table")
    projection = match.group("projection").strip()
    predicate = _parse_predicate(match.group("where"), context)
    joins = tuple(
        JoinClause(m.group("table"), _strip_qualifier(m.group("left"), table),
                   _strip_qualifier(m.group("right"), m.group("table")))
        for m in _JOIN_RE.finditer(match.group("joins") or "")
    )
    group_by = tuple(
        part.strip() for part in (match.group("group") or "").split(",") if part.strip()
    )
    limit = int(match.group("limit")) if match.group("limit") else None

    items = [item.strip() for item in projection.split(",") if item.strip()]
    aggregates = []
    plain_columns = []
    for item in items:
        aggregate_match = _AGGREGATE_ITEM_RE.match(item)
        if aggregate_match and aggregate_match.group("function").lower() in _AGG_FUNCTIONS:
            aggregates.append(
                AggregateSpec(
                    _AGG_FUNCTIONS[aggregate_match.group("function").lower()],
                    aggregate_match.group("column"),
                    aggregate_match.group("alias"),
                )
            )
        elif item == "*":
            plain_columns = []
        else:
            plain_columns.append(item)
    if aggregates:
        return AggregationQuery(
            table=table,
            aggregates=tuple(aggregates),
            group_by=group_by,
            predicate=predicate,
            joins=joins,
        )
    if joins or group_by:
        raise context.error("JOIN/GROUP BY is only supported for aggregation queries")
    return SelectQuery(table=table, columns=tuple(plain_columns), predicate=predicate,
                       limit=limit)


def _parse_insert(text: str, context: _ParseContext) -> InsertQuery:
    match = _INSERT_RE.match(text)
    if not match:
        raise context.error("could not parse INSERT statement", text)
    columns = [name.strip() for name in match.group("columns").split(",") if name.strip()]
    values = _split_values(match.group("values"))
    if len(columns) != len(values):
        raise context.error("INSERT column list and VALUES list differ in length")
    row = {name: _parse_literal(value, context) for name, value in zip(columns, values)}
    return InsertQuery(table=match.group("table"), rows=(row,))


def _parse_update(text: str, context: _ParseContext) -> UpdateQuery:
    match = _UPDATE_RE.match(text)
    if not match:
        raise context.error("could not parse UPDATE statement", text)
    assignments = {}
    for part in _split_values(match.group("assignments")):
        if "=" not in part:
            raise context.error("bad assignment in UPDATE", part)
        column, value = part.split("=", 1)
        assignments[column.strip()] = _parse_literal(value.strip(), context)
    return UpdateQuery(
        table=match.group("table"),
        assignments=assignments,
        predicate=_parse_predicate(match.group("where"), context),
    )


def _parse_delete(text: str, context: _ParseContext) -> DeleteQuery:
    match = _DELETE_RE.match(text)
    if not match:
        raise context.error("could not parse DELETE statement", text)
    return DeleteQuery(table=match.group("table"),
                       predicate=_parse_predicate(match.group("where"), context))


def _parse_predicate(text: Optional[str], context: _ParseContext) -> Optional[Predicate]:
    if text is None or not text.strip():
        return None
    stripped = text.strip()
    # The predicate text is a verbatim substring of the template; anchoring
    # positions on its offset (not on a token search, which could hit an
    # identifier containing the same characters) keeps line/column exact.
    predicate_offset = context.template.find(stripped)
    dangling = _DANGLING_AND_RE.search(stripped)
    # A trailing AND inside a BETWEEN is legitimate only when a bound follows,
    # which the strip already ruled out — so any match here is dangling.
    if dangling:
        raise context.error_at(
            "dangling AND at end of predicate",
            predicate_offset + dangling.start(1) if predicate_offset >= 0 else -1,
        )
    if _LEADING_AND_RE.match(stripped):
        raise context.error_at("predicate must not start with AND",
                               predicate_offset)
    raw_parts = re.split(r"\s+and\s+", stripped, flags=re.IGNORECASE)
    # Re-join the AND that belongs to a BETWEEN ... AND ... expression.
    parts: List[str] = []
    index = 0
    while index < len(raw_parts):
        part = raw_parts[index]
        if re.search(r"\bbetween\b", part, re.IGNORECASE) and index + 1 < len(raw_parts):
            part = f"{part} AND {raw_parts[index + 1]}"
            index += 1
        parts.append(part)
        index += 1
    for part in parts:
        part_text = part.strip()
        if not part_text or _LEADING_AND_RE.match(part_text):
            offset = context.template.find(part_text) if part_text else predicate_offset
            raise context.error_at("dangling AND in predicate", offset)
    predicates = [_parse_single_predicate(part.strip(), context) for part in parts]
    if len(predicates) == 1:
        return predicates[0]
    return And(tuple(predicates))


def _parse_single_predicate(text: str, context: _ParseContext) -> Predicate:
    between_match = _BETWEEN_RE.match(text)
    if between_match:
        return Between(
            between_match.group("column"),
            _parse_literal(between_match.group("low").strip(), context),
            _parse_literal(between_match.group("high").strip(), context),
        )
    comparison_match = _COMPARISON_RE.match(text)
    if comparison_match:
        return Comparison(
            comparison_match.group("column"),
            _OPS[comparison_match.group("op")],
            _parse_literal(comparison_match.group("value").strip(), context),
        )
    raise context.error("could not parse predicate", text)


def _parse_literal(token: str, context: _ParseContext) -> Any:
    """What the grammar finds where a literal may stand.

    Strings and ordinary numbers never get here — :func:`split_literals`
    left a ``$i`` marker in their place; what does is a placeholder, a
    keyword constant, or a bare word (a string, or one of the number forms
    the lifter leaves alone: ``nan``, ``1_000``).  Anything else — an ``OR``
    the grammar does not have, say — is a :class:`ParseError`.
    """
    token = token.strip()
    if not token:
        raise context.error("empty literal")
    slot = _SLOT_RE.fullmatch(token)
    if slot:
        return LiteralSlot(int(slot.group(1)))
    if token == "?":
        return context.next_parameter()
    named = _NAMED_PARAM_RE.match(token)
    if named:
        return Parameter(name=named.group("name"))
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "null":
        return None
    if not _BARE_WORD_RE.fullmatch(token):
        raise context.error("could not parse literal", token)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _split_values(text: str) -> List[str]:
    """Split a comma-separated list (no string literal reaches the grammar)."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _strip_qualifier(name: str, table: str) -> str:
    if "." in name:
        qualifier, column = name.split(".", 1)
        if qualifier == table:
            return column
    return name
