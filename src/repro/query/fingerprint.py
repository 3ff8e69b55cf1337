"""Content fingerprints and literal-free shapes of queries.

The cost model's estimate memo, view matching and the online monitor key by
*content*, not object identity: two structurally identical queries — e.g.
the same SQL text parsed twice, or a prepared statement re-bound with new
parameters — must share entries, while any semantic difference (another
literal, another operator, another column) must produce a different key.
The session's plan cache keys by *shape*: the same content with every
literal masked, so ``WHERE id = 17`` and ``WHERE id = 18`` share one plan.

One walk serialises a query into a canonical token list and yields both
keys (BLAKE2b, 64-bit hex digests) — :func:`query_fingerprint` of all
tokens, :func:`statement_shape` of the tokens with the literal ones masked.
The pair is cached on the query object itself (queries are frozen
dataclasses, so their content cannot change after construction), making
repeated fingerprinting O(1) — important for the advisor's enumeration
loops, which estimate the same query object under thousands of store
assignments.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Tuple

from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    LiteralSlot,
    Parameter,
    Query,
    SelectQuery,
    UpdateQuery,
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

__all__ = ["query_fingerprint", "statement_shape", "fingerprint_tokens"]

# Short on purpose: a DML query object is pickled into the write-ahead log
# with whatever is cached on it.
_CACHE_ATTR = "_fp"


class _Tokens(list):
    """The token list of one walk; remembers which tokens are literals."""

    def __init__(self) -> None:
        super().__init__()
        self.literal_positions: List[int] = []


def query_fingerprint(query: Query) -> str:
    """Stable content fingerprint of *query* (16 hex characters).

    Structurally equal queries — including separately parsed copies of the
    same statement — get equal fingerprints; any difference in tables,
    columns, operators, literals or placeholders changes the digest.
    """
    return _keys(query)[0]


def statement_shape(query: Query) -> str:
    """Literal-free shape of *query* (16 hex characters).

    Equal for queries that differ only in literal values (a parser template
    with its :class:`~repro.query.ast.LiteralSlot` markers included); user
    placeholders (``?`` / ``:name``) are part of the shape.
    """
    return _keys(query)[1]


def _keys(query: Query) -> Tuple[str, str]:
    cached = getattr(query, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    tokens = _Tokens()
    _serialize(query, tokens)
    fingerprint = _digest(tokens)
    for position in tokens.literal_positions:
        tokens[position] = "v:literal"
    keys = (fingerprint, _digest(tokens))
    try:
        object.__setattr__(query, _CACHE_ATTR, keys)
    except (AttributeError, TypeError):  # pragma: no cover - slotted objects
        pass
    return keys


def _digest(tokens: List[str]) -> str:
    return hashlib.blake2b("\x1f".join(tokens).encode("utf-8"),
                           digest_size=8).hexdigest()


def fingerprint_tokens(value: Any) -> str:
    """Canonical token string of any fingerprintable value (for debugging)."""
    tokens = _Tokens()
    _serialize(value, tokens)
    return "\x1f".join(tokens)


def _serialize(value: Any, out: _Tokens) -> None:
    if isinstance(value, AggregationQuery):
        out.append("agg")
        out.append(value.table)
        for spec in value.aggregates:
            out.append(f"f:{spec.function.value}:{spec.column}:{spec.alias or ''}")
        out.append("g:" + ",".join(value.group_by))
        for join in value.joins:
            out.append(f"j:{join.table}:{join.left_column}:{join.right_column}")
        _serialize(value.predicate, out)
        return
    if isinstance(value, SelectQuery):
        out.append("sel")
        out.append(value.table)
        out.append("c:" + ",".join(value.columns))
        out.append(f"l:{value.limit}")
        _serialize(value.predicate, out)
        return
    if isinstance(value, InsertQuery):
        out.append("ins")
        out.append(value.table)
        for row in value.rows:
            out.append("r{")
            for name in sorted(row):
                out.append(name)
                _literal(row[name], out)
            out.append("}")
        return
    if isinstance(value, UpdateQuery):
        out.append("upd")
        out.append(value.table)
        for name in sorted(value.assignments):
            out.append(name)
            _literal(value.assignments[name], out)
        _serialize(value.predicate, out)
        return
    if isinstance(value, DeleteQuery):
        out.append("del")
        out.append(value.table)
        _serialize(value.predicate, out)
        return
    _predicate(value, out)


def _predicate(predicate: Any, out: _Tokens) -> None:
    if predicate is None:
        out.append("p:none")
        return
    if isinstance(predicate, TruePredicate):
        out.append("p:true")
        return
    if isinstance(predicate, Comparison):
        out.append(f"p:cmp:{predicate.column}:{predicate.op.value}")
        _literal(predicate.value, out)
        return
    if isinstance(predicate, Between):
        out.append(
            f"p:btw:{predicate.column}:{int(predicate.include_low)}"
            f"{int(predicate.include_high)}"
        )
        _literal(predicate.low, out)
        _literal(predicate.high, out)
        return
    if isinstance(predicate, InList):
        out.append(f"p:in:{predicate.column}")
        for item in predicate.values:
            _literal(item, out)
        return
    if isinstance(predicate, IsNull):
        out.append(f"p:null:{predicate.column}")
        return
    if isinstance(predicate, And):
        out.append(f"p:and:{len(predicate.predicates)}")
        for child in predicate.predicates:
            _predicate(child, out)
        return
    if isinstance(predicate, Or):
        out.append(f"p:or:{len(predicate.predicates)}")
        for child in predicate.predicates:
            _predicate(child, out)
        return
    if isinstance(predicate, Not):
        out.append("p:not")
        _predicate(predicate.predicate, out)
        return
    if isinstance(predicate, Predicate):  # pragma: no cover - future predicates
        out.append(f"p:other:{predicate!r}")
        return
    _literal(predicate, out)


def _literal(value: Any, out: _Tokens) -> None:
    if isinstance(value, Parameter):
        out.append(f"v:param:{value.label}:{value.index}")
        return
    out.literal_positions.append(len(out))
    if type(value) is LiteralSlot:
        out.append(f"v:slot:{value.index}")
        return
    # Type name + repr keeps 1, 1.0, True and "1" distinct.
    out.append(f"v:{type(value).__name__}:{value!r}")
