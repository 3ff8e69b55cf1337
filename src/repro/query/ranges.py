"""What a leaf predicate matches, as value ranges — the one home of leaf semantics.

:func:`ranges_of` turns a simple predicate (``Comparison``, ``Between``,
``InList``, ``IsNull``) into :class:`ValueRanges`: the intervals of real
values it matches, plus whether it matches NULL and whether it matches NaN.
NULL and NaN sit outside every interval — NULL is no value, NaN is unordered
— so the two flags are all any consumer needs to know about them.

Every engine consumer of a leaf is an interval operation over these ranges,
and none of them decides NULL, NaN or bound semantics for itself:

* zone maps: can-match is "ranges ∩ [min, max] ≠ ∅, or a flag meets the
  zone's NULL / NaN cells", must-match is "[min, max] ⊆ one interval and no
  NULL or NaN cell falls outside the flags";
* the column store: each interval end bisects the sorted dictionary, a flag
  adds the NULL or the NaN code;
* the row store's indexes: a point is one hash probe, an interval one range
  lookup, and the flags add the index's NULL / NaN positions;
* value masks: one comparison per finite interval end, then the flags.

:meth:`~repro.query.predicates.Predicate.evaluate` stays the scalar
reference; the ranges are derived to agree with it on every value.  What
each leaf matches (README.md carries the same table):

=====================  ===============================  ==============  ====
leaf                   real values                      NULL            NaN
=====================  ===============================  ==============  ====
``x = v``              ``[v, v]``                       no              no
``x != v``             ``(-inf, v) ∪ (v, +inf)``        no              yes
``x < v``, ``>=`` ...  the half-line on that side of v  no              no
``x BETWEEN a AND b``  ``[a, b]``, ends as written      no              no
``x IN (v, ...)``      one point per non-NULL member    a NULL member   no
``x IS NULL``          none                             yes             no
=====================  ===============================  ==============  ====

A NULL literal matches nothing (``x != NULL`` included), and so does a NaN
literal or a NaN ``BETWEEN`` bound — except ``x != NaN``, which every
non-NULL value satisfies.  ``BETWEEN`` is exactly its two comparisons.

Ranges are computed on demand and never stored on the leaf: leaves are
pickled into the write-ahead log.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from repro.query.predicates import Between, CompareOp, Comparison, InList, IsNull, Predicate

__all__ = ["Interval", "ValueRanges", "is_nan", "is_singleton", "ranges_of"]

#: ``(low, high, low_closed, high_closed)``; a ``None`` end is unbounded.
Interval = Tuple[Any, Any, bool, bool]


class ValueRanges(NamedTuple):
    """The values one leaf predicate matches.

    ``intervals`` are the matched real values — a union: consumers never
    rely on their order, and an ``IN`` list keeps its points as written.
    ``null`` / ``nan`` say whether NULL / NaN cells match.

    Two facts describe how the leaf is *answered*, not what it matches:
    ``index`` is ``"point"`` (one hash probe: ``=``), ``"range"`` (one
    range lookup: ``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``) or ``None`` —
    ``IN``, ``!=`` and ``IS NULL`` are not answered from an index.
    ``hole`` is the real literal of a ``!=`` (the one value the intervals
    leave out), so a dictionary can test the single code and invert.
    """

    intervals: Tuple[Interval, ...] = ()
    null: bool = False
    nan: bool = False
    index: Optional[str] = None
    hole: Any = None


def is_singleton(interval: Interval) -> bool:
    """Whether *interval* is one value — looked up, never bisected."""
    low, high, low_closed, high_closed = interval
    return low_closed and high_closed and low is high is not None


def is_nan(value: Any) -> bool:
    """Whether *value* is a float NaN (the one NaN test)."""
    return isinstance(value, float) and value != value


_EVERY_REAL: Interval = (None, None, False, False)
_new = tuple.__new__  # builds a ValueRanges from its five fields, all given
_NOTHING = {index: ValueRanges((), False, False, index) for index in ("point", "range", None)}
_IS_NULL = ValueRanges((), True)


def ranges_of(leaf: Predicate) -> Optional[ValueRanges]:
    """The :class:`ValueRanges` of *leaf*, or ``None`` for a non-leaf."""
    kind = type(leaf)
    if kind is Comparison:
        op, value = leaf.op, leaf.value
        if op is CompareOp.EQ:
            if value is None or is_nan(value):
                return _NOTHING["point"]
            return _new(ValueRanges, (((value, value, True, True),), False, False, "point", None))
        if op is CompareOp.NE:
            if value is None:
                return _NOTHING[None]
            if is_nan(value):
                return _new(ValueRanges, ((_EVERY_REAL,), False, True, None, None))
            return _new(ValueRanges, (
                ((None, value, False, False), (value, None, False, False)),
                False, True, None, value,
            ))
        if value is None or is_nan(value):
            return _NOTHING["range"]
        if op is CompareOp.LT or op is CompareOp.LE:
            interval = (None, value, False, op is CompareOp.LE)
        else:
            interval = (value, None, op is CompareOp.GE, False)
        return _new(ValueRanges, ((interval,), False, False, "range", None))
    if kind is Between:
        low, high = leaf.low, leaf.high
        if is_nan(low) or is_nan(high):
            return _NOTHING["range"]
        return _new(ValueRanges, (
            ((low, high, leaf.include_low, leaf.include_high),), False, False, "range", None,
        ))
    if kind is InList:
        return ValueRanges(
            tuple((value, value, True, True) for value in leaf.values
                  if value is not None and not is_nan(value)),
            any(value is None for value in leaf.values),
        )
    if kind is IsNull:
        return _IS_NULL
    return None
