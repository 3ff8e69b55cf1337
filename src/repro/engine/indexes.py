"""Secondary index structures for the row store.

The paper's cost model distinguishes row-store point/range queries *with* an
index (selectivity-proportional cost) from those *without* one (full table
scan).  We provide two index types:

* :class:`HashIndex` — equality lookups, used for primary keys and uniqueness
  checks on insert.
* :class:`SortedIndex` — range lookups over an ordered key.

Indexes map key values to row positions inside the owning store.  They are
maintained by the store on insert/update/delete; the timing model charges
index maintenance separately (``index_insert`` / ``index_probe`` components).
"""

from __future__ import annotations

import bisect
import operator
from typing import AbstractSet, Any, Dict, KeysView, List, Mapping, Optional, Sequence

from repro.errors import ExecutionError
from repro.query.ranges import is_nan


def check_new_keys(table: str, keys: Sequence[Any],
                   key_sets: Sequence[AbstractSet]) -> set:
    """The set of *keys* once proven distinct and absent from every key set.

    The one primary-key uniqueness rule, run before a load, an insert or a
    key-changing update mutates anything.  *key_sets* are the table's: one
    for a single store, one per horizontal part of a partitioned table (the
    vertical halves share theirs) — each part's own set is probed, no
    table-wide directory is kept.  Two set operations per set in the common
    case, one walk to name the offending key only when there is one.
    """
    fresh = set(keys)
    clash = len(fresh) != len(keys)
    for existing in key_sets:
        clash = clash or not existing.isdisjoint(fresh)
    if clash:
        seen = set()
        for key in keys:
            if key in seen or any(key in existing for existing in key_sets):
                raise ExecutionError(
                    f"duplicate primary key {key!r} in table {table!r}"
                )
            seen.add(key)
    return fresh


def check_new_rows(schema, rows: Sequence[Mapping[str, Any]],
                   key_sets: Sequence[AbstractSet]) -> List[Dict[str, Any]]:
    """*rows* validated, once each, with their keys proven new to *key_sets*.

    An insert's whole check, before its first row lands: a schema violation
    or a duplicate key anywhere in the batch fails it with no row appended.
    Without a key set (no single-column primary key) keys are not checked.
    """
    validated = [schema.validate_row(row) for row in rows]
    if key_sets:
        key = schema.primary_key[0]
        check_new_keys(schema.name, [row[key] for row in validated], key_sets)
    return validated


class HashIndex:
    """Equality index from key value to the list of row positions."""

    def __init__(self, column: str, unique: bool = False) -> None:
        self.column = column
        self.unique = unique
        self._entries: Dict[Any, List[int]] = {}

    def __len__(self) -> int:
        return sum(len(positions) for positions in self._entries.values())

    @property
    def num_keys(self) -> int:
        return len(self._entries)

    def insert(self, key: Any, position: int) -> None:
        self._entries.setdefault(key, []).append(position)

    def contains(self, key: Any) -> bool:
        return key in self._entries

    def keys(self) -> KeysView:
        """The indexed keys (a live view)."""
        return self._entries.keys()

    def lookup(self, key: Any) -> List[int]:
        return list(self._entries.get(key, ()))

    def remove(self, key: Any, position: int) -> None:
        positions = self._entries.get(key)
        if not positions:
            return
        try:
            positions.remove(position)
        except ValueError:
            return
        if not positions:
            del self._entries[key]

    def update_key(self, old_key: Any, new_key: Any, position: int) -> None:
        self.remove(old_key, position)
        self.insert(new_key, position)

    def rebuild(self, keys: Sequence[Any]) -> None:
        """Index a whole column: ``keys[i]`` is the key of row ``i``.

        One dict comprehension when the keys are distinct (every primary
        key), one ``setdefault`` per row only when some repeat.
        """
        entries = {key: [position] for position, key in enumerate(keys)}
        if len(entries) != len(keys):
            entries = {}
            for position, key in enumerate(keys):
                entries.setdefault(key, []).append(position)
        self._entries = entries


class SortedIndex:
    """Ordered index supporting range lookups.

    Real keys are kept in a sorted list alongside their row positions;
    lookups use binary search.  NULL and NaN keys have no place in that
    order — a NaN among the keys would derail every bisect — so their
    positions are kept apart and handed out only when a predicate's
    :class:`~repro.query.ranges.ValueRanges` flags say they match.
    Maintenance on insert is O(n) in Python terms but, as with the
    dictionary, only the *modelled* cost matters for the experiments.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._keys: List[Any] = []
        self._positions: List[int] = []
        self._nulls: List[int] = []
        self._nans: List[int] = []

    def __len__(self) -> int:
        return len(self._keys) + len(self._nulls) + len(self._nans)

    def _apart(self, key: Any) -> Optional[List[int]]:
        """The position list of an unordered *key* (NULL or NaN), else ``None``."""
        if key is None:
            return self._nulls
        if is_nan(key):
            return self._nans
        return None

    def insert(self, key: Any, position: int) -> None:
        apart = self._apart(key)
        if apart is not None:
            apart.append(position)
            return
        index = bisect.bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._positions.insert(index, position)

    def remove(self, key: Any, position: int) -> None:
        apart = self._apart(key)
        if apart is not None:
            if position in apart:
                apart.remove(position)
            return
        index = bisect.bisect_left(self._keys, key)
        while index < len(self._keys) and self._keys[index] == key:
            if self._positions[index] == position:
                del self._keys[index]
                del self._positions[index]
                return
            index += 1

    def lookup(self, key: Any) -> List[int]:
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._positions[lo:hi]

    def range_lookup(
        self,
        low: Optional[Any] = None,
        high: Optional[Any] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
        if low is None:
            lo = 0
        else:
            lo = (bisect.bisect_left(self._keys, low) if include_low
                  else bisect.bisect_right(self._keys, low))
        if high is None:
            hi = len(self._keys)
        else:
            hi = (bisect.bisect_right(self._keys, high) if include_high
                  else bisect.bisect_left(self._keys, high))
        return self._positions[lo:hi]

    def positions(self, ranges) -> List[int]:
        """Positions whose key lies in *ranges* (a ``ValueRanges``).

        One range lookup per interval, in key order, then the NaN and the
        NULL positions when the ranges' flags include them.
        """
        found: List[int] = []
        for interval in ranges.intervals:
            found += self.range_lookup(*interval)
        if ranges.nan:
            found += self._nans
        if ranges.null:
            found += self._nulls
        return found

    def rebuild(self, keys: Sequence[Any]) -> None:
        """Index a whole column: ``keys[i]`` is the key of row ``i``.

        A stable sort of the row numbers by key, so equal keys list their
        rows in ascending order.
        """
        ordered: Sequence[int] = range(len(keys))
        self._nulls, self._nans = [], []
        # One C-speed pass each: NaN is the one key unequal to itself.
        if None in keys or not all(map(operator.eq, keys, keys)):
            ordered = []
            for position, key in enumerate(keys):
                apart = self._apart(key)
                (ordered if apart is None else apart).append(position)
        self._positions = sorted(ordered, key=keys.__getitem__)
        self._keys = list(map(keys.__getitem__, self._positions))
