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
from typing import AbstractSet, Any, Dict, KeysView, List, Optional, Sequence

from repro.errors import ExecutionError


def check_new_keys(table: str, keys: Sequence[Any], existing: AbstractSet) -> set:
    """The set of *keys* once proven distinct and absent from *existing*.

    The primary-key check of a bulk load, run before the load mutates
    anything: two set operations in the common case, one walk to name the
    offending key only when there is one.
    """
    fresh = set(keys)
    if len(fresh) != len(keys) or not existing.isdisjoint(fresh):
        seen = set()
        for key in keys:
            if key in seen or key in existing:
                raise ExecutionError(
                    f"duplicate primary key {key!r} in table {table!r}"
                )
            seen.add(key)
    return fresh


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

    Keys are kept in a sorted list alongside their row positions.  Lookups use
    binary search; maintenance on insert is O(n) in Python terms but, as with
    the dictionary, only the *modelled* cost matters for the experiments.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._keys: List[Any] = []
        self._positions: List[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def insert(self, key: Any, position: int) -> None:
        index = bisect.bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._positions.insert(index, position)

    def remove(self, key: Any, position: int) -> None:
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

    def rebuild(self, keys: Sequence[Any]) -> None:
        """Index a whole column: ``keys[i]`` is the key of row ``i``.

        A stable sort of the row numbers by key, so equal keys list their
        rows in ascending order.
        """
        self._positions = sorted(range(len(keys)), key=keys.__getitem__)
        self._keys = list(map(keys.__getitem__, self._positions))
