"""Basic table statistics (data characteristics).

The storage advisor's cost model consumes *data characteristics* from the
system catalog: number of rows, row width, per-column data types, distinct
counts and the compression rate achievable in the column store (Section 3.1
of the paper).  This module computes those statistics from a stored table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.engine.compression import code_width_bytes
from repro.engine.schema import TableSchema
from repro.engine.types import DataType, Store


@dataclass(frozen=True)
class ColumnStatistics:
    """Statistics of a single column.

    ``null_count``/``has_nan`` are known for per-partition statistics
    (derived from the exact zone synopses); whole-table statistics leave
    them at their conservative defaults (``None`` = unknown null count).
    """

    name: str
    dtype: DataType
    num_distinct: int
    min_value: Any = None
    max_value: Any = None
    null_count: Optional[int] = None
    has_nan: bool = False

    @property
    def width_bytes(self) -> int:
        return self.dtype.width_bytes

    @property
    def compression_rate(self) -> float:
        """Code-width-only compression estimate (ignores dictionary overhead).

        Prefer :meth:`compression_rate_for`, which amortises the dictionary
        over a known row count and matches the column store's own accounting.
        """
        if self.num_distinct <= 0:
            return 1.0
        return min(1.0, code_width_bytes(self.num_distinct) / self.dtype.width_bytes)

    def compression_rate_for(self, num_rows: int) -> float:
        """Dictionary-compression rate of this column for *num_rows* rows.

        Uses the same formula as the column store backend (code array plus the
        dictionary, relative to the raw column size) so that estimated and
        measured statistics agree.
        """
        if self.num_distinct <= 0 or num_rows <= 0:
            return 1.0
        code_bytes = num_rows * code_width_bytes(self.num_distinct)
        dict_bytes = self.num_distinct * self.dtype.width_bytes
        raw_bytes = num_rows * self.dtype.width_bytes
        return min(1.0, (code_bytes + dict_bytes) / raw_bytes)


@dataclass(frozen=True)
class PartitionStatistics:
    """Statistics of one prunable unit of a partitioned table.

    Mirrors the executor's prunable partitions (the ``main`` historic
    portion and the ``hot`` partition): exact per-column ``min``/``max``/
    ``null_count`` bounds derived from the zone synopses, which let the
    cost-model estimator price partition pruning exactly instead of from
    the whole-table range.  Per-partition distinct counts are not tracked
    (``num_distinct`` is 0); compression statistics stay table-level.
    """

    label: str
    num_rows: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)


@dataclass(frozen=True)
class TableStatistics:
    """Statistics of a whole table, as kept in the system catalog."""

    table: str
    num_rows: int
    row_width_bytes: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)
    store: Optional[Store] = None
    #: Per-partition synopsis statistics (partitioned tables only).
    partitions: Tuple["PartitionStatistics", ...] = ()

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name]

    def has_column(self, name: str) -> bool:
        return name in self.columns

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of these statistics (cached; the object is frozen).

        Two statistics objects computed from identical data get identical
        fingerprints, so content-keyed caches (the session plan cache, the
        cost model's estimate memo) survive a statistics refresh that did not
        actually change anything — and miss as soon as row counts, distinct
        counts, value ranges or the store annotation move.
        """
        cached = self.__dict__.get("_fingerprint") if hasattr(self, "__dict__") else None
        if cached is not None:
            return cached
        tokens = [
            self.table,
            str(self.num_rows),
            str(self.row_width_bytes),
            self.store.value if self.store is not None else "-",
        ]
        for name in sorted(self.columns):
            stats = self.columns[name]
            tokens.append(
                f"{name}:{stats.dtype.value}:{stats.num_distinct}"
                f":{stats.min_value!r}:{stats.max_value!r}"
            )
        for partition in self.partitions:
            tokens.append(f"[{partition.label}:{partition.num_rows}]")
            for name in sorted(partition.columns):
                stats = partition.columns[name]
                tokens.append(
                    f"{name}:{stats.min_value!r}:{stats.max_value!r}"
                    f":{stats.null_count!r}:{int(stats.has_nan)}"
                )
        digest = hashlib.blake2b("|".join(tokens).encode("utf-8"),
                                 digest_size=8).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest

    @property
    def compression_rate(self) -> float:
        """Average compression rate over all columns, weighted by raw width."""
        if not self.columns or self.num_rows == 0:
            return 1.0
        raw = sum(stats.width_bytes for stats in self.columns.values())
        compressed = sum(
            stats.width_bytes * stats.compression_rate_for(self.num_rows)
            for stats in self.columns.values()
        )
        return compressed / raw if raw else 1.0

    def column_compression_rate(self, name: str) -> float:
        if name in self.columns:
            return self.columns[name].compression_rate_for(self.num_rows)
        return self.compression_rate

    def column_compressed_bytes(self, name: str) -> float:
        """Estimated compressed footprint of one column (code array + dictionary)."""
        stats = self.columns[name]
        return stats.width_bytes * self.num_rows * self.column_compression_rate(name)

    def column_code_bytes(self, name: str) -> float:
        """Estimated bytes a sequential scan of one column reads (codes only)."""
        stats = self.columns[name]
        return self.num_rows * code_width_bytes(max(1, stats.num_distinct))

    def columns_width_bytes(self, names) -> int:
        return sum(self.columns[name].width_bytes for name in names if name in self.columns)

    def scaled(self, num_rows: int) -> "TableStatistics":
        """Return a copy of these statistics for a hypothetical row count.

        Used by the calibration microbenchmarks and by what-if estimation.
        Distinct counts are capped at the new row count.
        """
        columns = {
            name: ColumnStatistics(
                name=stats.name,
                dtype=stats.dtype,
                num_distinct=min(stats.num_distinct, num_rows) if num_rows else 0,
                min_value=stats.min_value,
                max_value=stats.max_value,
            )
            for name, stats in self.columns.items()
        }
        # Hypothetical row counts invalidate the per-partition synopses.
        return TableStatistics(
            table=self.table,
            num_rows=num_rows,
            row_width_bytes=self.row_width_bytes,
            columns=columns,
            store=self.store,
        )


def statistics_from_schema(
    schema: TableSchema,
    num_rows: int,
    distinct_counts: Optional[Dict[str, int]] = None,
    value_ranges: Optional[Dict[str, Tuple[Any, Any]]] = None,
    store: Optional[Store] = None,
) -> TableStatistics:
    """Build (approximate) statistics from a schema without data.

    This is the *offline mode* input path: the administrator supplies expected
    row counts and optionally distinct counts per column; everything else is
    derived from the schema.  Columns without an explicit distinct count
    default to ``min(num_rows, 1000)`` distinct values, and primary-key
    columns to ``num_rows``.
    """
    distinct_counts = distinct_counts or {}
    value_ranges = value_ranges or {}
    columns = {}
    for column in schema.columns:
        if column.name in distinct_counts:
            distinct = distinct_counts[column.name]
        elif column.primary_key:
            distinct = num_rows
        elif column.dtype is DataType.BOOLEAN:
            distinct = 2
        else:
            distinct = min(num_rows, 1000)
        low, high = value_ranges.get(column.name, (None, None))
        columns[column.name] = ColumnStatistics(
            name=column.name,
            dtype=column.dtype,
            num_distinct=max(0, int(distinct)),
            min_value=low,
            max_value=high,
        )
    return TableStatistics(
        table=schema.name,
        num_rows=num_rows,
        row_width_bytes=schema.row_width_bytes,
        columns=columns,
        store=store,
    )


def compute_table_statistics(table) -> TableStatistics:
    """Compute exact statistics from a stored (or partitioned) table.

    *table* is a :class:`~repro.engine.table.StoredTable` or a
    :class:`~repro.engine.partitioning.PartitionedTable`, whose
    ``zone_units()`` become the per-partition statistics.
    """
    schema: TableSchema = table.schema
    columns = {}
    for column in schema.columns:
        distinct = table.column_distinct_count(column.name)
        low, high = table.column_min_max(column.name)
        columns[column.name] = ColumnStatistics(
            name=column.name,
            dtype=column.dtype,
            num_distinct=distinct,
            min_value=low,
            max_value=high,
        )
    partitions: Tuple[PartitionStatistics, ...] = ()
    if table.is_partitioned:
        # Record each prunable unit's exact synopsis so the estimator can
        # price partition pruning per unit.
        recorded = []
        for unit in table.zone_units():
            unit_columns = {}
            for column in schema.columns:
                zone = unit.zone(column.name)
                if zone is not None:
                    unit_columns[column.name] = ColumnStatistics(
                        name=column.name,
                        dtype=column.dtype,
                        num_distinct=0,
                        min_value=zone.min_value,
                        max_value=zone.max_value,
                        null_count=zone.null_count,
                        has_nan=zone.has_nan,
                    )
            recorded.append(
                PartitionStatistics(
                    label=unit.label, num_rows=unit.num_rows, columns=unit_columns
                )
            )
        partitions = tuple(recorded)
    store = getattr(table, "store", None)
    return TableStatistics(
        table=schema.name,
        num_rows=table.num_rows,
        row_width_bytes=schema.row_width_bytes,
        columns=columns,
        store=store if isinstance(store, Store) else None,
        partitions=partitions,
    )
