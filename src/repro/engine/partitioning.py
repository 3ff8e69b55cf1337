"""Store-aware partitioning (Section 3.2 of the paper).

A table can be split

* **horizontally** — rows matching a predicate (the "hot", frequently
  inserted/updated rows) live in one partition, the remaining ("historic")
  rows in another, each partition in its own store; and/or
* **vertically** — the non-key attributes are divided into a row-store group
  (OLTP attributes) and a column-store group (OLAP attributes); both vertical
  parts carry the primary key so that complete tuples can be re-assembled by a
  join.

Both schemes may be combined: the hot horizontal partition stays un-split in
the row store while the historic partition is split vertically, exactly the
combination the paper describes for its TPC-H experiment.

:class:`PartitionedTable` manages the physical parts; the transparent query
rewriting that makes partitioned tables look like ordinary tables to queries
lives in :mod:`repro.engine.executor.rewrite`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import evaluate_predicate_mask, values_to_array
from repro.engine.schema import TableSchema
from repro.engine.table import StoredTable
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.engine.zonemap import ZoneUnit
from repro.errors import PartitioningError
from repro.query.predicates import Predicate

#: Prunable-unit labels of a partitioned table.
MAIN_PARTITION = "main"
HOT_PARTITION = "hot"


@dataclass(frozen=True)
class HorizontalPartitionSpec:
    """Split rows by a predicate: matching rows are the "hot" partition."""

    predicate: Predicate
    hot_store: Store = Store.ROW
    cold_store: Store = Store.COLUMN
    #: Newly inserted tuples go to the hot partition regardless of the
    #: predicate (the paper's "row-store partition for newly arriving tuples").
    route_inserts_to_hot: bool = True

    def describe(self) -> str:
        return (
            f"horizontal split: hot rows ({self.predicate!r}) -> {self.hot_store.value} store, "
            f"remaining rows -> {self.cold_store.value} store"
        )


@dataclass(frozen=True)
class VerticalPartitionSpec:
    """Split non-key attributes into a row-store and a column-store group."""

    row_store_columns: Tuple[str, ...]
    column_store_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_store_columns", tuple(self.row_store_columns))
        object.__setattr__(self, "column_store_columns", tuple(self.column_store_columns))
        overlap = set(self.row_store_columns) & set(self.column_store_columns)
        if overlap:
            raise PartitioningError(
                f"columns assigned to both vertical partitions: {sorted(overlap)}"
            )

    def validate(self, schema: TableSchema) -> None:
        """Check that the split covers exactly the non-key columns of *schema*."""
        key = set(schema.primary_key)
        assigned = set(self.row_store_columns) | set(self.column_store_columns)
        unknown = assigned - set(schema.column_names)
        if unknown:
            raise PartitioningError(
                f"vertical split of {schema.name!r} references unknown columns "
                f"{sorted(unknown)}"
            )
        in_key = assigned & key
        if in_key:
            raise PartitioningError(
                f"primary key columns {sorted(in_key)} are implicitly in both "
                "vertical partitions and must not be listed"
            )
        missing = set(schema.column_names) - key - assigned
        if missing:
            raise PartitioningError(
                f"vertical split of {schema.name!r} does not cover columns "
                f"{sorted(missing)}"
            )

    def store_of(self, column: str, schema: TableSchema) -> Store:
        """The store in which *column* (a non-key column) resides."""
        if column in self.row_store_columns:
            return Store.ROW
        if column in self.column_store_columns:
            return Store.COLUMN
        if column in schema.primary_key:
            # Key columns live in both parts; report the column store, which is
            # where analytical queries will read them from.
            return Store.COLUMN
        raise PartitioningError(f"column {column!r} is not covered by the vertical split")

    def describe(self) -> str:
        return (
            f"vertical split: {list(self.row_store_columns)} -> row store, "
            f"{list(self.column_store_columns)} -> column store"
        )


@dataclass(frozen=True)
class TablePartitioning:
    """Complete partitioning annotation of one table (catalog entry)."""

    horizontal: Optional[HorizontalPartitionSpec] = None
    vertical: Optional[VerticalPartitionSpec] = None

    def __post_init__(self) -> None:
        if self.horizontal is None and self.vertical is None:
            raise PartitioningError("a partitioning needs a horizontal or a vertical spec")

    def validate(self, schema: TableSchema) -> None:
        if self.vertical is not None:
            self.vertical.validate(schema)
        if self.horizontal is not None:
            unknown = self.horizontal.predicate.columns() - set(schema.column_names)
            if unknown:
                raise PartitioningError(
                    f"horizontal split of {schema.name!r} references unknown columns "
                    f"{sorted(unknown)}"
                )

    def describe(self) -> str:
        parts = []
        if self.horizontal is not None:
            parts.append(self.horizontal.describe())
        if self.vertical is not None:
            parts.append(self.vertical.describe())
        return "; ".join(parts)


class PartitionedTable:
    """A table physically split across stores according to a partitioning.

    Physical layout:

    * ``hot`` — present iff a horizontal spec exists; full-schema partition in
      the hot store that also receives new inserts.
    * ``main_parts`` — the historic portion of the table.  A single
      full-schema partition when there is no vertical spec, otherwise two
      vertical parts (row-store part and column-store part) that share the
      primary key and are kept row-aligned.
    """

    def __init__(self, schema: TableSchema, partitioning: TablePartitioning) -> None:
        partitioning.validate(schema)
        self.schema = schema
        self.partitioning = partitioning
        horizontal = partitioning.horizontal
        vertical = partitioning.vertical

        self.hot: Optional[StoredTable] = None
        if horizontal is not None:
            self.hot = StoredTable(schema, horizontal.hot_store)

        if vertical is not None:
            key = list(schema.primary_key)
            row_schema = schema.subset(key + list(vertical.row_store_columns))
            col_schema = schema.subset(key + list(vertical.column_store_columns))
            self._vertical_row_part = StoredTable(row_schema, Store.ROW)
            self._vertical_col_part = StoredTable(col_schema, Store.COLUMN)
            self.main_parts: List[StoredTable] = [
                self._vertical_row_part,
                self._vertical_col_part,
            ]
        else:
            cold_store = horizontal.cold_store if horizontal is not None else Store.COLUMN
            self._vertical_row_part = None
            self._vertical_col_part = None
            self.main_parts = [StoredTable(schema, cold_store)]
        self._label_integrity()

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: StoredTable,
        partitioning: TablePartitioning,
        accountant: Optional[CostAccountant] = None,
    ) -> "PartitionedTable":
        """Build a partitioned table from an existing unpartitioned one.

        Every migrated cell is charged as layout-conversion work, mirroring
        the data movement the advisor's ``ALTER TABLE ... PARTITION BY``
        recommendation would trigger.
        """
        partitioned = cls(table.schema, partitioning)
        num_rows = table.num_rows
        if accountant is not None:
            accountant.charge_layout_conversion(num_rows * table.schema.num_columns)
        # Migrate columnarly: the source serves whole columns, which were
        # validated when they entered it.
        columns = {
            name: table.column_values(name) for name in table.schema.column_names
        }
        partitioned.load_columns(columns, num_rows)
        return partitioned

    def load_columns(self, columns: Mapping[str, Sequence[Any]], num_rows: int) -> None:
        """Load validated column lists, routed by the horizontal predicate.

        Every part holds the primary key, and each checks the whole batch's
        keys against its own before any part loads: a key must be new to
        the table, not just to the part its row routes to, and a load that
        fails changes no part.
        """
        shares = self._route(columns, num_rows)
        for part, _, _ in shares:
            part.check_load(columns)
        for part, share, share_rows in shares:
            part.load_columns(share, share_rows)

    def _route(
        self, columns: Mapping[str, Sequence[Any]], num_rows: int
    ) -> List[Tuple[StoredTable, Dict[str, Sequence[Any]], int]]:
        """``(part, its columns, its row count)`` for every part a load fills.

        The horizontal predicate is evaluated once, as one mask over the
        whole batch (:func:`~repro.engine.batch.evaluate_predicate_mask`,
        the executor's own NULL and NaN semantics); each part then takes its
        rows by ``itertools.compress`` and its columns by name.
        """
        shares = []
        main, main_rows = columns, num_rows
        horizontal = self.partitioning.horizontal
        if horizontal is not None:
            predicate = horizontal.predicate
            mask = evaluate_predicate_mask(
                predicate,
                {name: values_to_array(columns[name]) for name in predicate.columns()},
                num_rows,
            )
            hot, cold = mask.tolist(), (~mask).tolist()
            hot_rows = int(np.count_nonzero(mask))
            shares.append((
                self.hot,
                {name: list(compress(values, hot)) for name, values in columns.items()},
                hot_rows,
            ))
            main = {name: list(compress(values, cold)) for name, values in columns.items()}
            main_rows = num_rows - hot_rows
        for part in self.main_parts:
            shares.append((
                part,
                {name: main[name] for name in part.schema.column_names},
                main_rows,
            ))
        return shares

    # -- identity -------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def is_partitioned(self) -> bool:
        return True

    @property
    def has_vertical_split(self) -> bool:
        return self._vertical_row_part is not None

    @property
    def vertical_row_part(self) -> Optional[StoredTable]:
        return self._vertical_row_part

    @property
    def vertical_col_part(self) -> Optional[StoredTable]:
        return self._vertical_col_part

    @property
    def num_rows(self) -> int:
        hot = self.hot.num_rows if self.hot is not None else 0
        return hot + self.main_num_rows

    @property
    def main_num_rows(self) -> int:
        return self.main_parts[0].num_rows

    @property
    def all_parts(self) -> List[StoredTable]:
        parts = list(self.main_parts)
        if self.hot is not None:
            parts.append(self.hot)
        return parts

    @property
    def memory_bytes(self) -> float:
        return sum(part.memory_bytes for part in self.all_parts)

    @property
    def delta_rows(self) -> int:
        """Rows buffered in the parts' column-store deltas."""
        return sum(part.delta_rows for part in self.all_parts)

    def merge_delta(self) -> int:
        """Merge every part's column-store delta into its main."""
        return sum(part.merge_delta() for part in self.all_parts)

    def snapshot(self) -> "PartitionedSnapshot":
        """A consistent read view across all parts as of now."""
        return PartitionedSnapshot(self)

    def compression_rate(self, column: Optional[str] = None) -> float:
        """Weighted compression rate across parts (1.0 for row-store parts)."""
        total_raw = 0.0
        total_compressed = 0.0
        for part in self.all_parts:
            if column is not None and not part.schema.has_column(column):
                continue
            raw = part.num_rows * (
                part.schema.column(column).width_bytes if column is not None
                else part.schema.row_width_bytes
            )
            total_raw += raw
            total_compressed += raw * part.compression_rate(column)
        if total_raw == 0:
            return 1.0
        return total_compressed / total_raw

    # -- integrity --------------------------------------------------------------------

    def _labelled_parts(self) -> List[Tuple[str, StoredTable]]:
        """Every physical part with its partition label (scrubber units).

        The labels extend ``zone_units``'s ``main``/``hot`` naming:
        a vertically split main portion contributes ``main.row`` and
        ``main.column`` so a corruption error names the exact half.
        """
        if self.has_vertical_split:
            parts = [("main.row", self._vertical_row_part),
                     ("main.column", self._vertical_col_part)]
        else:
            parts = [("main", self.main_parts[0])]
        if self.hot is not None:
            parts.append(("hot", self.hot))
        return parts

    def _label_integrity(self) -> None:
        """Stamp each column-store part's integrity state with its label.

        Done at construction (and after hot-partition replacement) so a
        quarantine raised from a scan names the partition even before any
        scrub walked the table.  Row-store parts carry no integrity state.
        """
        for label, part in self._labelled_parts():
            state = getattr(part.backend, "integrity", None)
            if state is not None:
                state.partition = label

    def integrity_units(self) -> List[Tuple[Optional[str], Any]]:
        """Partition units for the integrity scrubber: ``(label, backend)``."""
        return [(label, part.backend) for label, part in self._labelled_parts()]

    # -- column routing ----------------------------------------------------------------

    def main_parts_for_columns(self, columns: Sequence[str]) -> List[StoredTable]:
        """The main (historic) parts that must be touched to read *columns*."""
        if not self.has_vertical_split:
            return [self.main_parts[0]]
        needed = []
        key = set(self.schema.primary_key)
        non_key = [name for name in columns if name not in key]
        if not non_key:
            # Key-only access is served from the row-store part, whose primary
            # key index makes point lookups cheap.
            return [self._vertical_row_part]
        row_part_needed = any(
            name in self._vertical_row_part.schema.column_names for name in non_key
        )
        col_part_needed = any(
            name in self._vertical_col_part.schema.column_names for name in non_key
        )
        if row_part_needed:
            needed.append(self._vertical_row_part)
        if col_part_needed:
            needed.append(self._vertical_col_part)
        return needed

    def part_containing(self, column: str) -> StoredTable:
        """The main part holding *column* (for single-column reads).

        Primary-key columns live in both vertical parts; they are read from
        the row-store part so that point predicates can use its index.
        """
        if not self.has_vertical_split:
            return self.main_parts[0]
        if column in set(self.schema.primary_key):
            return self._vertical_row_part
        if self._vertical_row_part.schema.has_column(column):
            return self._vertical_row_part
        return self._vertical_col_part

    # -- modification -------------------------------------------------------------------

    def insert_rows(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant] = None
    ) -> int:
        """Insert rows, routing them to the hot partition when one exists."""
        horizontal = self.partitioning.horizontal
        if self.hot is not None and (horizontal is None or horizontal.route_inserts_to_hot):
            self.hot.insert_rows(rows, accountant)
            return len(rows)
        self._insert_into_main(rows, accountant)
        return len(rows)

    def _insert_into_main(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant]
    ) -> None:
        if self.has_vertical_split:
            row_cols = self._vertical_row_part.schema.column_names
            col_cols = self._vertical_col_part.schema.column_names
            validated = [self.schema.validate_row(row) for row in rows]
            self._vertical_row_part.insert_rows(
                [{name: row[name] for name in row_cols} for row in validated], accountant
            )
            self._vertical_col_part.insert_rows(
                [{name: row[name] for name in col_cols} for row in validated], accountant
            )
        else:
            self.main_parts[0].insert_rows(rows, accountant)

    def migrate_hot_to_main(self, accountant: Optional[CostAccountant] = None) -> int:
        """Move every hot-partition row into the historic partition(s).

        This is the periodic data movement the paper describes ("in certain
        intervals, data is moved from the row-store partition to the
        column-store partition"), akin to a delta merge.
        """
        if self.hot is None or self.hot.num_rows == 0:
            return 0
        rows = self.hot.all_rows()
        if accountant is not None:
            accountant.charge_layout_conversion(len(rows) * self.schema.num_columns)
        self._insert_into_main(rows, accountant=None)
        moved = len(rows)
        self.hot = StoredTable(self.schema, self.partitioning.horizontal.hot_store)
        self._label_integrity()
        return moved

    def to_stored_table(self, store: Store,
                        accountant: Optional[CostAccountant] = None) -> StoredTable:
        """Collapse the partitioned table back into a single-store table."""
        num_rows = self.num_rows
        if accountant is not None:
            accountant.charge_layout_conversion(num_rows * self.schema.num_columns)
        columns = {}
        for name in self.schema.column_names:
            values = self.part_containing(name).column_values(name)
            if self.hot is not None:
                values = values + self.hot.column_values(name)
            columns[name] = values
        table = StoredTable(self.schema, store)
        table.load_columns(columns, num_rows)
        return table

    # -- whole-table reads (no cost accounting; used for stats and conversions) -----------

    def all_rows(self) -> List[Dict[str, Any]]:
        rows: List[Dict[str, Any]] = []
        rows.extend(self._main_rows())
        if self.hot is not None:
            rows.extend(self.hot.all_rows())
        return rows

    def _main_rows(self) -> List[Dict[str, Any]]:
        if not self.has_vertical_split:
            return self.main_parts[0].all_rows()
        row_rows = self._vertical_row_part.all_rows()
        col_rows = self._vertical_col_part.all_rows()
        merged = []
        for left, right in zip(row_rows, col_rows):
            combined = dict(right)
            combined.update(left)
            merged.append(combined)
        return merged

    # -- statistics helpers ------------------------------------------------------------------

    @property
    def zone_token(self) -> Tuple[int, ...]:
        """The zone epochs a recorded plan decision is checked against."""
        return tuple(part.zone_epoch for part in self.all_parts)

    def _main_column_zone(self, column: str):
        """A main-portion column's zone, from the vertical part that stores it."""
        return self.part_containing(column).column_zone(column)

    def zone_units(self) -> List[ZoneUnit]:
        """The table's prunable units: ``main`` and, if present, ``hot``.

        The vertical parts of the main portion are row-aligned, so they form
        one unit (under one token — a change in either part changes it)
        whose zones come per column from the part that stores the column.
        """
        units = [ZoneUnit(
            MAIN_PARTITION, self.main_num_rows,
            tuple(part.zone_epoch for part in self.main_parts),
            self._main_column_zone,
        )]
        hot = self.hot
        if hot is not None:
            units.append(ZoneUnit(HOT_PARTITION, hot.num_rows, hot.zone_token,
                                  hot.column_zone))
        return units

    def column_distinct_count(self, column: str) -> int:
        values = set()
        for part in self.all_parts:
            if part.schema.has_column(column):
                values.update(part.column_values(column))
        return len(values)

    def column_min_max(self, column: str) -> Tuple[Any, Any]:
        low, high = None, None
        for part in self.all_parts:
            if not part.schema.has_column(column):
                continue
            part_low, part_high = part.column_min_max(column)
            if part_low is None:
                continue
            low = part_low if low is None else min(low, part_low)
            high = part_high if high is None else max(high, part_high)
        return low, high

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedTable(name={self.name!r}, rows={self.num_rows}, "
            f"layout={self.partitioning.describe()!r})"
        )


class PartitionedSnapshot:
    """Consistent read view across all parts of a partitioned table.

    Takes one backend snapshot per part at construction; the reassembly
    mirrors :meth:`PartitionedTable.all_rows` (main first — vertical halves
    zipped back together — then the hot partition).
    """

    __slots__ = ("schema", "_row_part", "_col_part", "_main", "_hot", "num_rows")

    def __init__(self, table: PartitionedTable) -> None:
        self.schema = table.schema
        self._row_part = self._col_part = self._main = self._hot = None
        if table.has_vertical_split:
            self._row_part = table.vertical_row_part.snapshot()
            self._col_part = table.vertical_col_part.snapshot()
            main_rows = self._row_part.num_rows
        else:
            self._main = table.main_parts[0].snapshot()
            main_rows = self._main.num_rows
        if table.hot is not None:
            self._hot = table.hot.snapshot()
            main_rows += self._hot.num_rows
        self.num_rows = main_rows

    def column_values(self, column: str) -> List[Any]:
        if self._main is not None:
            values = list(self._main.column_values(column))
        elif self.schema.has_column(column) and column in self._row_part.schema.column_names:
            values = list(self._row_part.column_values(column))
        else:
            values = list(self._col_part.column_values(column))
        if self._hot is not None:
            values.extend(self._hot.column_values(column))
        return values

    def rows(self) -> List[Dict[str, Any]]:
        if self._main is not None:
            rows = self._main.rows()
        else:
            rows = []
            for left, right in zip(self._row_part.rows(), self._col_part.rows()):
                combined = dict(right)
                combined.update(left)
                rows.append(combined)
        if self._hot is not None:
            rows.extend(self._hot.rows())
        return rows
