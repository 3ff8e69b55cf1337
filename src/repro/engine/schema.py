"""Table schemas for the hybrid-store engine.

A :class:`TableSchema` is an immutable description of a table: its name, its
columns (each a :class:`Column` with a :class:`~repro.engine.types.DataType`)
and its primary key.  Schemas validate incoming rows and provide the width
information the timing and cost models rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter, methodcaller
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.engine.types import DataType
from repro.errors import SchemaError


class _Missing:
    """Type of :data:`_MISSING`: a column's type set shows an absent cell."""


#: Sentinel distinguishing "column absent from the row" from an explicit None.
_MISSING = _Missing()
_NoneType = type(None)


@dataclass(frozen=True)
class Column:
    """A single column of a table schema."""

    name: str
    dtype: DataType
    nullable: bool = False
    primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.primary_key and self.nullable:
            raise SchemaError(f"primary key column {self.name!r} cannot be nullable")

    @property
    def width_bytes(self) -> int:
        """In-memory width of one value of this column."""
        return self.dtype.width_bytes


@dataclass(frozen=True)
class TableSchema:
    """Immutable description of a table."""

    name: str
    columns: Tuple[Column, ...]
    _by_name: Dict[str, Column] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must not be empty")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            by_name[column.name] = column
        object.__setattr__(self, "_by_name", by_name)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        columns: Sequence[Tuple[str, DataType]] | Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> "TableSchema":
        """Build a schema from ``(name, dtype)`` pairs or :class:`Column` objects.

        ``primary_key`` lists the column names forming the primary key; they
        are marked as primary-key columns on the resulting schema.
        """
        pk = set(primary_key or ())
        cols = []
        for item in columns:
            if isinstance(item, Column):
                column = item
                if column.name in pk and not column.primary_key:
                    column = Column(column.name, column.dtype, False, True)
            else:
                col_name, dtype = item
                column = Column(col_name, dtype, nullable=False, primary_key=col_name in pk)
            cols.append(column)
        schema = cls(name, tuple(cols))
        missing = pk - set(schema.column_names)
        if missing:
            raise SchemaError(
                f"primary key columns {sorted(missing)} not present in table {name!r}"
            )
        return schema

    # -- lookups ---------------------------------------------------------------

    # Computed once per schema: the binder, the row store and the partition
    # router ask on every statement.  ``cached_property`` writes the instance
    # ``__dict__`` directly, which a frozen dataclass allows, and dataclass
    # equality, hashing and ``repr`` read the declared fields only.

    @cached_property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._by_name)

    @cached_property
    def primary_key(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns if column.primary_key)

    @cached_property
    def _position(self) -> Dict[str, int]:
        return {name: position for position, name in enumerate(self._by_name)}

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    # -- derived metrics -------------------------------------------------------

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @cached_property
    def row_width_bytes(self) -> int:
        """Uncompressed width of one full tuple, in bytes (every insert bills it)."""
        return sum(column.width_bytes for column in self.columns)

    def columns_width_bytes(self, names: Iterable[str]) -> int:
        """Uncompressed width of the listed columns, in bytes."""
        return sum(self.column(name).width_bytes for name in names)

    # -- row validation --------------------------------------------------------

    def validate_row(self, row: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and coerce *row*, returning a complete column->value dict.

        Unknown columns raise :class:`SchemaError`; missing nullable columns
        are filled with ``None``; missing non-nullable columns raise.
        """
        validated: Dict[str, Any] = {}
        found = 0
        for column in self.columns:
            name = column.name
            if name in row:
                found += 1
                value = row[name]
                if value is not None:
                    validated[name] = column.dtype.coerce(value)
                    continue
            if column.nullable:
                validated[name] = None
            else:
                raise SchemaError(
                    f"row for table {self.name!r} is missing required column "
                    f"{name!r}"
                )
        if found != len(row):
            unknown = set(row) - set(self._by_name)
            raise SchemaError(
                f"row for table {self.name!r} has unknown columns: {sorted(unknown)}"
            )
        return validated

    def gather_columns(self, rows: Sequence[Mapping[str, Any]]) -> Dict[str, list]:
        """Turn *rows* into column lists — the row boundary of every bulk load.

        One C-level ``itemgetter`` pass gathers each column; a column some
        row does not hold takes a ``get`` pass instead, and its absent cells
        are :data:`_MISSING`, which :meth:`validate_columns` tells from an
        explicit ``None``.  A row naming a column the table does not have
        raises :class:`SchemaError`.
        """
        columns: Dict[str, list] = {}
        absent = 0
        for name in self._by_name:
            try:
                columns[name] = list(map(itemgetter(name), rows))
            except KeyError:
                values = list(map(methodcaller("get", name, _MISSING), rows))
                absent += values.count(_MISSING)
                columns[name] = values
        if len(rows) * len(columns) - absent != sum(map(len, rows)):
            known = set(self._by_name)
            for row in rows:
                unknown = set(row) - known
                if unknown:
                    raise SchemaError(
                        f"row for table {self.name!r} has unknown columns: "
                        f"{sorted(unknown)}"
                    )
        return columns

    def validate_columns(
        self, columns: Mapping[str, list], num_rows: int
    ) -> Dict[str, list]:
        """Validate and coerce column lists of *num_rows* values each.

        The type rule of every bulk load — of :meth:`gather_columns`' output
        and of a logged load on replay alike — and semantically
        :meth:`validate_row` per row: a missing (or ``None``) value in a
        non-nullable column raises :class:`SchemaError`, an absent nullable
        cell becomes ``None``.  One ``type`` pass proves a column canonical
        (its type set also proves it free of NULLs and of absent cells) and
        passes the list through; only columns holding anything else pay a
        per-value coercion, and a float column holding a zero a pass that
        stores -0.0 as 0.0 (:meth:`DataType.coerce`).
        """
        if columns.keys() != self._by_name.keys() or any(
            len(values) != num_rows for values in columns.values()
        ):
            raise SchemaError(
                f"columns for table {self.name!r} do not match its schema"
            )
        validated: Dict[str, list] = {}
        for column in self.columns:
            name = column.name
            dtype = column.dtype
            raw = columns[name]
            kinds = set(map(type, raw))
            if kinds <= {dtype._exact_type}:
                # One C-speed scan finds a zero; only then is -0.0 possible
                # and the column pays a pass that stores it as 0.0.
                if dtype._exact_type is float and 0.0 in raw:
                    raw = [value or 0.0 for value in raw]
                validated[name] = raw
                continue
            if not column.nullable and (_Missing in kinds or _NoneType in kinds):
                raise SchemaError(
                    f"row for table {self.name!r} is missing required column "
                    f"{name!r}"
                )
            coerce = dtype.coerce
            validated[name] = [
                None if value is _MISSING else coerce(value) for value in raw
            ]
        return validated

    def subset(self, names: Sequence[str], new_name: Optional[str] = None) -> "TableSchema":
        """Return a schema containing only the listed columns (in that order)."""
        columns = tuple(self.column(name) for name in names)
        return TableSchema(new_name or self.name, columns)
