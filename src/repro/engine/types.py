"""Data types and store identifiers of the hybrid-store engine.

The engine supports a compact set of SQL-ish data types.  Each type carries a
fixed width used by the timing model (for variable-length types the width is
the average in-memory footprint) and a *type cost factor* used by the cost
model's ``c_dataType`` adjustment (Section 3.1 of the paper: adaptation to the
data type is a multiplication with a constant value).
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.errors import SchemaError


class Store(enum.Enum):
    """The two stores of a hybrid-store database."""

    ROW = "row"
    COLUMN = "column"

    @property
    def other(self) -> "Store":
        """Return the opposite store."""
        return Store.COLUMN if self is Store.ROW else Store.ROW

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class DataType(enum.Enum):
    """Supported column data types."""

    INTEGER = "integer"
    BIGINT = "bigint"
    DOUBLE = "double"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"
    BOOLEAN = "boolean"

    @property
    def width_bytes(self) -> int:
        """Average in-memory width of one value of this type, in bytes."""
        return _WIDTH_BYTES[self]

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type can be aggregated with SUM/AVG."""
        return self in _NUMERIC_TYPES

    @property
    def cost_factor(self) -> float:
        """Relative processing cost of one value of this type.

        Integers are the baseline (1.0); wider or more complex types are more
        expensive to compare, hash and aggregate.  This mirrors the constant
        ``c_dataType`` adjustment of the paper's cost model.
        """
        return _COST_FACTORS[self]

    def coerce(self, value: Any) -> Any:
        """Coerce *value* to the Python representation of this type.

        Raises :class:`SchemaError` if the value cannot be represented.
        A float has one zero: ``value or self._zero`` stores -0.0 as 0.0 and
        leaves every other value as it is (see :data:`_ZEROS`).
        """
        if value is None:
            return None
        if type(value) is self._exact_type:
            # Already the canonical representation — the common case on every
            # bulk load, insert and store conversion.
            return value or self._zero
        try:
            return self._coercer(value) or self._zero
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"value {value!r} is not valid for data type {self.value}"
            ) from exc


_WIDTH_BYTES = {
    DataType.INTEGER: 4,
    DataType.BIGINT: 8,
    DataType.DOUBLE: 8,
    DataType.DECIMAL: 12,
    DataType.VARCHAR: 24,
    DataType.DATE: 4,
    DataType.BOOLEAN: 1,
}

_NUMERIC_TYPES = frozenset(
    {DataType.INTEGER, DataType.BIGINT, DataType.DOUBLE, DataType.DECIMAL}
)

_COST_FACTORS = {
    DataType.INTEGER: 1.0,
    DataType.BIGINT: 1.1,
    DataType.DOUBLE: 1.25,
    DataType.DECIMAL: 1.6,
    DataType.VARCHAR: 2.2,
    DataType.DATE: 1.05,
    DataType.BOOLEAN: 0.8,
}


def _coerce_date(value: Any) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value)
    if isinstance(value, int):
        # Days since the epoch; convenient for generators.
        return datetime.date(1970, 1, 1) + datetime.timedelta(days=value)
    raise ValueError(f"cannot interpret {value!r} as a date")


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ValueError(f"cannot interpret {value!r} as a boolean")


_COERCERS = {
    DataType.INTEGER: int,
    DataType.BIGINT: int,
    DataType.DOUBLE: float,
    DataType.DECIMAL: float,
    DataType.VARCHAR: str,
    DataType.DATE: _coerce_date,
    DataType.BOOLEAN: _coerce_bool,
}

#: Exact (canonical) Python type per data type: a value of exactly this type
#: passes :meth:`DataType.coerce` unchanged, so it can be returned as-is.
#: Exact type checks keep subclass corner cases (``bool`` for INTEGER,
#: ``datetime`` for DATE) on the slow, semantically-checked path.
_EXACT_TYPES = {
    DataType.INTEGER: int,
    DataType.BIGINT: int,
    DataType.DOUBLE: float,
    DataType.DECIMAL: float,
    DataType.VARCHAR: str,
    DataType.DATE: datetime.date,
    DataType.BOOLEAN: bool,
}

#: The falsy value of each type, which ``value or zero`` maps every falsy
#: value to: -0.0 becomes 0.0, and any other falsy value already is it.
#: (No date is falsy.)
_ZEROS = {
    DataType.INTEGER: 0,
    DataType.BIGINT: 0,
    DataType.DOUBLE: 0.0,
    DataType.DECIMAL: 0.0,
    DataType.VARCHAR: "",
    DataType.DATE: None,
    DataType.BOOLEAN: False,
}

# Bind the per-type helpers as member attributes: coerce() runs on every cell
# of every load, and plain attribute access avoids an enum hash per value.
for _member in DataType:
    _member._exact_type = _EXACT_TYPES[_member]
    _member._coercer = _COERCERS[_member]
    _member._zero = _ZEROS[_member]
del _member
