"""Tests for Column and TableSchema."""

import pytest

from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.errors import SchemaError


def make_schema() -> TableSchema:
    return TableSchema.build(
        "orders",
        [
            ("id", DataType.INTEGER),
            ("customer", DataType.VARCHAR),
            ("total", DataType.DOUBLE),
            ("open_flag", DataType.BOOLEAN),
        ],
        primary_key=["id"],
    )


class TestColumn:
    def test_width_comes_from_dtype(self):
        column = Column("total", DataType.DOUBLE)
        assert column.width_bytes == DataType.DOUBLE.width_bytes

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("", DataType.INTEGER)
        with pytest.raises(SchemaError):
            Column("bad name", DataType.INTEGER)

    def test_nullable_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            Column("id", DataType.INTEGER, nullable=True, primary_key=True)


class TestTableSchema:
    def test_build_marks_primary_key(self):
        schema = make_schema()
        assert schema.primary_key == ("id",)
        assert schema.column("id").primary_key

    def test_column_names_preserve_order(self):
        schema = make_schema()
        assert schema.column_names == ("id", "customer", "total", "open_flag")

    def test_row_width_is_sum_of_column_widths(self):
        schema = make_schema()
        expected = sum(c.width_bytes for c in schema.columns)
        assert schema.row_width_bytes == expected

    def test_columns_width_bytes_subset(self):
        schema = make_schema()
        assert schema.columns_width_bytes(["id", "total"]) == (
            DataType.INTEGER.width_bytes + DataType.DOUBLE.width_bytes
        )

    def test_index_of_and_has_column(self):
        schema = make_schema()
        assert schema.index_of("total") == 2
        assert schema.has_column("customer")
        assert not schema.has_column("missing")

    def test_unknown_column_raises(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.column("missing")
        with pytest.raises(SchemaError):
            schema.index_of("missing")

    @pytest.mark.parametrize("asked_before", [False, True])
    def test_pickle_round_trip_keeps_identity_and_lookups(self, asked_before):
        """Checkpoint snapshots carry a schema.  What it computed once stays
        out of equality, hashing and ``repr``, whether or not it had been
        asked for before the round trip."""
        import pickle

        schema, fresh = make_schema(), make_schema()
        if asked_before:
            assert schema.column_names and schema.primary_key
            assert schema.index_of("total") == 2
        restored = pickle.loads(pickle.dumps(schema))
        for other in (restored, fresh):
            assert schema == other and hash(schema) == hash(other)
            assert repr(schema) == repr(other)
        assert restored.column_names == ("id", "customer", "total", "open_flag")
        assert restored.primary_key == ("id",)
        assert restored.index_of("open_flag") == 3
        with pytest.raises(SchemaError):
            restored.index_of("missing")
        assert restored.column_names is restored.column_names

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", DataType.INTEGER), ("a", DataType.DOUBLE)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_unknown_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", DataType.INTEGER)], primary_key=["b"])

    def test_subset_preserves_column_definitions(self):
        schema = make_schema()
        subset = schema.subset(["id", "total"])
        assert subset.column_names == ("id", "total")
        assert subset.column("id").primary_key
        assert subset.name == "orders"


class TestRowValidation:
    def test_valid_row_is_coerced(self):
        schema = make_schema()
        row = schema.validate_row(
            {"id": "5", "customer": 77, "total": "1.5", "open_flag": "true"}
        )
        assert row == {"id": 5, "customer": "77", "total": 1.5, "open_flag": True}

    def test_missing_required_column_rejected(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"id": 1, "customer": "x", "total": 2.0})

    def test_unknown_column_rejected(self):
        schema = make_schema()
        with pytest.raises(SchemaError):
            schema.validate_row({"id": 1, "customer": "x", "total": 2.0,
                                 "open_flag": True, "extra": 1})

    def test_nullable_column_defaults_to_none(self):
        schema = TableSchema(
            "t",
            (
                Column("id", DataType.INTEGER, primary_key=True),
                Column("note", DataType.VARCHAR, nullable=True),
            ),
        )
        row = schema.validate_row({"id": 3})
        assert row == {"id": 3, "note": None}
