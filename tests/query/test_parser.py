"""Tests for the SQL-ish parser."""

import pytest

from repro.errors import ParseError
from repro.query.ast import AggregateFunction, LiteralSlot, Parameter, QueryType
from repro.query.parser import parse, parse_template, split_literals
from repro.query.predicates import And, Between, CompareOp, Comparison


class TestSelectParsing:
    def test_aggregation_with_group_by_and_where(self):
        query = parse(
            "SELECT sum(revenue), avg(quantity) AS qty FROM sales "
            "WHERE product BETWEEN 1 AND 10 GROUP BY region;"
        )
        assert query.query_type is QueryType.AGGREGATION
        assert query.table == "sales"
        assert [spec.function for spec in query.aggregates] == [
            AggregateFunction.SUM, AggregateFunction.AVG,
        ]
        assert query.aggregates[1].alias == "qty"
        assert query.group_by == ("region",)
        assert isinstance(query.predicate, Between)

    def test_count_star(self):
        query = parse("SELECT count(*) FROM sales")
        assert query.aggregates[0].column == "*"

    def test_join_query(self):
        query = parse(
            "SELECT sum(revenue) FROM fact JOIN dim ON fact.dim_id = dim.id "
            "GROUP BY dim.label"
        )
        assert query.joins[0].table == "dim"
        assert query.joins[0].left_column == "dim_id"
        assert query.joins[0].right_column == "id"
        assert query.group_by == ("dim.label",)

    def test_point_select(self):
        query = parse("SELECT id, status FROM sales WHERE id = 42 LIMIT 5")
        assert query.query_type is QueryType.SELECT
        assert query.columns == ("id", "status")
        assert query.limit == 5
        assert query.predicate == Comparison("id", CompareOp.EQ, 42)

    def test_select_star(self):
        query = parse("SELECT * FROM sales WHERE region = 'west'")
        assert query.selects_all_columns
        assert query.predicate.value == "west"

    def test_and_connected_predicates(self):
        query = parse("SELECT * FROM sales WHERE region = 'west' AND product >= 5")
        assert isinstance(query.predicate, And)
        assert len(query.predicate.predicates) == 2

    def test_group_by_on_plain_select_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT id FROM sales GROUP BY region")


class TestDmlParsing:
    def test_insert(self):
        query = parse(
            "INSERT INTO sales (id, region, revenue, open_flag) "
            "VALUES (7, 'west', 12.5, true)"
        )
        assert query.query_type is QueryType.INSERT
        assert query.rows[0] == {"id": 7, "region": "west", "revenue": 12.5,
                                 "open_flag": True}

    def test_insert_length_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO sales (id, region) VALUES (1)")

    def test_update(self):
        query = parse("UPDATE sales SET status = 'shipped', quantity = 3 WHERE id = 9")
        assert query.query_type is QueryType.UPDATE
        assert query.assignments == {"status": "shipped", "quantity": 3}
        assert query.predicate == Comparison("id", CompareOp.EQ, 9)

    def test_delete(self):
        query = parse("DELETE FROM sales WHERE id >= 100")
        assert query.query_type is QueryType.DELETE
        assert query.predicate == Comparison("id", CompareOp.GE, 100)

    def test_unsupported_statement_rejected(self):
        with pytest.raises(ParseError):
            parse("CREATE TABLE t (a int)")
        with pytest.raises(ParseError):
            parse("")


class TestPlaceholders:
    def test_positional_placeholders_number_left_to_right(self):
        from repro.query.ast import Parameter

        query = parse(
            "UPDATE sales SET status = ?, quantity = ? WHERE id = ?"
        )
        assert query.assignments["status"] == Parameter(index=0)
        assert query.assignments["quantity"] == Parameter(index=1)
        assert query.predicate.value == Parameter(index=2)

    def test_named_placeholders(self):
        from repro.query.ast import Parameter

        query = parse(
            "SELECT count(*) FROM sales WHERE quantity BETWEEN :low AND :high"
        )
        assert query.predicate.low == Parameter(name="low")
        assert query.predicate.high == Parameter(name="high")

    def test_insert_placeholders(self):
        from repro.query.ast import Parameter

        query = parse("INSERT INTO sales (id, region) VALUES (?, ?)")
        assert query.rows[0] == {
            "id": Parameter(index=0), "region": Parameter(index=1)
        }

    def test_quoted_question_mark_is_a_literal(self):
        query = parse("SELECT * FROM sales WHERE status = '?'")
        assert query.predicate.value == "?"


class TestParseErrorPositions:
    def test_dangling_and_rejected_with_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT * FROM sales WHERE id = 1 AND")
        assert "dangling AND" in str(excinfo.value)
        assert excinfo.value.line == 1
        assert excinfo.value.column == 34

    def test_dangling_and_after_between(self):
        with pytest.raises(ParseError, match="dangling AND"):
            parse("SELECT * FROM sales WHERE id BETWEEN 1 AND")

    def test_leading_and_rejected(self):
        with pytest.raises(ParseError, match="must not start with AND"):
            parse("SELECT * FROM sales WHERE AND id = 1")

    def test_position_not_misled_by_identifier_containing_and(self):
        statement = "SELECT * FROM sales WHERE brandname = 1 AND"
        with pytest.raises(ParseError) as excinfo:
            parse(statement)
        # Points at the dangling AND, not at the 'and' inside 'brandname'.
        assert excinfo.value.column == statement.rindex("AND") + 1

    def test_multiline_positions(self):
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT *\nFROM sales\nWHERE id = 1 AND")
        assert excinfo.value.line == 3
        assert excinfo.value.column == 14

    def test_bad_predicate_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("SELECT * FROM sales WHERE ~~nonsense~~")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 27

    def test_trailing_and_inside_string_literal_is_fine(self):
        query = parse("SELECT * FROM sales WHERE status = 'x and'")
        assert query.predicate.value == "x and"

    def test_between_still_parses(self):
        query = parse("SELECT * FROM sales WHERE id BETWEEN 1 AND 10 AND product = 2")
        assert isinstance(query.predicate, And)

    def test_or_inside_a_numeric_value_is_rejected_with_position(self):
        # The grammar has no OR; the value ``$0 OR id = $1`` is no literal.
        statement = "SELECT id FROM t WHERE id = 1 OR id = 2"
        with pytest.raises(ParseError, match="could not parse literal") as excinfo:
            parse(statement)
        assert (excinfo.value.line, excinfo.value.column) == (1, statement.index("1 OR") + 1)

    def test_or_inside_a_bare_word_value_is_rejected_with_position(self):
        # Not the string literal 'x OR s = y': a bare literal is one word.
        statement = "SELECT id FROM t WHERE s = x OR s = y"
        with pytest.raises(ParseError, match="could not parse literal") as excinfo:
            parse(statement)
        assert (excinfo.value.line, excinfo.value.column) == (1, statement.index("x OR") + 1)
        assert parse("SELECT id FROM t WHERE s = x").predicate.value == "x"


class TestLiteralsNeverReachTheGrammar:
    """Literals are lifted out of the text before the grammar runs."""

    # Both raised ParseError when the grammar split the raw text on
    # ``and`` / the first ``where``.
    def test_keyword_inside_a_string_literal(self):
        query = parse("SELECT * FROM t WHERE region = 'rock and roll'")
        assert query.predicate == Comparison("region", CompareOp.EQ, "rock and roll")
        query = parse("UPDATE t SET region = 'a where b' WHERE id = 1")
        assert query.assignments == {"region": "a where b"}
        assert query.predicate == Comparison("id", CompareOp.EQ, 1)

    @pytest.mark.parametrize("value", [
        "x, y", "a) b", "it?s", ":name", "x limit 5", "a = b", "(", "1e5",
        "between 1 and 2", "$0", "",
    ])
    def test_string_values_round_trip(self, value):
        assert parse(f"SELECT * FROM t WHERE region = '{value}'").predicate.value == value
        assert parse(
            f"SELECT * FROM t WHERE id = 1 AND region = '{value}' LIMIT 3"
        ).predicate.predicates[1].value == value
        assert parse(
            f"UPDATE t SET region = '{value}', qty = 2 WHERE region = '{value}'"
        ).assignments == {"region": value, "qty": 2}
        assert parse(
            f"INSERT INTO t (a, region, b) VALUES (1, '{value}', 2)"
        ).rows[0] == {"a": 1, "region": value, "b": 2}
        assert parse(f"DELETE FROM t WHERE region = '{value}'").predicate.value == value
        assert parse(f'SELECT * FROM t WHERE region = "{value}"').predicate.value == value

    def test_split_literals(self):
        template, values = split_literals(
            "UPDATE t2 SET col1 = -5, note = 'a, b' WHERE t2.c3 >= 1e-05 "
            "AND x BETWEEN +7 AND 1562.484375"
        )
        assert template == (
            "UPDATE t2 SET col1 = $0, note = $1 WHERE t2.c3 >= $2 "
            "AND x BETWEEN $3 AND $4"
        )
        assert values == [-5, "a, b", 1e-05, 7, 1562.484375]
        assert [type(value) for value in values] == [int, str, float, int, float]

    def test_sibling_literals_share_one_template(self):
        first, _ = split_literals("SELECT * FROM sales WHERE id = 17")
        second, _ = split_literals("SELECT * FROM sales WHERE id = 180000")
        assert first == second == "SELECT * FROM sales WHERE id = $0"
        template = parse_template(first, "SELECT * FROM sales WHERE id = 17")
        assert template.predicate.value == LiteralSlot(0)

    def test_what_the_lifter_leaves_alone(self):
        # LIMIT is part of the shape; keyword constants, placeholders and
        # identifiers with digits are no literals.
        text = ("SELECT c1, t2.c3 FROM t2 WHERE c1 = TRUE AND t2.c3 = NULL "
                "AND d = ? AND e = :e2 AND f = false LIMIT 10")
        assert split_literals(text) == (text, [])
        query = parse(text)
        assert query.limit == 10 and query.columns == ("c1", "t2.c3")
        assert [child.value for child in query.predicate.predicates] == [
            True, None, Parameter(index=0), Parameter(name="e2"), False,
        ]

    def test_signs_fractions_and_exponents(self):
        values = [-5, 5, 0.5, -0.25, 1e-05, 2.5e3, 1562.484375, 12.0]
        text = ", ".join(repr(value) for value in values)
        query = parse(f"INSERT INTO t (a, b, c, d, e, f, g, h) VALUES ({text})")
        assert list(query.rows[0].values()) == values
        assert [type(v) for v in query.rows[0].values()] == [type(v) for v in values]
        assert parse("SELECT * FROM t WHERE a=-5 AND b>=+.5").predicate.predicates[1].value == 0.5

    def test_number_forms_left_to_the_grammar(self):
        # Touching a word character or a sign, they are bare words.
        assert parse("SELECT * FROM t WHERE d = 2020-01-31").predicate.value == "2020-01-31"
        assert parse("SELECT * FROM t WHERE d = 12ab").predicate.value == "12ab"
        nan = parse("SELECT * FROM t WHERE d = nan").predicate.value
        assert nan != nan

    def test_lifted_literals_and_placeholders_mix(self):
        query = parse("UPDATE t SET a = ?, b = 'x' WHERE id = 7 AND c = ?")
        assert query.assignments == {"a": Parameter(index=0), "b": "x"}
        assert [child.value for child in query.predicate.predicates] == [
            7, Parameter(index=1),
        ]

    def test_errors_point_into_the_original_text(self):
        statement = "SELECT * FROM sales WHERE region = 'north-east' AND 12345 ~ 3"
        with pytest.raises(ParseError) as excinfo:
            parse(statement)
        assert "'12345 ~ 3'" in str(excinfo.value)
        assert excinfo.value.column == statement.index("12345") + 1
        statement = "SELECT *\nFROM sales\nWHERE note = 'two\nlines' AND id = 1000 AND"
        with pytest.raises(ParseError, match="dangling AND") as excinfo:
            parse(statement)
        last_line = statement.splitlines()[-1]
        assert (excinfo.value.line, excinfo.value.column) == (4, last_line.rindex("AND") + 1)

    def test_marker_character_outside_a_string_is_rejected(self):
        with pytest.raises(ParseError, match="outside a string literal") as excinfo:
            parse("SELECT * FROM t WHERE a = 1 AND b = $0")
        assert excinfo.value.column == 37


class TestParserEndToEnd:
    def test_parsed_queries_execute_on_the_engine(self, row_database, sales_rows):
        result = row_database.execute(
            parse("SELECT sum(revenue) FROM sales GROUP BY region")
        )
        assert len(result.rows) == 7
        result = row_database.execute(parse("SELECT id, status FROM sales WHERE id = 3"))
        assert result.rows[0]["id"] == 3
        row_database.execute(parse("UPDATE sales SET status = 'x' WHERE id = 3"))
        result = row_database.execute(parse("SELECT status FROM sales WHERE id = 3"))
        assert result.rows[0]["status"] == "x"
