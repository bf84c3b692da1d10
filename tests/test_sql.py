"""Tests for the relational catalog and the SQL view engine."""

import pytest

from repro.errors import ParseError, SchemaError
from repro.model import Literal
from repro.model.terms import XSD_BOOLEAN, XSD_DATE
from repro.sql import Catalog, parse_sql
from repro.sql.parser import ColumnRef
from repro.cs.summarize import top_k_summary

EX = "http://example.org/"


class TestSqlParser:
    def test_simple_select(self):
        q = parse_sql("SELECT name, year FROM Book WHERE year >= 1995 ORDER BY year DESC LIMIT 3")
        assert q.base_table == "Book"
        assert [item.column.column for item in q.select_items] == ["name", "year"]
        assert q.predicates[0].op == ">="
        assert q.order_by[0].descending is True
        assert q.limit == 3

    def test_join_and_qualified_columns(self):
        q = parse_sql("SELECT b.isbn, a.name FROM Book b JOIN Person a ON b.author = a.id "
                      "WHERE a.name = 'Alice'")
        assert q.base_alias == "b"
        assert q.joins[0].table == "Person"
        assert q.joins[0].left == ColumnRef("author", "b")
        assert q.predicates[0].value == Literal("Alice")

    def test_aggregate_with_expression(self):
        q = parse_sql("SELECT SUM(price * (1 - discount)) AS revenue FROM Lineitem GROUP BY flag")
        item = q.select_items[0]
        assert item.aggregate == "sum"
        assert item.alias == "revenue"
        assert q.group_by[0].column == "flag"

    def test_date_and_boolean_constants(self):
        q = parse_sql("SELECT * FROM t WHERE d < DATE '1995-03-15' AND f = TRUE")
        assert q.select_star
        assert q.predicates[0].value == Literal("1995-03-15", datatype=XSD_DATE)
        assert q.predicates[1].value == Literal("true", datatype=XSD_BOOLEAN)

    def test_string_escaping(self):
        q = parse_sql("SELECT * FROM t WHERE name = 'O''Brien'")
        assert q.predicates[0].value == Literal("O'Brien")

    @pytest.mark.parametrize("bad", [
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t JOIN u ON a < b",
        "SELECT a FROM t LIMIT x",
        "UPDATE t SET a = 1",
        "SELECT b.isbn_no FROM Book b WHERE b.isbn_no = DATE 'x'",
        "SELECT * FROM t WHERE d < DATE '1999-13-45'",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_sql(bad)


class TestCatalog:
    def test_tables_and_columns(self, book_store):
        catalog = book_store.require_catalog()
        names = catalog.table_names()
        assert "Book" in names and "Person" in names
        book = catalog.table("Book")
        assert book.has_column("id")
        assert book.has_column("isbn_no")
        assert book.row_count == 30

    def test_foreign_key_column_references(self, book_store):
        catalog = book_store.require_catalog()
        book = catalog.table("Book")
        author_col = book.column("has_author")
        assert author_col.references == "Person"

    def test_ddl_script(self, book_store):
        catalog = book_store.require_catalog()
        ddl = catalog.ddl_script()
        assert "CREATE TABLE Book" in ddl
        assert "REFERENCES Person(id)" in ddl

    def test_unknown_table_raises(self, book_store):
        with pytest.raises(SchemaError):
            book_store.require_catalog().table("nope")

    def test_reduced_schema_registration(self, book_store):
        catalog = book_store.require_catalog()
        summary = top_k_summary(book_store.require_schema(), 1)
        names = catalog.register_summary("focus", summary)
        assert catalog.table_names("focus") == names
        assert len(names) == 1
        with pytest.raises(SchemaError):
            catalog.table_names("unknown-schema")

    def test_describe(self, book_store):
        lines = book_store.require_catalog().describe()
        assert any("Book" in line for line in lines)


class TestSqlExecution:
    def test_projection_and_filter(self, book_store):
        result = book_store.sql("SELECT isbn_no FROM Book WHERE in_year >= 2000 ORDER BY isbn_no")
        rows = book_store.decode_rows(result)
        # years 1990..2004 cycle over 30 books; >= 2000 matches 10 books
        assert len(rows) == 10
        assert rows == sorted(rows)

    def test_equality_on_string(self, book_store):
        rows = book_store.decode_rows(
            book_store.sql("SELECT id FROM Book WHERE isbn_no = 'isbn-0007'"))
        assert rows == [(f"{EX}book/7",)]

    def test_join_over_foreign_key(self, book_store):
        result = book_store.sql(
            "SELECT b.isbn_no, a.name FROM Book b JOIN Person a ON b.has_author = a.id "
            "WHERE a.name = 'Author 2' ORDER BY b.isbn_no")
        rows = book_store.decode_rows(result)
        assert len(rows) == 6
        assert all(name == "Author 2" for _isbn, name in rows)

    def test_aggregation_group_by(self, book_store):
        result = book_store.sql(
            "SELECT a.name, COUNT(b.isbn_no) AS books FROM Book b "
            "JOIN Person a ON b.has_author = a.id GROUP BY a.name ORDER BY a.name")
        rows = book_store.decode_rows(result)
        assert len(rows) == 5
        assert all(count == 6.0 for _name, count in rows)

    def test_sum_expression(self, book_store):
        result = book_store.sql("SELECT SUM(in_year) AS total FROM Book WHERE in_year >= 2000")
        [row] = book_store.decode_rows(result)
        # years 2000..2004, twice each
        assert row[0] == pytest.approx(2 * sum(range(2000, 2005)))

    def test_sql_matches_sparql(self, book_store):
        sql_rows = set(book_store.decode_rows(book_store.sql(
            "SELECT isbn_no FROM Book WHERE in_year >= 1995 AND in_year <= 1999")))
        sparql_rows = set(book_store.decode_rows(book_store.sparql(
            f'PREFIX ex: <{EX}> SELECT ?n WHERE {{ ?b ex:isbn_no ?n . ?b ex:in_year ?y . '
            f'FILTER(?y >= "1995"^^<http://www.w3.org/2001/XMLSchema#integer> && '
            f'?y <= "1999"^^<http://www.w3.org/2001/XMLSchema#integer>) }}')))
        assert sql_rows == sparql_rows
        assert sql_rows

    def test_select_star(self, book_store):
        result = book_store.sql("SELECT * FROM Person")
        assert result.bindings.num_rows == 5
        assert len(result.columns) == len(book_store.require_catalog().table("Person").columns)

    def test_select_items_sharing_an_output_name_keep_their_own_columns(self, book_store):
        expected = book_store.decode_rows(book_store.sql(
            "SELECT isbn_no, has_author FROM Book ORDER BY isbn_no"))
        assert len({isbn for isbn, _author in expected}) == 30
        for text, columns in (
                ("SELECT isbn_no AS x, has_author AS x FROM Book ORDER BY isbn_no", ["x", "x"]),
                ("SELECT isbn_no AS has_author, has_author FROM Book ORDER BY isbn_no",
                 ["has_author", "has_author"])):
            result = book_store.sql(text)
            assert result.columns == columns
            assert book_store.decode_rows(result) == expected, text
        counted = book_store.decode_rows(book_store.sql(
            "SELECT COUNT(isbn_no) AS n, SUM(in_year) AS n FROM Book"))
        assert counted == [(30.0, float(2 * sum(range(1990, 2005))))]

    def test_unknown_column_raises(self, book_store):
        with pytest.raises(SchemaError):
            book_store.sql("SELECT nope FROM Book")

    def test_ambiguous_column_raises(self, book_store):
        with pytest.raises(SchemaError):
            book_store.sql("SELECT type FROM Book b JOIN Person a ON b.has_author = a.id")

    def test_explain(self, book_store):
        from repro.planner import QueryEngine
        from repro.sql import sql_frontend
        engine = QueryEngine(book_store.context(), [sql_frontend(book_store.require_catalog())])
        text = engine.prepare("sql", "SELECT isbn_no FROM Book WHERE in_year >= 2000")[1].explain()
        assert "RDFscan" in text

    def test_rdfh_q3_sql_matches_sparql(self, rdfh_store, tpch_tiny):
        from repro.bench import q3_sql, q3_sparql, iter_reference_q3
        sql_rows = rdfh_store.decode_rows(rdfh_store.sql(q3_sql()))
        reference = iter_reference_q3(tpch_tiny)
        assert len(sql_rows) == min(10, len(reference))
        if reference:
            # top revenue value agrees with the row-level reference computation
            assert sql_rows[0][2] == pytest.approx(reference[0][1], rel=1e-9)

    def test_rdfh_q6_sql_matches_reference(self, rdfh_store, tpch_tiny):
        from repro.bench import q6_sql, iter_reference_q6
        [row] = rdfh_store.decode_rows(rdfh_store.sql(q6_sql()))
        assert row[0] == pytest.approx(iter_reference_q6(tpch_tiny), rel=1e-9)
