"""Tests for the SPARQL parser, planner and end-to-end query execution."""

import pytest

from repro import PlannerOptions
from repro.errors import ParseError
from repro.model import IRI, Literal
from repro.model.terms import RDF_TYPE, XSD_DATE, XSD_INTEGER
from repro.sparql import parse_sparql
from repro.sparql.ast import Variable
from repro.sparql import DEFAULT_SCHEME, RDFSCAN_SCHEME
from repro.engine import RDFJoinOp, RDFScanOp

EX = "http://example.org/"


class TestParser:
    def test_simple_select(self):
        q = parse_sparql(f"SELECT ?a WHERE {{ ?b <{EX}has_author> ?a . }}")
        assert q.select_variables == ["a"]
        assert len(q.patterns) == 1
        assert q.patterns[0].predicate == IRI(EX + "has_author")

    def test_prefixes_and_a_keyword(self):
        q = parse_sparql(f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s a ex:Book . }}")
        assert q.patterns[0].predicate == IRI(RDF_TYPE)
        assert q.patterns[0].object == IRI(EX + "Book")

    def test_predicate_object_lists(self):
        q = parse_sparql(f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?s ex:p1 ?a ; ex:p2 ?b, ?c . }}")
        assert len(q.patterns) == 3
        assert q.select_variables == ["s", "a", "b", "c"]

    def test_filters(self):
        q = parse_sparql(
            f'PREFIX ex: <{EX}> SELECT ?y WHERE {{ ?b ex:year ?y . '
            f'FILTER(?y >= "1994"^^<{XSD_INTEGER}> && ?y < "1999"^^<{XSD_INTEGER}>) }}')
        assert len(q.filters) == 2
        assert q.filters[0].op == ">="
        assert q.filters[1].op == "<"

    def test_filter_reversed_operands(self):
        q = parse_sparql(f'PREFIX ex: <{EX}> SELECT ?y WHERE {{ ?b ex:year ?y . FILTER(3 < ?y) }}')
        assert q.filters[0].op == ">"
        assert q.filters[0].variable == "y"

    def test_aggregates_group_order_limit(self):
        q = parse_sparql(
            f"PREFIX ex: <{EX}> "
            "SELECT ?g (SUM(?p * (1 - ?d)) AS ?rev) WHERE { ?s ex:g ?g . ?s ex:p ?p . ?s ex:d ?d . } "
            "GROUP BY ?g ORDER BY DESC(?rev) ?g LIMIT 5")
        assert q.aggregates[0].func == "sum"
        assert q.aggregates[0].alias == "rev"
        assert q.group_by == ["g"]
        assert q.order_by[0].descending is True
        assert q.order_by[1].variable == "g"
        assert q.limit == 5
        assert q.output_names() == ["g", "rev"]

    def test_distinct(self):
        q = parse_sparql(f"SELECT DISTINCT ?a WHERE {{ ?a <{EX}p> ?b . }}")
        assert q.distinct

    def test_literals(self):
        q = parse_sparql(
            f'SELECT ?s WHERE {{ ?s <{EX}p> "plain" . ?s <{EX}q> "x"@en . '
            f'?s <{EX}r> "2001-01-01"^^<{XSD_DATE}> . ?s <{EX}t> 5 . ?s <{EX}u> true . }}')
        objects = [p.object for p in q.patterns]
        assert Literal("plain") in objects
        assert Literal("x", language="en") in objects
        assert Literal("2001-01-01", datatype=XSD_DATE) in objects
        assert any(isinstance(o, Literal) and o.lexical == "5" for o in objects)

    def test_full_stop_after_a_name_or_number_ends_the_statement(self):
        # the '.' used to be read into the local name, so the query matched nothing
        q = parse_sparql(f"PREFIX ex: <{EX}> SELECT ?s WHERE {{ ?s ex:p ex:o. ?s ex:v1.2 5. }}")
        assert [p.object for p in q.patterns] == [IRI(EX + "o"), Literal("5", datatype=XSD_INTEGER)]
        assert q.patterns[1].predicate == IRI(EX + "v1.2")

    @pytest.mark.parametrize("bad", [
        "SELECT WHERE { ?s ?p ?o . }",
        "SELECT ?s { ?s ?p ?o . }",
        "SELECT ?s WHERE { ?s ?p . }",
        "SELECT ?s WHERE { ?s ?p ?o . ",
        'SELECT ?s WHERE { "lit" <http://x> ?o . }',
        "SELECT ?s WHERE { ?s pre:fix ?o . }",
        "SELECT ?s WHERE { ?s <http://x> ?o . } LIMIT abc",
        "SELECT ?s WHERE { ?s <http://x> <> . }",
        'SELECT ?s WHERE { ?s <http://x> "\\uZZZZ" . }',
        'SELECT ?s WHERE { ?s <http://x> "\\UFFFFFFFF" . }',
        'SELECT ?s WHERE { ?s <http://x> "dangling \\',
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_sparql(bad)

    def test_select_star_collects_variables(self):
        q = parse_sparql(f"SELECT * WHERE {{ ?s <{EX}p> ?o . }}")
        assert q.select_variables == ["s", "o"]

    def test_variable_dataclass(self):
        assert str(Variable("x")) == "?x"


QUERY_AUTHORS = f"""
PREFIX ex: <{EX}>
SELECT ?a ?n WHERE {{
  ?b ex:has_author ?a .
  ?b ex:in_year ?y .
  ?b ex:isbn_no ?n .
  FILTER(?y >= "1995"^^<{XSD_INTEGER}> && ?y <= "1999"^^<{XSD_INTEGER}>)
}}
"""

QUERY_JOIN = f"""
PREFIX ex: <{EX}>
SELECT ?n ?aname WHERE {{
  ?b ex:has_author ?a .
  ?b ex:isbn_no ?n .
  ?a ex:name ?aname .
}}
"""

QUERY_AGG = f"""
PREFIX ex: <{EX}>
SELECT ?aname (COUNT(?b) AS ?books) WHERE {{
  ?b ex:has_author ?a .
  ?a ex:name ?aname .
}} GROUP BY ?aname ORDER BY DESC(?books) ?aname
"""


class TestExecution:
    @pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, RDFSCAN_SCHEME])
    @pytest.mark.parametrize("zone_maps", [False, True])
    def test_filtered_star_all_schemes_agree(self, book_store, scheme, zone_maps):
        result = book_store.sparql(QUERY_AUTHORS, PlannerOptions(scheme=scheme, use_zone_maps=zone_maps))
        baseline = book_store.sparql(QUERY_AUTHORS, PlannerOptions(scheme=DEFAULT_SCHEME))
        assert result.bindings.to_set(["a", "n"]) == baseline.bindings.to_set(["a", "n"])
        assert len(result) > 0

    def test_cross_star_join(self, book_store):
        default = book_store.sparql(QUERY_JOIN, PlannerOptions(scheme=DEFAULT_SCHEME))
        rdfscan = book_store.sparql(QUERY_JOIN, PlannerOptions(scheme=RDFSCAN_SCHEME))
        assert default.bindings.to_set(["n", "aname"]) == rdfscan.bindings.to_set(["n", "aname"])
        # 30 books, each with exactly one isbn/author pair
        assert len(default) == 30

    def test_rdfjoin_used_for_fk_connected_stars(self, book_store):
        plan = book_store.sparql_plan(QUERY_JOIN, PlannerOptions(scheme=RDFSCAN_SCHEME))
        names = plan.operator_names()
        assert names.get("RDFScanOp", 0) >= 1
        assert names.get("RDFJoinOp", 0) >= 1

    def test_default_plan_uses_index_joins(self, book_store):
        plan = book_store.sparql_plan(QUERY_AUTHORS, PlannerOptions(scheme=DEFAULT_SCHEME))
        names = plan.operator_names()
        assert names.get("NestedLoopIndexJoinOp", 0) == 2
        assert plan.count_joins() == 2

    def test_rdfscan_plan_has_no_star_joins(self, book_store):
        plan = book_store.sparql_plan(QUERY_AUTHORS, PlannerOptions(scheme=RDFSCAN_SCHEME))
        assert plan.count_joins() == 0

    def test_aggregation_and_ordering(self, book_store):
        result = book_store.sparql(QUERY_AGG, PlannerOptions(scheme=RDFSCAN_SCHEME))
        rows = book_store.decode_rows(result)
        # 30 books over 5 authors -> 6 each; ties broken by name ascending
        assert [row[1] for row in rows] == [6.0] * 5
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)

    def test_unknown_term_yields_empty_result(self, book_store):
        query = f"SELECT ?s WHERE {{ ?s <{EX}no_such_predicate> ?o . }}"
        result = book_store.sparql(query)
        assert len(result) == 0

    def test_unsatisfiable_filter_yields_empty_result(self, book_store):
        query = (f'PREFIX ex: <{EX}> SELECT ?b WHERE {{ ?b ex:in_year ?y . '
                 f'FILTER(?y > "3000"^^<{XSD_INTEGER}>) }}')
        assert len(book_store.sparql(query)) == 0

    def test_equality_filter(self, book_store):
        query = (f'PREFIX ex: <{EX}> SELECT ?b WHERE {{ ?b ex:isbn_no ?n . '
                 f'FILTER(?n = "isbn-0003") }}')
        for scheme in (DEFAULT_SCHEME, RDFSCAN_SCHEME):
            result = book_store.sparql(query, PlannerOptions(scheme=scheme))
            assert len(result) == 1

    def test_not_equal_filter(self, book_store):
        query = (f'PREFIX ex: <{EX}> SELECT ?b ?n WHERE {{ ?b ex:isbn_no ?n . '
                 f'FILTER(?n != "isbn-0003") }}')
        result = book_store.sparql(query)
        assert len(result) == 29

    def test_distinct_projection(self, book_store):
        query = f"PREFIX ex: <{EX}> SELECT DISTINCT ?a WHERE {{ ?b ex:has_author ?a . }}"
        result = book_store.sparql(query)
        assert len(result) == 5

    def test_constant_subject_pattern(self, book_store):
        query = f"SELECT ?n WHERE {{ <{EX}book/3> <{EX}isbn_no> ?n . }}"
        rows = book_store.decode_rows(book_store.sparql(query))
        assert rows == [("isbn-0003",)]

    def test_bound_object_pattern(self, book_store):
        query = (f"PREFIX ex: <{EX}> SELECT ?b WHERE {{ ?b ex:has_author <{EX}author/1> . "
                 f"?b ex:in_year ?y . }}")
        default = book_store.sparql(query, PlannerOptions(scheme=DEFAULT_SCHEME))
        rdfscan = book_store.sparql(query, PlannerOptions(scheme=RDFSCAN_SCHEME))
        assert default.bindings.to_set(["b"]) == rdfscan.bindings.to_set(["b"])
        assert len(default) == 6

    def test_parse_order_store_answers_identically(self, rdfh_store, rdfh_parseorder_store):
        from repro.bench import q6_sparql
        clustered = rdfh_store.sparql(q6_sparql(), PlannerOptions(scheme=RDFSCAN_SCHEME))
        parse_order = rdfh_parseorder_store.sparql(q6_sparql(), PlannerOptions(scheme=RDFSCAN_SCHEME))
        assert clustered.bindings.column("revenue")[0] == pytest.approx(
            parse_order.bindings.column("revenue")[0])

    def test_costs_reported(self, book_store):
        book_store.reset_cold()
        result = book_store.sparql(QUERY_AUTHORS)
        assert result.cost.counters["page_reads"] > 0
        assert result.cost.simulated_seconds > 0
        assert result.cost.wall_seconds > 0
