"""Both front ends behind one planner.

* **Front-end differential** — a corpus of SQL texts, each paired with its
  SPARQL text where SPARQL can say the same thing (it has no NULLs), run on
  book / DBLP / dirty / RDF-H stores clean, with a pending delta, after
  ``compact()`` and after ``open()``.  The reference is a row-at-a-time
  evaluation of the lowered logical query: every star answered by
  ``_oracles.star_over_union``, the rest (join, filter, group, order, limit,
  project) in plain Python.  The store's batch size comes from
  ``REPRO_BATCH_SIZE``, so CI runs the corpus at both of its sizes.
* **Read-path differential** — the same corpus in the same states through
  every way to read a store (``store.sparql/sql``, an explicit
  ``ReadSnapshot``, a ``QueryServer`` decoding under its own pins): one
  more dimension of the loop above; and a snapshot pinned before a
  ``compact()`` keeps answering, and decoding, from its own state.
* **SPARQL plan shapes do not move** — ``explain()`` of the batch-differential
  corpus under every scheme and zone-map setting against the golden file
  generated before the planners were merged (``_plan_golden``); and the
  RDFscan plans have one star order: ``optimized`` plans this corpus
  exactly like ``rdfscan``, clean, pending and compacted.
* **SQL through the shared path** — the cross-product join order the SQL
  planner used to pick, cross-foreign-key push-down for SQL Q3, the plan
  cache serving SQL, the NULL rows of a pending write checked against the
  compacted store, estimates and progress for SQL.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np
import pytest

from _datasets import (
    EX,
    book_triples,
    build_book_store,
    build_dblp_store,
    build_rdfh_store,
    small_graph_config,
    tiny_tpch,
)
from _oracles import PerCellDecoder, filed_subjects, star_over_union
from _plan_golden import CORPUS, GOLDEN_PATH, render
from repro import ParseError, PlannerOptions, QueryServer, RDFStore
from repro.bench import DirtyConfig, generate_dirty, q3_sql, q6_sparql, q6_sql
from repro.bench.dblp import DBLP, VOC as DBLP_VOC
from repro.bench.dirty import VOC as CRAWL_VOC
from repro.bench.rdfh import RDFH_VOC, lineitem_iri, order_iri
from repro.columnar import CardinalityEstimator
from repro.engine import BinaryOp, NumericConst, NumericVar, ProjectOp, StarPattern, StarProperty
from repro.engine.plan import PatternTerm
from repro.model import IRI
from repro.planner import LogicalQuery, QueryEngine
from repro.rio import parse_turtle, serialize_ntriples
from repro.sparql import SPARQL_FRONTEND
from repro.sql import sql_frontend

XSD = "http://www.w3.org/2001/XMLSchema#"


# -- the row-at-a-time reference --------------------------------------------------------


def _star_subjects(store: RDFStore, star: StarPattern) -> List[int]:
    """The subjects a star ranges over, one at a time: those whose table —
    the one the admission rule files it in, for a written subject — has a
    block with a column for every star predicate, and those with a triple
    on a star predicate no column holds (an irregular triple; for a written
    subject, a second value or a property its table has no column for)."""
    clustered = store.clustered_store
    predicates = set(star.predicate_oids())
    filed = filed_subjects(clustered, store.context().active_delta())
    subjects = set()
    for block in clustered.blocks_with_properties(predicates):
        subjects.update(s for s in block.subject_column.data.tolist() if s not in filed)
    subjects.update(s for s, p, _o in clustered.irregular.raw().tolist()
                    if p in predicates and s not in filed)
    for subject, (cs_id, pairs) in filed.items():
        block = clustered.find_block(cs_id)
        columns = set() if block is None else set(block.property_columns)
        values = Counter(p for p, _o in pairs)
        if predicates <= columns or any(p in predicates and (p not in columns or count > 1)
                                        for p, count in values.items()):
            subjects.add(subject)
    return sorted(subjects)


def _numeric(expression, row: Dict[str, object], decoder) -> float:
    if isinstance(expression, NumericConst):
        return expression.value
    if isinstance(expression, NumericVar):
        value = row[expression.name]
        return value if isinstance(value, float) else decoder.numeric(value)
    assert isinstance(expression, BinaryOp)
    left = _numeric(expression.left, row, decoder)
    right = _numeric(expression.right, row, decoder)
    return {"+": left + right, "-": left - right, "*": left * right,
            "/": left / right if right else float("nan")}[expression.op]


def oracle_rows(store: RDFStore, logical: LogicalQuery) -> List[tuple]:
    """Decoded result rows of a logical query, one row at a time."""
    assert logical.empty is None and not logical.loose
    context = store.context()
    decoder = PerCellDecoder(context.dictionary)
    rows: List[Dict[str, object]] = [{}]
    for star in logical.stars.values():
        table = star_over_union(store.clustered_store, star, _star_subjects(store, star),
                                None, delta=context.active_delta(),
                                dictionary=context.dictionary)
        names = list(star.output_variables())
        shared = sorted(set(rows[0]) & set(names)) if rows else []
        index = defaultdict(list)
        for i in range(table.num_rows):
            row = {name: int(table.column(name)[i]) for name in names}
            index[tuple(row[name] for name in shared)].append(row)
        rows = [{**left, **right} for left in rows
                for right in index.get(tuple(left[name] for name in shared), ())]
    for var, oid in logical.not_equal:
        rows = [row for row in rows if row[var] != oid]
    if logical.aggregates:
        groups: Dict[tuple, List[Dict[str, object]]] = {} if logical.group_vars else {(): []}
        for row in rows:
            groups.setdefault(tuple(row[var] for var in logical.group_vars), []).append(row)
        rows = []
        for key, members in groups.items():
            out: Dict[str, object] = dict(zip(logical.group_vars, key))
            for spec in logical.aggregates:
                out[spec.alias] = spec.compute(np.asarray(
                    [_numeric(spec.expression, member, decoder) for member in members],
                    dtype=np.float64))
            rows.append(out)
    elif logical.distinct:
        seen = {tuple(row[var] for var, _name in logical.output): row for row in rows}
        rows = list(seen.values())

    def value(row, var):
        cell = row[var]
        return cell if isinstance(cell, float) else decoder.python_value(cell)

    for var, descending in reversed(logical.order_by):
        rows.sort(key=lambda row: value(row, var), reverse=descending)
    if logical.limit is not None:
        rows = rows[:logical.limit]
    return [tuple(value(row, var) for var, _name in logical.output) for row in rows]


def _canonical(rows: List[tuple], ordered: bool) -> List[tuple]:
    """Floats to nine significant digits (a sum's last bits depend on row
    order); sorted unless the query's own order is total."""
    rows = [tuple(float(f"{cell:.9g}") if isinstance(cell, float) else cell for cell in row)
            for row in rows]
    return rows if ordered else sorted(rows, key=repr)


# -- (a) the front-end differential -----------------------------------------------------


@dataclass(frozen=True)
class Case:
    sql: str
    sparql: Optional[str] = None
    """``None`` when the SQL reads a nullable column: SPARQL has no NULL."""
    ordered: bool = False
    """The ORDER BY is total, so rows compare in sequence (needed with LIMIT)."""


ReadPath = Callable[..., List[tuple]]
"""``read(frontend, text, options=None)`` -> decoded rows."""


@contextmanager
def read_paths(store: RDFStore) -> Iterator[Dict[str, ReadPath]]:
    """Every way to read a store, by name; all must answer alike."""
    pinned_by_others = store.open_snapshot_count()

    with store.snapshot() as snapshot, QueryServer(store, workers=1) as server:
        yield {
            "store": lambda frontend, text, options=None: store.decode_rows(
                store.sql(text) if frontend == "sql" else store.sparql(text, options)),
            "snapshot": lambda frontend, text, options=None: snapshot.decode_rows(
                snapshot.query(frontend, text, options)),
            "server": lambda frontend, text, options=None: (
                server.submit_sql(text, decode=True) if frontend == "sql"
                else server.submit_query(text, options, decode=True)).result(),
        }
    assert store.open_snapshot_count() == pinned_by_others


def check_corpus(store: RDFStore, cases: List[Case], state: str) -> None:
    context = store.context()
    sql = sql_frontend(store.require_catalog())
    with read_paths(store) as paths:
        for case in cases:
            where = f"{state}: {case.sql}"
            expected = _canonical(oracle_rows(store, sql.lower(sql.parse(case.sql), context)),
                                  case.ordered)
            assert expected, f"vacuous case, {where}"
            for path, read in paths.items():
                got = _canonical(read("sql", case.sql), case.ordered)
                assert got == expected, f"SQL via {path} disagrees with the oracle, {where}"
            if case.sparql is None:
                continue
            logical = SPARQL_FRONTEND.lower(SPARQL_FRONTEND.parse(case.sparql), context)
            assert _canonical(oracle_rows(store, logical), case.ordered) == expected, \
                f"the two lowerings mean different things, {where}"
            # scheme and read path are independent: every scheme through the
            # store, every path under the scheme a caller gets by default
            for options in (PlannerOptions(), PlannerOptions(use_zone_maps=False),
                            PlannerOptions(scheme="optimized"), PlannerOptions(scheme="default")):
                for path in (paths if options == PlannerOptions() else ["store"]):
                    got = _canonical(paths[path]("sparql", case.sparql, options), case.ordered)
                    assert got == expected, \
                        f"SPARQL [{options.describe()}] via {path} disagrees, {where}"


def _snapshot_rows(snapshot, cases: List[Case]) -> List[List[tuple]]:
    return [_canonical(snapshot.decode_rows(snapshot.sql(case.sql)), case.ordered)
            for case in cases]


def check_clean_pending_compacted(store: RDFStore, cases: List[Case], updates: List[str],
                                  db_path) -> None:
    check_corpus(store, cases, "clean")
    for text in updates:
        store.update(text)
    assert store.has_pending_updates()
    check_corpus(store, cases, "pending delta")
    with store.snapshot() as pinned:
        before = _snapshot_rows(pinned, cases)
        store.compact()
        assert not store.has_pending_updates()
        check_corpus(store, cases, "compacted")
        # compaction moves no OID: the pinned snapshot still reads its own
        # version, through the dictionary the store keeps appending to
        assert pinned.context.dictionary is store.dictionary
        assert _snapshot_rows(pinned, cases) == before
    store.save(db_path)
    check_corpus(RDFStore.open(db_path), cases, "reopened")


BOOK = f"PREFIX ex: <{EX}> PREFIX xsd: <{XSD}>"

BOOK_CASES = [
    Case("SELECT isbn_no, in_year FROM Book",
         f"{BOOK} SELECT ?i ?y WHERE {{ ?b ex:isbn_no ?i . ?b ex:in_year ?y . }}"),
    Case("SELECT isbn_no FROM Book WHERE in_year >= 1998 AND in_year < 2003",
         f"{BOOK} SELECT ?i WHERE {{ ?b ex:isbn_no ?i . ?b ex:in_year ?y . "
         f'FILTER(?y >= "1998"^^xsd:integer && ?y < "2003"^^xsd:integer) }}'),
    Case("SELECT isbn_no FROM Book WHERE isbn_no != 'isbn-0003' AND in_year <> 1991",
         f'{BOOK} SELECT ?i WHERE {{ ?b ex:isbn_no ?i . ?b ex:in_year ?y . '
         f'FILTER(?i != "isbn-0003") FILTER(?y != "1991"^^xsd:integer) }}'),
    Case("SELECT id, in_year FROM Book WHERE isbn_no = 'isbn-0007'",
         f'{BOOK} SELECT ?b ?y WHERE {{ ?b ex:isbn_no "isbn-0007" . ?b ex:in_year ?y . }}'),
    Case("SELECT b.isbn_no, p.name FROM Book b JOIN Person p ON b.has_author = p.id "
         "WHERE b.in_year > 1995",
         f'{BOOK} SELECT ?i ?n WHERE {{ ?b ex:isbn_no ?i . ?b ex:has_author ?a . '
         f'?b ex:in_year ?y . ?a ex:name ?n . FILTER(?y > "1995"^^xsd:integer) }}'),
    Case("SELECT p.name, COUNT(b.isbn_no) AS books FROM Book b JOIN Person p "
         "ON b.has_author = p.id GROUP BY p.name ORDER BY books DESC, p.name LIMIT 3",
         f"{BOOK} SELECT ?n (COUNT(?i) AS ?books) WHERE {{ ?b ex:isbn_no ?i . "
         f"?b ex:has_author ?a . ?a ex:name ?n . }} GROUP BY ?n ORDER BY DESC(?books) ?n LIMIT 3",
         ordered=True),
    Case("SELECT isbn_no, in_year FROM Book ORDER BY in_year DESC, isbn_no LIMIT 7",
         f"{BOOK} SELECT ?i ?y WHERE {{ ?b ex:isbn_no ?i . ?b ex:in_year ?y . }} "
         f"ORDER BY DESC(?y) ?i LIMIT 7", ordered=True),
    Case("SELECT * FROM Person",
         f"{BOOK} SELECT ?p ?t ?n WHERE {{ ?p a ?t . ?p ex:name ?n . }}"),
    # the delta punches a hole into ``has_author``: a NULL, which SPARQL cannot say
    Case("SELECT isbn_no, has_author FROM Book"),
    # a table named by its id alone has the rows SELECT * has; no SPARQL pair,
    # since a star of ``type`` alone would also match the Persons
    Case("SELECT id FROM Book"),
    Case("SELECT COUNT(id) FROM Book"),
    Case("SELECT p.id FROM Book b JOIN Person p ON b.has_author = p.id"),
]

BOOK_UPDATES = [
    f'INSERT DATA {{ <{EX}author/9> a <{EX}Person> ; <{EX}name> "Author 9" . '
    f'<{EX}book/new> <{EX}has_author> <{EX}author/9> ; '
    f'<{EX}in_year> "1999"^^<{XSD}integer> ; <{EX}isbn_no> "isbn-new" . '
    f'<{EX}book/1> <{EX}isbn_no> "isbn-0001-bis" . }}',
    # a tombstone and its resurrection.  The paired columns stay complete, and
    # ``rdf:type`` (a column of every table) untouched: under a pending delta SQL
    # reads every column as nullable and SPARQL none, so a hole tells them apart
    f'DELETE DATA {{ <{EX}book/5> <{EX}isbn_no> "isbn-0005" . }} ; '
    f'INSERT DATA {{ <{EX}book/5> <{EX}isbn_no> "isbn-0005" . }}',
    f"DELETE DATA {{ <{EX}book/9> <{EX}has_author> <{EX}author/4> . }}",
]

DBLP_PREFIX = f"PREFIX d: <{DBLP_VOC}>"

DBLP_CASES = [
    Case("SELECT id, title FROM Inproceedings",
         f"{DBLP_PREFIX} SELECT ?p ?t WHERE {{ ?p d:title ?t . }}"),
    Case("SELECT p.id, c.title FROM Inproceedings p JOIN Conference c ON p.partOf = c.id "
         "WHERE c.issued >= 2000",
         f'{DBLP_PREFIX} PREFIX xsd: <{XSD}> SELECT ?p ?ct WHERE {{ ?p d:partOf ?c . '
         f'?c d:title ?ct . ?c d:issued ?y . FILTER(?y >= "2000"^^xsd:integer) }}'),
    Case("SELECT p.id, a.name, c.title FROM Inproceedings p JOIN Person a ON p.creator = a.id "
         "JOIN Conference c ON p.partOf = c.id",
         f"{DBLP_PREFIX} SELECT ?p ?n ?ct WHERE {{ ?p d:creator ?a . "
         f"?p d:partOf ?c . ?a d:name ?n . ?c d:title ?ct . }}"),
    # a nullable foreign key: the inner join keeps only rows that have one
    Case("SELECT p.id, a.name FROM Inproceedings_2 p JOIN Person a ON p.creator = a.id",
         f"{DBLP_PREFIX} SELECT ?p ?n WHERE {{ ?p d:creator ?a . ?a d:name ?n . }}"),
    Case("SELECT a.name, COUNT(p.id) AS papers FROM Inproceedings_2 p JOIN Person a "
         "ON p.creator = a.id GROUP BY a.name ORDER BY papers DESC, a.name LIMIT 5",
         f"{DBLP_PREFIX} SELECT ?n (COUNT(?p) AS ?papers) WHERE {{ ?p d:creator ?a . "
         f"?a d:name ?n . }} GROUP BY ?n ORDER BY DESC(?papers) ?n LIMIT 5", ordered=True),
    Case("SELECT id, partOf, creator FROM Inproceedings_2"),   # creator is nullable
    Case("SELECT homepage, content FROM homepage"),             # content is nullable
]

DBLP_UPDATES = [
    f'INSERT DATA {{ <{DBLP}inproc/new> <{DBLP_VOC}title> "A new paper" ; <{DBLP_VOC}creator> <{DBLP}author/3> ; '
    f'<{DBLP_VOC}partOf> <{DBLP}conf/0> . '
    f'<{DBLP}webpage/new> <{DBLP_VOC}homepage> "new.php" . }}',
    f"DELETE WHERE {{ <{DBLP}inproc/7> <{DBLP_VOC}creator> ?a . }}",
    f"DELETE WHERE {{ <{DBLP}webpage/0> <{DBLP_VOC}content> ?c . }}",
]

CRAWL = f"PREFIX c: <{CRAWL_VOC}>"

DIRTY_CASES = [
    # chaotic subjects carry some class predicates and not others, so under a
    # pending delta (every unpinned column nullable) only predicates pin rows
    Case("SELECT c0_p0, c0_p1 FROM Class0 WHERE c0_p0 >= 'c0_p0-value-1' AND c0_p1 < 'c0_p1-value-9'",
         f'{CRAWL} SELECT ?a ?b WHERE {{ ?s c:c0_p0 ?a . ?s c:c0_p1 ?b . '
         f'FILTER(?a >= "c0_p0-value-1") FILTER(?b < "c0_p1-value-9") }}'),
    Case("SELECT c0_p0, c0_p1 FROM Class0"),
    Case("SELECT id FROM Class1 WHERE c1_p0 >= 'c1_p0-value-2' AND c1_p0 < 'c1_p0-value-3'",
         f'{CRAWL} SELECT ?s WHERE {{ ?s c:c1_p0 ?a . '
         f'FILTER(?a >= "c1_p0-value-2" && ?a < "c1_p0-value-3") }}'),
    Case("SELECT c2_p0 FROM Class2 WHERE c2_p1 = 'c2_p1-value-11'",
         f'{CRAWL} SELECT ?a WHERE {{ ?s c:c2_p0 ?a . ?s c:c2_p1 "c2_p1-value-11" . }}'),
    Case("SELECT c0_p0, c0_p2, c0_p3 FROM Class0"),            # two nullable columns
    Case("SELECT c0_p0, c0_p3 FROM Class0 WHERE c0_p2 != 'c0_p2-value-1'"),
    Case("SELECT * FROM Class2"),
]

DIRTY_UPDATES = [
    f'INSERT DATA {{ <http://example.org/crawl/entity/0/new> a <{CRAWL_VOC}Class0> ; '
    f'<{CRAWL_VOC}c0_p0> "c0_p0-value-new" ; <{CRAWL_VOC}c0_p1> "c0_p1-value-new" ; '
    f'<{CRAWL_VOC}c0_p4> "c0_p4-value-new" . }}',
    f'DELETE DATA {{ <http://example.org/crawl/entity/0/1> <{CRAWL_VOC}c0_p2> "c0_p2-value-1" . }}',
    f'DELETE DATA {{ <http://example.org/crawl/entity/0/3> <{CRAWL_VOC}c0_p1> "c0_p1-value-3" . }} ; '
    f'INSERT DATA {{ <http://example.org/crawl/entity/0/3> <{CRAWL_VOC}c0_p1> "c0_p1-value-3" . }}',
]

RDFH = f"PREFIX r: <{RDFH_VOC}> PREFIX xsd: <{XSD}>"

CROSS_PRODUCT_SQL = """
SELECT o.id AS orderid, SUM(l.l_extendedprice) AS revenue
FROM Lineitem l JOIN Order o ON l.l_orderkey = o.id JOIN Customer c ON o.o_custkey = c.id
WHERE c.c_mktsegment = 'BUILDING' AND c.c_acctbal > 0
  AND l.l_shipdate > DATE '1995-03-15' AND l.l_quantity < 10
GROUP BY o.id ORDER BY revenue DESC LIMIT 5"""

CROSS_PRODUCT_SPARQL = f"""{RDFH}
SELECT ?o (SUM(?price) AS ?revenue) WHERE {{
  ?l r:l_orderkey ?o . ?l r:l_extendedprice ?price . ?l r:l_shipdate ?ship . ?l r:l_quantity ?q .
  ?o r:o_custkey ?c .
  ?c r:c_mktsegment ?segment . ?c r:c_acctbal ?bal .
  FILTER(?segment >= "BUILDING" && ?segment <= "BUILDING") FILTER(?bal > "0"^^xsd:integer)
  FILTER(?ship > "1995-03-15"^^xsd:date) FILTER(?q < "10"^^xsd:integer)
}} GROUP BY ?o ORDER BY DESC(?revenue) LIMIT 5"""

RDFH_CASES = [
    Case(q6_sql(), q6_sparql()),
    Case(q3_sql(),
         f"""{RDFH} SELECT ?o ?date (SUM(?price * (1 - ?disc)) AS ?revenue) WHERE {{
           ?l r:l_orderkey ?o . ?l r:l_extendedprice ?price . ?l r:l_discount ?disc .
           ?l r:l_shipdate ?ship . ?o r:o_custkey ?c . ?o r:o_orderdate ?date .
           ?c r:c_mktsegment "BUILDING" .
           FILTER(?date < "1995-03-15"^^xsd:date) FILTER(?ship > "1995-03-15"^^xsd:date)
         }} GROUP BY ?o ?date ORDER BY DESC(?revenue) LIMIT 10""", ordered=True),
    Case(CROSS_PRODUCT_SQL, CROSS_PRODUCT_SPARQL, ordered=True),
    Case("SELECT o.id, o.o_totalprice FROM Order o WHERE o.o_orderdate >= DATE '1996-01-01' "
         "AND o.o_orderdate < DATE '1996-03-01' ORDER BY o.o_totalprice DESC LIMIT 10",
         f"""{RDFH} SELECT ?o ?total WHERE {{ ?o r:o_orderdate ?date . ?o r:o_totalprice ?total .
           FILTER(?date >= "1996-01-01"^^xsd:date && ?date < "1996-03-01"^^xsd:date)
         }} ORDER BY DESC(?total) LIMIT 10""", ordered=True),
    Case("SELECT l.l_quantity, o.o_orderpriority FROM Lineitem l JOIN Order o "
         "ON l.l_orderkey = o.id WHERE o.o_orderpriority = '1-URGENT' AND l.l_returnflag != 'R'",
         f"""{RDFH} SELECT ?q ?prio WHERE {{ ?l r:l_quantity ?q . ?l r:l_orderkey ?o .
           ?l r:l_returnflag ?flag . ?o r:o_orderpriority ?prio .
           FILTER(?prio >= "1-URGENT" && ?prio <= "1-URGENT") FILTER(?flag != "R") }}"""),
    Case("SELECT * FROM Customer",
         f"""{RDFH} SELECT ?c ?type ?name ?segment ?nation ?bal WHERE {{ ?c a ?type .
           ?c r:c_name ?name . ?c r:c_mktsegment ?segment . ?c r:c_nation ?nation .
           ?c r:c_acctbal ?bal . }}"""),
]


def _rdfh_updates() -> List[str]:
    new_line = f"<{lineitem_iri(1, 99).value}>"
    return [
        f"""INSERT DATA {{ {new_line} <{RDFH_VOC}l_orderkey> <{order_iri(1).value}> ;
              <{RDFH_VOC}l_linenumber> "99"^^<{XSD}integer> ;
              <{RDFH_VOC}l_quantity> "3"^^<{XSD}integer> ;
              <{RDFH_VOC}l_extendedprice> "1234.5"^^<{XSD}decimal> ;
              <{RDFH_VOC}l_discount> "0.06"^^<{XSD}decimal> ;
              <{RDFH_VOC}l_tax> "0.02"^^<{XSD}decimal> ;
              <{RDFH_VOC}l_shipdate> "1994-06-01"^^<{XSD}date> ;
              <{RDFH_VOC}l_returnflag> "N" ; <{RDFH_VOC}l_linestatus> "O" . }}""",
        f"DELETE WHERE {{ <{lineitem_iri(2, 1).value}> <{RDFH_VOC}l_tax> ?tax . }}",
    ]


def test_frontend_differential_book(tmp_path):
    check_clean_pending_compacted(build_book_store(), BOOK_CASES, BOOK_UPDATES, tmp_path / "db")


def test_frontend_differential_dblp(tmp_path):
    check_clean_pending_compacted(build_dblp_store(), DBLP_CASES, DBLP_UPDATES, tmp_path / "db")


def test_frontend_differential_dirty(tmp_path):
    dataset = generate_dirty(DirtyConfig(classes=3, subjects_per_class=40, chaotic_subjects=10))
    store = RDFStore.build(dataset.triples, config=small_graph_config())
    check_clean_pending_compacted(store, DIRTY_CASES, DIRTY_UPDATES, tmp_path / "db")


def test_frontend_differential_rdfh(tmp_path):
    check_clean_pending_compacted(build_rdfh_store(tiny_tpch()), RDFH_CASES, _rdfh_updates(),
                                  tmp_path / "db")


# -- (b) SPARQL plan shapes do not move -------------------------------------------------


def test_sparql_plan_shapes_match_the_golden_file(book_store, dblp_store, rdfh_store,
                                                  rdfh_parseorder_store):
    got = render({"book": book_store, "dblp": dblp_store, "rdfh": rdfh_store,
                  "rdfh_parseorder": rdfh_parseorder_store})
    golden = GOLDEN_PATH.read_text()
    for got_section, golden_section in zip(got.split("== ")[1:], golden.split("== ")[1:]):
        assert got_section == golden_section
    assert got == golden


def test_optimized_explains_every_golden_case_like_rdfscan(book_store, dblp_store, rdfh_store,
                                                         rdfh_parseorder_store):
    """The golden file keeps no ``optimized`` section: ``optimized`` is
    another name for ``rdfscan``, so each golden (store, query, zone maps)
    case must explain byte for byte alike under both."""
    stores = {"book": book_store, "dblp": dblp_store, "rdfh": rdfh_store,
              "rdfh_parseorder": rdfh_parseorder_store}
    for store_name, queries in CORPUS:
        store = stores[store_name]
        for text in queries:
            for zone_maps in (False, True):
                rdfscan, optimized = (
                    store.sparql_plan(text, PlannerOptions(scheme=scheme,
                                                           use_zone_maps=zone_maps)).explain()
                    for scheme in ("rdfscan", "optimized"))
                assert optimized == rdfscan, (store_name, text, zone_maps)


@pytest.mark.parametrize("build, cases, updates", [
    (build_book_store, BOOK_CASES, BOOK_UPDATES),
    (build_dblp_store, DBLP_CASES, DBLP_UPDATES),
    (lambda: build_rdfh_store(tiny_tpch()), RDFH_CASES, _rdfh_updates()),
], ids=["book", "dblp", "rdfh"])
def test_the_rdfscan_plans_have_one_star_order(build, cases, updates):
    """``optimized`` is only another name for ``rdfscan``: every SPARQL text
    of the corpus plans alike under both, clean, pending and compacted."""
    store = build()
    texts = [case.sparql for case in cases if case.sparql is not None]

    def check(state: str) -> None:
        for text in texts:
            assert (store.sparql_plan(text, PlannerOptions(scheme="optimized")).explain()
                    == store.sparql_plan(text, PlannerOptions()).explain()), f"{state}: {text}"

    check("clean")
    for text in updates:
        store.update(text)
    check("pending delta")
    store.compact()
    check("compacted")


# -- SQL through the shared planner -----------------------------------------------------

ZONE_MAPS = PlannerOptions(scheme="rdfscan", use_zone_maps=True)
"""What SQL plans under; SPARQL compared with SQL must ask for the same."""


def _sql_plan(store: RDFStore, text: str) -> str:
    """The estimate-annotated plan of a SQL text, not run."""
    engine = QueryEngine(store.context(), [sql_frontend(store.require_catalog())])
    return engine.prepare("sql", text)[1].explain()


def test_constrained_customer_does_not_become_a_cross_product(rdfh_store):
    """Two predicates on the customer table used to outscore the join graph:
    customer, lineitem, order — a cross product.  Connectivity orders first."""
    plan = _sql_plan(rdfh_store, CROSS_PRODUCT_SQL)
    assert "HashJoin[on <auto>]" not in plan and "HashJoin" not in plan, plan
    sql = rdfh_store.sql(CROSS_PRODUCT_SQL)
    sparql = rdfh_store.sparql(CROSS_PRODUCT_SPARQL, ZONE_MAPS)
    assert len(sql) and rdfh_store.decode_rows(sql) == rdfh_store.decode_rows(sparql)
    for counter in ("join_operations", "tuples_scanned"):
        assert sql.cost.counters[counter] == sparql.cost.counters[counter], counter


def test_sql_q3_gets_the_cross_foreign_key_pushdown(rdfh_store):
    plan = _sql_plan(rdfh_store, q3_sql())
    orderkey = rdfh_store.dictionary.lookup_term(IRI(f"{RDFH_VOC}l_orderkey"))
    # the order star's subject range restricts the lineitem star's FK column
    assert re.search(rf"star\(\?l__id: [^)]*p{orderkey} -> \?o__id \[\d+, \d+\]", plan), plan
    assert re.search(r"star\(\?o__id: [^)]*\) subj\[\d+, \d+\]", plan), plan
    assert all("est=" in line for line in plan.splitlines()), plan
    rdfh_store.warm()  # page reads vs hits depend on what ran before
    sql, sparql = rdfh_store.sql(q6_sql()), rdfh_store.sparql(q6_sparql(), ZONE_MAPS)
    assert sql.cost.counters == sparql.cost.counters


# -- (c) SQL in the plan cache -----------------------------------------------------------

BOOK_SQL = "SELECT isbn_no FROM Book WHERE in_year >= 2000"


@pytest.fixture()
def fresh_book_store() -> RDFStore:
    return RDFStore.build(book_triples(), config=small_graph_config())


def _insert_book(n: int) -> str:
    return (f'INSERT DATA {{ <{EX}book/x{n}> a <{EX}Book> ; <{EX}has_author> <{EX}author/1> ; '
            f'<{EX}in_year> "2001"^^<{XSD}integer> ; <{EX}isbn_no> "isbn-x{n}" . }}')


def test_repeated_sql_hits_the_plan_cache(fresh_book_store):
    store = fresh_book_store
    first = store.sql(BOOK_SQL)
    hits = store.plan_cache_stats()["lifetime_hits"]
    second = store.sql("SELECT isbn_no\n  FROM Book   WHERE in_year >= 2000")
    assert store.plan_cache_stats()["lifetime_hits"] == hits + 1
    assert second.plan is first.plan
    assert second.run.parse_seconds == 0.0 and second.run.plan_seconds == 0.0


def test_every_reorganisation_invalidates_cached_sql(fresh_book_store):
    store = fresh_book_store
    changes = [lambda: store.update(_insert_book(1)), store.compact,
               store.discover_schema, store.cluster]
    for change in changes:
        plan = store.sql(BOOK_SQL).plan
        assert store.sql(BOOK_SQL).plan is plan
        change()
        misses = store.plan_cache_stats()["lifetime_misses"]
        assert store.sql(BOOK_SQL).plan is not plan, change
        assert store.plan_cache_stats()["lifetime_misses"] == misses + 1, change
    assert len(store.sql(BOOK_SQL)) == 11  # ten books of 2000-2004 and the inserted one


def test_pinned_snapshot_plans_against_its_own_version(fresh_book_store):
    store = fresh_book_store
    with store.snapshot() as pinned:
        before = pinned.sql(BOOK_SQL)
        store.update(_insert_book(2))
        with store.snapshot() as current:
            after = current.sql(BOOK_SQL)
            # the first write after a clean state misses once (SQL columns
            # are nullable under pending writes); the clean version's plan
            # survives it under its own key
            assert len(after) == len(before) + 1 and after.plan is not before.plan
            again = pinned.sql(BOOK_SQL)
            assert again.plan is before.plan and len(again) == len(before)
            # a later write keeps the plan: every pending version of the
            # generation shares it, and each answers its own state
            store.update(_insert_book(3))
            with store.snapshot() as latest:
                newest = latest.sql(BOOK_SQL)
                assert newest.plan is after.plan and len(newest) == len(after) + 1
            older = current.sql(BOOK_SQL)
            assert older.plan is after.plan and len(older) == len(after)


def test_same_text_as_sparql_and_sql_does_not_collide(fresh_book_store):
    store = fresh_book_store
    key = store.plan_cache.make_key
    assert key("sparql", BOOK_SQL, ZONE_MAPS) != key("sql", BOOK_SQL, ZONE_MAPS)
    store.sql(BOOK_SQL)
    with pytest.raises(ParseError):  # cached SQL must not answer a SPARQL request
        store.sparql(BOOK_SQL, ZONE_MAPS)


def test_abbreviated_statement_means_the_same_as_data_and_as_query():
    """``ex:o.`` — no blank before the full stop — is the IRI ``…/o`` followed by
    the end of the statement to the Turtle reader and to the SPARQL reader alike
    (SPARQL used to read the IRI ``…/o.`` and silently match nothing)."""
    turtle = (f"@prefix ex: <{EX}> .\n"
              + "".join(f"ex:book{i} ex:has_author ex:author{i % 2}; ex:in_year {1990 + i}.\n"
                        for i in range(6)))
    query = f"PREFIX ex: <{EX}> SELECT ?b WHERE {{ ?b ex:has_author ex:author1. ?b ex:in_year 1993. }}"
    from_turtle = RDFStore.build(list(parse_turtle(turtle)), config=small_graph_config())
    from_ntriples = RDFStore.build(serialize_ntriples(parse_turtle(turtle)), config=small_graph_config())
    for store in (from_turtle, from_ntriples):
        assert store.decode_rows(store.sparql(query)) == [(f"{EX}book3",)]
        store.update(f"PREFIX ex: <{EX}> INSERT DATA {{ ex:book9 ex:has_author ex:author1; ex:in_year 1993. }}")
        assert sorted(store.decode_rows(store.sparql(query))) == [(f"{EX}book3",), (f"{EX}book9",)]


@pytest.mark.parametrize("deleted, kept", [
    (f"<{EX}book/3> ?p ?o .", False),
    (f"<{EX}book/3> <{EX}isbn_no> ?i . <{EX}book/3> <{EX}in_year> ?y .", True),
], ids=["every triple", "the selected columns"])
def test_pending_sql_rows_of_a_subject_whose_values_were_deleted(deleted, kept):
    """Under a pending write every SQL column is optional, so a subject with
    none of the selected values left is a row of NULLs — but only while it
    keeps some triple, as after compaction, which drops an emptied subject."""
    store = build_book_store()
    query = "SELECT id, isbn_no, in_year FROM Book"
    store.update(f"DELETE WHERE {{ {deleted} }}")
    pending = sorted(store.decode_rows(store.sql(query)))
    store.compact()
    compacted = sorted(store.decode_rows(store.sql(query)))
    assert pending == compacted
    assert ((f"{EX}book/3", None, None) in compacted) == kept
    assert len(compacted) == (30 if kept else 29)


def test_a_table_named_by_its_id_alone_has_the_rows_of_select_star():
    """A star is its property set, and ``type`` is a column of every table:
    the oracle of a query naming a table by its id alone is the same query
    naming every column of that table, as SELECT * does, projected to the
    id — clean, pending and compacted."""
    store = build_book_store()
    join = "FROM Book b JOIN Person p ON b.has_author = p.id"

    def ids(query: str) -> List[tuple]:
        return sorted(row[:1] for row in store.decode_rows(store.sql(query)))

    def check(state: str) -> None:
        books = ids("SELECT * FROM Book")
        assert ids("SELECT id FROM Book") == books, state
        assert store.decode_rows(store.sql("SELECT COUNT(id) FROM Book")) \
            == [(float(len(books)),)], state
        assert ids(f"SELECT p.id {join}") == ids(f"SELECT p.id, p.type, p.name {join}"), state

    check("clean")
    assert len(store.decode_rows(store.sql("SELECT id FROM Book"))) == 30
    for text in BOOK_UPDATES:
        store.update(text)
    check("pending delta")
    store.compact()
    check("compacted")


# -- estimates and progress for SQL ------------------------------------------------------


def test_nullable_unconstrained_column_does_not_change_a_star_estimate():
    dataset = generate_dirty(DirtyConfig(classes=3, subjects_per_class=40, chaotic_subjects=10))
    store = RDFStore.build(dataset.triples, config=small_graph_config())
    context = store.context()
    estimator = CardinalityEstimator(schema=context.schema, index_store=context.index_store,
                                     clustered_store=context.clustered_store)
    oid = lambda name: store.dictionary.lookup_term(IRI(CRAWL_VOC + name))  # noqa: E731
    narrow = StarPattern("s", [StarProperty(oid("c0_p0"), PatternTerm.variable("a"))])
    wide = StarPattern("s", [StarProperty(oid("c0_p0"), PatternTerm.variable("a")),
                             StarProperty(oid("c0_p3"), PatternTerm.variable("b"),
                                          required=False)])
    assert estimator.star_cardinality(narrow) > 0
    assert estimator.star_cardinality(wide) == estimator.star_cardinality(narrow)
    assert (estimator.star_subject_cardinality(wide)
            == estimator.star_subject_cardinality(narrow))
    # required, the same column does filter: only some subjects have it
    wide.properties[1].required = True
    assert estimator.star_cardinality(wide) < estimator.star_cardinality(narrow)


def test_sql_queries_report_progress(fresh_book_store, monkeypatch):
    store = fresh_book_store
    listings = []
    original = ProjectOp._batches

    def listing(self, context):
        for batch in original(self, context):
            listings.extend(store.active_queries())
            yield batch

    monkeypatch.setattr(ProjectOp, "_batches", listing)
    store.sql("SELECT isbn_no, type FROM Book")
    assert listings and all(entry["frontend"] == "sql" for entry in listings)
    assert all(entry["progress"] is not None and 0 < entry["progress"] <= 1
               for entry in listings), listings
