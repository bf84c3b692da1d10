"""Write-path tests: SPARQL Update, the delta overlay, MergeScan and compaction.

The core invariant (the PR's acceptance oracle): after *any* interleaving of
inserts and deletes — CS-matching subjects, novel-property subjects, deletes
from base and from the delta — SPARQL and SQL results, before and after
``compact()``, equal those of a store rebuilt from scratch on the final
triple set.  Updates never trigger an implicit rebuild, and every write
invalidates the plan cache.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.updates.compaction as compaction
from _datasets import (
    EX,
    book_triples,
    build_dblp_store,
    person_address_triples,
    small_graph_config,
    tiny_tpch,
)
from _oracles import (
    per_table_coverage,
    per_table_statistics,
)
from repro import RDFStore, StoreConfig
from repro.bench import DblpConfig, DirtyConfig, generate_dblp, generate_dirty, tpch_to_triples
from repro.columnar import NULL_OID
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.errors import ParseError, StorageError
from repro.model import EncodedTriple, IRI, Literal, Triple
from repro.model.terms import RDF_TYPE
from repro.sparql import (
    DEFAULT_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
    parse_update,
)
from repro.sparql.ast import DeleteDataOp, DeleteWhereOp, InsertDataOp

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

SCHEMES = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False),
]

QUERIES = [
    # star over one CS
    f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    # constant-object lookup
    f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/1> . }}",
    # pushed-down range filter
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    # star-to-star join over the discovered FK
    f"SELECT ?b ?n WHERE {{ ?b <{EX}has_author> ?a . ?a <{EX}name> ?n . }}",
    # variable predicate (loose pattern)
    f"SELECT ?p ?o WHERE {{ <{EX}book/3> ?p ?o . }}",
    # aggregate
    f"SELECT (COUNT(?b) AS ?c) WHERE {{ ?b <{EX}isbn_no> ?i . }}",
]

SQL_QUERIES = [
    "SELECT isbn_no FROM Book WHERE in_year >= 1998 ORDER BY isbn_no",
    "SELECT b.isbn_no, a.name FROM Book b JOIN Person a ON b.has_author = a.id "
    "WHERE b.in_year >= 2000",
]


def _config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


@pytest.fixture()
def store() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


def live_triples(store: RDFStore) -> list:
    """The store's visible triple set, reconstructed from delta bookkeeping
    (not from the query engine, which is what the oracle exercises)."""
    base = {tuple(int(v) for v in row) for row in store.matrix}
    base -= {tuple(int(v) for v in row) for row in store.delta.tombstone_matrix()}
    base |= {tuple(int(v) for v in row) for row in store.delta.matrix()}
    return [store.dictionary.decode_triple(EncodedTriple(*key)) for key in sorted(base)]


def _sort_rows(rows: list) -> list:
    # SQL NULL columns decode to None, which plain sorted() cannot compare
    return sorted(rows, key=lambda row: tuple((v is None, str(v)) for v in row))


def decoded(store: RDFStore, text: str, options=None) -> list:
    return _sort_rows(store.decode_rows(store.sparql(text, options)))


def assert_oracle_equivalent(store: RDFStore, queries=QUERIES, sql_queries=SQL_QUERIES):
    """Store results (every plan scheme) == a from-scratch rebuild's results."""
    oracle = RDFStore.build(live_triples(store), config=_config())
    for text in queries:
        expected = decoded(oracle, text)
        for options in SCHEMES:
            assert decoded(store, text, options) == expected, (text, options.describe())
    for text in sql_queries:
        expected = _sort_rows(oracle.decode_rows(oracle.sql(text)))
        assert _sort_rows(store.decode_rows(store.sql(text))) == expected, text


def insert_book(n: int, year: int = 2001, author: int = 1) -> str:
    return f"""
    INSERT DATA {{
      <{EX}book/new{n}> a <{EX}Book> ;
          <{EX}has_author> <{EX}author/{author}> ;
          <{EX}in_year> "{year}"^^<{XSD_INT}> ;
          <{EX}isbn_no> "isbn-n{n:04d}" .
    }}"""


def value_class_triples() -> list:
    """Six integer values of ``ex:v`` (s0-s5), then three plain strings (s6-s8)."""
    return [Triple(IRI(f"http://ex/s{i}"), IRI("http://ex/v"),
                   Literal(str(i), datatype=XSD_INT) if i < 6 else Literal(f"word{i}"))
            for i in range(9)]


ISBN_ORDER = f"SELECT ?i WHERE {{ ?b <{EX}isbn_no> ?i . }} ORDER BY ?i LIMIT 13"
VALUE_ORDER = "SELECT ?s WHERE { ?s <http://ex/v> ?v . } ORDER BY ?v"

ORDER_BY_CASES = {
    # (triples, the insert, ORDER BY queries, SQL ones, (query, row, its position))
    # "isbn-0010a" sorts between existing isbns, right after isbn-0010
    "isbn-between-isbns": (book_triples, f"""
        INSERT DATA {{
          <{EX}book/newo> a <{EX}Book> ;
              <{EX}has_author> <{EX}author/1> ;
              <{EX}in_year> "1997"^^<{XSD_INT}> ;
              <{EX}isbn_no> "isbn-0010a" .
        }}""", [ISBN_ORDER, f"SELECT ?i WHERE {{ ?b <{EX}isbn_no> ?i . }} ORDER BY DESC(?i) LIMIT 3"],
        ["SELECT isbn_no FROM Book WHERE in_year >= 1990 ORDER BY isbn_no"],
        (ISBN_ORDER, ("isbn-0010a",), 11)),
    # no head literal is a date: a date sorts after every number and before
    # every string, so s9 follows s5, as a value-ordering pass puts it
    "date-between-integers-and-strings": (value_class_triples, """
        INSERT DATA { <http://ex/s9> <http://ex/v>
                      "1999-12-31"^^<http://www.w3.org/2001/XMLSchema#date> . }""",
        [VALUE_ORDER, "SELECT ?s WHERE { ?s <http://ex/v> ?v . } ORDER BY DESC(?v)"],
        [], (VALUE_ORDER, ("http://ex/s9",), 6)),
}


class TestUpdateParser:
    def test_insert_data(self):
        request = parse_update(insert_book(1))
        assert len(request.operations) == 1
        op = request.operations[0]
        assert isinstance(op, InsertDataOp)
        assert len(op.triples) == 4
        assert all(isinstance(t, Triple) for t in op.triples)

    def test_delete_data_and_chaining(self):
        request = parse_update(
            f"DELETE DATA {{ <{EX}a> <{EX}p> <{EX}b> . }} ; "
            f"INSERT DATA {{ <{EX}a> <{EX}p> <{EX}c> . }} ;")
        assert [type(op) for op in request.operations] == [DeleteDataOp, InsertDataOp]

    def test_delete_where_patterns(self):
        request = parse_update(f"DELETE WHERE {{ ?b <{EX}isbn_no> ?i . ?b ?p ?o . }}")
        op = request.operations[0]
        assert isinstance(op, DeleteWhereOp)
        assert op.all_variables() == ["b", "i", "p", "o"]

    def test_prefixes_apply(self):
        request = parse_update(
            f"PREFIX ex: <{EX}> INSERT DATA {{ ex:s ex:p ex:o . }}")
        triple = request.operations[0].triples[0]
        assert triple.subject == IRI(f"{EX}s")

    @pytest.mark.parametrize("bad", [
        "INSERT DATA { ?s <http://ex/p> <http://ex/o> . }",  # variable in ground block
        "DELETE DATA { <http://ex/s> <http://ex/p> ?o . }",
        "DELETE WHERE { ?s ?p ?o . FILTER(?o >= 3) }",  # FILTER unsupported
        "INSERT { <http://ex/s> <http://ex/p> <http://ex/o> . }",  # not INSERT DATA
        "SELECT ?s WHERE { ?s ?p ?o }",  # a query is not an update
        "INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> . } garbage",
        # truncated request: a dangling prologue after ';' must not be dropped
        "INSERT DATA { <http://ex/s> <http://ex/p> <http://ex/o> . } ; PREFIX ex: <http://ex/>",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_update(bad)


class TestOracleEquivalence:
    def test_insert_cs_matching_subject(self, store):
        result = store.update(insert_book(1))
        assert result.inserted == 4 and result.deleted == 0
        assert store.has_pending_updates()
        assert_oracle_equivalent(store)
        # compaction admits the new subject to the Book CS, not the leftover bucket
        new_oid = store.dictionary.lookup_term(IRI(f"{EX}book/new1"))
        report = store.compact()
        assert report.subjects_assigned == 1 and report.subjects_leftover == 0
        assert store.schema.cs_of_subject(new_oid) is not None
        assert not store.has_pending_updates()
        assert_oracle_equivalent(store)

    def test_insert_novel_property_subject(self, store):
        store.update(f"""
        INSERT DATA {{
          <{EX}gadget/1> <{EX}weight> "12"^^<{XSD_INT}> ;
              <{EX}color> "red" .
        }}""")
        novel = f"SELECT ?g ?w WHERE {{ ?g <{EX}weight> ?w . ?g <{EX}color> ?c . }}"
        for options in SCHEMES:
            assert decoded(store, novel, options) == [(f"{EX}gadget/1", 12)]
        assert_oracle_equivalent(store, queries=QUERIES + [novel])
        new_oid = store.dictionary.lookup_term(IRI(f"{EX}gadget/1"))
        report = store.compact()
        assert report.subjects_leftover == 1  # no CS holds weight + color
        assert store.schema.cs_of_subject(new_oid) is None  # irregular
        for options in SCHEMES:
            assert decoded(store, novel, options) == [(f"{EX}gadget/1", 12)]

    def test_subjects_absorbed_by_a_one_to_one_merge_are_irregular(self):
        # fine-tuning folds the 40 addresses into the persons' table, so the
        # address subjects have no table of their own: compaction must see
        # them as the irregular subjects they are, like webpage/1 of the
        # book fixture
        store = RDFStore.build(person_address_triples(), config=small_graph_config())
        [table] = store.schema.tables.values()
        assert table.merged_from == [1] and table.support == 40
        coverage = store.schema.coverage
        assert coverage.total_subjects - coverage.covered_subjects == 40
        for i in (3, 4):
            address = store.dictionary.lookup_term(IRI(f"{EX}addr/{i}"))
            assert store.schema.cs_of_subject(address) is None
        store.update(f'DELETE DATA {{ <{EX}addr/3> <{EX}street> "Street 3" ; '
                     f'<{EX}city> "City 3" . }}')
        report = store.compact()
        assert report.applied_deletes == 2 and report.subjects_removed == 1
        # addr/4 was irregular before it gained a triple: not new to the bucket
        store.update(f'INSERT DATA {{ <{EX}addr/4> <{EX}zip> "z" . }}')
        report = store.compact()
        assert report.merged_inserts == 1
        assert report.subjects_leftover == 0 and report.subjects_assigned == 0
        assert_oracle_equivalent(store, queries=[
            f"SELECT ?s ?c WHERE {{ ?s <{EX}street> ?t . ?s <{EX}city> ?c . }}"], sql_queries=())

    def test_insert_property_on_existing_subject(self, store):
        # a second isbn for book/1: the delta carries a multi-value the CS
        # column cannot hold; answers must still merge it in
        store.update(f'INSERT DATA {{ <{EX}book/1> <{EX}isbn_no> "isbn-extra" . }}')
        lookup = f"SELECT ?i WHERE {{ <{EX}book/1> <{EX}isbn_no> ?i . }}"
        for options in SCHEMES:
            assert decoded(store, lookup, options) == [("isbn-0001",), ("isbn-extra",)]
        assert_oracle_equivalent(store)
        store.compact()
        assert_oracle_equivalent(store)
        # compaction refreshed the column statistics of the affected CS
        isbn_oid = store.dictionary.lookup_term(IRI(f"{EX}isbn_no"))
        book_cs = store.schema.tables[store.schema.cs_of_subject(
            store.dictionary.lookup_term(IRI(f"{EX}book/1")))]
        assert book_cs.properties[isbn_oid].mean_multiplicity > 1.0

    def test_delete_from_base(self, store):
        result = store.update(
            f"DELETE DATA {{ <{EX}book/0> <{EX}has_author> <{EX}author/0> . }}")
        assert result.deleted == 1
        assert_oracle_equivalent(store)
        report = store.compact()
        assert report.applied_deletes == 1
        assert_oracle_equivalent(store)

    def test_delete_from_delta_and_resurrection(self, store):
        base_count = store.triple_count()
        # delta-only triple: insert then delete nets out to nothing
        store.update(insert_book(2))
        result = store.update(
            f'DELETE DATA {{ <{EX}book/new2> <{EX}isbn_no> "isbn-n0002" . }}')
        assert result.deleted == 1
        assert store.delta.insert_count() == 3 and store.delta.tombstone_count() == 0
        # resurrection: deleting a base triple then re-inserting drops the tombstone
        target = f"<{EX}book/4> <{EX}in_year> "
        year = '"1994"^^<' + XSD_INT + ">"
        store.update(f"DELETE DATA {{ {target} {year} . }}")
        assert store.delta.tombstone_count() == 1
        store.update(f"INSERT DATA {{ {target} {year} . }}")
        assert store.delta.tombstone_count() == 0
        assert_oracle_equivalent(store)
        store.compact()
        assert store.triple_count() == base_count + 3
        assert_oracle_equivalent(store)

    def test_delete_where_template(self, store):
        # remove every triple of author/2's books that carries an isbn
        result = store.update(
            f"DELETE WHERE {{ ?b <{EX}has_author> <{EX}author/2> . ?b <{EX}isbn_no> ?i . }}")
        assert result.deleted == 12  # 6 books x (has_author + isbn_no)
        # SPARQL is purely data-driven: full oracle equivalence holds.  The
        # SQL view is schema-mediated and the stripped subjects stay members
        # of the (now nullable) Book table until an explicit re-discovery, so
        # SQL is asserted to be stable across compaction instead.
        assert_oracle_equivalent(store, sql_queries=())
        before = _sort_rows(store.decode_rows(store.sql(SQL_QUERIES[0])))
        store.compact()
        assert_oracle_equivalent(store, sql_queries=())
        after = _sort_rows(store.decode_rows(store.sql(SQL_QUERIES[0])))
        assert before == after

    def test_delete_whole_subject(self, store):
        subject_oid = store.dictionary.lookup_term(IRI(f"{EX}book/5"))
        assert store.schema.cs_of_subject(subject_oid) is not None
        result = store.update(f"DELETE WHERE {{ <{EX}book/5> ?p ?o . }}")
        assert result.deleted == 4
        assert_oracle_equivalent(store)
        report = store.compact()
        assert report.subjects_removed == 1
        assert store.schema.cs_of_subject(subject_oid) is None
        assert_oracle_equivalent(store)

    def test_repeated_variable_pattern(self, store):
        # ?x <related> ?x must only bind self-referencing subjects — this is
        # load-bearing for DELETE WHERE, which instantiates its template from
        # the pattern's solutions
        store.update(f"""
        INSERT DATA {{
          <{EX}node/self> <{EX}related> <{EX}node/self> .
          <{EX}node/self> <{EX}related> <{EX}node/other> .
          <{EX}node/other> <{EX}related> <{EX}node/self> .
        }}""")
        loop_q = f"SELECT ?x WHERE {{ ?x <{EX}related> ?x . }}"
        for options in SCHEMES:
            assert decoded(store, loop_q, options) == [(f"{EX}node/self",)]
        store.compact()
        for options in SCHEMES:
            assert decoded(store, loop_q, options) == [(f"{EX}node/self",)]
        result = store.update(f"DELETE WHERE {{ ?x <{EX}related> ?x . }}")
        assert result.deleted == 1  # only the self-loop, not the other edges
        assert decoded(store, loop_q) == []
        assert len(decoded(store, f"SELECT ?a ?b WHERE {{ ?a <{EX}related> ?b . }}")) == 2
        assert_oracle_equivalent(store)

    def test_ground_delete_where(self, store):
        hit = store.update(
            f"DELETE WHERE {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . }}")
        assert hit.deleted == 1
        miss = store.update(
            f"DELETE WHERE {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . "
            f"<{EX}book/1> <{EX}isbn_no> \"isbn-0001\" . }}")
        # the first pattern no longer matches, so the whole ground BGP fails
        assert miss.deleted == 0
        assert_oracle_equivalent(store)

    def test_range_filter_sees_new_literal(self, store):
        store.update(insert_book(3, year=2010))
        rows = decoded(store, f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2005) }}")
        assert (f"{EX}book/new3", 2010) in rows
        assert_oracle_equivalent(store)
        store.compact()
        assert_oracle_equivalent(store)

    def test_sql_optional_columns_unclustered_with_pending_delta(self):
        # ParseOrder baseline (cluster=False): a 0..1 column must not shrink
        # the result when a pending delta marks every SQL column optional —
        # the index-merge path has to seed from the union of property
        # subjects, not anchor on one of them
        triples = []
        for i in range(8):
            doc = IRI(f"{EX}doc/{i}")
            triples.append(Triple(doc, IRI(RDF_TYPE), IRI(f"{EX}Doc")))
            triples.append(Triple(doc, IRI(f"{EX}title"), Literal(f"T{i}")))
            if i < 6:
                triples.append(Triple(doc, IRI(f"{EX}abstract"), Literal(f"A{i}")))
        store = RDFStore.build(triples, config=_config(), cluster=False)
        sql = "SELECT title, abstract FROM Doc"
        before = _sort_rows(store.decode_rows(store.sql(sql)))
        store.update(f'INSERT DATA {{ <{EX}unrelated/1> <{EX}misc> "x" . }}')
        after = _sort_rows(store.decode_rows(store.sql(sql)))
        assert after == before
        assert len(after) == 8

    @pytest.mark.parametrize("case", sorted(ORDER_BY_CASES))
    def test_order_by_with_pending_tail_literals(self, case, tmp_path):
        # a pending literal's OID lands at the end of the dictionary; ORDER BY
        # must rank it by value, not OID, pending, compacted (no OID moves)
        # and reopened (the head has no kept sort keys) — compared UNSORTED
        # against the oracle (ordering is the result here)
        triples, insert, queries, sql_queries, (anchor, row, position) = ORDER_BY_CASES[case]
        store = RDFStore.build(triples(), config=_config())
        store.save(tmp_path / "db")
        store.update(insert)

        def check(store):
            oracle = RDFStore.build(live_triples(store), config=_config())
            for text in queries:
                expected = oracle.decode_rows(oracle.sparql(text))
                for options in SCHEMES:
                    assert store.decode_rows(store.sparql(text, options)) == expected, text
            for text in sql_queries:
                assert (store.decode_rows(store.sql(text))
                        == oracle.decode_rows(oracle.sql(text)))

        check(store)
        assert store.decode_rows(store.sparql(anchor)).index(row) == position
        store.compact()
        check(store)
        store.checkpoint()
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.dictionary._head_keys is None
        assert reopened.dictionary.value_order_watermark < len(reopened.dictionary)
        check(reopened)

    def test_interleaved_rounds(self, store):
        rounds = [
            insert_book(10, year=2003, author=0),
            f"DELETE DATA {{ <{EX}book/2> <{EX}isbn_no> \"isbn-0002\" . }}",
            f"INSERT DATA {{ <{EX}thing/1> <{EX}shape> \"round\" . }}",
            f"DELETE WHERE {{ <{EX}book/7> ?p ?o . }}",
            insert_book(11, year=1991, author=3),
            f"DELETE DATA {{ <{EX}book/new10> <{EX}in_year> \"2003\"^^<{XSD_INT}> . }}",
        ]
        for text in rounds:
            store.update(text)
            assert_oracle_equivalent(store, sql_queries=())
        assert_oracle_equivalent(store)
        store.compact()
        assert_oracle_equivalent(store)
        # keep writing after compaction: the cycle must be repeatable
        store.update(insert_book(12, year=2012))
        store.update(f"DELETE WHERE {{ ?b <{EX}has_author> <{EX}author/3> . }}")
        assert_oracle_equivalent(store, sql_queries=SQL_QUERIES[:1])
        store.compact()
        assert_oracle_equivalent(store, sql_queries=SQL_QUERIES[:1])


class TestWriteDiscipline:
    def test_no_implicit_rebuild(self, store):
        clustered_before = store.clustered_store
        index_before = store.index_store
        context_before = store.context()
        store.update(insert_book(1))
        store.update(f"DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . }}")
        assert store.clustered_store is clustered_before
        assert store.index_store is index_before
        # a write makes a new context (it carries that version's delta) over
        # the same physical stores and dictionary
        context = store.context()
        assert context is not context_before and context is store.context()
        assert context.clustered_store is clustered_before
        assert context.index_store is index_before
        assert context.dictionary is context_before.dictionary
        store.compact()
        assert store.clustered_store is not clustered_before
        assert store.index_store is not index_before

    def test_only_the_first_write_replans(self, store):
        """Nothing is cleared, and a plan reads the delta at run time: the
        first write after a clean state misses once (every key says whether
        writes are pending), every later write keeps the plan."""
        misses = lambda: store.plan_cache_stats()["lifetime_misses"]  # noqa: E731
        plan = store.sparql(QUERIES[0]).plan
        assert store.sparql(QUERIES[0]).plan is plan
        store.update(insert_book(1))
        before = misses()
        replanned = store.sparql(QUERIES[0]).plan
        assert replanned is not plan and misses() == before + 1
        for write in (f"DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . }}",
                      insert_book(2)):
            store.update(write)
            before = misses()
            assert store.sparql(QUERIES[0]).plan is replanned and misses() == before

    def test_delete_where_unknown_term_is_noop(self, store):
        # a constant the store has never seen matches zero solutions — both
        # alone and as one pattern of a larger BGP, in every position
        assert store.update(
            f"DELETE WHERE {{ <{EX}book/777> ?p ?o . }}").deleted == 0
        assert store.update(
            f"DELETE WHERE {{ ?b <{EX}no_such_predicate> ?o . }}").deleted == 0
        assert store.update(
            f"DELETE WHERE {{ ?b <{EX}isbn_no> ?i . ?b <{EX}no_such_predicate> ?o . }}"
        ).deleted == 0
        assert not store.has_pending_updates()

    def test_unknown_term_select_returns_empty(self, store):
        # the planner's unknown-term shortcut must still bind the query's
        # variables (projection and filters reference them by name)
        queries = [
            f"SELECT ?p ?o WHERE {{ <{EX}book/777> ?p ?o . }}",
            f"SELECT ?b WHERE {{ ?b <{EX}no_such_predicate> ?o . }}",
            f"SELECT ?b ?i WHERE {{ ?b <{EX}isbn_no> ?i . ?b <{EX}nope> ?o . }}",
        ]
        for text in queries:
            for options in SCHEMES:
                assert len(store.sparql(text, options)) == 0, (text, options.describe())

    def test_failed_request_rolls_back_atomically(self, store):
        plan = store.sparql(QUERIES[0]).plan
        bad = (insert_book(7) + " ; DELETE DATA { <http://ex/s> <http://ex/p> ?v . }")
        with pytest.raises(ParseError):
            store.update(bad)  # parse error: nothing applied at all
        assert not store.has_pending_updates()
        # a request that fails mid-apply must roll back its earlier statements
        from repro.updates import UpdateApplier

        original = UpdateApplier._delete_data

        def exploding(self, operation):
            raise RuntimeError("mid-request failure")

        UpdateApplier._delete_data = exploding
        try:
            with pytest.raises(RuntimeError):
                store.update(insert_book(8) + " ; "
                             + f"DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . }}")
        finally:
            UpdateApplier._delete_data = original
        assert not store.has_pending_updates()  # the insert was rolled back
        # ... and the store is clean in the same generation: the plan stands
        assert store.sparql(QUERIES[0]).plan is plan
        assert_oracle_equivalent(store)

    def test_noop_update_counts(self, store):
        already = f'INSERT DATA {{ <{EX}book/0> <{EX}isbn_no> "isbn-0000" . }}'
        assert store.update(already).inserted == 0
        missing = f'DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> "no-such" . }}'
        assert store.update(missing).deleted == 0
        assert not store.has_pending_updates()

    def test_live_triple_count(self, store):
        base = store.triple_count()
        store.update(insert_book(1))
        store.update(f"DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> \"isbn-0000\" . }}")
        assert store.live_triple_count() == base + 4 - 1
        assert store.triple_count() == base  # base untouched until compaction
        store.compact()
        assert store.triple_count() == base + 3

    def test_cluster_with_pending_updates_raises(self, store):
        store.update(insert_book(1))
        with pytest.raises(StorageError, match="compact"):
            store.cluster()
        store.compact()
        store.cluster()  # fine again after compaction

    def test_warm_covers_delta_columns(self, store):
        store.update(insert_book(1))
        store.reset_cold()
        store.warm()
        segment = store.context().delta.index().tables["pso"].column("s").segment_id
        assert store.pool.contains(segment, 0)

    def test_superseded_delta_pages_are_evicted(self, store):
        store.update(insert_book(1))
        store.warm()
        old_segment = store.context().delta.index().tables["pso"].column("s").segment_id
        store.update(insert_book(2))
        assert not store.pool.contains(old_segment, 0)
        store.warm()  # the new version's index lives under a new segment name
        assert store.context().delta.index().tables["pso"].column("s").segment_id != old_segment

    def test_storage_summary_reports_pending(self, store):
        store.update(insert_book(1))
        summary = store.storage_summary()
        assert summary["pending_inserts"] == 4
        assert summary["pending_deletes"] == 0

    def test_compact_on_clean_store_is_noop(self, store):
        clustered_before = store.clustered_store
        report = store.compact()
        assert report.merged_inserts == 0 and report.applied_deletes == 0
        assert store.clustered_store is clustered_before

    def test_reload_with_pending_updates_raises(self, store):
        # acknowledged writes must never be dropped silently by a reload
        store.update(insert_book(1))
        with pytest.raises(StorageError, match="compact"):
            store.load(book_triples())
        store.compact()
        store.load(book_triples())  # fine once the delta is folded in


# -- compaction's statistics against the per-table oracle ------------------------------------

STATISTICS_DATA = {
    "book": (book_triples, _config),
    "dblp": (lambda: generate_dblp(DblpConfig(papers=120, conferences=8, authors=40)),
             small_graph_config),
    "dirty": (lambda: generate_dirty(DirtyConfig(classes=4, subjects_per_class=40,
                                                 properties_per_class=5,
                                                 chaotic_subjects=12, seed=7)).triples,
              StoreConfig),
    "rdfh": (lambda: list(tpch_to_triples(tiny_tpch())), StoreConfig),
}


def _update_streams(triples: list) -> tuple:
    """An insert stream (copies of existing subjects, whole and without one
    property, an extra value for an existing subject, a subject with a new
    predicate) and a delete stream (single triples and whole subjects)."""
    by_subject: dict = {}
    for triple in triples:
        if isinstance(triple.subject, IRI) and not triple.object.n3().startswith("_:"):
            by_subject.setdefault(triple.subject, []).append(triple)
    subjects = sorted(by_subject, key=str)[::max(1, len(by_subject) // 12)][:12]
    inserts = []
    for n, subject in enumerate(subjects):
        rows = by_subject[subject]
        copy = IRI(f"{subject.value}/copy")
        kept = rows if n % 2 else [t for t in rows if t.predicate != rows[-1].predicate]
        inserts += [Triple(copy, t.predicate, t.object) for t in kept]
        if n % 3 == 0:
            inserts.append(Triple(subject, rows[0].predicate, Literal(f"extra-{n}")))
    inserts.append(Triple(IRI(f"{EX}novel"), IRI(f"{EX}novel_property"), Literal("novel")))
    deletes = [by_subject[subject][0] for subject in subjects[::2]]
    deletes += [t for subject in subjects[1:4:2] for t in by_subject[subject]]
    return inserts, deletes


def _write(store: RDFStore, verb: str, triples: list) -> None:
    body = " ".join(f"{t.subject.n3()} {t.predicate.n3()} {t.object.n3()} ." for t in triples)
    store.update(f"{verb} DATA {{ {body} }}")


def _schema_statistics(store: RDFStore) -> tuple:
    schema = store.schema
    return ({cs_id: (table.support,
                     {p: (spec.presence, spec.mean_multiplicity, spec.multiplicity)
                      for p, spec in table.properties.items()})
             for cs_id, table in schema.tables.items()},
            schema.coverage,
            schema.membership.subjects.tolist(), schema.membership.cs_ids.tolist())


@pytest.mark.parametrize("name", sorted(STATISTICS_DATA))
def test_one_pass_statistics_equal_the_per_table_oracle(name, monkeypatch):
    triples, config = STATISTICS_DATA[name]
    data = triples()
    inserts, deletes = _update_streams(data)
    store = RDFStore.build(data, config=config())
    oracle = RDFStore.build(data, config=config())
    for verb, stream in (("INSERT", inserts), ("DELETE", deletes)):
        _write(store, verb, stream)
        _write(oracle, verb, stream)
        report = store.compact()
        with monkeypatch.context() as patched:
            patched.setattr(compaction, "_refresh_table_statistics", per_table_statistics)
            patched.setattr(compaction, "measure_coverage", per_table_coverage)
            expected = oracle.compact()
        assert report.describe() == expected.describe()
        assert _schema_statistics(store) == _schema_statistics(oracle), verb
    assert report.subjects_removed and store.schema.coverage.covered_triples

class TestStoreConfigValidation:
    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(page_size=0), "page_size"),
        (dict(zone_size=-5), "zone_size"),
        (dict(page_size="big"), "page_size"),
    ])
    def test_invalid_config_fails_eagerly(self, kwargs, fragment):
        with pytest.raises(StorageError, match=fragment):
            StoreConfig(**kwargs)

    @pytest.mark.parametrize("knob", ["buffer_pool_pages", "plan_cache_size", "cost_model"])
    def test_retired_knobs_are_refused(self, knob):
        with pytest.raises(TypeError, match=knob):
            StoreConfig(**{knob: 0})

    def test_valid_config_passes(self):
        config = StoreConfig(page_size=64, zone_size=32)
        assert (config.page_size, config.zone_size) == (64, 32)


def test_a_second_value_of_a_column_keeps_the_column():
    """Compaction reclassifies no column as ``MANY``: DBLP's ``homepage``
    table keeps its ``content`` column when a member gets a second value
    (its mean multiplicity passes the threshold), the second value is
    irregular, and the table's SQL rows are those the pending store read."""
    store = build_dblp_store()
    table = next(block for block in store.clustered_store.blocks if block.label == "homepage")
    content = next(p for p in table.property_columns
                   if str(store.dictionary.decode(p)).endswith("content"))
    member = int(table.subject_column.data[np.flatnonzero(
        table.column(content).data != NULL_OID)[0]])
    store.update(f"INSERT DATA {{ {store.dictionary.decode(member).n3()} "
                 f"{store.dictionary.decode(content).n3()} \"a second page\" . }}")
    pending = _sort_rows(store.decode_rows(store.sql("SELECT * FROM homepage")))
    assert len(pending) == len(table) + 1
    store.compact()
    assert content in store.clustered_store.block(table.cs_id).property_columns
    assert _sort_rows(store.decode_rows(store.sql("SELECT * FROM homepage"))) == pending
