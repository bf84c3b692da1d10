"""Tests for RDFscan / RDFjoin and their equivalence with the Default plans."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _datasets import build_rdfh_store, tiny_tpch
from _oracles import PerCellDecoder, without_zone_maps
from repro import RDFStore, StoreConfig
from repro.bench import q3_sparql
from repro.columnar import NULL_OID, BufferPool, Column, ZoneMap
from repro.cs import DiscoveryConfig, GeneralizationConfig, discover_schema
from repro.engine import (
    ExecutionContext,
    IndexScanOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    OidRange,
    PatternTerm,
    RDFJoinOp,
    RDFScanOp,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
    execute_plan,
    fk_range_from_zonemap,
    subject_range_for_property_range,
)
from repro.engine.bindings import BindingTable
from repro.model import IRI, Literal, TermDictionary, Triple
from repro.model.terms import XSD_INTEGER
from repro.storage import (
    ClusteredStore,
    ExhaustiveIndexStore,
    cluster_subjects,
    encode_graph,
    value_order_literals,
)
from repro.storage.clustered import CSBlock, _is_sorted_ignoring_nulls, _non_null_count

EX = "http://example.org/"


def _library_context(with_dirty: bool = True, zone_size: int = 8):
    """Book/author graph with optional dirty bits, fully materialized context."""
    triples = []
    for i in range(40):
        book = IRI(f"{EX}book/{i}")
        triples.append(Triple(book, IRI(EX + "type"), IRI(EX + "Book")))
        triples.append(Triple(book, IRI(EX + "has_author"), IRI(f"{EX}author/{i % 6}")))
        triples.append(Triple(book, IRI(EX + "in_year"),
                              Literal(str(1990 + i % 12), datatype=XSD_INTEGER)))
        triples.append(Triple(book, IRI(EX + "isbn_no"), Literal(f"isbn-{i:03d}")))
    for i in range(6):
        author = IRI(f"{EX}author/{i}")
        triples.append(Triple(author, IRI(EX + "type"), IRI(EX + "Person")))
        triples.append(Triple(author, IRI(EX + "name"), Literal(f"Author {i}")))
    if with_dirty:
        # a second author for one book (spills to the irregular store)
        triples.append(Triple(IRI(f"{EX}book/0"), IRI(EX + "has_author"), IRI(f"{EX}author/5")))
        # a subject outside every CS
        triples.append(Triple(IRI(f"{EX}thing"), IRI(EX + "has_author"), IRI(f"{EX}author/1")))
        triples.append(Triple(IRI(f"{EX}thing"), IRI(EX + "in_year"),
                              Literal("2001", datatype=XSD_INTEGER)))
        triples.append(Triple(IRI(f"{EX}thing"), IRI(EX + "isbn_no"), Literal("isbn-x")))

    dictionary, matrix = encode_graph(triples)
    dictionary, matrix = value_order_literals(matrix, dictionary)
    schema = discover_schema(matrix, dictionary,
                             DiscoveryConfig(generalization=GeneralizationConfig(min_support=3)))
    year_oid = dictionary.lookup_term(IRI(EX + "in_year"))
    book_cs = next((cs_id for cs_id, t in schema.tables.items() if t.has_property(year_oid)), None)
    sort_keys = {book_cs: year_oid} if book_cs is not None else None
    dictionary, matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema, sort_keys)
    pool = BufferPool(page_size=8)
    index_store = ExhaustiveIndexStore(matrix, pool=pool)
    clustered = ClusteredStore.build(matrix, schema, pool=pool, zone_size=zone_size)
    ctx = ExecutionContext(dictionary=dictionary, pool=pool, index_store=index_store,
                           clustered_store=clustered, schema=schema)
    return ctx


def _predicate(ctx, name):
    return ctx.dictionary.lookup_term(IRI(EX + name))


def _star(ctx, year_range=None):
    props = [
        StarProperty(_predicate(ctx, "has_author"), PatternTerm.variable("a")),
        StarProperty(_predicate(ctx, "in_year"), PatternTerm.variable("y"), oid_range=year_range),
        StarProperty(_predicate(ctx, "isbn_no"), PatternTerm.variable("n")),
    ]
    return StarPattern(subject_var="b", properties=props)


def _default_plan(ctx, year_range=None):
    patterns = [
        TriplePatternPlan(PatternTerm.variable("b"), PatternTerm.constant(_predicate(ctx, "has_author")),
                          PatternTerm.variable("a")),
        TriplePatternPlan(PatternTerm.variable("b"), PatternTerm.constant(_predicate(ctx, "in_year")),
                          PatternTerm.variable("y")),
        TriplePatternPlan(PatternTerm.variable("b"), PatternTerm.constant(_predicate(ctx, "isbn_no")),
                          PatternTerm.variable("n")),
    ]
    root = IndexScanOp(patterns[0])
    root = NestedLoopIndexJoinOp(root, patterns[1], object_range=year_range)
    root = NestedLoopIndexJoinOp(root, patterns[2])
    return root


class TestRDFScanEquivalence:
    def test_full_star_matches_default_plan(self):
        ctx = _library_context()
        default_result, _ = execute_plan(_default_plan(ctx), ctx)
        rdfscan_result, _ = execute_plan(RDFScanOp(_star(ctx)), ctx)
        assert rdfscan_result.to_set(["b", "a", "y", "n"]) == default_result.to_set(["b", "a", "y", "n"])

    def test_index_path_matches_clustered_path(self):
        ctx = _library_context()
        clustered_result, _ = execute_plan(RDFScanOp(_star(ctx)), ctx)
        # the ParseOrder configuration: the same context without a clustered store
        index_ctx = dataclasses.replace(ctx, clustered_store=None)
        index_result, _ = execute_plan(RDFScanOp(_star(ctx)), index_ctx)
        assert clustered_result.to_set(["b", "a", "y", "n"]) == index_result.to_set(["b", "a", "y", "n"])

    def test_range_constraint_consistency(self):
        ctx = _library_context()
        year_range = OidRange.of_values(ctx.dictionary, Literal("1994", datatype=XSD_INTEGER),
                                        Literal("1998", datatype=XSD_INTEGER))
        default_result, _ = execute_plan(_default_plan(ctx, year_range), ctx)
        for context in (without_zone_maps(ctx), ctx):
            scan_result, _ = execute_plan(RDFScanOp(_star(ctx, year_range)), context)
            assert scan_result.to_set(["b", "a", "y", "n"]) == default_result.to_set(["b", "a", "y", "n"])

    def test_constant_object_constraint(self):
        ctx = _library_context()
        author_oid = ctx.dictionary.lookup_term(IRI(f"{EX}author/2"))
        star = StarPattern(subject_var="b", properties=[
            StarProperty(_predicate(ctx, "has_author"), PatternTerm.constant(author_oid)),
            StarProperty(_predicate(ctx, "isbn_no"), PatternTerm.variable("n")),
        ])
        result, _ = execute_plan(RDFScanOp(star), ctx)
        # author/2 wrote books 2, 8, 14, ... (i % 6 == 2) -> 7 of 40 books
        assert result.num_rows == 7

    def test_multi_valued_and_irregular_subjects_are_answered(self):
        ctx = _library_context(with_dirty=True)
        star = _star(ctx)
        result, _ = execute_plan(RDFScanOp(star), ctx)
        decoded_subjects = set(PerCellDecoder(ctx.dictionary).python_column(result.column("b")))
        assert f"{EX}thing" in decoded_subjects
        # book/0 has two authors: both bindings must be present
        book0 = ctx.dictionary.lookup_term(IRI(f"{EX}book/0"))
        book0_rows = [row for row in result.iter_rows() if row["b"] == book0]
        assert len(book0_rows) == 2

    def test_zone_maps_reduce_page_reads(self):
        ctx = _library_context(with_dirty=False, zone_size=4)
        year_range = OidRange.of_values(ctx.dictionary, Literal("1990", datatype=XSD_INTEGER),
                                        Literal("1991", datatype=XSD_INTEGER))
        ctx.pool.reset_cold()
        plain, cost_plain = execute_plan(RDFScanOp(_star(ctx, year_range)), without_zone_maps(ctx))
        ctx.pool.reset_cold()
        zoned, cost_zoned = execute_plan(RDFScanOp(_star(ctx, year_range)), ctx)
        assert zoned.to_set(["b", "a", "y", "n"]) == plain.to_set(["b", "a", "y", "n"])
        assert cost_zoned.counters["tuples_scanned"] <= cost_plain.counters["tuples_scanned"]
        assert cost_zoned.counters["page_reads"] <= cost_plain.counters["page_reads"]

    def test_cold_scan_reads_each_column_page_once(self):
        """A cold single-range RDFscan over a fresh store reads every page of
        the subject column and of each star column once — the constraint
        read of a column it outputs is its output read — and hits none."""
        ctx = _library_context(with_dirty=False)
        star = _star(ctx)
        (block,) = ctx.clustered_store.blocks_with_properties(star.predicate_oids())
        ctx.pool.reset_cold()
        result, cost = execute_plan(RDFScanOp(star), ctx)
        assert result.num_rows == len(block)
        columns = 1 + len(star.properties)  # the subject column and the star's
        assert cost.counters["page_hits"] == 0
        assert cost.counters["page_reads"] == columns * ctx.pool.pages_for(len(block))

    def test_empty_result_for_impossible_range(self):
        ctx = _library_context()
        star = _star(ctx, OidRange(low=1, high=0))
        result, _ = execute_plan(RDFScanOp(star), ctx)
        assert result.num_rows == 0


class TestRDFJoin:
    def test_candidate_subjects_restrict_result(self):
        ctx = _library_context(with_dirty=False)
        all_books, _ = execute_plan(RDFScanOp(_star(ctx)), ctx)
        some_subjects = np.asarray(sorted(set(all_books.column("b").tolist()))[:5], dtype=np.int64)
        child = MaterializedOp(BindingTable({"b": some_subjects}))
        join = RDFJoinOp(child, _star(ctx))
        result, cost = execute_plan(join, ctx)
        assert set(result.column("b").tolist()) == set(some_subjects.tolist())
        assert cost.counters["join_operations"] >= 1

    def test_join_preserves_child_columns(self):
        ctx = _library_context(with_dirty=False)
        all_books, _ = execute_plan(RDFScanOp(_star(ctx)), ctx)
        subjects = np.asarray(sorted(set(all_books.column("b").tolist()))[:3], dtype=np.int64)
        child = MaterializedOp(BindingTable({"b": subjects, "extra": np.arange(3)}))
        result, _ = execute_plan(RDFJoinOp(child, _star(ctx)), ctx)
        assert "extra" in result.variables

    def test_index_path_join_matches_clustered(self):
        ctx = _library_context(with_dirty=False)
        all_books, _ = execute_plan(RDFScanOp(_star(ctx)), ctx)
        subjects = np.asarray(sorted(set(all_books.column("b").tolist()))[:7], dtype=np.int64)
        child = MaterializedOp(BindingTable({"b": subjects}))
        clustered, _ = execute_plan(RDFJoinOp(child, _star(ctx)), ctx)
        via_index, _ = execute_plan(RDFJoinOp(child, _star(ctx)),
                                    dataclasses.replace(ctx, clustered_store=None))
        assert clustered.to_set(["b", "a", "y", "n"]) == via_index.to_set(["b", "a", "y", "n"])


class TestZoneMapPushdownHelpers:
    def test_subject_range_for_sorted_property(self):
        ctx = _library_context(with_dirty=False)
        store = ctx.clustered_store
        year_oid = _predicate(ctx, "in_year")
        block = next(b for b in store.blocks if b.has_property(year_oid))
        assert year_oid in block.sorted_properties
        year_range = OidRange.of_values(ctx.dictionary, Literal("1990", datatype=XSD_INTEGER),
                                        Literal("1992", datatype=XSD_INTEGER))
        subject_range = subject_range_for_property_range(block, year_oid, year_range)
        assert subject_range is not None
        # every matching subject must fall inside the derived range
        star = _star(ctx, year_range)
        result, _ = execute_plan(RDFScanOp(star), ctx)
        for subject in result.column("b"):
            assert subject_range.contains(int(subject))

    def test_a_sorted_columns_prefix_is_counted_once(self, monkeypatch):
        """The non-NULL prefix of a sorted column is counted on its first
        ranged read and kept on the block: 100 runs of Q3 (the push-down at
        plan time, RDFscan's sorted-prefix search every run) count each
        sorted property at most once."""
        counted = []

        def counting(values):
            counted.append(id(values))
            return _non_null_count(values)

        monkeypatch.setattr("repro.storage.clustered._non_null_count", counting)
        store = build_rdfh_store(tiny_tpch())
        for _ in range(100):
            assert len(store.sparql(q3_sparql()))
        sorted_columns = sum(len(block.sorted_properties) for block in store.clustered_store.blocks)
        assert counted and len(counted) == len(set(counted)) <= sorted_columns

    def test_subject_range_returns_none_for_unsorted_property(self):
        ctx = _library_context(with_dirty=False)
        store = ctx.clustered_store
        isbn_oid = _predicate(ctx, "isbn_no")
        block = next(b for b in store.blocks if b.has_property(isbn_oid))
        if isbn_oid in block.sorted_properties:
            pytest.skip("isbn column happens to be sorted in this layout")
        assert subject_range_for_property_range(block, isbn_oid, OidRange(0, 10)) is None

    def test_fk_range_from_zonemap(self):
        ctx = _library_context(with_dirty=False, zone_size=4)
        store = ctx.clustered_store
        year_oid = _predicate(ctx, "in_year")
        author_oid = _predicate(ctx, "has_author")
        block = next(b for b in store.blocks if b.has_property(year_oid))
        year_range = OidRange.of_values(ctx.dictionary, Literal("1990", datatype=XSD_INTEGER),
                                        Literal("1993", datatype=XSD_INTEGER))
        fk_range = fk_range_from_zonemap(block, year_oid, year_range, author_oid)
        assert fk_range is not None
        # the derived bound must cover every author actually referenced by matching books
        star = _star(ctx, year_range)
        result, _ = execute_plan(RDFScanOp(star), ctx)
        for author in result.column("a"):
            assert fk_range.contains(int(author))


HEAD_OIDS, TAIL_OIDS = 100, 130
"""Drawn values: head OIDs in ``[0, 100)``, tail literals in ``[100, 130)``
(every tail OID lies above every head OID, as :meth:`OidRange.intervals`
assumes)."""

SORTED, UNSORTED, FK = 1, 2, 3


@st.composite
def pushdown_cases(draw):
    """A block with a sorted column (NULL tail), an unsorted column and an FK
    column, plus a range with or without tail literals."""
    n = draw(st.integers(3, 40))
    subjects = 1000 + np.cumsum(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    value = st.integers(0, TAIL_OIDS - 1)
    nulls = draw(st.integers(0, n - 1))
    ordered = sorted(draw(st.lists(value, min_size=n - nulls, max_size=n - nulls)))
    data = {
        SORTED: np.asarray(ordered + [NULL_OID] * nulls, dtype=np.int64),
        UNSORTED: np.asarray(draw(st.lists(st.one_of(value, st.just(NULL_OID)),
                                           min_size=n, max_size=n)), dtype=np.int64),
        FK: np.asarray(draw(st.lists(st.one_of(st.integers(0, 999), st.just(NULL_OID)),
                                     min_size=n, max_size=n)), dtype=np.int64),
    }
    assume(not _is_sorted_ignoring_nulls(data[UNSORTED]))
    columns = {p: Column(f"t.p{p}", values) for p, values in data.items()}
    block = CSBlock(
        cs_id=0, label="t", subject_column=Column("t.subject", subjects, sorted_ascending=True),
        property_columns=columns,
        zone_maps={p: ZoneMap.build(values, zone_size=draw(st.integers(1, 8)))
                   for p, values in data.items()},
        sorted_properties=frozenset(p for p, values in data.items()
                                    if _is_sorted_ignoring_nulls(values)))
    head = st.integers(0, HEAD_OIDS - 1)
    tail = np.asarray(sorted(draw(st.sets(st.integers(HEAD_OIDS, TAIL_OIDS - 1), max_size=6))),
                      dtype=np.int64)
    # a range with tail literals is a literal range, bounded by head OIDs on
    # both sides (high < low when no head literal is in range); only a range
    # without a tail leaves a side open
    bound = head if tail.size else st.one_of(st.none(), head)
    return block, OidRange(draw(bound), draw(bound)), tail


@settings(max_examples=200, deadline=None)
@given(pushdown_cases())
def test_pushdown_helpers_contain_every_match(case):
    """The push-down helpers against a scan of the block: a derived subject
    or FK range holds every subject or FK value of a row whose value is in
    range; an unsorted column derives no subject range."""
    block, oid_range, tail = case
    subjects = block.subject_column.data
    fk_values = block.column(FK).data
    assert SORTED in block.sorted_properties and UNSORTED not in block.sorted_properties
    assert subject_range_for_property_range(block, UNSORTED, oid_range, tail) is None
    for predicate in (SORTED, UNSORTED):
        values = block.column(predicate).data
        matching = (values != NULL_OID) & oid_range.mask(values, tail)
        if predicate == SORTED:
            derived = subject_range_for_property_range(block, SORTED, oid_range, tail)
            assert derived is not None
            assert derived.mask(subjects[matching]).all()
        fk_range = fk_range_from_zonemap(block, predicate, oid_range, FK, tail)
        referenced = fk_values[matching & (fk_values != NULL_OID)]
        if fk_range is None:
            assert referenced.size == 0
        else:
            assert fk_range.mask(referenced).all()


# -- property-based equivalence over random regular/dirty data --------------------------


@st.composite
def random_star_dataset(draw):
    subject_count = draw(st.integers(4, 25))
    property_count = draw(st.integers(2, 4))
    rows = []
    for s in range(subject_count):
        for p in range(property_count):
            if draw(st.booleans()) or p < 2:
                value = draw(st.integers(0, 6))
                rows.append((s, p, value))
                # occasional second value for the same property (dirty data)
                if draw(st.integers(0, 9)) == 0:
                    rows.append((s, p, draw(st.integers(0, 6))))
    return sorted(set(rows)), property_count


@settings(max_examples=25, deadline=None)
@given(random_star_dataset())
def test_rdfscan_equals_merge_evaluation_property(data):
    """RDFscan over the clustered store gives exactly the same star bindings as
    a naive per-subject evaluation over the raw triples."""
    rows, property_count = data
    triples = [Triple(IRI(f"{EX}s{s}"), IRI(f"{EX}p{p}"), Literal(f"v{o}")) for s, p, o in rows]
    dictionary, matrix = encode_graph(triples)
    schema = discover_schema(matrix, dictionary,
                             DiscoveryConfig(generalization=GeneralizationConfig(min_support=2)))
    dictionary, matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
    pool = BufferPool(page_size=4)
    ctx = ExecutionContext(
        dictionary=dictionary, pool=pool,
        index_store=ExhaustiveIndexStore(matrix, pool=pool),
        clustered_store=ClusteredStore.build(matrix, schema, pool=pool),
        schema=schema,
    )
    star_predicates = [dictionary.lookup_term(IRI(f"{EX}p{p}")) for p in range(2)]
    star = StarPattern(subject_var="s", properties=[
        StarProperty(star_predicates[0], PatternTerm.variable("v0")),
        StarProperty(star_predicates[1], PatternTerm.variable("v1")),
    ])
    result, _ = execute_plan(RDFScanOp(star), ctx)

    # naive evaluation straight over the encoded triples
    by_subject = {}
    for s, p, o in matrix.tolist():
        by_subject.setdefault(s, {}).setdefault(p, set()).add(o)
    expected = set()
    for s, props in by_subject.items():
        v0s = props.get(star_predicates[0], set())
        v1s = props.get(star_predicates[1], set())
        for v0 in v0s:
            for v1 in v1s:
                expected.add((s, v0, v1))
    assert result.to_set(["s", "v0", "v1"]) == expected
