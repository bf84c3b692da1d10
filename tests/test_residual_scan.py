"""Differential test of the set-at-a-time residual star scan.

Subjects no CS block can answer alone — multi-valued or dirty (irregular)
data, subjects of no CS, and anything a pending insert or tombstone touches
— are answered by ``_ClusteredStarScan._scan_residual`` in one vectorised
pass.  Its reference is the per-subject loop it replaced, kept in
``_oracles.star_over_union``: same rows, in the same order.

Two levels: hand-built stars (optional properties and repeated variables
included, which SPARQL text cannot express) compared table against table,
and a query sweep over a deliberately dirty store in which *every* residual
scan an operator performs is checked against the loop, at batch sizes
{1, 3, 1024} on all four plan schemes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from _datasets import EX, book_triples
from _oracles import star_over_union, without_zone_maps
from repro import PlannerOptions, RDFStore, StoreConfig
from repro.columnar import NULL_OID
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.engine import BindingTable, rdfscan
from repro.engine.plan import OidRange, PatternTerm, StarPattern, StarProperty
from repro.model import IRI, Literal, Triple
from test_batch_differential import BATCH_SIZES, SCHEMES, XSD_INT, batch_size


def _dirty_store() -> RDFStore:
    """The book graph with every kind of residual subject, base and pending
    (``book/new1``, a newcomer of the Book table's shape, is a row of its
    tail block instead; ``book/new3``, with two ISBNs and two years, is
    residual; ``book/new2``, filed in Book with its ISBNs, has neither an
    author nor a year)."""
    base = book_triples()
    base += [
        # multi-valued in the base: second values spill to the irregular table
        Triple(IRI(f"{EX}book/2"), IRI(f"{EX}has_author"), IRI(f"{EX}author/3")),
        Triple(IRI(f"{EX}book/2"), IRI(f"{EX}isbn_no"), Literal("isbn-0002-bis")),
        Triple(IRI(f"{EX}book/7"), IRI(f"{EX}isbn_no"), Literal("isbn-0007-bis")),
        # an irregular-only subject that also points at itself
        Triple(IRI(f"{EX}webpage/1"), IRI(f"{EX}related"), IRI(f"{EX}webpage/1")),
    ]
    store = RDFStore.build(base, config=StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3))))
    year = lambda y: f'"{y}"^^<{XSD_INT}>'  # noqa: E731
    store.update(f"""
    INSERT DATA {{
      <{EX}book/new1> a <{EX}Book> ; <{EX}has_author> <{EX}author/1> ;
          <{EX}in_year> {year(2010)} ; <{EX}isbn_no> "isbn-n1" .
      <{EX}book/new3> a <{EX}Book> ; <{EX}has_author> <{EX}author/2> ;
          <{EX}in_year> {year(2010)} , {year(2011)} ; <{EX}isbn_no> "isbn-n3" , "isbn-n3-bis" .
      <{EX}book/new2> <{EX}isbn_no> "isbn-n2" , "isbn-n2-bis" .
      <{EX}book/1> <{EX}isbn_no> "isbn-extra" .
      <{EX}book/3> <{EX}has_author> <{EX}author/4> .
      <{EX}node/self> <{EX}related> <{EX}node/self> , <{EX}node/other> .
      <{EX}node/other> <{EX}related> <{EX}node/self> .
      <{EX}webpage/2> <{EX}url> "two.php" ; <{EX}content> "two-content.php" .
    }}""")
    # tombstones: a CS column value, an irregular value, a whole subject
    store.update(f"DELETE DATA {{ <{EX}book/0> <{EX}has_author> <{EX}author/0> . }}")
    store.update(f'DELETE DATA {{ <{EX}book/7> <{EX}isbn_no> "isbn-0007-bis" . }}')
    store.update(f"DELETE WHERE {{ <{EX}book/5> ?p ?o . }}")
    # resurrection: tombstone a base triple, then re-insert it
    store.update(f"DELETE DATA {{ <{EX}book/4> <{EX}in_year> {year(1994)} . }}")
    store.update(f"INSERT DATA {{ <{EX}book/4> <{EX}in_year> {year(1994)} . }}")
    assert store.delta.insert_count() and store.delta.tombstone_count()
    return store


@pytest.fixture(scope="module")
def dirty_store() -> RDFStore:
    return _dirty_store()


def _same_table(got, expected, names) -> None:
    assert got.num_rows == expected.num_rows
    for name in names:
        assert np.array_equal(got.column(name), expected.column(name)), name


# -- star level ------------------------------------------------------------------------


def _stars(store: RDFStore):
    oid = lambda name: store.dictionary.lookup_term(IRI(f"{EX}{name}"))  # noqa: E731
    var, const = PatternTerm.variable, PatternTerm.constant
    author, isbn, year = oid("has_author"), oid("isbn_no"), oid("in_year")
    related, url, content = oid("related"), oid("url"), oid("content")
    late_years = OidRange.of_values(store.dictionary, Literal("1998", datatype=XSD_INT), None)
    book_subjects = OidRange(oid("book/1"), oid("book/20"))
    return {
        "multi_valued": StarPattern("b", [StarProperty(author, var("a")),
                                          StarProperty(isbn, var("i"))]),
        "constant": StarPattern("b", [StarProperty(author, const(oid("author/1"))),
                                      StarProperty(isbn, var("i"))]),
        "range_with_extras": StarPattern("b", [StarProperty(year, var("y"), late_years),
                                               StarProperty(isbn, var("i"))]),
        "subject_range": StarPattern("b", [StarProperty(isbn, var("i"))],
                                     subject_range=book_subjects),
        "optional": StarPattern("b", [StarProperty(isbn, var("i")),
                                      StarProperty(author, var("a"), required=False),
                                      StarProperty(year, var("y"), required=False)]),
        "all_optional": StarPattern("b", [StarProperty(author, var("a"), required=False),
                                          StarProperty(year, var("y"), required=False)]),
        "optional_constant": StarPattern(
            "b", [StarProperty(isbn, var("i")),
                  StarProperty(author, const(oid("author/1")), required=False)]),
        "repeated_subject": StarPattern("x", [StarProperty(related, var("x"))]),
        "repeated_object": StarPattern("x", [StarProperty(related, var("o")),
                                             StarProperty(related, var("o"))]),
        "repeated_optional": StarPattern(
            "b", [StarProperty(isbn, var("v")),
                  StarProperty(author, var("v"), required=False)]),
        "irregular_only": StarPattern("p", [StarProperty(url, var("u")),
                                            StarProperty(content, var("c"))]),
    }


STAR_NAMES = ["multi_valued", "constant", "range_with_extras", "subject_range", "optional",
              "all_optional", "optional_constant", "repeated_subject", "repeated_object",
              "repeated_optional", "irregular_only"]


@pytest.mark.parametrize("name", STAR_NAMES)
def test_residual_scan_matches_the_per_subject_loop(dirty_store, name):
    star = _stars(dirty_store)[name]
    context = dirty_store.context()
    if name == "range_with_extras":
        # 2010 was appended after the value-ordering pass: the range holds no
        # OID of it, the run resolves it from the dictionary's tail
        year_range = star.properties[0].oid_range
        late = context.dictionary.lookup_term(Literal("2010", datatype=XSD_INT))
        assert not year_range.contains(late)
        assert late in year_range.tail_oids(context.dictionary).tolist()
    scan = rdfscan._ClusteredStarScan(context, star)
    unzoned = rdfscan._ClusteredStarScan(without_zone_maps(context), star)
    residual = scan.residual_subjects
    assert residual.size, "the star must have residual subjects to compare"
    every_other = residual[::2]
    strangers = np.asarray([NULL_OID, int(residual.max()) + 1000], dtype=np.int64)
    for candidates in (None, residual, every_other, residual[:1], strangers):
        expected = star_over_union(scan.store, star, residual, candidates, scan.delta,
                                   context.dictionary)
        _same_table(scan._scan_residual(candidates), expected, star.output_variables())
        # blocks and residual together: zone-map pruning changes no answer
        if candidates is None:
            _same_table(scan.scan(), unzoned.scan(), star.output_variables())
        else:
            probe = BindingTable({star.subject_var: candidates})
            _same_table(scan.join(probe), unzoned.join(probe), star.output_variables())
    assert star_over_union(scan.store, star, residual, None, scan.delta,
                           context.dictionary).num_rows, "a vacuous comparison proves nothing"


def test_residual_scan_after_compaction_matches_too():
    store = _dirty_store()
    store.compact()
    assert not store.has_pending_updates()
    context = store.context()
    compared = 0
    for star in _stars(store).values():
        scan = rdfscan._ClusteredStarScan(context, star)
        if not scan.residual_subjects.size:
            continue
        expected = star_over_union(scan.store, star, scan.residual_subjects, None, None,
                                   context.dictionary)
        _same_table(scan._scan_residual(None), expected, star.output_variables())
        compared += expected.num_rows
    assert compared


def _sorted_rows(table: BindingTable, names) -> list:
    return sorted(zip(*(table.column(name).tolist() for name in names)))


def test_parse_order_stars_match_the_clustered_ones(dirty_store):
    """The parse-order evaluator (``_IndexMergeStarScan``) and the clustered
    one answer every star with the same rows — a repeated variable included,
    which the parse-order evaluator used to overwrite with the object column
    (``?x <related> ?x``) or to drop when an optional value was missing —
    and an optional constant property, which both treat as required.  An
    all-optional star differs by the rows only tables have: a table's row
    without a value of the star (``book/new2``, filed in Book)."""
    context = dirty_store.context()
    parse_order = dataclasses.replace(context, clustered_store=None)
    for name, star in _stars(dirty_store).items():
        names = star.output_variables()
        clustered = _sorted_rows(rdfscan._ClusteredStarScan(context, star).scan(), names)
        assert clustered, name
        if name == "all_optional":
            # a table's row without a value of the star is a row of the
            # clustered store only: a parse-order store has no tables
            empty = [row for row in clustered if set(row[1:]) == {NULL_OID}]
            assert empty == [(dirty_store.dictionary.lookup_term(IRI(f"{EX}book/new2")),
                              NULL_OID, NULL_OID)]
            clustered = [row for row in clustered if row not in empty]
        assert _sorted_rows(rdfscan._IndexMergeStarScan(parse_order, star).scan(),
                            names) == clustered, name


def test_a_self_loop_on_a_parse_order_store():
    """``?x <rel> ?x`` is a star whose object repeats its subject: only
    the subject that points at itself is a row, on every scheme."""
    triples = [Triple(IRI(f"{EX}{s}"), IRI(f"{EX}rel"), IRI(f"{EX}{o}"))
               for s, o in (("a", "a"), ("b", "c"), ("c", "a"))]
    store = RDFStore.build(triples, cluster=False)
    assert store.clustered_store is None
    text = f"SELECT ?x WHERE {{ ?x <{EX}rel> ?x . }}"
    by_scheme = [sorted(_rows(store, text, PlannerOptions(scheme=scheme)))
                 for scheme in ("default", "rdfscan")]
    assert by_scheme == [[(f"{EX}a",)]] * 2


# -- query level -----------------------------------------------------------------------

QUERIES = [
    f"SELECT ?b ?a ?i WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b ?i WHERE {{ ?b <{EX}has_author> <{EX}author/1> . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    f"SELECT ?b ?n ?i WHERE {{ ?b <{EX}has_author> ?a . ?a <{EX}name> ?n ."
    f" ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?x WHERE {{ ?x <{EX}related> ?x . }}",
    f"SELECT ?p ?u ?c WHERE {{ ?p <{EX}url> ?u . ?p <{EX}content> ?c . }}",
    f"SELECT ?b ?i WHERE {{ ?b <{EX}isbn_no> ?i . ?b <{EX}in_year> ?y . }} LIMIT 9",
    f"SELECT ?b ?i WHERE {{ ?b <{EX}isbn_no> ?i . }} LIMIT 40",
]

SQL_QUERIES = [
    "SELECT isbn_no, in_year FROM Book",
    "SELECT isbn_no FROM Book WHERE in_year >= 1998",
    "SELECT b.isbn_no, a.name FROM Book b JOIN Person a ON b.has_author = a.id",
]


@pytest.fixture()
def checked_residual_scans(monkeypatch):
    """Check every residual scan an operator runs against the loop."""
    compared = []
    vectorised = rdfscan._ClusteredStarScan._scan_residual

    def checking(self, candidate_subjects):
        got = vectorised(self, candidate_subjects)
        expected = star_over_union(self.store, self.star, self.residual_subjects,
                                   candidate_subjects, self.delta, self.context.dictionary)
        _same_table(got, expected, self.star.output_variables())
        compared.append(expected.num_rows)
        return got

    monkeypatch.setattr(rdfscan._ClusteredStarScan, "_scan_residual", checking)
    return compared


def _rows(store: RDFStore, text: str, options) -> list:
    return [tuple(str(v) for v in row)
            for row in store.decode_rows(store.sparql(text, options))]


@pytest.mark.parametrize("text", QUERIES)
def test_queries_agree_across_batch_sizes_and_schemes(dirty_store, checked_residual_scans,
                                                      text):
    by_scheme = []
    for options in SCHEMES:
        with batch_size(dirty_store, 1):
            row_mode = _rows(dirty_store, text, options)
        for size in BATCH_SIZES[1:]:
            with batch_size(dirty_store, size):
                # unsorted: row identity, which is what makes LIMIT safe
                assert _rows(dirty_store, text, options) == row_mode, \
                    (size, options.describe())
        by_scheme.append(sorted(row_mode))
    if "LIMIT" not in text:  # which rows a LIMIT keeps is the scheme's choice
        assert all(rows == by_scheme[0] for rows in by_scheme[1:])
    assert checked_residual_scans and sum(checked_residual_scans)


@pytest.mark.parametrize("text", SQL_QUERIES)
def test_sql_view_over_optional_columns(dirty_store, checked_residual_scans, text):
    """With a pending delta the SQL view makes unpinned columns optional."""
    def rows():
        return [tuple(str(v) for v in row)
                for row in dirty_store.decode_rows(dirty_store.sql(text))]

    with batch_size(dirty_store, 1):
        row_mode = rows()
    for size in BATCH_SIZES[1:]:
        with batch_size(dirty_store, size):
            assert rows() == row_mode, size
    assert row_mode and sum(checked_residual_scans)
