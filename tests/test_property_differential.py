"""Property-based differential tests (hypothesis).

Random interleavings of ``INSERT DATA`` / ``DELETE DATA`` / ``DELETE WHERE``
(a subject's triples, and the star-then-probe shape ``{ ?s <p> <o> . ?s ?p
?o }``, plus mid-sequence compactions) run against a store, while a plain
Python set-of-triples model tracks the expected visible graph.  After the
sequence:

* the store's reconstructed visible triple set equals the model exactly;
* every query, under **every plan scheme**, returns what a store freshly
  rebuilt from the model returns (the rebuild oracle) — both *pre*- and
  *post*-compaction;
* after *every* step, texts whose cached plans survive writes — a FILTER
  range later inserts extend through tail literals, constants absent at
  first — answer through the plan cache exactly what the set model and an
  uncached plan of the same text answer;
* a per-request undo log abort restores the delta store bit-identically;
* when ``rdflib`` is installed, pattern-query results also match rdflib's
  answers over the same graph (cross-implementation differential check).

Examples are derandomized: hypothesis explores the space deterministically,
and the CI seeded-shuffle job covers order dependence separately.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

pytest.importorskip("hypothesis")  # optional test dep: skip cleanly, like rdflib
from hypothesis import given, settings, strategies as st

from _datasets import EX, book_triples
from repro import RDFStore, StoreConfig
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.model import EncodedTriple, IRI, Literal, Triple
from repro.planner import QueryEngine
from repro.sparql import (
    DEFAULT_SCHEME,
    RDFSCAN_SCHEME,
    SPARQL_FRONTEND,
    PlannerOptions,
)
from repro.sql import sql_frontend
from repro.updates import DeltaStore

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

SCHEMES = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False),
]

QUERIES = [
    f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/1> . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    f"SELECT (COUNT(?b) AS ?c) WHERE {{ ?b <{EX}isbn_no> ?i . }}",
]

# -- the operation universe (small on purpose: collisions are the point) -------------

SUBJECTS = [f"{EX}book/{i}" for i in range(8)] + [f"{EX}book/new{i}" for i in range(4)]
AUTHORS = [f"{EX}author/{i}" for i in range(5)] + [f"{EX}author/new"]
YEARS = list(range(1998, 2008))  # the base stops at 2004: later years are tail literals
ISBNS = [f"isbn-p{i:02d}" for i in range(6)]


BATCH_SIZES = [1, 1024]
"""Row-at-a-time oracle vs. the production default: the random
insert/delete/compact interleavings sweep the batched executor too."""


def _config(batch_size: int | None = None) -> StoreConfig:
    config = StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))
    if batch_size is not None:
        config.batch_size = batch_size
    return config


def _triple(kind: str, subject: str, value) -> Triple:
    if kind == "author":
        return Triple(IRI(subject), IRI(f"{EX}has_author"), IRI(value))
    if kind == "year":
        return Triple(IRI(subject), IRI(f"{EX}in_year"),
                      Literal(str(value), datatype=XSD_INT))
    return Triple(IRI(subject), IRI(f"{EX}isbn_no"), Literal(value))


def _data_block(triple: Triple) -> str:
    return f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()} ."


triple_st = st.one_of(
    st.tuples(st.just("author"), st.sampled_from(SUBJECTS), st.sampled_from(AUTHORS)),
    st.tuples(st.just("year"), st.sampled_from(SUBJECTS), st.sampled_from(YEARS)),
    st.tuples(st.just("isbn"), st.sampled_from(SUBJECTS), st.sampled_from(ISBNS)),
).map(lambda spec: _triple(*spec))

op_st = st.one_of(
    st.tuples(st.just("insert"), triple_st),
    st.tuples(st.just("delete"), triple_st),
    st.tuples(st.just("delete_where"), st.sampled_from(SUBJECTS)),
    st.tuples(st.just("delete_star"), st.sampled_from(AUTHORS)),
    st.tuples(st.just("compact"), st.none()),
)


def live_triples(store: RDFStore) -> set:
    """The visible triple set, from delta bookkeeping (not the engine)."""
    base = {tuple(int(v) for v in row) for row in store.matrix}
    base -= {tuple(int(v) for v in row) for row in store.delta.tombstone_matrix()}
    base |= {tuple(int(v) for v in row) for row in store.delta.matrix()}
    return {store.dictionary.decode_triple(EncodedTriple(*key)) for key in base}


def _sorted_decoded(store: RDFStore, text: str, options=None) -> list:
    rows = store.decode_rows(store.sparql(text, options))
    return sorted(tuple(str(v) for v in row) for row in rows)


def apply_ops(store: RDFStore, model: set, ops, after_each=lambda: None) -> None:
    """Apply one generated op sequence to the store and the set model,
    calling ``after_each`` after every op."""
    for op, payload in ops:
        if op == "insert":
            store.update(f"INSERT DATA {{ {_data_block(payload)} }}")
            model.add(payload)
        elif op == "delete":
            store.update(f"DELETE DATA {{ {_data_block(payload)} }}")
            model.discard(payload)
        elif op == "delete_where":
            store.update(f"DELETE WHERE {{ <{payload}> ?p ?o . }}")
            for triple in [t for t in model if t.subject == IRI(payload)]:
                model.discard(triple)
        elif op == "delete_star":
            # every triple of every book by the author: a star, then a probe
            store.update(f"DELETE WHERE {{ ?s <{EX}has_author> <{payload}> . ?s ?p ?o . }}")
            books = {t.subject for t in model
                     if t.predicate == IRI(f"{EX}has_author") and t.object == IRI(payload)}
            model.difference_update([t for t in model if t.subject in books])
        else:  # compact mid-sequence: visible state must not change
            store.compact()
        after_each()


def assert_matches_oracle(store: RDFStore, model: set) -> None:
    assert live_triples(store) == model
    oracle = RDFStore.build(sorted(model, key=str), config=_config())
    for text in QUERIES:
        expected = _sorted_decoded(oracle, text)
        for options in SCHEMES:
            assert _sorted_decoded(store, text, options) == expected, \
                (text, options.describe())


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(ops=st.lists(op_st, max_size=14))
def test_interleavings_match_rebuild_oracle(batch_size, ops):
    store = RDFStore.build(book_triples(), config=_config(batch_size))
    model = set(book_triples())
    apply_ops(store, model, ops)
    assert_matches_oracle(store, model)          # pre-compaction
    store.compact()
    assert_matches_oracle(store, model)          # post-compaction


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(ops=st.lists(op_st, max_size=10))
def test_snapshot_pinned_mid_sequence_stays_stable(batch_size, ops):
    """A snapshot pinned at a random point keeps answering identically while
    the rest of the sequence (including compactions) applies."""
    store = RDFStore.build(book_triples(), config=_config(batch_size))
    model = set(book_triples())
    half = len(ops) // 2
    apply_ops(store, model, ops[:half])
    with store.snapshot() as snap:
        pinned = [sorted(tuple(str(v) for v in row)
                         for row in snap.decode_rows(snap.sparql(text)))
                  for text in QUERIES]
        apply_ops(store, model, ops[half:])
        store.compact()
        for text, expected in zip(QUERIES, pinned):
            got = [sorted(tuple(str(v) for v in row)
                          for row in snap.decode_rows(snap.sparql(text)))]
            assert got == [expected], text
    assert_matches_oracle(store, model)


def _isbn_is(value: str):
    return lambda t: t.predicate == IRI(f"{EX}isbn_no") and t.object == Literal(value)


SURVIVING = [
    # a FILTER range that inserts extend through tail literals (years > 2004)
    ("sparql", f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2003) }}",
     lambda t: t.predicate == IRI(f"{EX}in_year") and t.object.to_python() >= 2003,
     lambda t: (t.subject, t.object)),
    # SPARQL = / != constants and a pattern constant, all absent at first
    ("sparql", f'SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . FILTER(?i = "isbn-p01") }}',
     _isbn_is("isbn-p01"), lambda t: (t.subject,)),
    ("sparql", f'SELECT ?b ?i WHERE {{ ?b <{EX}isbn_no> ?i . FILTER(?i != "isbn-p02") }}',
     lambda t: t.predicate == IRI(f"{EX}isbn_no") and t.object != Literal("isbn-p02"),
     lambda t: (t.subject, t.object)),
    ("sparql", f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/new> . }}",
     lambda t: t.predicate == IRI(f"{EX}has_author") and t.object == IRI(f"{EX}author/new"),
     lambda t: (t.subject,)),
    # a SQL equality on a value inserted later
    ("sql", "SELECT id FROM Book WHERE isbn_no = 'isbn-p03'",
     _isbn_is("isbn-p03"), lambda t: (t.subject,)),
]
"""``(front end, text, which model triples answer it, the row of one)``."""


def _model_rows(model: set, matches, row) -> list:
    return sorted(tuple(str(term.to_python() if isinstance(term, Literal) else term)
                        for term in row(t)) for t in model if matches(t))


def _stringified(rows) -> list:
    return sorted(tuple(str(value) for value in row) for row in rows)


@pytest.mark.parametrize("read", ["direct", "snapshot"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(ops=st.lists(op_st, max_size=10))
def test_surviving_plans_answer_every_version(batch_size, read, ops):
    """After every write, a cached plan — made before it, in the same base
    generation — answers what the set model and a fresh plan answer."""
    store = RDFStore.build(book_triples(), config=_config(batch_size))
    model = set(book_triples())

    def check() -> None:
        context = store.context()
        uncached = QueryEngine(context, [SPARQL_FRONTEND, sql_frontend(store.require_catalog())])
        with store.snapshot() if read == "snapshot" else nullcontext(store) as reader:
            for frontend, text, matches, row in SURVIVING:
                expected = _model_rows(model, matches, row)
                cached = getattr(reader, frontend)(text)  # sparql() / sql(): the cached path
                assert _stringified(reader.decode_rows(cached)) == expected, text
                fresh = uncached.query(frontend, text)
                assert _stringified(fresh.decoded_rows(context)) == expected, text

    check()
    apply_ops(store, model, ops, after_each=check)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    pending=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5),
                               st.integers(0, 30)), max_size=20),
    request_ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]),
                  st.integers(0, 30), st.integers(0, 5), st.integers(0, 30),
                  st.booleans()),
        max_size=15),
)
def test_undo_log_abort_is_exact_inverse(pending, request_ops):
    """Abort after an arbitrary mutation mix restores the delta exactly."""
    delta = DeltaStore()
    for s, p, o in pending:
        delta.insert(s, p, o, in_base=False)
    before = (dict(delta._inserts), set(delta._tombstones))
    undo = delta.begin_request()
    for op, s, p, o, in_base in request_ops:
        if op == "insert":
            delta.insert(s, p, o, in_base=in_base)
        else:
            delta.delete(s, p, o, in_base=in_base)
    delta.abort_request(undo)
    after = (dict(delta._inserts), set(delta._tombstones))
    assert after == before


@settings(max_examples=50, deadline=None, derandomize=True)
@given(requests=st.lists(st.tuples(
    st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                       st.integers(0, 6), st.integers(0, 2), st.integers(0, 6),
                       st.booleans()),
             max_size=8),
    st.sampled_from(["commit", "abort", "commit+freeze", "abort+freeze"])),
    max_size=12))
def test_freeze_folds_changes_into_the_previous_version(requests):
    """Each frozen version equals the writer's sets, however the mutations
    since the previous freeze were split into committed and aborted
    requests: inserts in insert order, tombstones as a set."""
    delta = DeltaStore()
    for ops, outcome in requests:
        undo = delta.begin_request()
        for op, s, p, o, in_base in ops:
            (delta.insert if op == "insert" else delta.delete)(s, p, o, in_base=in_base)
        if outcome.startswith("commit"):
            delta.commit_request(undo)
        else:
            delta.abort_request(undo)
        if outcome.endswith("freeze"):
            frozen = delta.freeze(None, None)
            assert [tuple(row) for row in frozen.matrix().tolist()] == list(delta._inserts)
            assert {tuple(row) for row in frozen.tombstone_matrix().tolist()} \
                == delta._tombstones
            assert frozen.tombstone_count() == len(delta._tombstones)


def test_interleavings_match_rdflib():
    """Cross-implementation differential check (skipped without rdflib)."""
    rdflib = pytest.importorskip("rdflib")
    store = RDFStore.build(book_triples(), config=_config())
    model = set(book_triples())
    ops = [
        ("insert", _triple("author", SUBJECTS[9], AUTHORS[2])),
        ("insert", _triple("year", SUBJECTS[9], 2003)),
        ("delete_where", SUBJECTS[1]),
        ("insert", _triple("isbn", SUBJECTS[9], ISBNS[0])),
        ("delete", _triple("author", SUBJECTS[2], AUTHORS[2 % 5])),
    ]
    apply_ops(store, model, ops)

    graph = rdflib.Graph()
    for triple in model:
        graph.add((
            rdflib.URIRef(triple.subject.value),
            rdflib.URIRef(triple.predicate.value),
            rdflib.URIRef(triple.object.value) if isinstance(triple.object, IRI)
            else rdflib.Literal(
                triple.object.lexical,
                datatype=rdflib.URIRef(triple.object.datatype)
                if triple.object.datatype else None),
        ))
    patterns = [
        f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . }}",
        f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . ?b <{EX}isbn_no> ?i . }}",
    ]
    for text in patterns:
        expected = sorted(tuple(str(value) for value in row) for row in graph.query(text))
        for options in SCHEMES:
            assert _sorted_decoded(store, text, options) == expected, text
    store.compact()
    for text in patterns:
        expected = sorted(tuple(str(value) for value in row) for row in graph.query(text))
        for options in SCHEMES:
            assert _sorted_decoded(store, text, options) == expected, text
