"""The literal order index: one per dictionary, never rebuilt by a write.

``TermDictionary`` owns the index that turns a value range into literal
OIDs: a *head* (literal OIDs below the value-order watermark, which are in
value order already) and a small value-sorted *tail* of literals appended
since.  ``OidRange.of_values`` — its head interval and the tail literals a
run resolves — is checked here against the full Python sort the engine used
to redo after every update (``_oracles``), and the
``literal_index_full_builds_total`` counter pins down *when* a full pass
over the dictionary may happen: build, clustering and open — never an
update, a compaction (it moves no OID, so the tail outlives it), a snapshot
or a query.  Clustering's value ordering merges the sorted tail into the
head; it is checked against the one full sort it replaced, and so is
``value_ranks``, which ranks a pending tail literal where that merge will
put it (ORDER BY's rule).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import example, given, settings, strategies as st

from _datasets import EX, book_triples
from _oracles import full_sort_value_order, oracle_literal_range
from repro import RDFStore, default_registry
from repro.engine import OidRange
from repro.model import IRI, Literal, TermDictionary
from repro.model import dictionary as dictionary_module
from repro.model.dictionary import ValueBounds
from repro.model.terms import XSD_DATE, XSD_DOUBLE, XSD_INTEGER, term_sort_key
from test_updates import _config, insert_book

# -- OidRange.of_values against the brute-force oracle ------------------------------------

_literals = st.one_of(
    st.integers(-6, 6).map(lambda i: Literal(str(i), datatype=XSD_INTEGER)),
    # cross-datatype ties: 1 vs 1.0 vs 1.00 compare equal numerically
    st.integers(-6, 6).map(lambda i: Literal(f"{i}.0", datatype=XSD_DOUBLE)),
    st.integers(-6, 6).map(lambda i: Literal(f"{i}.00", datatype=XSD_DOUBLE)),
    st.integers(-6, 6).map(lambda i: Literal(str(i), datatype=XSD_DOUBLE)),
    st.integers(1, 28).map(lambda d: Literal(f"1995-03-{d:02d}", datatype=XSD_DATE)),
    st.text(alphabet="abc", max_size=3).map(Literal),
    st.text(alphabet="ab", max_size=2).map(lambda text: Literal(text, language="en")),
)
_terms = st.one_of(_literals, st.integers(0, 15).map(lambda i: IRI(f"{EX}iri/{i}")))
_bounds = st.tuples(st.none() | _literals, st.none() | _literals,
                    st.booleans(), st.booleans())


def _assert_ranges_match(dictionary: TermDictionary, bounds) -> None:
    for low, high, low_inclusive, high_inclusive in bounds:
        got = OidRange.of_values(dictionary, low, high, low_inclusive, high_inclusive)
        expected = oracle_literal_range(dictionary, low, high, low_inclusive, high_inclusive)
        resolved = (got.low, got.high, got.tail_oids(dictionary).tolist())
        assert resolved == expected, (low, high, low_inclusive, high_inclusive)


@settings(max_examples=150, deadline=None)
@given(loaded=st.lists(_terms, max_size=40), value_order=st.booleans(),
       appended=st.lists(_terms, max_size=25), folded=st.integers(0, 25),
       bounds=st.lists(_bounds, min_size=1, max_size=8))
def test_literal_range_matches_the_full_sort(loaded, value_order, appended, folded, bounds):
    dictionary = TermDictionary()
    for term in loaded:
        dictionary.encode_term(term)
    if value_order:  # else: watermark 0, every literal lives in the tail
        dictionary, _old, _new = dictionary.reassign_value_ordered_literals()
    for position, term in enumerate(appended):
        if position == folded:
            # the write side folds what it appended; a reader folds the rest
            dictionary.index_appended_literals()
        dictionary.encode_term(term)
    _assert_ranges_match(dictionary, bounds)

    # compaction moves the watermark over the tail in a new dictionary; the
    # receiver keeps its own view
    ordered, _old, _new = dictionary.reassign_value_ordered_literals()
    assert ordered.value_order_watermark == len(ordered)
    _assert_ranges_match(ordered, bounds)
    _assert_ranges_match(dictionary, bounds)

    restored = TermDictionary.restore(list(dictionary.terms()),
                                      dictionary.value_order_watermark)
    _assert_ranges_match(restored, bounds)


def test_a_remap_that_moves_a_literal_drops_the_value_order():
    dictionary = TermDictionary()
    two = dictionary.encode_term(Literal("2", datatype=XSD_INTEGER))
    one = dictionary.encode_term(Literal("1", datatype=XSD_INTEGER))
    dictionary, _old, _new = dictionary.reassign_value_ordered_literals()
    assert dictionary.value_order_watermark == 2
    remapped = dictionary.remap([one, two], [two, one])  # OID order is no longer value order
    assert remapped.value_order_watermark == 0
    assert dictionary.value_order_watermark == 2
    _assert_ranges_match(remapped, [(Literal("2", datatype=XSD_INTEGER), None, True, True)])


_TIES = [Literal("1", datatype=XSD_INTEGER), Literal("a"), Literal("a", language="en")]
_TIED = [Literal("1", datatype=XSD_DOUBLE), Literal("a", language="en"), Literal("a"),
         Literal("1", datatype=XSD_INTEGER)]


@settings(max_examples=150, deadline=None)
@given(loaded=st.lists(_terms, max_size=40), value_order=st.booleans(),
       appended=st.lists(_terms, max_size=25), folded=st.integers(0, 25))
@example(loaded=_TIES, value_order=True, appended=_TIED, folded=1)  # ties with the head
@example(loaded=_TIES, value_order=True, appended=[IRI(f"{EX}iri/0")], folded=0)  # empty tail
@example(loaded=_TIES, value_order=False, appended=_TIED, folded=0)  # watermark 0
def test_the_value_order_merge_equals_the_full_sort(loaded, value_order, appended, folded):
    dictionary = TermDictionary()
    for term in loaded:
        dictionary.encode_term(term)
    if value_order:  # else: watermark 0, the head is empty
        dictionary, _old, _new = dictionary.reassign_value_ordered_literals()
    for position, term in enumerate(appended):
        if position == folded:
            dictionary.index_appended_literals()
        dictionary.encode_term(term)
    tail_is_empty = not any(isinstance(term, Literal) for term
                            in list(dictionary.terms())[dictionary.value_order_watermark:])
    terms, watermark = list(dictionary.terms()), dictionary.value_order_watermark
    expected, expected_old, expected_new = full_sort_value_order(dictionary)
    ranks = dictionary.value_ranks(np.arange(len(terms)))

    remaps = []
    remap = dictionary.remap
    dictionary.remap = lambda old, new: remaps.append(len(old)) or remap(old, new)
    ordered, old, new = dictionary.reassign_value_ordered_literals()

    assert old.tolist() == expected_old.tolist()
    assert new.tolist() == expected_new.tolist()
    assert list(ordered.terms()) == list(expected.terms())
    assert ordered.value_order_watermark == expected.value_order_watermark == len(ordered)
    assert bool(remaps) == (old.tolist() != new.tolist())
    if tail_is_empty:
        assert not remaps
    # ORDER BY's ranks put the literals where the merge puts them, and keep
    # every OID below the watermark
    assert [oid for oid in np.argsort(ranks, kind="stable").tolist()
            if isinstance(terms[oid], Literal)] == old.tolist()
    assert ranks[:watermark].tolist() == list(range(watermark))
    _assert_ranges_match(ordered, STORE_BOUNDS)
    # the receiver is left as it was
    assert list(dictionary.terms()) == terms
    assert dictionary.value_order_watermark == watermark


def test_a_delete_only_compaction_moves_no_oid(monkeypatch):
    store = _build()
    store.update(_insert_book(1))
    store.compact()
    terms = list(store.dictionary.terms())
    matrix_rows = {tuple(row) for row in store.matrix.tolist()}

    def moved(*_args):
        raise AssertionError("an identity value order rewrote the matrix")
    monkeypatch.setattr("repro.storage.loader.apply_oid_mapping", moved)
    store.update(f'DELETE DATA {{ <{EX}book/0> <{EX}isbn_no> "isbn-0000" . }}')
    report = store.compact()
    assert report.applied_deletes == 1
    assert list(store.dictionary.terms()) == terms
    assert {tuple(row) for row in store.matrix.tolist()} < matrix_rows


# -- store level: who may build the index, and when ------------------------------------

XSD_INT = XSD_INTEGER
RANGE_QUERY = f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2005) }}"
STORE_BOUNDS = [
    (Literal("1995", datatype=XSD_INT), Literal("2003", datatype=XSD_INT), True, False),
    (Literal("2001", datatype=XSD_INT), None, True, True),
    (None, Literal("isbn-n0003"), True, True),
    (Literal("2100", datatype=XSD_INT), Literal("2000", datatype=XSD_INT), True, True),
]


def _full_builds() -> float:
    return default_registry().collect()["literal_index_full_builds_total"]


def _build() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


def _insert_book(n: int) -> str:
    return insert_book(n, year=2005 + n)  # base years stop at 2004


def test_updates_and_range_queries_never_rebuild_the_index():
    before = _full_builds()
    store = _build()
    assert _full_builds() == before + 1  # the load-time value-ordering pass
    built = _full_builds()
    for n in range(12):
        store.update(_insert_book(n))
        rows = store.decode_rows(store.sparql(RANGE_QUERY))
        assert len(rows) == n + 1  # base years stop at 2004
        store.decode_rows(store.sql("SELECT isbn_no FROM Book WHERE in_year >= 2005"))
    assert _full_builds() == built
    assert store.metrics()["literal_index_full_builds_total"] == built
    _assert_ranges_match(store.dictionary, STORE_BOUNDS)


def test_compact_builds_no_index_and_open_builds_it_once(tmp_path):
    """Compaction keeps the dictionary object, its watermark and its tail;
    open restores the tail a checkpoint kept; clustering folds it in."""
    store = _build()
    for n in range(5):
        store.update(_insert_book(n))
    dictionary, watermark = store.dictionary, store.dictionary.value_order_watermark
    assert watermark < len(dictionary)
    _assert_ranges_match(dictionary, STORE_BOUNDS)

    built = _full_builds()
    with store.snapshot() as pinned:
        store.compact()
        assert _full_builds() == built
        assert store.dictionary is dictionary is pinned.context.dictionary
        assert dictionary.value_order_watermark == watermark
    _assert_ranges_match(store.dictionary, STORE_BOUNDS)
    # the tail literals now live in base columns
    assert len(store.decode_rows(store.sparql(RANGE_QUERY))) == 5
    assert _full_builds() == built

    store.update(_insert_book(7))  # leave a WAL record: open() replays an update
    store.save(tmp_path / "db")
    built = _full_builds()
    reopened = RDFStore.open(tmp_path / "db")
    assert _full_builds() == built + 1
    assert reopened.dictionary.value_order_watermark == watermark  # the tail stays one
    assert len(reopened.decode_rows(reopened.sparql(RANGE_QUERY))) == 6
    assert _full_builds() == built + 1  # neither replay nor the first query rebuilt it
    _assert_ranges_match(reopened.dictionary, STORE_BOUNDS)

    reopened.compact()
    reopened.cluster()  # value order over every literal again, in one pass
    assert _full_builds() == built + 2
    assert reopened.dictionary.value_order_watermark == len(reopened.dictionary)
    assert len(reopened.decode_rows(reopened.sparql(RANGE_QUERY))) == 6
    _assert_ranges_match(reopened.dictionary, STORE_BOUNDS)


def test_the_first_range_after_open_makes_only_the_keys_it_probes(tmp_path, monkeypatch):
    """``open()`` restores the head without its sort keys.  The first range
    query then makes the keys its bisections probe — O(log head) — rather
    than one per head literal, and gets the answer a built store gets."""
    store = RDFStore.build(book_triples(books=600), config=_config())
    store.update(_insert_book(1))
    expected = store.decode_rows(store.sparql(RANGE_QUERY))
    store.save(tmp_path / "db")
    reopened = RDFStore.open(tmp_path / "db")
    watermark = reopened.dictionary.value_order_watermark  # the head is below it
    made = []

    def counted(term):
        made.append(term)
        return term_sort_key(term)

    monkeypatch.setattr(dictionary_module, "term_sort_key", counted)
    assert reopened.decode_rows(reopened.sparql(RANGE_QUERY)) == expected == [
        (f"{EX}book/new1", 2006)]
    # two bisections of the head and the range's own bound
    assert 0 < len(made) <= 2 * watermark.bit_length() + 2 < watermark // 10
    _assert_ranges_match(reopened.dictionary, STORE_BOUNDS)


def test_readers_racing_on_a_reopened_head_agree(tmp_path):
    """The keys probed on a reopened head are kept in one dictionary every
    reader shares: threads bisecting it at once, with the interpreter
    switching threads every few microseconds, all get the ranges one
    reader gets alone."""
    store = RDFStore.build(book_triples(books=300), config=_config())
    store.save(tmp_path / "db")
    bounds = [ValueBounds.of(*bound) for bound in STORE_BOUNDS]
    expected = [RDFStore.open(tmp_path / "db").dictionary.literal_value_range(b).tolist()
                for b in bounds]
    dictionary = RDFStore.open(tmp_path / "db").dictionary
    results, switch = [], sys.getswitchinterval()

    def read() -> None:
        results.append([dictionary.literal_value_range(b).tolist() for b in bounds])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)


def test_snapshots_share_the_index_across_updates():
    """Every ``SnapshotRegistry.acquire`` builds a fresh execution context;
    none of them may pay a literal re-sort on its first range predicate."""
    store = _build()
    built = _full_builds()
    pinned = []
    try:
        for n in range(20):
            store.update(_insert_book(n))
            pinned.append(store.snapshot())
        for n, snapshot in enumerate(pinned):
            rows = snapshot.decode_rows(snapshot.sparql(RANGE_QUERY))
            assert len(rows) == n + 1  # each snapshot sees its own delta version
    finally:
        for snapshot in pinned:
            snapshot.close()
    assert _full_builds() == built
