"""Compaction keeps every OID: the literal tail lives on in base columns.

``compact()`` folds the delta into the base without renumbering a literal,
so literals appended since the last value-ordering pass (the dictionary's
*tail*, above its watermark and out of value order) end up in clustered
columns, zone maps and projections.  Every reader that narrows by an OID
interval before its exact mask must then narrow by the head interval *and*
the hull of the run's tail OIDs (``OidRange.intervals``).  Each scenario
here is built so that one such reader, narrowing by the head interval
alone, would drop the tail rows:

* a sub-ordered (sorted) column's binary search — new subjects with new,
  larger years at the end of the Book block keep ``in_year`` sorted;
* zone-map pruning — zones of a few rows, so the new rows have their own;
* push-down across the ``has_author`` FK — a subject range derived from the
  sorted column and FK bounds from its zone map;
* the POS fast path — the ``default`` scheme's index scan, and the
  index-merge star scan of an unclustered store.

A compaction makes the new books the Book block's tail rows, which no sorted
prefix or push-down range bounds (the ``tail`` layout); ``build_indexes()``
then rebuilds the block from the matrix as one head, the new books its last
rows (the ``folded`` layout), which is where the first and third readers
meet tail literals.

The oracle is a store rebuilt from scratch on the live triples, compared on
decoded answers (a compacted store no longer equals a rebuild OID for OID);
``cluster()`` afterwards restores value order over every literal.  Also
here: a merged projection equals a fresh sort, and the counted guards
behind the performance claim (no re-sort, no cold bridge, no rewrite of the
dictionary file's first lines).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _datasets import EX, book_triples, small_graph_config
from repro import RDFStore, StoreConfig
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.model import Literal
from repro.model.terms import term_sort_key
from repro.sparql import DEFAULT_SCHEME, RDFSCAN_SCHEME, PlannerOptions
from repro.storage import TripleTable
from repro.storage.triple_table import ORDERS
from test_updates import _sort_rows, insert_book, live_triples

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
NEW_YEARS = (2005, 2006, 2007)  # base years stop at 2004: every one a new literal

QUERIES = [
    # only tail literals in range: the head interval is empty
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2005) }}",
    # head and tail literals in range
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2003) FILTER(?y < 2007) }}",
    # a star over the range, hopping the FK into the author star; bounded on
    # both sides, so no head literal (not even a string) is in range
    f"SELECT ?b ?n WHERE {{ ?b <{EX}in_year> ?y . ?b <{EX}has_author> ?a . "
    f"?a <{EX}name> ?n . FILTER(?y > 2004) FILTER(?y < 2100) }}",
]
SQL_QUERIES = [
    "SELECT isbn_no FROM Book WHERE in_year >= 2005",
    "SELECT b.isbn_no, a.name FROM Book b JOIN Person a ON b.has_author = a.id "
    "WHERE b.in_year > 2002",
]
OPTIONS = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False),
]


def _config(batch_size: int) -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(generalization=GeneralizationConfig(
        min_support=3)), zone_size=4, batch_size=batch_size)


def _compacted_store(batch_size: int, sorted_years: bool, clustered: bool = True,
                     layout: str = "tail") -> RDFStore:
    """The book store with three new books compacted into its base: each
    new subject and each new year is a fresh OID above every base one.  In
    the ``folded`` layout the blocks are rebuilt from the matrix after."""
    store = RDFStore.build(book_triples(), config=_config(batch_size), cluster=clustered,
                           sort_key_names={"Book": f"{EX}in_year"} if sorted_years else None)
    for n, year in enumerate(NEW_YEARS):
        store.update(insert_book(n, year=year, author=n % 2))
    store.compact()
    if layout == "folded":
        store.build_indexes()
    return store


def _tail_oids(store: RDFStore) -> list:
    dictionary = store.dictionary
    return [dictionary.lookup_term(Literal(str(year), datatype=XSD_INT)) for year in NEW_YEARS]


def _assert_scenario(store: RDFStore, sorted_years: bool, layout: str = "tail") -> None:
    """The rows under test are really there: tail OIDs in base columns, at
    the end of the Book block — its tail rows, or the last rows of its head
    when folded — whose head keeps its sort when asked to."""
    tail = _tail_oids(store)
    assert min(tail) >= store.dictionary.value_order_watermark
    assert set(tail) <= set(store.matrix[:, 2].tolist())
    if store.clustered_store is None:
        return
    in_year = store.dictionary.lookup_term(next(
        term for term in store.dictionary.terms() if str(term) == f"{EX}in_year"))
    (block,) = store.clustered_store.blocks_with_properties([in_year])
    assert block.column(in_year).data[-len(tail):].tolist() == tail
    assert block.head_rows == len(block) - (len(tail) if layout == "tail" else 0)
    assert (in_year in block.sorted_properties) == sorted_years


def _expected(store: RDFStore) -> dict:
    oracle = RDFStore.build(live_triples(store), config=small_graph_config())
    answers = {text: _sort_rows(oracle.decode_rows(oracle.sparql(text))) for text in QUERIES}
    answers.update({text: _sort_rows(oracle.decode_rows(oracle.sql(text)))
                    for text in SQL_QUERIES})
    for text in (QUERIES[0], SQL_QUERIES[0]):
        assert len(answers[text]) == len(NEW_YEARS), "vacuous oracle"
    return answers


def _assert_answers(reader, expected: dict, where: str) -> None:
    for text in QUERIES:
        for options in OPTIONS:
            got = _sort_rows(reader.decode_rows(reader.sparql(text, options)))
            assert got == expected[text], (where, options.describe(), text)
    for text in SQL_QUERIES:
        assert _sort_rows(reader.decode_rows(reader.sql(text))) == expected[text], (where, text)


@pytest.mark.parametrize("batch_size", [1, 1024])
@pytest.mark.parametrize("sorted_years", [True, False], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("layout", ["tail", "folded"])
def test_tail_literals_in_base_columns_answer_like_a_rebuild(batch_size, sorted_years, layout,
                                                             tmp_path):
    store = _compacted_store(batch_size, sorted_years, layout=layout)
    _assert_scenario(store, sorted_years, layout)
    expected = _expected(store)
    _assert_answers(store, expected, "direct")
    with store.snapshot() as pinned:
        _assert_answers(pinned, expected, "snapshot")
    store.save(tmp_path / "db")
    reopened = RDFStore.open(tmp_path / "db", config=_config(batch_size))
    assert reopened.dictionary.value_order_watermark == store.dictionary.value_order_watermark
    _assert_answers(reopened, expected, "reopened")


def test_an_unclustered_store_reads_tail_literals_through_pos(tmp_path):
    """Parse-order storage: every star reads POS by range (index merge)."""
    store = _compacted_store(1024, sorted_years=False, clustered=False)
    _assert_scenario(store, sorted_years=False, layout="folded")
    expected = {text: _sort_rows(rows) for text, rows in _expected(store).items()}
    for text in QUERIES:
        for options in OPTIONS[:3]:
            got = _sort_rows(store.decode_rows(store.sparql(text, options)))
            assert got == expected[text], (options.describe(), text)
    assert "pos" in store.index_store.materialized_orders()


def test_push_down_narrows_by_the_tail_interval():
    """The zone-map push-down of the FK star sees the tail literals in head
    rows: the subject range it derives for the books, and the author bounds
    it pushes across ``has_author``, both cover the new books."""
    store = _compacted_store(1024, sorted_years=True, layout="folded")
    text = QUERIES[2]
    plan = store.explain(text, PlannerOptions(use_zone_maps=True))
    assert "subj[" in plan and "subj[1, 0]" not in plan, plan
    rows = store.decode_rows(store.sparql(text, PlannerOptions(use_zone_maps=True)))
    assert len(rows) == len(NEW_YEARS)


def test_push_down_bounds_head_rows_only():
    """Compacted, the new books are tail rows: no head row is in range, so
    the author range derived from the books' head zones is empty (the books
    star, which no FK references, gets none), and the tail rows and the
    authors they reference answer all the same."""
    store = _compacted_store(1024, sorted_years=True)
    text = QUERIES[2]
    plan = store.explain(text, PlannerOptions(use_zone_maps=True))
    assert plan.count("subj[1, 0]") == 1 and "star(?a: p3 -> ?n) subj[1, 0]" in plan, plan
    rows = store.decode_rows(store.sparql(text, PlannerOptions(use_zone_maps=True)))
    assert len(rows) == len(NEW_YEARS)


def test_compact_then_cluster_restores_value_order_and_answers_like_a_build():
    store = _compacted_store(1024, sorted_years=True)
    store.update(insert_book(9, year=1989))  # a tail literal below every head one
    store.compact()
    assert store.dictionary.value_order_watermark < len(store.dictionary)
    store.cluster(sort_key_names={"Book": f"{EX}in_year"})
    dictionary = store.dictionary
    assert dictionary.value_order_watermark == len(dictionary)
    keys = [term_sort_key(term) for term in dictionary.terms() if isinstance(term, Literal)]
    assert keys == sorted(keys)
    expected = _expected(store)
    _assert_answers(store, expected, "clustered")
    scratch = RDFStore.build(live_triples(store), config=_config(1024),
                             sort_key_names={"Book": f"{EX}in_year"})
    _assert_answers(scratch, expected, "from scratch")


# -- merged projections --------------------------------------------------------------

_row = st.tuples(st.integers(0, 12), st.integers(0, 4), st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(base=st.sets(_row, max_size=60), added=st.sets(_row, max_size=20),
       dropped=st.data(), order=st.sampled_from(ORDERS))
def test_a_merged_projection_equals_a_fresh_sort(base, added, dropped, order):
    base = sorted(base)
    tombstones = dropped.draw(st.lists(st.sampled_from(base), unique=True) if base
                              else st.just([]))
    inserts = sorted(added - set(base))
    kept = [row for row in base if row not in set(tombstones)]
    as_matrix = lambda rows: np.asarray(rows, dtype=np.int64).reshape(-1, 3)  # noqa: E731
    rows = np.vstack([as_matrix(kept), as_matrix(inserts)])
    table = TripleTable(as_matrix(base), order=order)
    table.raw()  # sorted: what compaction merges
    merged = table.merged(rows, as_matrix(inserts), as_matrix(tombstones), length=len(rows))
    assert merged.is_materialized
    assert np.array_equal(merged.raw(), TripleTable(rows, order=order).raw())
    assert not TripleTable(as_matrix(base), order=order).merged(
        rows, as_matrix(inserts), as_matrix(tombstones), length=len(rows)).is_materialized


def test_compaction_and_the_next_insert_sort_no_resident_projection(projection_sorts):
    store = RDFStore.build(book_triples(), config=small_graph_config())
    store.update(insert_book(1, year=2005))  # the set check sorts SPO once
    assert "spo" in store.index_store.materialized_orders()
    before = projection_sorts()
    store.compact()
    assert store.index_store.materialized_orders() == ["spo"]
    store.update(insert_book(2, year=2006))
    assert projection_sorts() == before
    assert store.events(type="compaction", limit=1)[0]["projections_merged"] == 1


# -- the dictionary file grows by appended lines ------------------------------------------


def _dictionary_bytes(store: RDFStore) -> bytes:
    return store.dictionary_file.path.read_bytes()


def _full_write(store: RDFStore) -> bytes:
    return "".join(term.n3() + "\n" for term in store.dictionary.terms()).encode("utf-8")


def test_a_checkpoint_appends_to_the_dictionary_file(tmp_path, monkeypatch):
    store = RDFStore.build(book_triples(), config=small_graph_config())
    store.save(tmp_path / "db")
    first = _dictionary_bytes(store)
    store.update(insert_book(1, year=2005))
    store.checkpoint()
    second = _dictionary_bytes(store)
    assert second.startswith(first) and second != first
    assert second == _full_write(store)  # byte-identical to a full write

    # a reopened store appends to the file it read; no term is serialized twice
    reopened = RDFStore.open(tmp_path / "db")
    reopened.update(insert_book(2, year=2006))
    serialized = []
    n3 = Literal.n3
    monkeypatch.setattr(Literal, "n3", lambda term: serialized.append(term) or n3(term))
    reopened.checkpoint()
    assert set(serialized) == {Literal("isbn-n0002"), Literal("2006", datatype=XSD_INT)}
    third = _dictionary_bytes(reopened)
    assert third.startswith(second) and third == _full_write(reopened)
    monkeypatch.undo()
    assert RDFStore.open(tmp_path / "db").storage_summary()["terms"] == len(reopened.dictionary)

    # a re-clustering renumbers literals: the next save writes the whole file
    reopened.cluster()
    reopened.checkpoint()
    assert _dictionary_bytes(reopened) == _full_write(reopened) != third


def test_a_damaged_previous_dictionary_file_is_not_copied(tmp_path):
    store = RDFStore.build(book_triples(), config=small_graph_config())
    store.save(tmp_path / "db")
    path = store.dictionary_file.path
    path.write_bytes(path.read_bytes().replace(b"Author", b"Writer"))
    store.update(insert_book(1, year=2005))
    store.checkpoint()
    assert _dictionary_bytes(store) == _full_write(store)
    assert (sorted(RDFStore.open(tmp_path / "db").dictionary.terms(), key=str)
            == sorted(store.dictionary.terms(), key=str))


def test_the_tail_gauge_follows_compaction_and_clustering():
    store = RDFStore.build(book_triples(), config=small_graph_config())
    assert store.metrics()["dictionary_tail_terms"] == 0
    store.update(insert_book(1, year=2005))
    store.compact()
    assert store.metrics()["dictionary_tail_terms"] == 3  # subject, isbn, year
    store.cluster()
    assert store.metrics()["dictionary_tail_terms"] == 0
