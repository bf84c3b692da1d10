"""The value bridge: leaving OID space one column at a time.

``TermDictionary`` owns two OID-indexed arrays — the number and the Python
value behind each OID — filled for the distinct OIDs a column touches the
first time it touches them.  ``TermDictionary.numeric_column`` /
``python_column`` and ``QueryResult.rows`` / ``decoded_rows`` are checked
here, element for element and type for type, against the per-cell decoder
they replaced (``_oracles.PerCellDecoder``): on random dictionaries and OID
columns, across ``update`` + ``compact()`` under a pinned snapshot, and with
readers racing a writer over a cold bridge.  The
``dictionary_values_materialized_total`` counter pins down *when* a value
may be computed: the first time a query touches its OID, and never again
until a re-map (``cluster()``) gives the OID another term — ``compact()``
moves no OID, so the bridge stays warm across it.
"""

from __future__ import annotations

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional test dep: skip cleanly, like rdflib
from hypothesis import given, settings, strategies as st

from _datasets import EX, build_rdfh_store, tiny_tpch
from _oracles import PerCellDecoder
from repro import default_registry
from repro.bench import q1_sparql, q6_sparql, star_lookup_sparql, sub_order_keys
from repro.bench.rdfh import RDFH_VOC, customer_iri
from repro.columnar import NULL_OID
from repro.engine import BindingTable
from repro.errors import DictionaryError
from repro.model import IRI, BNode, Literal, TermDictionary
from repro.model.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.planner import QueryResult

# -- random dictionaries and columns against the per-cell reference --------------------

_literals = st.one_of(
    st.integers(-3, 3).map(lambda i: Literal(str(i), datatype=XSD_INTEGER)),
    # cross-datatype ties: 1, 1.0 and 1.00 are one number behind three OIDs
    st.integers(-3, 3).map(lambda i: Literal(f"{i}.0", datatype=XSD_DECIMAL)),
    st.integers(-3, 3).map(lambda i: Literal(f"{i}.00", datatype=XSD_DOUBLE)),
    st.sampled_from(["1e3", "-0.0", "NaN", "INF", "-inf", "2.5"]).map(
        lambda text: Literal(text, datatype=XSD_DOUBLE)),
    st.sampled_from(["true", "false", "1", "0", "TRUE"]).map(
        lambda text: Literal(text, datatype=XSD_BOOLEAN)),
    st.integers(1, 28).map(lambda d: Literal(f"1995-03-{d:02d}", datatype=XSD_DATE)),
    st.integers(0, 23).map(
        lambda h: Literal(f"1995-03-01T{h:02d}:30:00Z", datatype=XSD_DATETIME)),
    # dirty forms fall back to the lexical form and have no number
    st.sampled_from([XSD_INTEGER, XSD_DOUBLE, XSD_DATE, XSD_DATETIME]).map(
        lambda datatype: Literal("abc", datatype=datatype)),
    st.text(alphabet="ab1", max_size=3).map(Literal),
    st.text(alphabet="ab", min_size=1, max_size=2).map(lambda t: Literal(t, language="en")),
)
_terms = st.one_of(
    _literals,
    st.integers(0, 9).map(lambda i: IRI(f"{EX}iri/{i}")),
    st.integers(0, 4).map(lambda i: BNode(f"b{i}")),
)
_oids = st.one_of(st.integers(0, 70), st.just(NULL_OID), st.integers(-9, -2))


def _dictionary(loaded, value_order, appended) -> TermDictionary:
    dictionary = TermDictionary()
    for term in loaded:
        dictionary.encode_term(term)
    if value_order:  # else: watermark 0, every literal lives in the tail
        dictionary.reassign_value_ordered_literals()
    for term in appended:
        dictionary.encode_term(term)
    return dictionary


def _same_cell(got, want) -> bool:
    """Equal *and* of one type (``True == 1 == 1.0`` would pass ``==``)."""
    if type(got) is not type(want):
        return False
    return got == want or (isinstance(want, float) and math.isnan(got) and math.isnan(want))


def _assert_same_rows(got, want) -> None:
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert type(got_row) is tuple and len(got_row) == len(want_row)
        assert all(map(_same_cell, got_row, want_row)), (got_row, want_row)


def _assert_columns_match(dictionary: TermDictionary, oids: np.ndarray) -> None:
    reference = PerCellDecoder(dictionary)
    numeric = dictionary.numeric_column(oids)
    assert numeric.dtype == np.float64
    np.testing.assert_array_equal(numeric, reference.numeric_column(oids))  # NaN == NaN
    decoded = dictionary.python_column(oids)
    assert type(decoded) is list
    _assert_same_rows([tuple(decoded)], [tuple(reference.python_column(oids))])


def _result(columns: dict) -> QueryResult:
    return QueryResult(bindings=BindingTable(columns), cost=None, plan=None,
                       columns=list(columns))


def _context(dictionary: TermDictionary) -> SimpleNamespace:
    """What ``decoded_rows`` reads of an ``ExecutionContext``."""
    return SimpleNamespace(dictionary=dictionary)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(loaded=st.lists(_terms, max_size=40), value_order=st.booleans(),
       appended=st.lists(_terms, max_size=15),
       columns=st.lists(st.lists(_oids, max_size=30), min_size=1, max_size=4),
       computed=st.lists(st.sampled_from([0.5, -0.0, float("nan"), float("inf")]),
                         max_size=30))
def test_columns_and_rows_match_the_per_cell_decoder(loaded, value_order, appended,
                                                     columns, computed):
    dictionary = _dictionary(loaded, value_order, appended)
    size = len(dictionary)
    known = [np.asarray([oid for oid in column if oid < size], dtype=np.int64)
             for column in columns]
    for oids in known:  # the first pass fills, the second reads warm slots
        _assert_columns_match(dictionary, oids)
        _assert_columns_match(dictionary, oids)
    # a dictionary of the same terms starts cold
    _assert_columns_match(TermDictionary.restore(list(dictionary.terms())), known[0])
    _assert_columns_match(dictionary, np.empty(0, dtype=np.int64))

    # a result: OID columns of one length beside a computed float column
    rows = min([len(oids) for oids in known] + [len(computed)])
    result = _result({**{f"v{i}": oids[:rows] for i, oids in enumerate(known)},
                      "x": np.asarray(computed[:rows], dtype=np.float64)})
    reference = PerCellDecoder(dictionary)
    _assert_same_rows(result.rows(), reference.rows(result))
    _assert_same_rows(result.decoded_rows(_context(dictionary)),
                      reference.decoded_rows(result))

    # an OID past the end is an error in either form, never a stale or empty slot
    beyond = np.asarray([NULL_OID, size + 3, size], dtype=np.int64)
    for column in (dictionary.numeric_column, dictionary.python_column):
        with pytest.raises(DictionaryError, match=f"unknown OID {size + 3} "):
            column(beyond)


def test_a_result_without_columns_keeps_one_empty_row_per_binding():
    result = QueryResult(bindings=BindingTable({"s": np.arange(3)}), cost=None,
                         plan=None, columns=[])
    assert result.rows() == result.decoded_rows(_context(TermDictionary())) == [(), (), ()]
    assert _result({"s": np.empty(0, dtype=np.int64)}).rows() == []


def test_an_integer_beyond_float64_decodes_exactly_and_has_no_number():
    """The per-cell decoder raised ``OverflowError`` from ``float()`` when
    such a literal was aggregated; a column fill computes both arrays at
    once, so it must not fail the decoding of a result that merely holds one."""
    dictionary = TermDictionary()
    oid = dictionary.encode_term(Literal("9" * 400, datatype=XSD_INTEGER))
    assert dictionary.python_column(np.asarray([oid])) == [int("9" * 400)]
    assert math.isnan(dictionary.numeric_column(np.asarray([oid]))[0])


def test_appends_extend_the_bridge_and_a_remap_drops_it():
    dictionary = TermDictionary()
    oids = [dictionary.encode_term(Literal(str(i), datatype=XSD_INTEGER)) for i in (3, 1, 2)]
    before = _materialized()
    assert dictionary.numeric_column(np.asarray(oids)).tolist() == [3.0, 1.0, 2.0]
    assert _materialized() == before + 3
    held = dictionary._bridge  # what a concurrent reader may still be gathering from

    # enough appends to outgrow the arrays: the filled slots are carried over
    fresh = [dictionary.encode_term(IRI(f"{EX}new/{i}")) for i in range(64)]
    assert dictionary.python_column(np.asarray(oids + fresh[-1:])) == [3, 1, 2, f"{EX}new/63"]
    assert _materialized() == before + 4

    remapped = dictionary.remap(oids[:2], oids[1::-1])
    assert held.python[oids[0]] == 3, "remap cleared arrays a reader may hold"
    assert dictionary.python_column(np.asarray(oids)) == [3, 1, 2], "remap edited its receiver"
    assert _materialized() == before + 4
    assert remapped.python_column(np.asarray(oids)) == [1, 3, 2]
    assert _materialized() == before + 7


# -- store level: a pinned snapshot keeps its bridge, the live store starts cold --------


def _materialized() -> float:
    return default_registry().collect()["dictionary_values_materialized_total"]


def _index_builds() -> float:
    return default_registry().collect()["literal_index_full_builds_total"]


def _distinct_oids(result) -> int:
    return np.unique(np.concatenate(
        [result.bindings.column(name) for name in result.columns])).size


NAME = f"<{RDFH_VOC}c_name>"
NAMES_OF_ONE = f"SELECT ?n WHERE {{ {customer_iri(1).n3()} {NAME} ?n }}"


def test_values_are_materialized_once_per_oid_until_a_remap():
    """The deterministic guard behind the performance claim: what a query
    pays to leave OID space is counted, not timed."""
    store = build_rdfh_store(tiny_tpch())
    cold = _materialized()

    lookup = store.sparql(star_lookup_sparql())
    assert len(lookup) > 50
    first = store.decode_rows(lookup)
    assert _materialized() == cold + _distinct_oids(lookup)
    assert store.decode_rows(store.sparql(star_lookup_sparql())) == first
    assert _materialized() == cold + _distinct_oids(lookup)

    summary = store.decode_rows(store.sparql(q1_sparql()))
    warm = _materialized()
    assert warm > cold + _distinct_oids(lookup)  # q1 aggregates columns the lookup skips
    assert store.decode_rows(store.sparql(q1_sparql())) == summary
    assert _materialized() == warm

    # one appended literal costs one slot, not a cold start
    assert len(store.decode_rows(store.sparql(NAMES_OF_ONE))) == 1
    warm, builds = _materialized(), _index_builds()
    store.update(f'INSERT DATA {{ {customer_iri(1).n3()} {NAME} "A brand-new name" . }}')
    names = store.decode_rows(store.sparql(NAMES_OF_ONE))
    assert sorted(names)[0] == ("A brand-new name",) and len(names) == 2
    assert _materialized() == warm + 1
    assert store.decode_rows(store.sparql(q1_sparql())) == summary
    assert _materialized() == warm + 1
    assert _index_builds() == builds

    # compact() moves no OID: the warmed aggregates rerun without computing
    # a slot, and the literal order index is not built again
    q6 = store.decode_rows(store.sparql(q6_sparql()))
    warm = _materialized()
    store.compact()
    assert store.decode_rows(store.sparql(q1_sparql())) == summary
    assert store.decode_rows(store.sparql(q6_sparql())) == q6
    assert sorted(store.decode_rows(store.sparql(NAMES_OF_ONE))) == sorted(names)
    assert _materialized() == warm
    assert _index_builds() == builds

    # cluster() re-maps OIDs: the bridge starts over, the index is built once
    store.cluster(sort_key_names=sub_order_keys())
    assert _index_builds() == builds + 1
    warm = _materialized()
    lookup = store.sparql(star_lookup_sparql())
    assert sorted(store.decode_rows(lookup)) == sorted(first)
    assert _materialized() == warm + _distinct_oids(lookup)
    assert _index_builds() == builds + 1


def test_a_pinned_snapshot_decodes_its_old_oids_across_update_and_compact():
    store = build_rdfh_store(tiny_tpch())
    text = star_lookup_sparql()
    with store.snapshot() as pinned:
        before = pinned.sparql(text)
        expected = PerCellDecoder(pinned.context.dictionary).decoded_rows(before)
        store.update(f'INSERT DATA {{ {customer_iri(1).n3()} {NAME} "A brand-new name" . }}')
        store.compact()  # moves no OID: the live store keeps the dictionary
        assert store.dictionary is pinned.context.dictionary
        _assert_same_rows(pinned.decode_rows(pinned.sparql(text)), expected)
        # clustering value-orders the new literal: the live store re-maps
        # into a new dictionary
        store.cluster(sort_key_names=sub_order_keys())
        assert store.dictionary is not pinned.context.dictionary
        _assert_same_rows(pinned.decode_rows(before), expected)
        _assert_same_rows(pinned.decode_rows(pinned.sparql(text)), expected)

        cold = _materialized()
        live = store.sparql(text)
        _assert_same_rows(store.decode_rows(live),
                          PerCellDecoder(store.dictionary).decoded_rows(live))
        assert _materialized() == cold + _distinct_oids(live), \
            "the live store's bridge did not start cold after the re-map"
        assert sorted(store.decode_rows(live)) == sorted(expected)


def test_a_direct_result_decodes_with_its_own_version_after_compact():
    """A direct read and its decode may straddle a compaction: the result
    keeps the context it ran against, and that context's dictionary."""
    store = build_rdfh_store(tiny_tpch())
    store.update(f'INSERT DATA {{ {customer_iri(1).n3()} {NAME} "A brand-new name" . }}')
    before = store.sparql(NAMES_OF_ONE)
    expected = PerCellDecoder(store.dictionary).decoded_rows(before)
    store.compact()  # moves no OID
    assert before.context.dictionary is store.dictionary
    _assert_same_rows(store.decode_rows(before), expected)
    store.cluster(sort_key_names=sub_order_keys())  # value-orders the new literal
    assert before.context.dictionary is not store.dictionary
    assert PerCellDecoder(store.dictionary).decoded_rows(before) != expected, \
        "the compaction moved no OID the result holds"
    _assert_same_rows(store.decode_rows(before), expected)


# -- readers over a cold bridge beside an appending writer ------------------------------


def test_readers_racing_a_writer_over_a_cold_bridge_get_the_single_threaded_answers():
    texts = [star_lookup_sparql(), q1_sparql(), q6_sparql()]
    reference = build_rdfh_store(tiny_tpch())
    expected = [reference.decode_rows(reference.sparql(text)) for text in texts]
    store = build_rdfh_store(tiny_tpch())  # the same build, its bridge still cold
    stop = threading.Event()
    failures: list = []

    def read(offset: int) -> None:
        try:
            for turn in range(offset, offset + 12):
                with store.snapshot() as snap:
                    got = snap.decode_rows(snap.sparql(texts[turn % 3]))
                _assert_same_rows(got, expected[turn % 3])
        except Exception as error:  # reported by the main thread
            failures.append(error)

    def write() -> None:
        # fresh literals on a predicate the readers never ask for: the
        # dictionary (and its bridge) grows under them, their answers do not move
        try:
            n = 0
            while not stop.is_set():
                store.update(f'INSERT DATA {{ {customer_iri(1).n3()} <{RDFH_VOC}c_note> '
                             f'"note {n}" , "{n}"^^<{XSD_INTEGER}> . }}')
                n += 1
        except Exception as error:
            failures.append(error)

    threads = [threading.Thread(target=write),
               *(threading.Thread(target=read, args=(i,)) for i in range(8))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for reader in threads[1:]:
            reader.join(timeout=120)
        stop.set()
        threads[0].join(timeout=120)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    notes = store.decode_rows(store.sparql(
        f"SELECT ?n WHERE {{ {customer_iri(1).n3()} <{RDFH_VOC}c_note> ?n }}"))
    assert notes and {type(note) for (note,) in notes} == {str, int}
