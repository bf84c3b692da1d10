"""Batched-vs-row differential oracle.

The batched executor must be observably identical to row-at-a-time
execution: every query in the existing corpora (book / DBLP / RDF-H) runs
under ``batch_size`` 1 (the row-at-a-time oracle), 3 (forces many small
batches, so duplicates and matches straddle batch boundaries) and 1024
(the production default), on all four plan schemes — pre- and
post-compaction, with pending deltas, and under an open MVCC snapshot —
and the sorted decoded results must match exactly.

The operators are also *order*-invariant across batch sizes (that is what
makes ``LIMIT`` safe), which a dedicated test pins down with unsorted
comparisons.
"""

from __future__ import annotations

import dataclasses
import math
import re

from contextlib import contextmanager

import pytest

from _datasets import EX, book_triples
from repro import RDFStore, StoreConfig
from repro.bench import q1_sparql, q3_sparql, q6_sparql, star_fk_hop_sparql
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.engine import (
    BindingTable,
    HashJoinOp,
    IndexScanOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    PatternTerm,
    RDFJoinOp,
    RDFScanOp,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
    execute_plan,
    kernels,
)
from repro.model import IRI
from repro.obs import ActiveQuery
from repro.sparql import (
    DEFAULT_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
)

BATCH_SIZES = [1, 3, 1024]

SCHEMES = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False),
]

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

BOOK_QUERIES = [
    f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/1> . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    f"SELECT (COUNT(?b) AS ?c) WHERE {{ ?b <{EX}isbn_no> ?i . }}",
    f"SELECT DISTINCT ?a WHERE {{ ?b <{EX}has_author> ?a . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . }} ORDER BY ?y ?b LIMIT 7",
    f"PREFIX ex: <{EX}> SELECT ?n (COUNT(?b) AS ?c) WHERE {{"
    f" ?b ex:has_author ?a . ?a ex:name ?n . }} GROUP BY ?n ORDER BY ?n",
]

DBLP_VOC = "http://example.org/dblp/schema/"

DBLP_QUERIES = [
    f"""SELECT ?p ?t ?cn WHERE {{
          ?p <{DBLP_VOC}creator> ?a .
          ?p <{DBLP_VOC}title> ?t .
          ?p <{DBLP_VOC}partOf> ?c .
          ?c <{DBLP_VOC}title> ?cn .
          ?a <{DBLP_VOC}name> ?n .
        }}""",
    f"""SELECT ?p ?t WHERE {{
          ?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{DBLP_VOC}Inproceedings> .
          ?p <{DBLP_VOC}title> ?t .
        }}""",
]

RDFH_QUERIES = [q6_sparql(), q3_sparql(), q1_sparql(), star_fk_hop_sparql()]


def _config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


@contextmanager
def batch_size(store: RDFStore, size: int):
    """Temporarily run the store's executor at the given batch size.

    The knob lives on the config and is read into each execution context at
    query time; cached plans are size-agnostic, so flipping it between runs
    of the same (cached) plan is exactly the comparison we want.
    """
    saved = store.config.batch_size
    store.config.batch_size = size
    try:
        yield store
    finally:
        store.config.batch_size = saved


def _sorted_decoded(store: RDFStore, text: str, options=None) -> list:
    rows = store.decode_rows(store.sparql(text, options))
    return sorted(tuple(str(v) for v in row) for row in rows)


def _decoded(store: RDFStore, text: str, options=None) -> list:
    rows = store.decode_rows(store.sparql(text, options))
    return [tuple(str(v) for v in row) for row in rows]


def assert_batch_sizes_agree(store: RDFStore, queries, schemes=SCHEMES) -> None:
    for text in queries:
        for options in schemes:
            with batch_size(store, 1):
                expected = _sorted_decoded(store, text, options)
            for size in BATCH_SIZES[1:]:
                with batch_size(store, size):
                    got = _sorted_decoded(store, text, options)
                assert got == expected, \
                    (f"batch_size={size} diverged from row-at-a-time on "
                     f"{options.describe()}: {text!r}")


# -- read-only corpora sweeps ----------------------------------------------------------


def test_book_corpus_all_schemes_all_batch_sizes(book_store):
    assert_batch_sizes_agree(book_store, BOOK_QUERIES)


def test_dblp_corpus_all_schemes_all_batch_sizes(dblp_store):
    assert_batch_sizes_agree(dblp_store, DBLP_QUERIES)


def test_rdfh_corpus_all_schemes_all_batch_sizes(rdfh_store):
    assert_batch_sizes_agree(rdfh_store, RDFH_QUERIES)


def test_rdfh_parseorder_corpus_batch_sizes(rdfh_parseorder_store):
    # the un-clustered baseline exercises the index-merge scan path
    assert_batch_sizes_agree(rdfh_parseorder_store, RDFH_QUERIES[:2])


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_cost_counters_are_the_plan(size, rdfh_store, rdfh_parseorder_store, book_store):
    """The batch wrapper counts every operator a run pulls once in
    ``operator_invocations`` and every join once in ``join_operations``, so
    Table I's operator and join counters are the plan's shape — at every
    batch size, clustered or in parse order, under both schemes."""
    book_parse_order = RDFStore.build(book_triples(), config=_config(), cluster=False)
    corpora = [(rdfh_store, RDFH_QUERIES[:2]), (rdfh_parseorder_store, RDFH_QUERIES[:2]),
               (book_store, BOOK_QUERIES), (book_parse_order, BOOK_QUERIES)]
    for store, queries in corpora:
        for text in queries:
            for options in SCHEMES[:2]:
                with batch_size(store, size):
                    result = store.sparql(text, options)
                counters = result.cost.counters
                assert (counters["operator_invocations"], counters["join_operations"]) == \
                    (result.plan.count_operators(), result.plan.count_joins()), \
                    (options.describe(), text)


def test_rdfjoin_coalesces_a_selective_childs_batches(rdfh_store):
    """A HashJoin over an IndexScan passes on one under-full batch per probe
    batch; RDFjoin regroups them and evaluates its star at most once per
    ``batch_size`` input rows — counted from the run's per-operator batch
    tally, not timed.  The planner probes ``fk_hop``'s link by object, so
    the fragmenting child is that hop built as a hash join by hand: the
    planned plan's stars over an ``IndexScan`` of the link, answering alike."""
    size = 1024
    with batch_size(rdfh_store, size):
        planned = rdfh_store.sparql(star_fk_hop_sparql())
    rdfjoin = planned.plan
    while not isinstance(rdfjoin, RDFJoinOp):
        (rdfjoin,) = rdfjoin.children()
    hop = rdfjoin.child
    assert isinstance(hop, NestedLoopIndexJoinOp) and hop.key == "o"
    hash_join = HashJoinOp(hop.child, IndexScanOp(hop.pattern), [hop.pattern.object.var])
    plan = RDFJoinOp(hash_join, rdfjoin.star)
    run = ActiveQuery(1, "fk_hop by hash join", "test", RDFSCAN_SCHEME)
    context = dataclasses.replace(rdfh_store.context(), batch_size=size).with_run(run)
    result, _cost = execute_plan(plan, context)
    assert (sorted(zip(*(result.column(var).tolist() for var in ("o1", "o2", "o3"))))
            == sorted(planned.rows()))
    input_rows, input_batches = run.tally(hash_join)
    assert input_batches > math.ceil(input_rows / size), "the child must fragment its output"
    _rows, star_scans = run.tally(plan)
    assert star_scans <= math.ceil(input_rows / size)


def _oid(store: RDFStore, name: str) -> int:
    return store.dictionary.lookup_term(IRI(EX + name))


def _rows(table: BindingTable, names) -> list:
    return list(zip(*(table.column(name).tolist() for name in names)))


def test_hash_join_keys_its_build_side_once_per_run(book_store, monkeypatch):
    """A HashJoin whose probe side yields many batches keys its build side
    once per run, not once per probe batch — counted as calls of the one
    table-or-sort decision a keying makes, not timed."""
    author = PatternTerm.constant(_oid(book_store, "has_author"))
    build = IndexScanOp(TriplePatternPlan(PatternTerm.variable("b"), author,
                                          PatternTerm.variable("a")))
    probe = IndexScanOp(TriplePatternPlan(PatternTerm.variable("b2"), author,
                                          PatternTerm.variable("a")))
    context = dataclasses.replace(book_store.context(), batch_size=3)
    build_rows = execute_plan(build, context)[0].num_rows
    probe_rows = execute_plan(probe, context)[0].num_rows
    assert math.ceil(probe_rows / context.batch_size) >= 3
    one_shot, _cost = execute_plan(HashJoinOp(build, probe, ["a"]),
                                   dataclasses.replace(context, batch_size=1024))

    keyed = []
    table_bounds = kernels._table_bounds

    def counted(keys, rows):
        keyed.append(keys.size)
        return table_bounds(keys, rows)

    monkeypatch.setattr(kernels, "_table_bounds", counted)
    result, _cost = execute_plan(HashJoinOp(build, probe, ["a"]), context)
    assert keyed == [build_rows]
    names = ["b", "a", "b2"]
    assert _rows(result, names) == _rows(one_shot, names)


def test_rdfjoin_on_a_shared_object_variable_agrees_across_batch_sizes():
    """An RDFjoin whose star shares ``?a`` with its input joins back on both
    the subject and ``?a``: a candidate's star rows whose ``?a`` differs are
    dropped.  Block subjects and a residual subject with two authors, input
    rows repeated and out of order; every batch size gives the batch-size-1
    rows, in the input's order."""
    store = RDFStore.build(book_triples(), config=_config())
    store.update(UPDATES[5])  # book/7 gains author/4: a residual subject
    star = StarPattern("b", [
        StarProperty(_oid(store, "has_author"), PatternTerm.variable("a")),
        StarProperty(_oid(store, "in_year"), PatternTerm.variable("y")),
    ])
    books = [7, 3, 12, 7, 0, 3, 29, 7, 18, 5]
    authors = [4, 3, 2, 2, 1, 4, 4, 0, 3, 0]  # book/i's author is i % 5
    child = MaterializedOp(BindingTable({
        "b": [_oid(store, f"book/{i}") for i in books],
        "a": [_oid(store, f"author/{i}") for i in authors],
        "extra": list(range(len(books))),
    }))
    names = ["b", "a", "y", "extra"]
    base = store.context()
    for context in (base, dataclasses.replace(base, clustered_store=None)):
        star_rows = _rows(execute_plan(RDFScanOp(star), context)[0], ["b", "a", "y"])
        expected = [row + (extra,) for extra, (b, a) in enumerate(zip(*(
            child.table.column(name).tolist() for name in ("b", "a"))))
            for row in star_rows if row[:2] == (b, a)]
        assert len(expected) == 7  # book/7 twice (author/4 and /2), 3, 12, 29, 18, 5
        for size in BATCH_SIZES:
            result, _cost = execute_plan(RDFJoinOp(child, star),
                                         dataclasses.replace(context, batch_size=size))
            assert result.variables == names
            assert _rows(result, names) == expected, size


def test_row_order_is_batch_size_invariant(book_store):
    """Stronger than the sorted oracle: identical *unsorted* row order.

    This is the invariant that makes LIMIT safe — at any batch size the
    executor must pick the same rows, so the full streams must agree
    element by element.
    """
    for text in BOOK_QUERIES:
        for options in SCHEMES:
            with batch_size(book_store, 1):
                expected = _decoded(book_store, text, options)
            for size in BATCH_SIZES[1:]:
                with batch_size(book_store, size):
                    assert _decoded(book_store, text, options) == expected, \
                        (size, options.describe(), text)


# -- pending deltas, compaction, MVCC snapshots ----------------------------------------


UPDATES = [
    f'INSERT DATA {{ <{EX}book/new1> <{EX}has_author> <{EX}author/2> . }}',
    f'INSERT DATA {{ <{EX}book/new1> <{EX}in_year> "2003"^^<{XSD_INT}> . }}',
    f'INSERT DATA {{ <{EX}book/new1> <{EX}isbn_no> "isbn-new-1" . }}',
    f'DELETE WHERE {{ <{EX}book/3> ?p ?o . }}',
    f'DELETE DATA {{ <{EX}book/5> <{EX}has_author> <{EX}author/0> . }}',
    f'INSERT DATA {{ <{EX}book/7> <{EX}has_author> <{EX}author/4> . }}',
]


def test_pending_deltas_then_compaction_agree_across_batch_sizes():
    store = RDFStore.build(book_triples(), config=_config())
    for update in UPDATES:
        store.update(update)
    assert store.delta is not None and not store.delta.is_empty()
    assert_batch_sizes_agree(store, BOOK_QUERIES)      # MergeScan / delta path
    store.compact()
    assert_batch_sizes_agree(store, BOOK_QUERIES)      # rebuilt base, empty delta


def test_open_mvcc_snapshot_agrees_across_batch_sizes():
    """Snapshots pinned at different batch sizes over the *same* version must
    answer identically — even while later writes and a compaction land."""
    store = RDFStore.build(book_triples(), config=_config())
    store.update(UPDATES[0])

    snapshots = []
    for size in BATCH_SIZES:
        with batch_size(store, size):
            snapshots.append(store.snapshot())
    try:
        # mutate underneath the pins: the snapshots must not notice
        for update in UPDATES[1:]:
            store.update(update)
        store.compact()

        for text in BOOK_QUERIES:
            for options in SCHEMES:
                results = [
                    sorted(tuple(str(v) for v in row)
                           for row in snap.decode_rows(snap.sparql(text, options)))
                    for snap in snapshots
                ]
                assert results[1] == results[0], (3, options.describe(), text)
                assert results[2] == results[0], (1024, options.describe(), text)
    finally:
        for snap in snapshots:
            snap.close()


def test_explain_analyze_tree_identical_across_batch_sizes():
    """``explain(analyze=True)`` reports rows, never batches.

    The plan tree's ``est=… actual=…`` annotations must be byte-identical
    whether the run streamed 1024-row batches or single rows.  (The header
    carries run-dependent cost counters and buffer stats, so only the tree
    is compared.  The query has no LIMIT: early termination legitimately
    changes how many rows upstream operators emit.)
    """
    store = RDFStore.build(book_triples(), config=_config())
    query = BOOK_QUERIES[0]

    def tree(text: str) -> list:
        lines = text.splitlines()
        kept = [line for line in lines if not line.startswith(("plan [", "buffers:"))]
        # per-operator time=/pages=/mem= annotations are wall-clock and
        # cache-state dependent and legitimately differ between runs; the
        # row accounting must not
        return [re.sub(r" (?:time=[0-9.]+ms|pages=\d+|mem=\S+)", "", line)
                for line in kept]

    for options in SCHEMES:
        with batch_size(store, 1):
            row_mode = tree(store.explain(query, options, analyze=True))
        assert any("actual=" in line for line in row_mode)
        with batch_size(store, 1024):
            batched = tree(store.explain(query, options, analyze=True))
        assert batched == row_mode, options.describe()


def test_snapshot_context_pins_batch_size():
    store = RDFStore.build(book_triples(), config=_config())
    with batch_size(store, 3):
        with store.snapshot() as snap:
            assert snap.context.batch_size == 3
    with store.snapshot() as snap:
        assert snap.context.batch_size == store.config.batch_size
