"""RDFjoin's positional fetch: a generated differential and a counted guard.

Over the clustered store ``RDFJoinOp`` answers an input row whose subject a
CS block holds by that block row's position, and only the rest — residual
subjects: irregular, multi-valued or touched by a pending write — by a
scan of their distinct subjects, each input row fanned out over its
subject's run of star rows.  Its reference is the same operator over the
parse-order indexes (``clustered_store=None``), which fans every input row
out that way.

Hypothesis draws the input: subjects from two or more blocks, residual
subjects, IRIs that are no subject of the star and literal OIDs, repeated
and shuffled, beside a row id column and a column named like one of the
star's object variables (holding the star's own value or another).  Both
paths must give the same rows, in the same order, with the same columns,
at batch sizes 1, 3 and 1024, on a clean, a pending and a compacted store.

The guard counts what the positional path saves: on a clean RDF-H store
the RDF-H queries' RDFjoins key no candidates (``unique_keys``) and fan
nothing out (``_join_candidates``); with a pending write both see the
residual input rows only.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _datasets import build_dblp_store, build_rdfh_store
from repro import RDFStore
from repro.bench import DirtyConfig, generate_dirty, q3_sparql, q3_sql, star_fk_hop_sparql
from repro.bench.rdfh import RDFH_VOC
from repro.columnar import NULL_OID
from repro.engine import (
    BindingTable,
    MaterializedOp,
    PatternTerm,
    RDFJoinOp,
    RDFScanOp,
    StarPattern,
    StarProperty,
    execute_plan,
)
from repro.engine.plan import OidRange
from repro.engine import rdfscan
from repro.engine.rdfscan import _ClusteredStarScan
from repro.model import IRI, Literal
from repro.model.terms import RDF_TYPE

BATCH_SIZES = [1, 3, 1024]
STATES = ["clean", "pending", "compacted"]


def _dirty_store() -> RDFStore:
    return RDFStore.build(generate_dirty(DirtyConfig(
        classes=3, subjects_per_class=30, properties_per_class=4,
        chaotic_subjects=8, seed=11)).triples)


def _write_pending(store: RDFStore) -> None:
    """An extra value for two block subjects (multi-valued while pending), a
    deleted value, a deleted subject and a brand-new subject taking a
    block subject's value."""
    context = store.context()
    clustered = context.clustered_store
    decode = context.dictionary.decode
    block = max(clustered.blocks, key=len)
    subjects = block.subject_column.data
    predicate = next(p for p in block.property_columns
                     if (block.column(p).data[:3] != NULL_OID).all())
    first, second, third, fourth = (decode(int(s)) for s in subjects[:4])
    value = decode(int(block.column(predicate).data[1]))
    pred = decode(predicate)
    copy = IRI(f"{first.value}/copy")
    rows = [(first, pred, Literal("pending-extra")), (second, pred, Literal("pending-second")),
            (copy, pred, value)]
    store.update("INSERT DATA { " + " ".join(
        f"{s.n3()} {p.n3()} {o.n3()} ." for s, p, o in rows) + " }")
    store.update(f"DELETE DATA {{ {third.n3()} {pred.n3()} "
                 f"{decode(int(block.column(predicate).data[2])).n3()} . }}")
    store.update(f"DELETE WHERE {{ {fourth.n3()} ?p ?o . }}")


BUILDERS = {"dblp": build_dblp_store, "dirty": _dirty_store}


@pytest.fixture(scope="module")
def stores() -> Dict[tuple, RDFStore]:
    built = {}
    for name, build in BUILDERS.items():
        built[name, "clean"] = build()
        for state in ("pending", "compacted"):
            store = build()
            _write_pending(store)
            if state == "compacted":
                store.compact()
            built[name, state] = store
    return built


def _stars(store: RDFStore) -> List[StarPattern]:
    """``rdf:type`` (a column of every block) alone and within a subject
    range; and with the predicate most blocks have, required, optional, and
    beside a constant type."""
    context = store.context()
    blocks = context.clustered_store.blocks
    rdf_type = context.dictionary.lookup_term(IRI(RDF_TYPE))
    common = max(sorted({p for block in blocks for p in block.property_columns} - {rdf_type}),
                 key=lambda p: sum(block.has_property(p) for block in blocks))
    some_type = int(next(block.column(rdf_type).data[0] for block in blocks))
    subjects = np.sort(np.concatenate([block.subject_column.data for block in blocks]))
    middle = OidRange(int(subjects[subjects.size // 4]), int(subjects[subjects.size // 2]))
    var, const = PatternTerm.variable, PatternTerm.constant
    return [
        StarPattern("s", [StarProperty(rdf_type, var("c"))]),
        StarPattern("s", [StarProperty(rdf_type, var("c"))], subject_range=middle),
        StarPattern("s", [StarProperty(common, var("v")), StarProperty(rdf_type, var("c"))]),
        StarPattern("s", [StarProperty(rdf_type, var("c")),
                          StarProperty(common, var("v"), required=False)]),
        StarPattern("s", [StarProperty(rdf_type, const(some_type)),
                          StarProperty(common, var("v"))]),
    ]


def _subject_pool(store: RDFStore, star: StarPattern) -> Dict[str, np.ndarray]:
    """Candidate subjects by kind: block rows of each block holding the star,
    residual subjects, IRIs that are no subject, literal OIDs and one OID
    the dictionary never issued."""
    context = store.context()
    scan = _ClusteredStarScan(context, star)
    dictionary = context.dictionary
    terms = [(oid, dictionary.decode(oid)) for oid in range(len(dictionary))]
    subjects = set(np.concatenate([block.subject_column.data
                                   for block in context.clustered_store.blocks]).tolist())
    pool = {f"block{i}": block.subject_column.data[:40]
            for i, block in enumerate(scan.blocks)}
    pool["residual"] = scan.residual_subjects
    pool["absent"] = np.asarray([oid for oid, term in terms
                                 if isinstance(term, IRI) and oid not in subjects][:20]
                                + [len(dictionary) + 5], dtype=np.int64)
    pool["literal"] = np.asarray([oid for oid, term in terms
                                  if isinstance(term, Literal)][:20], dtype=np.int64)
    return {kind: oids for kind, oids in pool.items() if oids.size}


@st.composite
def _inputs(draw, pool: Dict[str, np.ndarray], values: np.ndarray):
    kinds = sorted(pool)
    rows = draw(st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 10 ** 6),
                                   st.integers(0, 10 ** 6)), min_size=0, max_size=40))
    subjects = [int(pool[kind][i % pool[kind].size]) for kind, i, _j in rows]
    shared = [int(values[j % values.size]) for _kind, _i, j in rows]
    return subjects, shared


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_rdfjoin_matches_the_index_merge_path(stores, name, state):
    store = stores[name, state]
    context = store.context()
    assert (state == "pending") == store.has_pending_updates()
    stars = _stars(store)
    assert len(_ClusteredStarScan(context, stars[0]).blocks) >= 2
    for star in stars:
        pool = _subject_pool(store, star)
        shared_var = star.output_variables()[-1]
        values = np.concatenate([execute_plan(RDFScanOp(star), context)[0].column(shared_var),
                                 pool["absent"]])

        @settings(max_examples=12, deadline=None, derandomize=True)
        @given(_inputs(pool, values), st.booleans())
        def check(drawn, with_shared):
            subjects, shared = drawn
            columns = {"s": subjects, "row": list(range(len(subjects)))}
            if with_shared:
                columns[shared_var] = shared
            child = MaterializedOp(BindingTable(columns))
            expected = None
            for size in BATCH_SIZES:
                for path in (context, dataclasses.replace(context, clustered_store=None)):
                    got, _cost = execute_plan(RDFJoinOp(child, star),
                                              dataclasses.replace(path, batch_size=size))
                    table = (got.variables,
                             [got.column(v).tolist() for v in got.variables])
                    if expected is None:
                        expected = table
                    assert table == expected, (star.describe(), size, path is context)

        check()


# -- counted guard ---------------------------------------------------------------------


@contextmanager
def _counted_joins(monkeypatch):
    """Per RDFjoin input table over the clustered store: its residual rows'
    subjects, and the values ``unique_keys`` and ``_join_candidates`` were
    given while RDFjoin answered it."""
    tables: List[dict] = []
    answering: List[dict] = []  # the table RDFjoin is answering, while it does
    join, unique_keys, fan_out = (_ClusteredStarScan.join, rdfscan.unique_keys,
                                  rdfscan._join_candidates)

    def counted_join(self, input_table):
        subjects = input_table.column(self.star.subject_var)
        residual = np.isin(subjects, self.residual_subjects)
        tables.append({"residual": subjects[residual].tolist(), "keyed": [], "joined": None})
        answering.append(tables[-1])
        try:
            return join(self, input_table)
        finally:
            answering.pop()

    def counted_unique_keys(values, *args, **kwargs):
        if answering:
            answering[-1]["keyed"] += np.asarray(values).tolist()
        return unique_keys(values, *args, **kwargs)

    def counted_fan_out(scan, star, input_table):
        assert answering and answering[-1]["joined"] is None
        answering[-1]["joined"] = input_table.column(star.subject_var).tolist()
        return fan_out(scan, star, input_table)

    monkeypatch.setattr(_ClusteredStarScan, "join", counted_join)
    monkeypatch.setattr(rdfscan, "unique_keys", counted_unique_keys)
    monkeypatch.setattr(rdfscan, "_join_candidates", counted_fan_out)
    yield tables


def _run_rdfh_queries(store: RDFStore) -> None:
    for result in (store.sparql(q3_sparql()), store.sql(q3_sql()),
                   store.sparql(star_fk_hop_sparql())):
        assert result.plan.operator_names().get("RDFJoinOp", 0) >= 1


def test_rdfjoin_keys_and_joins_back_only_residual_rows(monkeypatch, rdfh_store, tpch_tiny):
    with _counted_joins(monkeypatch) as tables:
        _run_rdfh_queries(rdfh_store)
    assert len(tables) >= 3
    for table in tables:
        assert (table["residual"], table["keyed"], table["joined"]) == ([], [], None)

    store = build_rdfh_store(tpch_tiny)
    lines = store.sparql(f"""SELECT ?l WHERE {{ ?l <{RDFH_VOC}l_orderkey> ?o .
        ?o <{RDFH_VOC}o_orderpriority> "1-URGENT" . }} LIMIT 2""")
    store.update("INSERT DATA { " + " ".join(
        f"<{line}> <{RDFH_VOC}l_quantity> 999 ." for (line,) in store.decode_rows(lines))
        + " }")
    with _counted_joins(monkeypatch) as tables:
        _run_rdfh_queries(store)
    assert any(table["residual"] for table in tables), "no residual input row to guard"
    for table in tables:
        assert set(table["keyed"]) <= set(table["residual"])
        assert table["joined"] == (table["residual"] or None)


@pytest.mark.parametrize("batch_size", [1024, 64, 8])
def test_a_parse_order_star_reads_its_pairs_once_per_run(monkeypatch, rdfh_parseorder_store,
                                                          batch_size):
    """RDFjoin over the parse-order indexes reads each star property's
    PSO/POS pairs once per run, however many input batches it gets."""
    calls = []
    reads = rdfscan._property_pairs
    monkeypatch.setattr(rdfscan, "_property_pairs",
                        lambda *args: calls.append(args[2]) or reads(*args))
    context = dataclasses.replace(rdfh_parseorder_store.context(), batch_size=batch_size)
    plan = rdfh_parseorder_store.sparql_plan(q3_sparql())
    execute_plan(plan, context)
    stars = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (RDFScanOp, RDFJoinOp)):
            stars += node.star.properties
        stack.extend(node.children())
    assert plan.operator_names().get("RDFJoinOp", 0) >= 1
    assert sorted(map(id, calls)) == sorted(map(id, stars))
