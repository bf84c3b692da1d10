"""Written subjects read as rows of a per-version tail block.

While a write is pending, every subject with a pending insert or tombstone
is filed once, when the version is frozen, by the one admission rule
(``repro.cs.match_characteristic_set`` over its live property set): it is
a row of that table's *tail block* — a ``CSBlock`` of the version's rows
that RDFscan reads after the table's block and RDFjoin probes like any
block — its base row is not read, and what the table's columns cannot hold
(a second value, a property without a column) is pending-irregular and
sends it to the residual scan.  Compaction applies the filing.

Three levels:

* a generated differential over the DBLP and dirty stores.  Hypothesis
  draws insert batches of newcomers — exact and superset property sets, a
  property no table has, a second value, an IRI already used as an object,
  newcomers linking to each other, partial deletes before compaction, a
  tombstoned base member beside them — and every star of the schema,
  through RDFscan and RDFjoin, and every SQL table read, must answer the
  pending store like the same store after ``compact()`` (as multisets),
  like the index-merge path (``clustered_store=None``; exact rows) and, for
  a single-block star whose residual set compaction does not grow, in
  exactly the compacted row order (head rows, then tail rows); at batch
  sizes 1, 3 and 1024, on direct and snapshot reads;
* written subjects whose table changes — a member stripped of its table's
  properties, a member without its ``rdf:type`` — read alike pending, after
  ``compact()``, after ``cluster()`` and reopened after ``checkpoint()``;
* counted guards on RDF-H with cloned orders pending, the update stream of
  the repo benchmark: its delta reads make no residual scan, a re-valued
  head lineitem is a tail row, a second value sends exactly its subject
  residual, no read and no compaction files anything, and racing first
  readers agree; and a newcomer with a value of a table's ``MANY`` property
  is residual.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _datasets import EX, build_book_store, build_dblp_store, build_rdfh_store, tiny_tpch
from repro import RDFStore
from repro.bench import DirtyConfig, generate_dirty
from repro.bench.dblp import DBLP
from repro.bench.rdfh import RDFH_VOC
from repro.cs import match_characteristic_set
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
from repro.engine.rdfscan import _ClusteredStarScan
from repro.model import IRI, Literal
from repro.model.terms import RDF_TYPE
from repro.storage import CSBlock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))
from inputs import UpdateStream, lines_of_order_op, q3_op, q6_op  # noqa: E402

BATCH_SIZES = [1, 3, 1024]
NEW = "http://example.org/new/"
NO_TABLE = IRI("http://example.org/vocab/no_table_has_this")


def _dirty_store() -> RDFStore:
    return RDFStore.build(generate_dirty(DirtyConfig(
        classes=3, subjects_per_class=30, properties_per_class=4,
        chaotic_subjects=8, seed=11)).triples)


BUILDERS = {"dblp": build_dblp_store, "dirty": _dirty_store}


# -- what the draws are made of ---------------------------------------------------------


def _palette(store: RDFStore) -> dict:
    """Per table with a block, its properties and a few of each one's base
    values (decoded); a few IRIs used only as objects, subjects of irregular
    triples only and table members; base triples to tombstone."""
    context = store.context()
    decode = context.dictionary.decode
    matrix = store.matrix
    tables = []
    for block in context.clustered_store.blocks:
        properties = sorted(store.schema.tables[block.cs_id].properties)
        values = {decode(p): [decode(int(o)) for o in np.unique(matrix[matrix[:, 1] == p, 2])[:4]]
                  for p in properties}
        tables.append(values)
    subjects = set(matrix[:, 0].tolist())
    members = store.schema.membership.subjects
    irregular = np.unique(context.clustered_store.irregular.raw()[:, 0])
    rows = matrix[np.isin(matrix[:, 0], context.clustered_store.blocks[0].subject_column.data)]
    return {
        "tables": tables,
        "object": [decode(o) for o in np.unique(matrix[:, 2]).tolist()
                   if o not in subjects and isinstance(decode(o), IRI)][:6],
        "irregular": [decode(int(s)) for s in irregular[~np.isin(irregular, members)][:6]],
        "member": [decode(int(s)) for s in members[::max(1, members.size // 6)]],
        "base": [tuple(decode(int(v)) for v in row) for row in rows[:: max(1, len(rows) // 8)]],
    }


NEWCOMER = st.tuples(
    st.integers(0, 99),                                # table
    st.sampled_from(["exact", "superset", "no_table"]),  # property set
    st.integers(1, 255),                               # which properties a superset keeps
    st.booleans(),                                     # a second value of one property
    # the subject: a new IRI, one used only as an object, a subject of
    # irregular triples only, a member of a table (the last two are no
    # newcomers: they keep the residual scan)
    st.sampled_from(["fresh", "object", "irregular", "member"]),
    st.booleans(),                                     # partial delete before compaction
    st.integers(0, 99),                                # value picks
)
BATCH = st.tuples(st.lists(NEWCOMER, min_size=1, max_size=5), st.integers(-1, 7))


def _write(store: RDFStore, palette: dict, drawn) -> List[IRI]:
    """Apply one drawn batch to ``store``: one ``INSERT DATA`` of the
    newcomers, then their partial deletes and the tombstone, one request
    each.  Returns the newcomers' subjects."""
    newcomers, tombstone = drawn
    subjects = []
    for index, (_table, _shape, _keep, _second, kind, _delete, _pick) in enumerate(newcomers):
        known = palette[kind] if kind != "fresh" else []
        subject = known[index % len(known)] if known else IRI(f"{NEW}{index}")
        if subject not in subjects:
            subjects.append(subject)
    inserts, deletes = [], []
    for index, (table, shape, keep, second, _kind, delete, pick) in enumerate(newcomers):
        subject = subjects[min(index, len(subjects) - 1)]
        values = palette["tables"][table % len(palette["tables"])]
        properties = list(values)
        if shape == "superset":  # a proper subset of the table's properties
            kept = [p for bit, p in enumerate(properties) if keep >> bit & 1]
            properties = kept[:-1] if len(kept) == len(properties) else kept
            properties = properties or list(values)[:1]
        rows = []
        for offset, predicate in enumerate(properties):
            choices = values[predicate] + [Literal(f"new-{index}-{offset}")]
            if pick % 3 == 0:  # an IRI value: another newcomer, linking them
                choices = [subjects[(index + 1) % len(subjects)]]
            rows.append((subject, predicate, choices[(pick + offset) % len(choices)]))
        if shape == "no_table":
            rows.append((subject, NO_TABLE, Literal(f"nowhere-{index}")))
        if second:
            rows.append((subject, rows[pick % len(rows)][1], Literal(f"second-{index}")))
        inserts += rows
        if delete:
            deletes.append(rows[pick % len(rows)])
    store.update("INSERT DATA { " + " ".join(_n3(row) for row in inserts) + " }")
    if tombstone >= 0:
        deletes.append(palette["base"][tombstone % len(palette["base"])])
    for row in deletes:
        store.update(f"DELETE DATA {{ {_n3(row)} }}")
    return subjects


def _n3(row) -> str:
    return " ".join(term.n3() for term in row) + " ."


def _stars(store: RDFStore) -> List[StarPattern]:
    """Per block, the star of all its columns and the star of its first
    two; and a star on the property no table has."""
    context = store.context()
    var = PatternTerm.variable
    stars = []
    for block in context.clustered_store.blocks:
        columns = sorted(block.property_columns)
        for chosen in (columns, columns[:2]):
            stars.append(StarPattern("s", [StarProperty(p, var(f"v{i}"))
                                           for i, p in enumerate(chosen)]))
    extra = context.dictionary.lookup_term(NO_TABLE)
    if extra is not None:
        stars.append(StarPattern("s", [StarProperty(extra, var("x"))]))
    return stars


# -- the differential -------------------------------------------------------------------


def _rows(table: BindingTable, names) -> List[tuple]:
    return list(zip(*(table.column(name).tolist() for name in names)))


def _join_input(context, star: StarPattern, newcomers: np.ndarray) -> MaterializedOp:
    """Candidate subjects: block rows, newcomers, residual subjects and an
    OID no term has, repeated and shuffled, beside a row id."""
    scan = _ClusteredStarScan(context, star)
    parts = [block.subject_column.data[:3] for block in scan.blocks]
    parts += [newcomers, scan.residual_subjects, np.asarray([len(context.dictionary) + 7])]
    subjects = np.concatenate(parts).astype(np.int64)
    subjects = np.random.default_rng(5).permutation(np.concatenate([subjects, subjects[::3]]))
    return MaterializedOp(BindingTable({"s": subjects, "row": np.arange(subjects.size)}))


def _pending_answers(store: RDFStore, star: StarPattern, newcomers: np.ndarray) -> dict:
    """The star's RDFscan rows and RDFjoin rows over the pending store,
    checked across batch sizes, read paths and the index-merge path."""
    names = star.output_variables()
    with store.snapshot() as snapshot:
        contexts = [store.context(), snapshot.context]
        child = _join_input(contexts[0], star, newcomers)
        answers = None
        for context in contexts:
            for size in BATCH_SIZES if context is contexts[0] else BATCH_SIZES[-1:]:
                sized = dataclasses.replace(context, batch_size=size)
                scanned = _rows(execute_plan(RDFScanOp(star), sized)[0], names)
                joined = _rows(execute_plan(RDFJoinOp(child, star), sized)[0], names + ["row"])
                if answers is None:
                    answers = {"scan": scanned, "join": joined, "child": child}
                    merged = dataclasses.replace(sized, clustered_store=None)
                    index_scan = _rows(execute_plan(RDFScanOp(star), merged)[0], names)
                    assert sorted(scanned) == sorted(index_scan), star.describe()
                    # input-major on both paths; within one input row a
                    # multi-valued subject's rows come in each path's scan order
                    index_join = _rows(execute_plan(RDFJoinOp(child, star), merged)[0],
                                       names + ["row"])
                    assert [row[-1] for row in joined] == [row[-1] for row in index_join]
                    assert sorted(joined) == sorted(index_join), star.describe()
                assert (scanned, joined) == (answers["scan"], answers["join"]), (star, size)
    return answers


def _sql_rows(store: RDFStore, subjects: Dict[str, set]) -> Dict[str, Counter]:
    """Per table, its ``SELECT *`` rows of ``subjects[table]`` (decoded
    IRIs), as a multiset, on every read path and batch size (which must
    agree)."""
    out = {}
    with store.snapshot() as snapshot:
        for table, members in subjects.items():
            text = f"SELECT * FROM {table}"
            got = []
            for size in BATCH_SIZES:
                store.config.batch_size = size
                try:
                    got.append(store.decode_rows(store.sql(text)))
                    got.append(snapshot.decode_rows(snapshot.sql(text)))
                finally:
                    store.config.batch_size = BATCH_SIZES[-1]
            assert all(rows == got[0] for rows in got), text
            out[table] = Counter(tuple(row) for row in got[0] if row[0] in members)
    return out


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tails_answer_like_compaction_and_the_index_path(name):
    build = BUILDERS[name]
    palette = _palette(build())
    seen = Counter()

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(BATCH)
    @example(([(1, "exact", 1, False, "fresh", False, 1),
               (2, "superset", 6, False, "fresh", False, 2)], -1))  # tails after their heads
    def check(drawn):
        store = build()
        store.config.batch_size = BATCH_SIZES[-1]
        subjects = _write(store, palette, drawn)
        context = store.context()
        newcomers = np.asarray([context.dictionary.lookup_term(s) for s in subjects],
                               dtype=np.int64)
        filing = context.delta.filing
        tail_rows = np.concatenate([np.empty(0, dtype=np.int64)] + [
            tail.subject_column.data for tail in filing.tails.values()])
        seen["tail rows"] += int(tail_rows.size)
        stars = _stars(store)
        pending = [_pending_answers(store, star, newcomers) for star in stars]
        scans = [_ClusteredStarScan(context, star) for star in stars]
        # SQL reads every column as optional while a write is pending, so a
        # residual subject (tombstoned, multi-valued) or another table's row
        # can read differently before and after compaction; a tail row read
        # through its own table must read the same
        decode = context.dictionary.decode
        tail_subjects = {tail.label: {decode(int(s)).value for s in tail.subject_column.data}
                         for tail in filing.tails.values()}
        sql = _sql_rows(store, tail_subjects)
        moved = set(np.setdiff1d(filing.subjects, tail_rows).tolist())
        store.compact()
        compacted = store.context()
        for star, answers, scan in zip(stars, pending, scans):
            names = star.output_variables()
            scanned = _rows(execute_plan(RDFScanOp(star), compacted)[0], names)
            joined = _rows(execute_plan(RDFJoinOp(answers["child"], star), compacted)[0],
                           names + ["row"])
            assert Counter(scanned) == Counter(answers["scan"]), star.describe()
            assert Counter(joined) == Counter(answers["join"]), star.describe()
            # one head, and no residual subject compaction did not have
            # pending: the compacted block is the unwritten head rows in head
            # order, then the filed tail, subject-ascending, as the pending
            # head and tail blocks are (the residual subjects come last)
            heads = context.clustered_store.blocks_with_properties(star.predicate_oids())
            residual = set(scan.residual_subjects.tolist())
            after = set(_ClusteredStarScan(compacted, star).residual_subjects.tolist())
            if len(heads) == 1 and after <= residual:
                rows = [[row for row in got if row[0] not in residual | moved]
                        for got in (scanned, answers["scan"])]
                assert rows[0] == rows[1], star.describe()
                seen["exact order"] += len(scan.blocks) > 1
        # compaction keeps every table's columns, so a tail row reads the
        # same through its table's SQL star
        assert _sql_rows(store, tail_subjects) == sql

    check()
    # the draws reached what they are for
    assert seen["tail rows"] and seen["exact order"], seen


# -- written subjects whose table changes --------------------------------------------


def _strip_author_4(store: RDFStore) -> None:
    store.update(f"DELETE WHERE {{ <{EX}author/4> ?p ?o . }}")
    store.update(f'INSERT DATA {{ <{EX}author/4> <{EX}in_year> '
                 f'"2001"^^<http://www.w3.org/2001/XMLSchema#int> . }}')


def _book_and_person_rows(store: RDFStore) -> Dict[str, list]:
    return {text: sorted(map(tuple, store.decode_rows(store.sql(text))), key=repr)
            for text in ("SELECT id, isbn_no, in_year FROM Book", "SELECT * FROM Person")}


def _filed_in_book(rows: Dict[str, list]) -> None:
    """``{in_year}`` is filed in Book: 31 Book rows, 4 Person rows."""
    book, person = rows.values()
    assert len(book) == 31 and (f"{EX}author/4", None, 2001) in book
    assert len(person) == 4 and f"{EX}author/4" not in {row[0] for row in person}


def _untype_inproc_0(store: RDFStore) -> None:
    store.update(f"DELETE WHERE {{ <{DBLP}inproc/0> <{RDF_TYPE}> ?type . }}")


def _tables_listing_inproc_0(store: RDFStore) -> set:
    """The tables whose star of every block column, all optional (how SQL
    reads a table while a write is pending), has a row of ``inproc/0``."""
    context = store.context()
    subject = context.dictionary.lookup_term(IRI(f"{DBLP}inproc/0"))
    listed = set()
    for block in context.clustered_store.blocks:
        star = StarPattern("s", [StarProperty(p, PatternTerm.variable(f"v{i}"), required=False)
                                 for i, p in enumerate(sorted(block.property_columns))])
        if subject in execute_plan(RDFScanOp(star), context)[0].column("s"):
            listed.add(block.label)
    return listed


def _listed_in_inproceedings(listed: set) -> None:
    """Untyped, ``inproc/0`` still fits Inproceedings best."""
    assert "Inproceedings" in listed and "Conference" not in listed


WRITTEN = {
    # a member loses every triple of its table and gains another table's
    "book_author_4": (build_book_store, _strip_author_4, _book_and_person_rows, _filed_in_book),
    # a member loses its rdf:type, which the rule files by, not its columns
    "dblp_inproc_0": (build_dblp_store, _untype_inproc_0, _tables_listing_inproc_0,
                      _listed_in_inproceedings),
}


@pytest.mark.parametrize("case", sorted(WRITTEN))
def test_a_written_subject_reads_alike_in_every_state(case, tmp_path):
    """Pending, after ``checkpoint()`` and reopened, compacted and folded by
    ``cluster()``: compaction applies the pending filing, so the subject is
    a row of the same tables in each."""
    build, write, read, expected = WRITTEN[case]
    store = build()
    store.save(tmp_path / "db")
    write(store)
    pending = read(store)
    expected(pending)
    store.checkpoint()
    assert read(RDFStore.open(tmp_path / "db")) == pending
    assert not store.has_pending_updates() and read(store) == pending
    store.cluster()
    assert read(store) == pending


# -- counted guards on RDF-H ------------------------------------------------------------


def _rdfh_with_orders(count: int = 25):
    tpch = tiny_tpch()
    store = build_rdfh_store(tpch)
    stream = UpdateStream(tpch, 3)
    for _ in range(count):
        store.update(stream.next_insert()[0])
    return store, stream


def _delta_reads(store: RDFStore, stream: UpdateStream) -> list:
    ops = [lines_of_order_op(stream.inserted_keys[-1]), q6_op("q6"), q3_op("q3"),
           q6_op("sql_q6", frontend="sql")]
    return [store.sparql(op.text) if op.frontend == "sparql" else store.sql(op.text)
            for op in ops]


@pytest.fixture()
def residual_scans(monkeypatch) -> List[np.ndarray]:
    """The residual set of every star scan made, and a count of residual
    scans run."""
    made: List[np.ndarray] = []
    init, scan_residual = _ClusteredStarScan.__init__, _ClusteredStarScan._scan_residual

    def recording_init(self, context, star):
        init(self, context, star)
        made.append(self.residual_subjects)

    def counting_scan_residual(self, candidate_subjects):
        made.append(None)
        return scan_residual(self, candidate_subjects)

    monkeypatch.setattr(_ClusteredStarScan, "__init__", recording_init)
    monkeypatch.setattr(_ClusteredStarScan, "_scan_residual", counting_scan_residual)
    return made


def test_cloned_orders_make_no_residual_scan(residual_scans):
    store, stream = _rdfh_with_orders()
    results = _delta_reads(store, stream)
    assert all(len(result) for result in results[:2])
    assert residual_scans and not any(made is None or made.size for made in residual_scans)
    assert all(not any(result.run.residuals.values()) for result in results)
    assert len(results[0].run.residuals) == 1  # the star was run, and counted
    # the same answers as the compacted store
    pending = [sorted(map(tuple, store.decode_rows(result))) for result in results]
    store.compact()
    assert [sorted(map(tuple, store.decode_rows(result)))
            for result in _delta_reads(store, stream)] == pending


def _lineitem(store: RDFStore, row: int = 5):
    """A head lineitem's subject, its ``l_extendedprice`` predicate and value."""
    context = store.context()
    lineitems = next(block for block in context.clustered_store.blocks
                     if block.label.lower() == "lineitem")
    price = context.dictionary.lookup_term(IRI(f"{RDFH_VOC}l_extendedprice"))
    return (int(lineitems.subject_column.data[row]), price,
            int(lineitems.column(price).data[row]), lineitems.cs_id)


def _n3_oids(store: RDFStore, *oids: int) -> str:
    return " ".join(store.dictionary.decode(oid).n3() for oid in oids) + " ."


def test_a_revalued_head_lineitem_is_a_tail_row(residual_scans):
    """A changed value replaces the member's head row by a row of its
    table's tail: ``q6`` reads it with ``residual=0``, as after compaction."""
    store, stream = _rdfh_with_orders()
    victim, price, value, lineitem = _lineitem(store)
    new_price = Literal("123.45", datatype="http://www.w3.org/2001/XMLSchema#decimal")
    store.update(f"DELETE DATA {{ {_n3_oids(store, victim, price, value)} }} ; "
                 f"INSERT DATA {{ {store.dictionary.decode(victim).n3()} "
                 f"{store.dictionary.decode(price).n3()} {new_price.n3()} . }}")
    residual_scans.clear()
    results = _delta_reads(store, stream)
    assert not any(made is None or made.size for made in residual_scans)
    assert all(not any(result.run.residuals.values()) for result in results)
    filing = store.context().delta.filing
    tail = filing.tails[lineitem]
    row = tail.locate(np.asarray([victim]))[0]
    assert row >= 0 and tail.column(price).data[row] == store.dictionary.lookup_term(new_price)
    pending = [sorted(map(tuple, store.decode_rows(result))) for result in results]
    store.compact()
    assert [sorted(map(tuple, store.decode_rows(result)))
            for result in _delta_reads(store, stream)] == pending


def test_a_second_value_sends_exactly_its_subject_residual(residual_scans):
    store, stream = _rdfh_with_orders()
    victim, price, _value, _lineitem_cs = _lineitem(store)
    store.update(f"INSERT DATA {{ {store.dictionary.decode(victim).n3()} "
                 f"{store.dictionary.decode(price).n3()} \"7.5\" . }}")
    residual_scans.clear()
    _delta_reads(store, stream)
    touched = [made for made in residual_scans if made is not None and made.size]
    assert touched and all(made.tolist() == [victim] for made in touched)
    assert None in residual_scans  # its residual scan ran


@pytest.fixture()
def filing_calls(monkeypatch) -> Counter:
    """Calls of the admission rule, under every name ``repro`` binds it
    to, and ``CSBlock`` constructions."""
    calls = Counter()
    rule = match_characteristic_set

    def counted_rule(schema, props):
        calls["match"] += 1
        return rule(schema, props)

    for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
        if getattr(module, "match_characteristic_set", None) is rule:
            monkeypatch.setattr(module, "match_characteristic_set", counted_rule)
    post_init = CSBlock.__post_init__

    def counted_block(self):
        calls["block"] += 1
        post_init(self)

    monkeypatch.setattr(CSBlock, "__post_init__", counted_block)
    return calls


def test_reads_and_compaction_file_nothing(filing_calls):
    """The write files its subjects; no read of its version, direct or
    through a snapshot, calls the admission rule or builds a block, and
    ``compact()`` applies the filing without calling the rule."""
    store, stream = _rdfh_with_orders()
    store.update(stream.next_insert()[0])
    assert filing_calls["block"]  # the write built its tail blocks
    filing_calls.clear()
    for read in range(6):
        if read % 2:
            with store.snapshot() as snapshot:
                snapshot.sparql(q6_op("q6").text)
                snapshot.sql(q6_op("sql_q6", frontend="sql").text)
        else:
            _delta_reads(store, stream)
    assert not filing_calls
    store.compact()
    assert filing_calls["match"] == 0


def test_superseded_tail_pages_leave_the_pool():
    """A tail block's reads are paged like a block's; when a write replaces
    it, its pages leave the pool with its version — at once, or at the last
    release of a snapshot pinning that version."""
    store, stream = _rdfh_with_orders()
    first = f"{store.context().delta.name}.tail."
    _delta_reads(store, stream)
    assert store.pool.segments_cached(first) > 0
    store.update(stream.next_insert()[0])  # a new order: both tails refiled
    assert store.pool.segments_cached(first) == 0
    second = f"{store.context().delta.name}.tail."
    with store.snapshot() as snapshot:
        snapshot.sparql(q6_op("q6").text)
        store.update(stream.next_insert()[0])
        assert store.pool.segments_cached(second) > 0
    assert store.pool.segments_cached(second) == 0
    _delta_reads(store, stream)
    assert store.pool.segments_cached(f"{store.context().delta.name}.tail.") > 0


def test_racing_first_readers_agree():
    store, stream = _rdfh_with_orders()
    expected = [sorted(map(tuple, store.decode_rows(result)))
                for result in _delta_reads(store, stream)]
    store.update(stream.next_insert()[0])  # a fresh version, tails not derived yet
    answers, errors = [], []
    start = threading.Barrier(8, timeout=60)

    def read():
        try:
            start.wait()
            answers.append([sorted(map(tuple, store.decode_rows(result)))
                            for result in _delta_reads(store, stream)])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(answers) == 8
    assert all(answer == answers[0] for answer in answers)
    assert answers[0] == [sorted(map(tuple, store.decode_rows(result)))
                          for result in _delta_reads(store, stream)]
    assert answers[0][0] and answers[0][0] != expected[0]  # the new order's lineitems


def test_a_version_files_each_written_subject_in_its_table():
    """Cloned orders and lineitems are rows of their tables' tails: each
    tail has its block's columns, no zones and no sorted columns, holds no
    block member, and a version keeps the tails of tables it did not
    touch."""
    store, _stream = _rdfh_with_orders(3)
    context = store.context()
    filing = context.delta.filing
    # every cloned order and lineitem is filed in its table's tail
    assert filing.subjects.tolist() == np.unique(context.delta.matrix()[:, 0]).tolist()
    assert sorted(filing.tails) == sorted(block.cs_id for block in context.clustered_store.blocks
                                          if block.label in ("Order", "Lineitem"))
    assert np.array_equal(np.sort(np.concatenate([tail.subject_column.data
                                                  for tail in filing.tails.values()])),
                          filing.subjects)
    assert (filing.tables >= 0).all() and not filing.irregular.size
    for cs_id, tail in filing.tails.items():
        head = context.clustered_store.block(cs_id)
        assert sorted(tail.property_columns) == sorted(head.property_columns)
        assert tail.head_rows == 0 and tail.label == head.label
        assert tail.zone_maps == {} and tail.sorted_properties == frozenset()
        assert tail.subject_column.segment_id.startswith(f"{context.delta.name}.")
        assert not np.isin(tail.subject_column.data, head.subject_column.data).any()
    # a write to orders alone files no lineitem again: the lineitems' tail,
    # and its pages, outlive the version that built them
    store.sparql(q6_op("q6").text)
    order = next(cs_id for cs_id, tail in filing.tails.items() if tail.label == "Order")
    kept = [f"{context.delta.name}.tail.cs{cs_id}." for cs_id in filing.tails if cs_id != order]
    assert all(store.pool.segments_cached(prefix) for prefix in kept)
    subject = context.dictionary.decode(int(filing.tails[order].subject_column.data[0]))
    store.update(f'INSERT DATA {{ {subject.n3()} <{RDFH_VOC}o_comment> "again" . }}')
    refiled = store.context().delta.filing
    assert all(refiled.tails[cs_id] is tail for cs_id, tail in filing.tails.items()
               if cs_id != order)
    assert all(store.pool.segments_cached(prefix) for prefix in kept)


def test_a_newcomer_with_a_many_property_stays_residual():
    """DBLP's ``Inproceedings_2`` keeps ``creator`` (``MANY``) out of its
    block: a newcomer of exactly that table's shape is a row of its tail
    with a value no column holds, so a star naming ``creator`` takes the
    residual scan for it."""
    store = build_dblp_store()
    context = store.context()
    table = next(block for block in context.clustered_store.blocks
                 if len(block.property_columns)
                 < len(store.schema.tables[block.cs_id].properties))
    decode = context.dictionary.decode
    properties = sorted(store.schema.tables[table.cs_id].properties)
    subject = IRI(f"{NEW}many")
    store.update("INSERT DATA { " + " ".join(
        _n3((subject, decode(p), decode(int(store.matrix[store.matrix[:, 1] == p][0, 2]))))
        for p in properties) + " }")
    context = store.context()
    oid = context.dictionary.lookup_term(subject)
    filing = context.delta.filing
    assert oid in filing.tails[table.cs_id].subject_column.data  # its columns' values
    assert oid in filing.irregular[:, 0]  # and its MANY value
    star = StarPattern("s", [StarProperty(p, PatternTerm.variable(f"v{i}"))
                             for i, p in enumerate(properties)])
    scan = _ClusteredStarScan(context, star)
    assert oid in scan.residual_subjects
    pending = Counter(_rows(execute_plan(RDFScanOp(star), context)[0], star.output_variables()))
    assert any(row[0] == oid for row in pending)
    store.compact()
    assert Counter(_rows(execute_plan(RDFScanOp(star), store.context())[0],
                         star.output_variables())) == pending
