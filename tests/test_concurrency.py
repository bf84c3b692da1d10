"""Concurrency tests: undo logs, MVCC snapshots, published versions, and
stress runs.

The invariants under test:

* **request atomicity via undo logs** — a failed request rolls back by
  replaying only the keys it touched (never a full-delta copy), leaving the
  pre-request state bit-identical;
* **snapshot isolation** — a pinned :class:`ReadSnapshot` answers (and
  decodes) identically across concurrent updates, compactions and
  checkpoints; readers never observe a half-applied request ("torn read");
* **readers never wait** — a snapshot pin and a direct read answer from the
  last committed version at once, while a writer is inside a request;
* **deferred reclaim** — compacting while a snapshot is open must not evict
  the pinned delta version's index pages until the snapshot is released;
* **final-state equivalence** — after a concurrent run, the store equals a
  fresh store that applied the same updates serially.

The stress tests run ``READERS`` (≥ 8) reader threads against one writer
hammering update/query/compact/checkpoint.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from _datasets import EX, book_triples, build_rdfh_store, tiny_tpch
from repro import QueryServer, RDFStore, StoreConfig
from repro.bench import q6_sparql
from repro.bench.rdfh import RDFH_VOC, customer_iri
from repro.columnar import ColumnStats
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.errors import PersistenceError, StorageError
from repro.model import Literal
from repro.updates import DeltaStore, FrozenDelta, UpdateApplier
from repro.updates import delta as delta_module

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))
from inputs import AdhocStream  # noqa: E402 - the repo benchmark's ad-hoc texts

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

READERS = 8
WRITER_REQUESTS = 60
BURST = 300

PAIR_LEFT = f"{EX}left"
PAIR_RIGHT = f"{EX}right"

AUTHOR_QUERY = f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . }}"


def _config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


def build_store() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


def pair_update(i: int) -> str:
    """One atomic request inserting a left/right triple *pair*.

    Snapshot isolation makes the pair indivisible: any reader must count
    exactly as many lefts as rights, or it has seen a torn request.
    """
    return (f"INSERT DATA {{ "
            f"<{EX}item/{i}> <{PAIR_LEFT}> \"L{i}\" . "
            f"<{EX}item/{i}> <{PAIR_RIGHT}> \"R{i}\" . }}")


PAIR_COUNT_LEFT = f"SELECT (COUNT(?s) AS ?c) WHERE {{ ?s <{PAIR_LEFT}> ?v . }}"
PAIR_COUNT_RIGHT = f"SELECT (COUNT(?s) AS ?c) WHERE {{ ?s <{PAIR_RIGHT}> ?v . }}"


def _count(snapshot, query: str) -> int:
    rows = snapshot.sparql(query).rows()
    return int(rows[0][0]) if rows else 0


PAIR_COUNTS = "SELECT ?p (COUNT(?s) AS ?c) WHERE { ?s ?p ?v . } GROUP BY ?p"


def _pair_counts(reader) -> tuple:
    """Lefts and rights from one query, hence one version."""
    counts = dict(reader.decode_rows(reader.sparql(PAIR_COUNTS)))
    return counts.get(PAIR_LEFT, 0), counts.get(PAIR_RIGHT, 0)


# -- undo log -----------------------------------------------------------------------


class TestUndoLog:
    def test_failed_request_rolls_back_exactly(self, monkeypatch):
        store = build_store()
        store.update(f'INSERT DATA {{ <{EX}pre> <{PAIR_LEFT}> "pre" . }}')
        before_inserts = dict(store.delta._inserts)
        before_tombs = set(store.delta._tombstones)

        def boom(text):
            raise PersistenceError("simulated WAL failure")

        monkeypatch.setattr(store.journal, "record", boom)
        with pytest.raises(PersistenceError):
            store.update(
                f'INSERT DATA {{ <{EX}item/1> <{PAIR_LEFT}> "L1" . }} ; '
                f'DELETE DATA {{ <{EX}pre> <{PAIR_LEFT}> "pre" . }}')
        assert dict(store.delta._inserts) == before_inserts
        assert set(store.delta._tombstones) == before_tombs
        # the store still works after a rollback
        monkeypatch.undo()
        store.update(pair_update(2))
        assert store.delta.insert_count() == len(before_inserts) + 2

    def test_undo_cost_is_per_request_not_per_pending(self):
        """The log records touched keys only — the O(N) full-delta copy is gone."""
        delta = DeltaStore()
        for i in range(1000):
            delta.insert(i, 1, 2, in_base=False)
        undo = delta.begin_request()
        delta.insert(5000, 1, 2, in_base=False)
        delta.delete(3, 1, 2, in_base=False)
        assert len(undo) == 2  # not 1002
        delta.abort_request(undo)
        assert delta.insert_count() == 1000
        assert delta.contains_insert(3, 1, 2)
        assert not delta.contains_insert(5000, 1, 2)

    def test_publish_cost_is_per_request_not_per_pending(self, monkeypatch):
        """Every update publishes a frozen version, so a burst stays linear
        only if each freeze turns the keys the request touched — not the
        whole pending delta — from tuples into arrays.  Counted, not timed."""
        converted = []
        original = delta_module._as_triples

        def counting(keys):
            converted.append(len(keys))
            return original(keys)

        store = build_store()
        monkeypatch.setattr(delta_module, "_as_triples", counting)
        for i in range(BURST):
            store.update(pair_update(i))
        touched = store.delta.insert_count()
        assert touched == 2 * BURST
        assert sum(converted) <= touched  # re-listing the delta would be ~touched² / 4

    def test_rollback_restores_tombstones_and_resurrections(self):
        delta = DeltaStore()
        delta.insert(1, 2, 3, in_base=False)
        delta.delete(10, 2, 3, in_base=True)  # pre-existing tombstone
        undo = delta.begin_request()
        delta.insert(10, 2, 3, in_base=True)   # resurrect
        delta.delete(20, 2, 3, in_base=True)   # new tombstone
        delta.delete(1, 2, 3, in_base=False)   # remove pending insert
        delta.abort_request(undo)
        assert delta.is_tombstoned(10, 2, 3)
        assert not delta.is_tombstoned(20, 2, 3)
        assert delta.contains_insert(1, 2, 3)

    def test_requests_cannot_nest(self):
        delta = DeltaStore()
        log = delta.begin_request()
        with pytest.raises(StorageError):
            delta.begin_request()
        delta.commit_request(log)
        with pytest.raises(StorageError):
            delta.commit_request(log)


# -- MVCC snapshots -----------------------------------------------------------------


class TestReadSnapshots:
    def test_snapshot_does_not_see_later_updates(self):
        store = build_store()
        with store.snapshot() as snap:
            before = sorted(snap.decode_rows(snap.sparql(AUTHOR_QUERY)))
            store.update(pair_update(1))
            store.update(f'DELETE WHERE {{ <{EX}book/3> ?p ?o . }}')
            assert sorted(snap.decode_rows(snap.sparql(AUTHOR_QUERY))) == before
        # a fresh snapshot sees the new state
        with store.snapshot() as fresh:
            after = sorted(fresh.decode_rows(fresh.sparql(AUTHOR_QUERY)))
        assert len(after) == len(before) - 1

    def test_snapshot_survives_compaction_and_decodes_pinned_terms(self):
        """Compaction moves no OID and clustering re-maps literal OIDs; a
        pinned snapshot must keep decoding through the dictionary it was
        pinned with across both."""
        store = build_store()
        year_query = f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . }}"
        # "1000" sorts before every existing year, so the value order that
        # clustering restores re-maps a large prefix of literal OIDs
        store.update(f'INSERT DATA {{ <{EX}book/new> <{EX}in_year> '
                     f'"1000"^^<{XSD_INT}> . }}')
        snap = store.snapshot()
        before = sorted(snap.decode_rows(snap.sparql(year_query)))
        report = store.compact()
        assert report.merged_inserts == 1
        assert sorted(snap.decode_rows(snap.sparql(year_query))) == before
        assert store.dictionary is snap.context.dictionary  # kept: no OID moved
        store.cluster()
        assert sorted(snap.decode_rows(snap.sparql(year_query))) == before
        assert store.dictionary is not snap.context.dictionary  # replaced, not edited
        snap.close()

    def test_snapshot_survives_checkpoint(self, tmp_path):
        store = build_store()
        store.update(pair_update(1))
        snap = store.snapshot()
        left = _count(snap, PAIR_COUNT_LEFT)
        store.checkpoint(tmp_path / "db")
        store.update(pair_update(2))
        assert _count(snap, PAIR_COUNT_LEFT) == left
        snap.close()
        with store.snapshot() as fresh:
            assert _count(fresh, PAIR_COUNT_LEFT) == left + 1

    def test_live_triple_count_is_pinned(self):
        """The snapshot's count uses the base size captured at pin time."""
        store = RDFStore.build(book_triples(), config=_config())
        base = store.triple_count()
        with store.snapshot() as snap:
            assert snap.live_triple_count() == base
            store.update(pair_update(1))
            store.compact()
            assert snap.live_triple_count() == base  # not the compacted base
        assert store.live_triple_count() == base + 2

    def test_snapshot_sql_matches_sparql_epoch(self):
        store = build_store()
        snap = store.snapshot()
        rows = snap.sql("SELECT isbn_no FROM Book ORDER BY isbn_no")
        store.update(f'DELETE WHERE {{ <{EX}book/1> ?p ?o . }}')
        assert len(snap.sql("SELECT isbn_no FROM Book ORDER BY isbn_no")) == len(rows)
        snap.close()

    def test_closed_snapshot_refuses_queries(self):
        store = build_store()
        snap = store.snapshot()
        snap.close()
        snap.close()  # idempotent
        with pytest.raises(StorageError):
            snap.sparql(AUTHOR_QUERY)

    def test_frozen_delta_is_immutable(self):
        """The read half of a version has no mutators to call, is one object
        per version, and is untouched by the writes that supersede it."""
        store = build_store()
        store.update(pair_update(1))
        frozen = store.delta.freeze(store.schema, store.index_store)
        assert isinstance(frozen, FrozenDelta) and not isinstance(frozen, DeltaStore)
        assert store.delta.freeze(store.schema, store.index_store) is frozen
        assert frozen.insert_count() == store.delta.insert_count() == 2
        for mutator in ("insert", "delete", "clear", "begin_request",
                        "abort_request"):
            assert not hasattr(frozen, mutator), mutator
        rows = frozen.matrix().copy()
        store.update(pair_update(2))
        store.update(f'DELETE DATA {{ <{EX}book/1> <{EX}isbn_no> "isbn-0001" . }}')
        assert store.delta.freeze(store.schema, store.index_store) is not frozen
        assert (frozen.matrix() == rows).all() and frozen.tombstone_count() == 0
        assert store.delta.freeze(store.schema, store.index_store).insert_count() == 4
        assert store.delta.freeze(store.schema, store.index_store).tombstone_count() == 1

    def test_snapshots_of_one_version_share_a_plan_cache(self):
        """Readers amortize parse + plan through the store's one cache, keyed
        by what a plan reads: the base generation and whether writes are
        pending.  The first write after a clean state misses once; every
        later write keeps the plan, and snapshots pinned on any of those
        versions share it, each answering its own state."""
        store = build_store()
        hits = lambda: store.plan_cache_stats()["lifetime_hits"]  # noqa: E731
        misses = lambda: store.plan_cache_stats()["lifetime_misses"]  # noqa: E731
        with store.snapshot() as a, store.snapshot() as b:
            assert a.context is b.context  # one record per version, two pins
            a.sparql(AUTHOR_QUERY)
            assert (hits(), misses()) == (0, 1)
            plan = b.sparql(AUTHOR_QUERY).plan  # same version: planned once, hit once
            assert (hits(), misses()) == (1, 1)
            assert store.sparql(AUTHOR_QUERY).plan is plan  # the direct path, too
            assert (hits(), misses()) == (2, 1)
            before = sorted(a.decode_rows(a.sparql(AUTHOR_QUERY)))
            store.update(f'DELETE WHERE {{ <{EX}book/3> ?p ?o . }}')
            with store.snapshot() as c:
                stale = hits()
                after = c.sparql(AUTHOR_QUERY)  # the first write after a clean state
                assert hits() == stale and after.plan is not plan
                assert c.sparql(AUTHOR_QUERY).plan is after.plan
                assert hits() == stale + 1
                # pinned before the write: its clean state's plan still stands
                again = a.sparql(AUTHOR_QUERY)
                assert again.plan is plan
                assert sorted(a.decode_rows(again)) == before
                assert len(after) == len(before) - 1
                # a later write plans nothing: both pending versions share one plan
                store.update(f'DELETE WHERE {{ <{EX}book/4> ?p ?o . }}')
                before_misses = misses()
                with store.snapshot() as d:
                    latest = d.sparql(AUTHOR_QUERY)
                    assert latest.plan is after.plan and len(latest) == len(after) - 1
                older = c.sparql(AUTHOR_QUERY)
                assert older.plan is after.plan and len(older) == len(after)
                assert misses() == before_misses

    def test_open_snapshot_count_tracks_pins(self):
        store = build_store()
        assert store.open_snapshot_count() == 0
        a = store.snapshot()
        b = store.snapshot()
        assert store.open_snapshot_count() == 2
        a.close()
        b.close()
        assert store.open_snapshot_count() == 0
        assert "open_snapshots" not in store.storage_summary()


def _delta_pages(store: RDFStore, delta_version: int) -> int:
    """Cached buffer-pool pages of one delta version's permutation index."""
    return store.pool.segments_cached(f"delta.v{delta_version}.")


class TestDeferredSegmentReclaim:
    """The registry's one reclamation rule: a superseded version's delta
    index pages leave the pool at once when nothing pins it, else at its
    last release; the current version's pages are never dropped."""

    def test_compact_defers_reclaim_until_snapshot_release(self):
        """Regression: compacting (or further updates) while a read snapshot
        is open must not evict the pinned delta version's index pages; they
        are reclaimed when the last snapshot releases."""
        store = build_store()
        store.update(pair_update(1))
        snap, second = store.snapshot(), store.snapshot()
        version = snap.delta_version
        before = sorted(snap.decode_rows(snap.sparql(PAIR_COUNT_LEFT)))
        assert _delta_pages(store, version) > 0  # the query touched them
        store.update(pair_update(2))     # supersedes the pinned version
        store.compact()                  # clears the delta entirely
        assert store.metrics()["delta_deferred_reclaim_depth"] == 1
        assert store.metrics()["pinned_delta_versions"] == 1
        assert _delta_pages(store, version) > 0, \
            "pinned delta segments were reclaimed under an open snapshot"
        assert sorted(snap.decode_rows(snap.sparql(PAIR_COUNT_LEFT))) == before
        snap.close()
        assert _delta_pages(store, version) > 0, "one pin is still open"
        second.close()
        assert _delta_pages(store, version) == 0, \
            "superseded delta segments must be reclaimed at the last release"
        assert store.metrics()["delta_deferred_reclaim_depth"] == 0

    def test_unpinned_versions_are_reclaimed_immediately(self):
        store = build_store()
        store.update(pair_update(1))
        version = store.delta.version
        store.sparql(PAIR_COUNT_LEFT)  # builds the delta index
        assert _delta_pages(store, version) > 0
        store.update(pair_update(2))   # no snapshot open, no read in between
        assert _delta_pages(store, version) == 0

    def test_unpin_never_evicts_the_live_current_index(self):
        """A release of the still-current version must not drop its pages:
        direct reads and later snapshots use the same index."""
        store = build_store()
        store.update(pair_update(1))
        version = store.delta.version
        with store.snapshot() as snap:
            snap.sparql(PAIR_COUNT_LEFT)   # builds the version's one index
            index = snap.context.delta.index()
        assert _delta_pages(store, version) > 0
        store.sparql(PAIR_COUNT_LEFT)
        assert store.context().delta.index() is index
        with store.snapshot() as again:
            again.sparql(PAIR_COUNT_LEFT)
        assert _delta_pages(store, version) > 0, \
            "unpin evicted the current delta index"
        store.update(pair_update(2))       # supersession reclaims them
        assert _delta_pages(store, version) == 0

    def test_snapshot_built_index_pages_do_not_leak(self):
        """Pages built through a snapshot of the still-current version (no
        direct read ever ran) are dropped when the version is superseded."""
        store = build_store()
        store.update(pair_update(1))
        snap = store.snapshot()
        snap.sparql(PAIR_COUNT_LEFT)
        assert _delta_pages(store, snap.delta_version) > 0
        snap.close()                   # version still current at release
        assert _delta_pages(store, snap.delta_version) > 0
        store.update(pair_update(2))
        assert _delta_pages(store, snap.delta_version) == 0

    def test_a_noop_update_keeps_the_live_versions_pages(self):
        """A request that changes nothing leaves the version pair alone, so
        the published record — and its delta index pages — stay."""
        store = build_store()
        store.update(pair_update(1))
        _count(store, PAIR_COUNT_LEFT)
        _count(store, PAIR_COUNT_LEFT)
        cached = store.pool.segments_cached("delta.v")
        assert cached > 0
        assert not store.update(pair_update(1)).changed  # both triples are there
        assert store.pool.segments_cached("delta.v") == cached
        reads = store.pool.tracker.page_reads
        assert _count(store, PAIR_COUNT_LEFT) == 1
        assert store.pool.tracker.page_reads == reads

    def test_versions_read_inside_one_request_leave_no_pages(self):
        """``INSERT DATA ... ; DELETE WHERE ...`` reads its own uncommitted
        versions; none of them may strand pages in the pool."""
        store = build_store()
        store.update(pair_update(1))
        store.sparql(PAIR_COUNT_LEFT)
        first = store.delta.version
        store.update(pair_update(2) + f" ; DELETE WHERE {{ <{EX}item/1> ?p ?o . }}"
                     + f" ; DELETE WHERE {{ ?s <{PAIR_RIGHT}> ?v . }}")
        assert store.delta.version > first + 2
        assert store.pool.segments_cached("delta.v") == 0
        assert _count(store, PAIR_COUNT_LEFT) == 1 and _count(store, PAIR_COUNT_RIGHT) == 0
        assert store.pool.segments_cached("delta.v") \
            == _delta_pages(store, store.delta.version) > 0

    def test_one_index_per_delta_version(self, monkeypatch):
        """Snapshot and direct reads of one version share one delta index
        (the live delta and its frozen copy each built one at parent)."""
        from repro.updates import delta as delta_module

        built = []

        class CountingIndexStore(delta_module.ExhaustiveIndexStore):
            def __init__(self, *args, name="hsp", **kwargs):
                built.append(name)
                super().__init__(*args, name=name, **kwargs)

        monkeypatch.setattr(delta_module, "ExhaustiveIndexStore", CountingIndexStore)
        store = build_store()
        store.update(pair_update(1))
        name = f"delta.v{store.delta.version}"

        def pinned(text):
            with store.snapshot() as snap:
                return snap.sparql(text)

        for read in (pinned, store.sparql, pinned):
            assert int(read(PAIR_COUNT_LEFT).rows()[0][0]) == 1
        assert built == [name]


# -- readers beside a writer inside a request --------------------------------------------

ISBNS_OF_BOOK_1 = f"SELECT ?i WHERE {{ <{EX}book/1> <{EX}isbn_no> ?i . }}"
REPLACE_ISBN = (f'INSERT DATA {{ <{EX}book/1> <{EX}isbn_no> "isbn-new" . }} ; '
                f'DELETE DATA {{ <{EX}book/1> <{EX}isbn_no> "isbn-0001" . }}')


def _isbns(reader) -> list:
    return sorted(value for (value,) in reader.decode_rows(reader.sparql(ISBNS_OF_BOOK_1)))


def _pinned_isbns(store) -> list:
    with store.snapshot() as snapshot:
        return _isbns(snapshot)


class TestReadersBesideAGatedWriter:
    """A writer held between the two statements of one request: a reader on
    another thread answers at once, and from the last committed version."""

    @pytest.mark.parametrize("read", [_pinned_isbns, _isbns], ids=["snapshot", "direct"])
    def test_a_read_neither_waits_nor_sees_the_request(self, read, monkeypatch):
        store = build_store()
        inside, gate = threading.Event(), threading.Event()
        delete_data = UpdateApplier._delete_data

        def gated(applier, operation):
            inside.set()
            gate.wait(timeout=30)
            return delete_data(applier, operation)

        monkeypatch.setattr(UpdateApplier, "_delete_data", gated)
        answers: list = []
        writer = threading.Thread(target=store.update, args=(REPLACE_ISBN,))
        reader = threading.Thread(target=lambda: answers.append(read(store)))
        writer.start()
        try:
            assert inside.wait(timeout=30)  # the INSERT DATA statement is applied
            reader.start()
            reader.join(timeout=10)
            waited = reader.is_alive()
        finally:
            gate.set()
            writer.join(timeout=30)
            reader.join(timeout=30)
        assert not writer.is_alive() and not reader.is_alive()
        assert not waited, "the read waited for the writer"
        assert answers == [["isbn-0001"]]  # neither [new, 0001] nor [new]
        assert read(store) == ["isbn-new"]


# -- the writer mutex ---------------------------------------------------------------------


def _run_with_timeout(target, timeout: float = 30) -> None:
    """Run ``target`` on a thread and fail, rather than hang, if it deadlocks."""
    errors: list = []

    def body():
        try:
            target()
        except BaseException as exc:  # surfaced on the test thread below
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "deadlocked on the writer mutex"
    if errors:
        raise errors[0]


class TestWriterMutex:
    """One transition at a time: writers queue on one reentrant mutex, whose
    waits are observed; readers never take it."""

    def test_write_is_reentrant(self):
        """A transition may nest others on its own thread, as ``checkpoint``
        nests ``compact`` and ``save`` (and ``build`` nests index builds)."""
        stores: list = []

        def nested():
            stores.append(build_store())
            with stores[0]._writing():
                stores[0].update(pair_update(1))
                stores[0].compact()

        _run_with_timeout(nested)
        assert _pair_counts(stores[0]) == (1, 1)

    def test_writers_take_turns(self, monkeypatch):
        """A second writer waits until the first request commits, and the
        wait shows in ``lock_wait_seconds{side="write"}``."""
        store = build_store()
        inside, gate = threading.Event(), threading.Event()
        delete_data = UpdateApplier._delete_data

        def gated(applier, operation):
            inside.set()
            gate.wait(timeout=30)
            return delete_data(applier, operation)

        monkeypatch.setattr(UpdateApplier, "_delete_data", gated)
        first = threading.Thread(target=store.update, args=(REPLACE_ISBN,))
        second = threading.Thread(target=store.update, args=(pair_update(1),))
        first.start()
        try:
            assert inside.wait(timeout=30)
            second.start()
            second.join(timeout=0.5)
            queued = second.is_alive()
            pending = _pair_counts(store)
        finally:
            gate.set()
            first.join(timeout=30)
            second.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert queued, "the second writer ran inside the first one's request"
        assert pending == (0, 0)
        assert _pair_counts(store) == (1, 1) and _isbns(store) == ["isbn-new"]
        assert store.metrics_registry.get("lock_wait_seconds").max(side="write") >= 0.1

    def test_reads_pass_a_held_writer_mutex(self):
        """Any transition, not only an update request, leaves reads free."""
        store = build_store()
        store.update(pair_update(1))
        held, done = threading.Event(), threading.Event()

        def hold():
            with store._writing():
                held.set()
                done.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=30)
            _run_with_timeout(lambda: (_pinned_isbns(store), _pair_counts(store)), timeout=10)
            with store.snapshot() as snapshot:
                assert _pair_counts(snapshot) == (1, 1)
        finally:
            done.set()
            holder.join(timeout=30)
        assert not holder.is_alive()


# -- read-side state has one owner -----------------------------------------------------


class TestReadStateHasOneOwner:
    """Served reads cost what direct reads cost because nothing derived from
    the base structures hangs on a per-pin object.  Counted, not timed."""

    @pytest.fixture()
    def stats_calls(self, monkeypatch):
        calls = []
        original = ColumnStats.from_values.__func__

        def counting(cls, values):
            calls.append(len(values))
            return original(cls, values)

        monkeypatch.setattr(ColumnStats, "from_values", classmethod(counting))
        return calls

    def test_served_reads_compute_column_statistics_once(self, stats_calls, tmp_path):
        data = tiny_tpch()
        store = build_rdfh_store(data)
        stream = AdhocStream(data, seed=7)  # six classes a round, every text new
        columns = sum(1 + len(block.property_columns)
                      for block in store.clustered_store.blocks)
        with QueryServer(store, workers=1) as server:

            def serve_rounds(rounds: int) -> int:
                return sum(len((server.submit_sql(op.text) if op.frontend == "sql"
                                else server.submit_query(op.text)).result())
                           for _ in range(rounds) for op in stream.next_round())

            assert serve_rounds(20) > 100
            touched = len(stats_calls)
            assert 0 < touched <= columns, "a column's statistics were computed twice"
            # same base generation: a write changes nothing a column knows
            store.update(f'INSERT DATA {{ {customer_iri(9001).n3()} <{RDFH_VOC}c_name> "new" . }}')
            serve_rounds(2)
            assert len(stats_calls) == touched
        # save() asks the columns too: the first fills in the untouched ones
        store.save(tmp_path / "db")
        assert len(stats_calls) == columns
        store.save(tmp_path / "db")
        assert len(stats_calls) == columns

    def test_fresh_snapshots_share_the_numeric_cache(self, monkeypatch):
        store = build_rdfh_store(tiny_tpch())
        conversions = []
        original = Literal.to_python

        def counting(literal):
            conversions.append(literal)
            return original(literal)

        monkeypatch.setattr(Literal, "to_python", counting)

        def materialized() -> float:
            return store.metrics()["dictionary_values_materialized_total"]

        def aggregate():
            with store.snapshot() as snap:
                return snap.sparql(q6_sparql()).rows()

        cold = materialized()
        first = aggregate()
        warm, converted = materialized(), len(conversions)
        assert warm > cold, "q6 aggregated without touching a value"
        answers = [aggregate() for _ in range(9)]
        assert materialized() == warm and len(conversions) == converted, \
            "a fresh snapshot aggregated through a cold bridge"
        assert first[0][0] > 0 and all(answer == first for answer in answers)


# -- stress: N readers + 1 writer ----------------------------------------------------


def _run_stress(store: RDFStore, writer, readers: int = READERS,
                duration: float = 2.0):
    """Run ``writer`` against ``readers`` reader threads, each alternating
    snapshot-pinned reads and direct ones.

    Returns the list of reader-observed errors (must be empty).
    """
    errors: list = []
    stop = threading.Event()

    def read_loop():
        try:
            while not stop.is_set():
                with store.snapshot() as snap:
                    left = _count(snap, PAIR_COUNT_LEFT)
                    right = _count(snap, PAIR_COUNT_RIGHT)
                    if left != right:
                        errors.append(f"torn read: {left} lefts vs {right} rights")
                    # repeatable read inside one snapshot
                    if _count(snap, PAIR_COUNT_LEFT) != left:
                        errors.append("snapshot result changed between reads")
                left, right = _pair_counts(store)
                if left != right:
                    errors.append(f"torn direct read: {left} lefts vs {right} rights")
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(repr(exc))

    threads = [threading.Thread(target=read_loop, name=f"reader-{i}")
               for i in range(readers)]
    for thread in threads:
        thread.start()
    try:
        writer(stop)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestStress:
    def test_readers_never_observe_torn_updates(self):
        store = build_store()
        applied = []

        def writer(stop):
            for i in range(WRITER_REQUESTS):
                text = pair_update(i)
                store.update(text)
                applied.append(text)
                if i % 20 == 19:
                    store.compact()

        errors = _run_stress(store, writer)
        assert errors == []
        # final-state equivalence with serial replay on a fresh store
        serial = build_store()
        for text in applied:
            serial.update(text)
        with store.snapshot() as got, serial.snapshot() as want:
            assert _count(got, PAIR_COUNT_LEFT) == _count(want, PAIR_COUNT_LEFT) \
                == WRITER_REQUESTS
            assert (sorted(got.decode_rows(got.sparql(AUTHOR_QUERY)))
                    == sorted(want.decode_rows(want.sparql(AUTHOR_QUERY))))

    def test_readers_with_checkpointing_writer(self, tmp_path):
        store = build_store()
        db = tmp_path / "db"

        def writer(stop):
            for i in range(WRITER_REQUESTS // 2):
                store.update(pair_update(i))
                if i % 10 == 9:
                    store.checkpoint(db)

        errors = _run_stress(store, writer)
        assert errors == []
        reopened = RDFStore.open(db)
        with reopened.snapshot() as snap:
            # every request acknowledged before the last checkpoint (plus the
            # WAL tail) is present and un-torn after recovery
            assert _count(snap, PAIR_COUNT_LEFT) == _count(snap, PAIR_COUNT_RIGHT)

    def test_query_server_mixed_workload(self):
        store = build_store()
        with QueryServer(store, workers=READERS) as server:
            futures = []
            for i in range(WRITER_REQUESTS // 2):
                futures.append(server.submit_update(pair_update(i)))
                futures.append(server.submit_query(PAIR_COUNT_LEFT))
                futures.append(server.submit_sql(
                    "SELECT isbn_no FROM Book ORDER BY isbn_no"))
            results = [future.result(timeout=60) for future in futures]
        assert len(results) == 3 * (WRITER_REQUESTS // 2)
        inserted = sum(result.inserted for result in results[::3])
        assert inserted == 2 * (WRITER_REQUESTS // 2)
        with store.snapshot() as snap:
            assert _count(snap, PAIR_COUNT_LEFT) == WRITER_REQUESTS // 2

    def test_server_decodes_under_concurrent_compaction(self):
        """decode=True must decode under the same snapshot the query ran on,
        even while the writer compacts."""
        store = build_store()
        server = QueryServer(store, workers=READERS)
        errors: list = []
        stop = threading.Event()
        query = f"SELECT ?v WHERE {{ ?s <{PAIR_LEFT}> ?v . }}"

        def read_loop():
            try:
                while not stop.is_set():
                    rows = server.submit_query(query, decode=True).result()
                    for (value,) in rows:
                        if not (isinstance(value, str) and value.startswith("L")):
                            errors.append(f"mis-decoded value {value!r}")
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(repr(exc))

        threads = [threading.Thread(target=read_loop) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        try:
            for i in range(30):
                store.update(pair_update(i))
                if i % 5 == 4:
                    store.compact()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            server.shutdown()
        assert errors == []
        assert server.stats()["open_snapshots"] == store.open_snapshot_count() == 0


class TestHeldSnapshots:
    def test_a_held_snapshot_is_a_repeatable_read(self):
        store = build_store()
        with store.snapshot() as snap:
            first = snap.decode_rows(snap.sparql(AUTHOR_QUERY))
            store.update(pair_update(1))
            assert snap.decode_rows(snap.sparql(AUTHOR_QUERY)) == first
            # the store reads the write; the held snapshot does not
            assert _count(store, PAIR_COUNT_LEFT) == _count(snap, PAIR_COUNT_LEFT) + 1
        assert store.open_snapshot_count() == 0
