"""Figure 7 (this repo's extension): the persistence layer.

Measures what durability buys and what it costs on a DBLP-like store:

* **cold open vs full rebuild** — ``RDFStore.open()`` on a saved database
  against re-parsing + re-discovering + re-clustering the same triples
  (the whole point of snapshots: reopen in milliseconds, not rebuild);
* **checkpoint cost** — ``save()`` of a clean store, plus a full
  ``checkpoint()`` (compact + snapshot + WAL truncate) after a batch of
  updates;
* **lazy vs eager first-query latency** — the first star query on a lazily
  opened store (columns materialize on first scan, a projection is sorted
  from ``matrix.bin`` when first read) against the same query after
  everything was forced resident, with the buffer pool's materialization
  counters reported;
* **WAL replay** — reopen latency with a tail of logged updates pending.

Run in smoke mode (tiny sizes) with ``REPRO_BENCH_SMOKE=1`` — CI does this
on every push.  Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import RDFStore, StoreConfig
from repro.bench import DblpConfig, generate_dblp
from repro.bench.dblp import CLASS_INPROCEEDINGS, DBLP, P_CREATOR, P_PART_OF, P_TITLE
from repro.cs import DiscoveryConfig, GeneralizationConfig

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

PAPERS = 80 if SMOKE else 1200
UPDATE_BATCHES = 3 if SMOKE else 15
BATCH_SUBJECTS = 5 if SMOKE else 25

STAR_QUERY = (
    f"SELECT ?p ?t ?c WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?c . "
    f"?p <{P_CREATOR}> ?a . }}"
)


def _triples():
    return generate_dblp(DblpConfig(papers=PAPERS, conferences=8, authors=PAPERS // 4))


def _config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


def _build_store() -> RDFStore:
    return RDFStore.build(_triples(), config=_config())


def _insert_batch(batch: int) -> str:
    lines = []
    for i in range(BATCH_SUBJECTS):
        paper = f"{DBLP}inproc/new{batch}_{i}"
        lines.append(
            f"<{paper}> a <{CLASS_INPROCEEDINGS}> ; "
            f"<{P_CREATOR}> <{DBLP}author/{i % 5}> ; "
            f"<{P_TITLE}> \"New paper {batch}-{i}\" ; "
            f"<{P_PART_OF}> <{DBLP}conf/{batch % 8}> . "
        )
    return "INSERT DATA { " + "\n".join(lines) + " }"


@pytest.fixture(scope="module")
def report_lines():
    lines = ["Figure 7 — persistence: cold open, checkpoint cost, lazy loading, WAL replay", ""]
    yield lines


@pytest.fixture(scope="module")
def saved_db(tmp_path_factory):
    """One saved database shared by the read-side measurements."""
    path = tmp_path_factory.mktemp("fig7") / "db"
    store = _build_store()
    store.save(path)
    return path, store


def test_cold_open_vs_full_rebuild(saved_db, report_lines, bench_report):
    path, store = saved_db
    started = time.perf_counter()
    rebuilt = RDFStore.build(_triples(), config=_config())
    rebuild_seconds = time.perf_counter() - started

    started = time.perf_counter()
    reopened = RDFStore.open(path)
    open_seconds = time.perf_counter() - started

    assert reopened.triple_count() == rebuilt.triple_count() == store.triple_count()
    speedup = rebuild_seconds / open_seconds if open_seconds else float("inf")
    bench_report.record("cold_open_seconds", open_seconds,
                        extra={"triples": store.triple_count()})
    bench_report.record("full_rebuild_seconds", rebuild_seconds)
    report_lines.append(
        f"cold open: {open_seconds * 1e3:.1f} ms vs full rebuild "
        f"{rebuild_seconds * 1e3:.1f} ms ({speedup:.0f}x) over "
        f"{store.triple_count()} triples")
    assert speedup > 1.0  # opening must beat re-discovering + re-clustering


def test_checkpoint_cost(report_lines, bench_report, tmp_path_factory):
    path = tmp_path_factory.mktemp("fig7ckpt") / "db"
    store = _build_store()
    started = time.perf_counter()
    info = store.save(path)
    save_seconds = time.perf_counter() - started

    for batch in range(UPDATE_BATCHES):
        store.update(_insert_batch(batch))
    pending = store.delta.insert_count()
    started = time.perf_counter()
    report = store.checkpoint()
    checkpoint_seconds = time.perf_counter() - started
    assert not store.has_pending_updates()
    # nothing that is a sort of the matrix is stored: a generation directory
    # holds the matrix and the clustered columns, no projection file
    stored = sorted(entry.name for entry in path.glob("gen-*/columns/*"))
    assert stored and not [name for name in stored if name.startswith("hsp.")], stored
    bench_report.record("save_seconds", save_seconds,
                        extra={"files": info.files,
                               "data_bytes": info.data_bytes})
    bench_report.record("checkpoint_seconds", checkpoint_seconds,
                        extra={"pending_inserts": pending})
    report_lines.append(
        f"snapshot: {info.files} files, {info.data_bytes / 1024:.0f} KiB in "
        f"{save_seconds * 1e3:.1f} ms; checkpoint with {pending} pending inserts "
        f"(compact + snapshot + truncate): {checkpoint_seconds * 1e3:.1f} ms "
        f"(+{report.compaction.merged_inserts} triples merged)")


def test_lazy_vs_eager_first_query(saved_db, report_lines, bench_report):
    path, _store = saved_db
    lazy = RDFStore.open(path)
    started = time.perf_counter()
    lazy_rows = len(lazy.sparql(STAR_QUERY))
    lazy_first = time.perf_counter() - started
    stats = lazy.buffer_pool_stats()

    eager = RDFStore.open(path)
    eager.warm()
    for table in eager.index_store.tables.values():
        table.raw()  # force every projection: six sorts of matrix.bin
    for block in eager.clustered_store.blocks:
        block.subject_column.data
        for column in block.property_columns.values():
            column.data
    started = time.perf_counter()
    eager_rows = len(eager.sparql(STAR_QUERY))
    eager_first = time.perf_counter() - started

    assert lazy_rows == eager_rows > 0
    bench_report.record("first_query_lazy_seconds", lazy_first,
                        extra={"segments_materialized":
                               stats["lazy_segments_materialized"],
                               "segments_registered":
                               stats["lazy_segments_registered"]})
    bench_report.record("first_query_eager_seconds", eager_first)
    report_lines.append(
        f"first query: lazy {lazy_first * 1e3:.2f} ms "
        f"(materialized {stats['lazy_segments_materialized']}/"
        f"{stats['lazy_segments_registered']} segments, "
        f"{stats['lazy_values_loaded']} values) vs eager {eager_first * 1e3:.2f} ms")
    # laziness means the first query must not have touched every segment
    assert stats["lazy_segments_materialized"] < stats["lazy_segments_registered"]


def test_wal_replay_cost(saved_db, report_lines, bench_report):
    path, store = saved_db
    for batch in range(UPDATE_BATCHES):
        store.update(_insert_batch(batch))
    started = time.perf_counter()
    reopened = RDFStore.open(path)
    replay_seconds = time.perf_counter() - started
    assert reopened.has_pending_updates()
    assert reopened.delta.insert_count() == store.delta.insert_count()
    report_lines.append(
        f"WAL replay: {UPDATE_BATCHES} logged requests "
        f"({reopened.delta.insert_count()} pending inserts) replayed at open in "
        f"{replay_seconds * 1e3:.1f} ms")
    bench_report.record("wal_replay_open_seconds", replay_seconds,
                        extra={"logged_requests": UPDATE_BATCHES,
                               "pending_inserts":
                               reopened.delta.insert_count()})
    # leave the shared database clean for reruns, and persist the report
    store.checkpoint()
    bench_report.write_text("fig7_persistence.txt",
                            "\n".join(report_lines) + "\n")
