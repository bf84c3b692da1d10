"""Figure 6 (this repo's extension): the write path.

Measures the three costs the update subsystem introduces on a DBLP-like
store:

* **insert throughput** — ``INSERT DATA`` batches into the delta store
  (triples/second, no rebuild);
* **post-update query latency** — star-query latency while the MergeScan
  layer folds ``base ∪ delta − tombstones`` into every access path,
  compared against the pre-update latency;
* **first read after an update** — every update moves the store version
  every plan-cache key starts with and may append literals, so the next
  read re-plans and re-resolves its range predicates; it must cost what
  the same uncached read costs on a clean store (pending/clean ratio);
* **pending-size sweep** — steady-state latency of the star and a range
  query with 0/50/500/2000 pending triples, as pending/clean ratios: reads
  over a delta should stay near clean-read cost;
* **compaction cost** — one ``compact()`` call folding the whole delta into
  the clustered base (the explicit heavy step), and the query latency
  recovered afterwards.

Run in smoke mode (tiny sizes, one round) with ``REPRO_BENCH_SMOKE=1`` —
CI does this on every push.  Results land in ``benchmarks/results/``.
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

PAPERS = 80 if SMOKE else 800
INSERT_BATCHES = 3 if SMOKE else 20
BATCH_SUBJECTS = 5 if SMOKE else 25
ROUNDS = 1 if SMOKE else 5

PENDING_SWEEP = (0, 50, 500, 2000)  # pending triples; batches carry 4 per subject
FIRST_READS = 5 if SMOKE else 25

STAR_QUERY = (
    f"SELECT ?p ?t ?c WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?c . "
    f"?p <{P_CREATOR}> ?a . }}"
)
RANGE_QUERY = (
    f"SELECT ?p ?t WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?c . "
    f"FILTER(?t >= \"Paper title 4\") }}"
)


def _build_store() -> RDFStore:
    config = StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))
    triples = generate_dblp(DblpConfig(papers=PAPERS, conferences=8, authors=PAPERS // 4))
    return RDFStore.build(triples, config=config)


def _insert_batch(batch: int, subjects: int = BATCH_SUBJECTS) -> str:
    lines = []
    for i in range(subjects):
        paper = f"{DBLP}inproc/new{batch}_{i}"
        lines.append(
            f"<{paper}> a <{CLASS_INPROCEEDINGS}> ; "
            f"<{P_CREATOR}> <{DBLP}author/{i % 5}> ; "
            f"<{P_TITLE}> \"New paper {batch}-{i}\" ; "
            f"<{P_PART_OF}> <{DBLP}conf/{batch % 8}> . "
        )
    return "INSERT DATA { " + "\n".join(lines) + " }"


def _time_query(store: RDFStore, rounds: int = ROUNDS) -> float:
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = store.sparql(STAR_QUERY)
        best = min(best, time.perf_counter() - started)
    assert result is not None and len(result) > 0
    return best


def _timed_runs(store: RDFStore, text: str, rounds: int, uncached: bool = False) -> list:
    """Wall times of ``rounds`` runs, for ``bench_report.record_timings``."""
    runs = []
    for _ in range(rounds):
        if uncached:
            store.plan_cache.clear()
        started = time.perf_counter()
        result = store.sparql(text)
        runs.append(time.perf_counter() - started)
    assert len(result) > 0
    return runs


@pytest.fixture(scope="module")
def report_lines():
    lines = ["Figure 6 — write path: insert throughput, merged-scan latency, compaction", ""]
    yield lines


def test_insert_throughput(report_lines, bench_report):
    store = _build_store()
    baseline = _time_query(store)
    total_triples = 0
    started = time.perf_counter()
    for batch in range(INSERT_BATCHES):
        result = store.update(_insert_batch(batch))
        total_triples += result.inserted
    elapsed = time.perf_counter() - started
    assert total_triples == INSERT_BATCHES * BATCH_SUBJECTS * 4
    assert store.has_pending_updates()
    throughput = total_triples / elapsed if elapsed else float("inf")
    bench_report.record("insert_throughput_triples_per_second", throughput,
                        unit="triples/s", direction="higher_is_better",
                        extra={"triples": total_triples})
    report_lines.append(
        f"insert throughput: {total_triples} triples in {elapsed * 1e3:.1f} ms "
        f"({throughput:,.0f} triples/s), baseline query {baseline * 1e3:.2f} ms")
    # writes must never trigger an implicit rebuild
    assert store.triple_count() < store.live_triple_count()


def test_post_update_query_latency(report_lines, bench_report):
    store = _build_store()
    before = _time_query(store)
    rows_before = len(store.sparql(STAR_QUERY))
    for batch in range(INSERT_BATCHES):
        store.update(_insert_batch(batch))
    after = _time_query(store)
    rows_after = len(store.sparql(STAR_QUERY))
    assert rows_after > rows_before  # merged scans see the delta
    bench_report.record("star_query_clean_seconds", before, kind="best",
                        runs=ROUNDS)
    bench_report.record("star_query_merged_seconds", after, kind="best",
                        runs=ROUNDS,
                        extra={"pending_inserts": store.delta.insert_count()})
    report_lines.append(
        f"query latency: {before * 1e3:.2f} ms clean -> {after * 1e3:.2f} ms "
        f"with {store.delta.insert_count()} pending inserts "
        f"({rows_after - rows_before} extra rows)")


def test_first_read_after_update(report_lines, bench_report):
    """The read that follows an update pays no more than an uncached clean read.

    Each of ``FIRST_READS`` single-subject inserts (new literals included)
    is followed by one timed range query — always a plan-cache miss, always
    over a dictionary that just grew.  The clean figure is the same query
    with the plan cache cleared before each run.
    """
    store = _build_store()
    clean = bench_report.record_timings(
        "first_read_clean_seconds",
        _timed_runs(store, RANGE_QUERY, max(ROUNDS, 3), uncached=True))
    runs = []
    for batch in range(FIRST_READS):
        store.update(_insert_batch(1000 + batch, subjects=1))
        runs += _timed_runs(store, RANGE_QUERY, 1)
    first_read = bench_report.record_timings(
        "first_read_after_update_seconds", runs,
        extra={"pending_inserts": store.delta.insert_count()})
    ratio = first_read / max(clean, 1e-9)
    bench_report.record("first_read_after_update_ratio", ratio, unit="ratio",
                        extra={"base": "first_read_clean_seconds"})
    report_lines.append(
        f"first read after an update: {first_read * 1e3:.2f} ms vs "
        f"{clean * 1e3:.2f} ms uncached on the clean store ({ratio:.2f}x, "
        f"median of {FIRST_READS})")


def test_pending_size_sweep(report_lines, bench_report):
    """Steady-state read latency as the pending delta grows.

    One store takes inserts up to each size of ``PENDING_SWEEP`` in turn;
    at each size the star and the range query run hot (plan cached) and
    their median is reported as a ratio over the size-0 (clean) median.
    """
    store = _build_store()
    rounds = max(ROUNDS, 3)
    clean = {}
    batch = 0
    for pending in PENDING_SWEEP:
        while store.delta.insert_count() < pending:
            missing = pending - store.delta.insert_count()
            store.update(_insert_batch(2000 + batch,
                                       subjects=min(BATCH_SUBJECTS, -(-missing // 4))))
            batch += 1
        for name, text in (("star", STAR_QUERY), ("range", RANGE_QUERY)):
            store.sparql(text)  # plan + warm
            seconds = bench_report.record_timings(
                f"{name}_query_pending_{pending}_seconds", _timed_runs(store, text, rounds),
                extra={"pending_inserts": store.delta.insert_count()})
            clean.setdefault(name, seconds)
            ratio = seconds / max(clean[name], 1e-9)
            bench_report.record(f"{name}_query_pending_{pending}_ratio", ratio,
                                unit="ratio",
                                extra={"base": f"{name}_query_pending_0_seconds"})
            report_lines.append(
                f"{name} query with {store.delta.insert_count()} pending triples: "
                f"{seconds * 1e3:.2f} ms ({ratio:.2f}x clean)")


def test_batched_vs_row_merged_scan(report_lines, bench_report):
    """The batch executor must also win on the MergeScan (delta) path.

    With pending deltas in play every scan folds ``base ∪ delta −
    tombstones``; the paper-star FK-hop query (probe work per batch, over
    the merged access path) runs hot at ``batch_size=1024`` vs ``1``
    (median of 3).  Full mode demands the 5x batched win on this
    scan-heavy plan too; smoke mode only forbids a regression.
    """
    import statistics

    fk_hop_query = (
        f"SELECT ?p ?t ?cn WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?c . "
        f"?p <{P_CREATOR}> ?a . ?c <{P_TITLE}> ?cn . }}"
    )
    store = _build_store()
    for batch in range(INSERT_BATCHES):
        store.update(_insert_batch(batch))
    store.update(f"DELETE WHERE {{ <{DBLP}inproc/0> ?p ?o . }}")
    assert store.has_pending_updates()
    saved = store.config.batch_size

    def median_seconds(size):
        store.config.batch_size = size
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            result = store.sparql(fk_hop_query)
            runs.append(time.perf_counter() - started)
        return statistics.median(runs), sorted(result.rows())

    try:
        batched, batched_rows = median_seconds(1024)
        row_mode, row_rows = median_seconds(1)
    finally:
        store.config.batch_size = saved
    assert batched_rows == row_rows
    speedup = row_mode / max(batched, 1e-9)
    bench_report.record("merged_scan_batched_seconds", batched, kind="median",
                        runs=3, extra={"batch_size": 1024})
    bench_report.record("merged_scan_row_mode_seconds", row_mode, kind="median",
                        runs=3, extra={"batch_size": 1})
    bench_report.record("merged_scan_batch_speedup", speedup, unit="ratio",
                        direction="higher_is_better")
    report_lines.append(
        f"merged scan batched vs row-at-a-time: {batched * 1e3:.2f} ms vs "
        f"{row_mode * 1e3:.2f} ms ({speedup:.1f}x, median of 3, "
        f"{store.delta.insert_count()} pending inserts)")
    assert speedup >= (1.0 if SMOKE else 5.0), \
        f"batched merged scan only {speedup:.2f}x vs row-at-a-time"


def test_compaction_cost_and_recovery(report_lines, bench_report):
    store = _build_store()
    for batch in range(INSERT_BATCHES):
        store.update(_insert_batch(batch))
    store.update(f"DELETE WHERE {{ <{DBLP}inproc/0> ?p ?o . }}")
    pending = store.delta.insert_count() + store.delta.tombstone_count()
    merged_latency = _time_query(store)
    started = time.perf_counter()
    report = store.compact()
    compaction_seconds = time.perf_counter() - started
    assert not store.has_pending_updates()
    assert report.merged_inserts == INSERT_BATCHES * BATCH_SUBJECTS * 4
    compacted_latency = _time_query(store)
    report_lines.append(
        f"compaction: {pending} pending writes folded in {compaction_seconds * 1e3:.1f} ms "
        f"({report.subjects_assigned} subjects joined a CS, "
        f"{report.subjects_leftover} leftover); query {merged_latency * 1e3:.2f} ms "
        f"merged -> {compacted_latency * 1e3:.2f} ms compacted")
    bench_report.record("compaction_seconds", compaction_seconds,
                        extra={"pending_writes": pending})
    bench_report.record("star_query_compacted_seconds", compacted_latency,
                        kind="best", runs=ROUNDS)
    bench_report.write_text("fig6_updates.txt", "\n".join(report_lines) + "\n")
