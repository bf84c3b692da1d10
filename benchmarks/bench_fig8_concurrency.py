"""Figure 8 (this repo's extension): the concurrency subsystem.

Three measurements:

* **update-burst latency** — per-request cost across a burst of ``BURST``
  single-subject ``INSERT DATA`` requests with *no* intervening compaction.
  The per-request undo log makes each request O(touched keys); the old
  full-delta-copy atomicity scheme was O(pending), i.e. O(N²) for the burst.
  The benchmark asserts the curve is flat: the last chunk of the burst may
  cost at most twice the first chunk.
* **reader throughput vs writer load** — N snapshot-pinning reader threads
  hammering a star query for a fixed window, once against an idle store and
  once while a writer thread applies updates and compactions.  Readers never
  wait on the writer: the writer publishes a committed version record at
  the end of each transition, and a pin takes only the snapshot registry's
  mutex to count on the published one.  So throughput should degrade
  gracefully, not collapse.  Measured with all readers sending one text
  (one cached plan, executed re-entrantly), with one text per reader, and
  for the one-text case also with 1 and 2 readers.  On CPython the readers
  share one GIL, so more threads do not mean more queries per second; the
  sweep records how much the hand-offs cost.
* **served over direct** — what a per-request snapshot costs on top of a
  direct ``store.sparql`` / ``store.sql``: the repo benchmark's ad-hoc texts
  (every text new) and one cached aggregate, request by request, on its
  RDF-H store.  Both read through one per-version record, so the blocking
  check is a count — column statistics are computed once per column across
  the whole window, whichever path asks — and the two ratios are advisory.

Run in smoke mode (small store, short windows) with ``REPRO_BENCH_SMOKE=1``
— CI does this on every push.  Results land in ``benchmarks/results/``.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import PlannerOptions, RDFStore, StoreConfig, StoreService
from repro.bench import (
    DblpConfig,
    TpchConfig,
    generate_dblp,
    generate_tpch,
    sub_order_keys,
    tpch_to_triples,
)
from repro.bench.dblp import CLASS_INPROCEEDINGS, DBLP, P_CREATOR, P_PART_OF, P_TITLE
from repro.columnar import ColumnStats
from repro.cs import DiscoveryConfig, GeneralizationConfig

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from inputs import DEFAULT_SEED, AdhocStream, repeat_ops  # noqa: E402 - the repo benchmark's texts

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

PAPERS = 80 if SMOKE else 400
BURST = 1000
CHUNK = 100
READERS = 4 if SMOKE else 8
WINDOW_SECONDS = 0.6 if SMOKE else 2.0
RDFH_SF = 0.0004 if SMOKE else 0.002
ADHOC_ROUNDS = 10 if SMOKE else 60
AGGREGATE_RUNS = 10 if SMOKE else 40

STAR_QUERY = (
    f"SELECT ?p ?t ?c WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_PART_OF}> ?c . "
    f"?p <{P_CREATOR}> ?a . }}"
)


def _build_store() -> RDFStore:
    config = StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))
    triples = generate_dblp(DblpConfig(papers=PAPERS, conferences=8,
                                       authors=max(PAPERS // 4, 8)))
    return RDFStore.build(triples, config=config)


def _burst_update(i: int) -> str:
    paper = f"{DBLP}inproc/burst{i}"
    return (f"INSERT DATA {{ <{paper}> a <{CLASS_INPROCEEDINGS}> ; "
            f"<{P_CREATOR}> <{DBLP}author/{i % 5}> ; "
            f"<{P_TITLE}> \"Burst paper {i}\" ; "
            f"<{P_PART_OF}> <{DBLP}conf/{i % 8}> . }}")


@pytest.fixture(scope="module")
def report_lines():
    lines = ["Figure 8 — concurrency: O(1) update bursts, reader throughput under writes", ""]
    yield lines


def test_update_burst_latency_is_flat(report_lines, bench_report):
    """Per-update cost must stay flat (within 2x) from 1 to BURST pending."""
    store = _build_store()
    store.update(_burst_update(999_999))  # warm the parse/apply path once
    chunk_seconds = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for chunk_start in range(0, BURST, CHUNK):
            started = time.perf_counter()
            for i in range(chunk_start, chunk_start + CHUNK):
                store.update(_burst_update(i))
            chunk_seconds.append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    assert store.delta.insert_count() >= BURST * 4
    # medians over three chunks at each end damp one-off scheduler/CPU-steal
    # spikes on shared CI runners; a genuinely superlinear write path (the
    # old full-delta-copy scheme was ~10x by the last chunk) still trips it
    first = sorted(chunk_seconds[:3])[1]
    last = sorted(chunk_seconds[-3:])[1]
    per_update_first = first / CHUNK * 1e6
    per_update_last = last / CHUNK * 1e6
    bench_report.record("update_burst_first_chunk_seconds_per_update",
                        first / CHUNK, runs=CHUNK)
    bench_report.record("update_burst_last_chunk_seconds_per_update",
                        last / CHUNK, runs=CHUNK,
                        extra={"burst": BURST, "growth": round(last / first, 3)})
    report_lines.append(
        f"update burst: {BURST} requests, per-update "
        f"{per_update_first:.0f} µs (median of first 3 chunks) -> "
        f"{per_update_last:.0f} µs (median of last 3) (x{last / first:.2f})")
    curve = ", ".join(f"{int(seconds / CHUNK * 1e6)}" for seconds in chunk_seconds)
    report_lines.append(f"per-update µs per {CHUNK}-request chunk: [{curve}]")
    assert last <= 2.0 * first, (
        f"per-update cost grew from {per_update_first:.0f} µs to "
        f"{per_update_last:.0f} µs across the burst — the write path is "
        f"superlinear in pending-delta size again")


def _star_query(slot: int) -> str:
    """The star query under reader ``slot``'s own variable names: the same
    plan shape and answer, but a text (and so a cached plan) of its own."""
    return (STAR_QUERY.replace("?p", f"?p{slot}").replace("?t", f"?t{slot}")
            .replace("?c", f"?c{slot}").replace("?a", f"?a{slot}"))


def _reader_window(store: RDFStore, seconds: float, errors: list,
                   texts: list) -> int:
    """Run one snapshot-pinning reader thread per text; return queries completed."""
    counts = [0] * len(texts)
    stop = threading.Event()

    def read_loop(slot: int) -> None:
        try:
            while not stop.is_set():
                with store.snapshot() as snap:
                    result = snap.sparql(texts[slot])
                    if len(result) == 0:
                        errors.append("star query returned no rows")
                counts[slot] += 1
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(repr(exc))

    threads = [threading.Thread(target=read_loop, args=(slot,))
               for slot in range(len(texts))]
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    return sum(counts)


def _idle_then_loaded(texts: list) -> tuple:
    """Reader q/s over a fresh store: idle, then beside a writer thread that
    applies updates and compactions; also the updates it got through."""
    store = _build_store()
    errors: list = []
    idle_reads = _reader_window(store, WINDOW_SECONDS, errors, texts)
    assert errors == []

    writer_stop = threading.Event()
    updates_applied = [0]

    def write_loop() -> None:
        i = 0
        while not writer_stop.is_set():
            store.update(_burst_update(10_000 + i))
            updates_applied[0] += 1
            if i % 50 == 49:
                store.compact()
            i += 1

    writer = threading.Thread(target=write_loop)
    writer.start()
    try:
        loaded_reads = _reader_window(store, WINDOW_SECONDS, errors, texts)
    finally:
        writer_stop.set()
        writer.join(timeout=60)
    assert errors == []
    assert idle_reads > 0 and loaded_reads > 0
    assert updates_applied[0] > 0, "the writer never got a turn"
    return idle_reads / WINDOW_SECONDS, loaded_reads / WINDOW_SECONDS, updates_applied[0]


def test_reader_throughput_vs_writer_load(report_lines, bench_report):
    """All readers send one text (one cached plan, run re-entrantly), then
    one text per reader, then the one-text case again with 1 and 2 readers."""
    idle, loaded, updates = _idle_then_loaded([STAR_QUERY] * READERS)
    bench_report.record("reader_throughput_idle_qps", idle, unit="queries/s",
                        direction="higher_is_better",
                        extra={"readers": READERS})
    bench_report.record("reader_throughput_under_writes_qps", loaded,
                        unit="queries/s", direction="higher_is_better",
                        extra={"readers": READERS, "updates_applied": updates})
    report_lines.append(
        f"reader throughput ({READERS} threads, one text, {WINDOW_SECONDS:.1f}s windows): "
        f"{idle:,.0f} q/s idle -> {loaded:,.0f} q/s with a writer applying "
        f"{updates} updates (+compactions) concurrently (x{loaded / idle:.2f})")

    idle, loaded, updates = _idle_then_loaded(
        [_star_query(slot) for slot in range(READERS)])
    bench_report.record("reader_throughput_idle_distinct_texts_qps", idle,
                        unit="queries/s", direction="higher_is_better",
                        extra={"readers": READERS})
    bench_report.record("reader_throughput_under_writes_distinct_texts_qps", loaded,
                        unit="queries/s", direction="higher_is_better",
                        extra={"readers": READERS, "updates_applied": updates})
    report_lines.append(
        f"reader throughput ({READERS} threads, one text each): "
        f"{idle:,.0f} q/s idle -> {loaded:,.0f} q/s under the writer "
        f"(x{loaded / idle:.2f})")

    for readers in (1, 2):
        idle, loaded, updates = _idle_then_loaded([STAR_QUERY] * readers)
        bench_report.record(f"reader_throughput_idle_{readers}_readers_qps", idle,
                            unit="queries/s", direction="higher_is_better",
                            extra={"readers": readers})
        bench_report.record(f"reader_throughput_under_writes_{readers}_readers_qps",
                            loaded, unit="queries/s", direction="higher_is_better",
                            extra={"readers": readers, "updates_applied": updates})
        report_lines.append(
            f"reader throughput ({readers} thread{'s' if readers > 1 else ''}, one text): "
            f"{idle:,.0f} q/s idle -> {loaded:,.0f} q/s under the writer "
            f"(x{loaded / idle:.2f})")


def _read(store: RDFStore, service: StoreService, op, served: bool) -> float:
    """Seconds for one request, text in to decoded rows out: through a
    per-request snapshot (what the service does) or directly."""
    options = PlannerOptions(scheme=op.scheme) if op.scheme else None
    started = time.perf_counter()
    if served:
        rows = (service.sql(op.text, decode=True) if op.frontend == "sql"
                else service.query(op.text, options, decode=True))
    else:
        rows = store.decode_rows(store.sql(op.text) if op.frontend == "sql"
                                 else store.sparql(op.text, options))
    elapsed = time.perf_counter() - started
    assert isinstance(rows, list)
    return elapsed


def test_served_reads_cost_what_direct_reads_cost(report_lines, bench_report, monkeypatch):
    """Per-request snapshots against direct reads, on the repo benchmark's
    store and texts.  Blocking: statistics are computed once per column
    over the whole window.  Advisory: the two latency ratios."""
    computed = []
    original = ColumnStats.from_values.__func__
    monkeypatch.setattr(ColumnStats, "from_values", classmethod(
        lambda cls, values: computed.append(1) or original(cls, values)))
    data = generate_tpch(TpchConfig(scale_factor=RDFH_SF, seed=DEFAULT_SEED))
    store = RDFStore.build(list(tpch_to_triples(data)), sort_key_names=sub_order_keys())
    service = StoreService(store)
    columns = sum(1 + len(block.property_columns) for block in store.clustered_store.blocks)

    stream = AdhocStream(data, DEFAULT_SEED + 3)
    seconds = {True: [], False: []}
    for round_number in range(2 * ADHOC_ROUNDS):
        served = round_number % 2 == 1  # every text new, sides alternate by round
        seconds[served].extend(_read(store, service, op, served) for op in stream.next_round())
    adhoc = statistics.median(seconds[True]) / statistics.median(seconds[False])

    aggregate = next(op for op in repeat_ops() if op.cls == "q1")
    _read(store, service, aggregate, served=False)  # plan cached, numeric cache warm
    runs = {True: [], False: []}
    for _ in range(AGGREGATE_RUNS):
        for served in (False, True):
            runs[served].append(_read(store, service, aggregate, served))
    cached = statistics.median(runs[True]) / statistics.median(runs[False])

    assert 0 < len(computed) <= columns, (
        f"{len(computed)} statistics passes over {columns} columns: a per-pin "
        f"object is recomputing what the column owns")
    bench_report.record("served_adhoc_over_direct_ratio", adhoc, unit="ratio",
                        direction="lower_is_better",
                        extra={"requests_per_side": len(seconds[True]),
                               "direct_p50_ms": round(statistics.median(seconds[False]) * 1e3, 3),
                               "statistics_passes": len(computed), "columns": columns})
    bench_report.record("served_aggregate_over_direct_ratio", cached, unit="ratio",
                        direction="lower_is_better",
                        extra={"runs_per_side": AGGREGATE_RUNS, "query": aggregate.cls,
                               "direct_p50_ms": round(statistics.median(runs[False]) * 1e3, 3)})
    report_lines.append(
        f"served / direct p50 (per-request snapshot vs store.sparql/sql, RDF-H SF {RDFH_SF}): "
        f"ad-hoc mix x{adhoc:.2f} over {len(seconds[True])} new texts per side, "
        f"cached {aggregate.cls} x{cached:.2f}; {len(computed)} statistics passes "
        f"over {columns} columns")
    bench_report.write_text("fig8_concurrency.txt",
                            "\n".join(report_lines) + "\n")
