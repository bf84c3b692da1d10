#!/usr/bin/env python3
"""metrics_smoke — end-to-end check of the observability layer.

Builds a small store, starts a :class:`~repro.server.QueryServer` with its
HTTP metrics endpoint, drives a mixed SPARQL / SQL / update workload through
the server, then scrapes ``GET /metrics`` over real HTTP and verifies:

  1. every sample line parses as Prometheus text format 0.0.4,
  2. the core metric families are present (query latency histogram,
     plan cache, buffer pool, WAL, lock wait, snapshot pins,
     active-query registry, the process gauges that let a scrape stand
     alone),
  3. the counters the workload must have bumped are nonzero, and
  4. the one plan cache counts served reads monotonically across a write:
     after an ``INSERT DATA`` the first send of a text misses, the second
     hits, and neither total ever decreases, and
  5. plans are keyed by query shape: ``ADHOC`` with a different ISBN
     constant binds into the cached template (a hit), and so does an ISBN
     that is absent until a write inserts it, which then returns its row,
  6. the dictionary's literal tail outlives a checkpoint (compaction moves
     no OID) and is folded into value order by ``cluster()``.

It then exercises the live query-management surface end to end: serves one
query, starts a query whose star scan waits on a gate, finds it in
``GET /queries``, cancels it with ``GET /queries/cancel?id=``, opens the
gate and asserts the query unwound with ``QueryCancelledError``; then
serves one malformed text.  It checks that the cancel shows up in the
structured event log, and that the success, the ``ParseError`` and the
cancel each moved their one counter in ``/metrics`` (``/stats`` latency
counts equal to ``repro_queries_total``).  The gate, not the data, makes
the query slow, so the cancel lands however warm the store is.

Exit status 0 when all checks pass; any failure raises (nonzero exit).
CI runs this after the unit suite as a cheap wire-format regression gate.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import threading
import urllib.request
from contextlib import contextmanager
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    ParseError,
    QueryCancelledError,
    QueryServer,
    RDFStore,
    StoreConfig,
)
from repro.cs import DiscoveryConfig, GeneralizationConfig  # noqa: E402
from repro.engine import RDFScanOp  # noqa: E402

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
EX = "http://example.org/"


def book_nt(books: int = 30, authors: int = 5) -> str:
    """A deterministic bibliographic graph (emerges Book and Person tables)."""
    lines = []
    for i in range(authors):
        author = f"<{EX}author/{i}>"
        lines.append(f"{author} <{RDF_TYPE}> <{EX}Person> .")
        lines.append(f'{author} <{EX}name> "Author {i}" .')
    for i in range(books):
        book = f"<{EX}book/{i}>"
        lines.append(f"{book} <{RDF_TYPE}> <{EX}Book> .")
        lines.append(f"{book} <{EX}has_author> <{EX}author/{i % authors}> .")
        lines.append(f'{book} <{EX}in_year> "{1990 + i % 15}"^^<{XSD_INT}> .')
        lines.append(f'{book} <{EX}isbn_no> "isbn-{i:04d}" .')
    return "\n".join(lines) + "\n"


SPARQL = f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . }}"
ADHOC = f'SELECT ?b WHERE {{ ?b <{EX}isbn_no> "isbn-0007" . ?b <{EX}in_year> ?y . }}'
SECOND_UPDATE = f'INSERT DATA {{ <{EX}book/901> <{EX}isbn_no> "isbn-0901" . }}'
UPDATE = (f"INSERT DATA {{ <{EX}book/900> <{RDF_TYPE}> <{EX}Book> . "
          f"<{EX}book/900> <{EX}has_author> <{EX}author/0> . "
          f'<{EX}book/900> <{EX}in_year> "2013"^^<{XSD_INT}> . '
          f'<{EX}book/900> <{EX}isbn_no> "isbn-0900" . }}')

# one sample line: name, optional {labels}, value — format 0.0.4
SAMPLE_RE = re.compile(
    r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[A-Za-z0-9_]+=\"(?:[^\"\\]|\\.)*\""
    r"(,[A-Za-z0-9_]+=\"(?:[^\"\\]|\\.)*\")*\})? "
    r"(?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|-Inf|NaN)$")

MUST_BE_PRESENT = [
    "repro_query_seconds_bucket",
    "repro_queries_total",
    "repro_plan_cache_hits_total",
    "repro_plan_cache_misses_total",
    "repro_buffer_pool_page_hits_total",
    "repro_wal_appends_total",
    "repro_open_snapshots",
    "repro_pinned_delta_versions",
    "repro_server_requests_total",
    "repro_active_queries",
    "repro_queries_cancelled_total",
    "repro_event_log_entries",
    "repro_dictionary_tail_terms",
    "repro_process_resident_memory_bytes",
    "repro_process_uptime_seconds",
]

MUST_BE_NONZERO = {
    'repro_queries_total{frontend="sparql"': 2.0,
    'repro_queries_total{frontend="sql"': 1.0,
    'repro_server_requests_total{kind="query"}': 2.0,
    'repro_server_requests_total{kind="sql"}': 1.0,
    'repro_server_requests_total{kind="update"}': 1.0,
    "repro_updates_total": 1.0,
    "repro_triples_inserted_total": 4.0,
    "repro_wal_appends_total": 1.0,
    # the writer mutex is the only lock: no reader observes a wait
    'repro_lock_wait_seconds_bucket{side="write"': 1.0,
    "repro_buffer_pool_page_hits_total": 1.0,
    "repro_query_seconds_count": 3.0,
}


def parse_exposition(text: str) -> dict:
    """Parse exposition text into ``{sample_line_lhs: value}``; raise on
    any line that is neither a comment nor a well-formed sample."""
    samples = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if not SAMPLE_RE.match(line):
            raise AssertionError(f"unparseable exposition line: {line!r}")
        lhs, value = line.rsplit(" ", 1)
        samples[lhs] = float(value)
    return samples


def scrape(url: str) -> dict:
    """``GET /metrics`` over HTTP, parsed."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
        assert resp.status == 200, resp.status
        ctype = resp.headers["Content-Type"]
        assert ctype.startswith("text/plain"), ctype
        return parse_exposition(resp.read().decode("utf-8"))


def smoke_plan_cache_across_a_write(server: QueryServer, url: str) -> None:
    """One ad-hoc text, twice, through the served path around a write.  The
    store already has pending writes (``UPDATE``), so the write keeps every
    plan: a plan-cache key names the base generation and whether writes are
    pending, not the delta version."""
    def cache() -> tuple:
        samples = scrape(url)
        return (samples["repro_plan_cache_hits_total"],
                samples["repro_plan_cache_misses_total"])

    server.submit_query(ADHOC).result()
    server.submit_query(ADHOC).result()
    hits, misses = cache()
    server.submit_update(SECOND_UPDATE).result()
    assert cache() == (hits, misses), \
        f"a write moved the plan-cache totals: {(hits, misses)} -> {cache()}"
    server.submit_query(ADHOC).result()
    assert cache() == (hits + 1, misses), "first send after a further write must hit"
    server.submit_query(ADHOC).result()
    assert cache() == (hits + 2, misses), "second send after a further write must hit"


def smoke_plan_cache_binds_constants(server: QueryServer, url: str) -> None:
    """``ADHOC`` with another ISBN constant is the same shape: it binds its
    constant into the cached template, so it hits.  An ISBN absent from the
    data hits too, answers nothing, and after a write inserts it the same
    text hits again and returns the new row."""
    def hits() -> float:
        return scrape(url)["repro_plan_cache_hits_total"]

    def send(isbn: str) -> list:
        text = ADHOC.replace("isbn-0007", isbn)
        return server.submit_query(text, decode=True).result()

    before = hits()
    assert send("isbn-0011") == [(f"{EX}book/11",)]
    assert hits() == before + 1, "another constant of a cached shape must hit"
    assert send("isbn-0950") == [], "an absent ISBN answers nothing"
    assert hits() == before + 2, "an absent constant must hit the template too"
    server.submit_update(f'INSERT DATA {{ <{EX}book/950> <{EX}isbn_no> "isbn-0950" ; '
                         f'<{EX}in_year> "2014"^^<{XSD_INT}> . }}').result()
    assert send("isbn-0950") == [(f"{EX}book/950",)], "the inserted ISBN's row"
    assert hits() == before + 3, "a constant a write added must hit"


def smoke_dictionary_tail(store: RDFStore, url: str) -> None:
    """The writes so far appended literals: a checkpoint keeps them above
    the value-order watermark, and clustering folds them in."""
    store.checkpoint()
    tail = scrape(url)["repro_dictionary_tail_terms"]
    assert tail > 0, f"a checkpoint after inserting literals left a tail of {tail}"
    store.cluster()
    tail = scrape(url)["repro_dictionary_tail_terms"]
    assert tail == 0, f"cluster() left a tail of {tail}"


@contextmanager
def gated_star_scans():
    """While open, every RDFscan sets ``entered`` and then waits for
    ``gate`` before it reads: a query over a star is slow by construction,
    and its operator is running — so the query is registered — once
    ``entered`` is set."""
    entered, gate = threading.Event(), threading.Event()
    scan = RDFScanOp._batches

    def gated(operator, context):
        entered.set()
        gate.wait(timeout=60)
        yield from scan(operator, context)

    RDFScanOp._batches = gated
    try:
        yield entered, gate
    finally:
        gate.set()
        RDFScanOp._batches = scan


def smoke_query_outcomes(server: QueryServer, url: str) -> dict:
    """One served success, then one query cancelled over HTTP (held at a
    gate until the cancel is in, found in ``GET /queries``, cancelled with
    ``GET /queries/cancel?id=``), then one served ``ParseError``: the
    registry's one completion hook moves one counter each, and ``/stats``
    holds one latency sample per completed query.  Returns the cancelled
    query's ``/queries`` entry."""
    def total(samples: dict, prefix: str) -> float:
        return sum(value for lhs, value in samples.items()
                   if lhs == prefix or lhs.startswith(prefix + "{"))

    before = scrape(url)
    server.submit_query(SPARQL).result()  # the cancel below does not rely on a cold store

    with gated_star_scans() as (entered, gate):
        future = server.submit_query(SPARQL)
        assert entered.wait(timeout=30), "gated query never reached its star scan"
        with urllib.request.urlopen(f"{url}/queries", timeout=10) as resp:
            queries = json.load(resp)["queries"]
        assert len(queries) == 1, f"/queries lists {queries}, not the gated query"
        entry = queries[0]
        for key in ("id", "frontend", "scheme", "text", "elapsed_seconds",
                    "rows", "progress", "operator", "cancel_requested"):
            assert key in entry, f"/queries entry missing {key!r}: {entry}"
        assert entry["frontend"] == "sparql", entry

        with urllib.request.urlopen(
                f"{url}/queries/cancel?id={entry['id']}", timeout=10) as resp:
            payload = json.load(resp)
        assert payload == {"cancelled": True, "id": entry["id"]}, payload
        gate.set()
        try:
            future.result(timeout=60)
            raise AssertionError("gated query finished despite cancellation")
        except QueryCancelledError as exc:
            assert exc.query_id == entry["id"], exc
    try:
        server.submit_query("SELECT ?b WHERE { ?b").result()
        raise AssertionError("a malformed query answered")
    except ParseError:
        pass

    after = scrape(url)
    for prefix in ("repro_queries_total", 'repro_query_errors_total{frontend="sparql"}',
                   "repro_queries_cancelled_total"):
        moved = total(after, prefix) - total(before, prefix)
        assert moved == 1, f"{prefix} moved by {moved}, not 1"
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
        latency = json.load(resp)["query_latency"]
    counted = sum(summary["count"] for summary in latency.values())
    assert counted == total(after, "repro_queries_total"), \
        f"/stats counts {counted} latencies for {total(after, 'repro_queries_total')} queries"
    return entry


def smoke_query_management() -> None:
    """Serve a query, hold a second at a gate, watch it in /queries, cancel
    it over HTTP."""
    config = StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))
    store = RDFStore.build(book_nt(), config=config)
    with QueryServer(store, workers=2) as server:
        port = server.start_metrics_endpoint()
        entry = smoke_query_outcomes(server, f"http://127.0.0.1:{port}")

    assert store.active_queries() == [], store.active_queries()
    assert store.open_snapshot_count() == 0, "cancel leaked a snapshot pin"
    types = [event["type"] for event in store.events()]
    for expected in ("query_start", "query_cancel", "query_finish", "query_error"):
        assert expected in types, f"{expected} missing from event log: {types}"
    cancelled = [event for event in store.events(type="query_finish")
                 if event["id"] == entry["id"]]
    assert [event["status"] for event in cancelled] == ["cancelled"], cancelled
    print(f"query management smoke OK: a success served, gated query id={entry['id']} "
          f"visible in /queries, cancelled over HTTP, lifecycle in event log; the "
          f"success, a ParseError and the cancel moved one counter each")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = StoreConfig(discovery=DiscoveryConfig(
            generalization=GeneralizationConfig(min_support=3)))
        store = RDFStore.build(book_nt(), config=config)
        store.save(Path(tmp) / "db")  # attach a WAL so updates are logged

        with QueryServer(store, workers=2) as server:
            port = server.start_metrics_endpoint()
            # mixed workload: 2 SPARQL (one repeated → plan-cache hit),
            # 1 SQL, 1 WAL-logged update
            server.submit_query(SPARQL).result()
            server.submit_query(SPARQL).result()
            server.submit_sql("SELECT isbn_no FROM Book ORDER BY isbn_no").result()
            server.submit_update(UPDATE).result()

            url = f"http://127.0.0.1:{port}"
            samples = scrape(url)
            with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
                stats = json.load(resp)
            assert stats["pending_inserts"] >= 4, stats
            assert "active_queries" in stats and "slow_queries" in stats, stats
            with urllib.request.urlopen(f"{url}/queries", timeout=10) as resp:
                assert json.load(resp)["queries"] == []  # workload has drained
            smoke_plan_cache_across_a_write(server, url)
            smoke_plan_cache_binds_constants(server, url)
            smoke_dictionary_tail(store, url)

        print(f"scraped {len(samples)} samples from /metrics on port {port}")

        for family in MUST_BE_PRESENT:
            assert any(lhs == family or lhs.startswith(family + "{")
                       for lhs in samples), f"metric family missing: {family}"

        for prefix, floor in MUST_BE_NONZERO.items():
            total = sum(v for lhs, v in samples.items()
                        if lhs == prefix or lhs.startswith(prefix))
            assert total >= floor, \
                f"{prefix}: expected >= {floor}, scraped {total}"

        hits = sum(v for lhs, v in samples.items()
                   if lhs.startswith("repro_plan_cache_hits_total"))
        assert hits >= 1, f"repeated query produced no plan-cache hit ({hits})"
        for gauge in ("repro_process_resident_memory_bytes", "repro_process_uptime_seconds"):
            assert samples[gauge] > 0, f"{gauge} = {samples[gauge]}"

    print("metrics smoke OK: exposition parses, core families present, "
          "workload counters nonzero, plan-cache totals monotonic across a write, "
          "a new constant of a cached shape hits, absent or inserted, "
          "literal tail kept by a checkpoint and folded by cluster()")
    smoke_query_management()
    return 0


if __name__ == "__main__":
    sys.exit(main())
