"""Observability layer: metrics registry, trace spans, slow log, exposition.

Covered here:

* registry semantics — get-or-create identity, kind conflicts, label
  validation, thread-safety of concurrent increments/observations;
* histogram correctness against a sorted-list oracle (count/sum/max exact,
  percentiles within the containing bucket);
* Prometheus text exposition — golden output, label escaping, zero-valued
  unlabeled metrics;
* per-query traces — span tree identical in shape to the physical plan,
  ``explain(analyze=True)`` timing column, per-run accounting on shared
  cached plans;
* the slow-query log threshold and ring eviction;
* store integration — ``metrics()`` / ``slow_queries()`` / ``last_trace()``,
  snapshot-pinned readers,
  ``BufferPool.snapshot_delta``, the HTTP ``/metrics`` endpoint;
* the overhead guard: what instrumentation with tracing *off* adds to the
  raw engine path, counted in Python-level calls — a constant per query
  plus a constant per batch, both pinned.
"""

from __future__ import annotations

import math
import random
import re
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import (
    MetricsRegistry,
    PlannerOptions,
    QueryServer,
    RDFStore,
    SlowQueryLog,
    StorageError,
    StoreConfig,
    default_registry,
    render_prometheus,
)
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.slowlog import normalize_text

from _datasets import EX, book_triples

STAR_QUERY = f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}"
LOOKUP_QUERY = f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/1> . }}"


def _config(**overrides) -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)), **overrides)


def _operators(plan):
    yield plan
    for child in plan.children():
        yield from _operators(child)


@pytest.fixture()
def store() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", "Hits.")
        b = reg.counter("hits_total")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        reg.gauge("y", labelnames=("kind",))
        with pytest.raises(ValueError):
            reg.gauge("y")  # same kind, different labels

    def test_label_validation(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(kind="read", extra="nope")
        c.inc(kind="read")
        assert c.value(kind="read") == 1

    def test_counters_only_go_up(self):
        c = Counter("n_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_callback_metrics_reject_explicit_writes(self):
        source = {"v": 7}
        reg = MetricsRegistry()
        c = reg.counter("cb_total", fn=lambda: source["v"])
        g = reg.gauge("cb_gauge", fn=lambda: source["v"])
        assert c.value() == 7 and g.value() == 7
        source["v"] = 9
        assert c.value() == 9  # read at collection time, not registration
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            g.set(1)

    def test_dying_callback_skipped_by_collect(self):
        reg = MetricsRegistry()
        reg.gauge("ok", fn=lambda: 1)
        reg.gauge("dying", fn=lambda: 1 / 0)
        collected = reg.collect()
        assert collected == {"ok": 1}

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        counter = reg.counter("bumps_total", labelnames=("worker",))
        hist = reg.histogram("values", buckets=(1.0, 10.0))
        gauge = reg.gauge("level")
        threads, per_thread = 8, 2000

        def work(worker: int) -> None:
            for i in range(per_thread):
                counter.inc(worker=str(worker % 2))
                hist.observe(float(i % 20))
                gauge.add(1)

        pool = [threading.Thread(target=work, args=(w,)) for w in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == threads * per_thread
        assert hist.count() == threads * per_thread
        assert gauge.value() == threads * per_thread

    def test_concurrent_registration_converges(self):
        reg = MetricsRegistry()
        seen = []

        def register() -> None:
            seen.append(reg.counter("shared_total"))

        pool = [threading.Thread(target=register) for _ in range(16)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert all(metric is seen[0] for metric in seen)


# -- histogram vs. sorted-list oracle -----------------------------------------


class TestHistogram:
    def test_matches_sorted_oracle_within_bucket(self):
        rng = random.Random(20130408)  # the paper's conference date
        hist = Histogram("latency_seconds")
        values = [10 ** rng.uniform(-5, 1.5) for _ in range(5000)]
        for v in values:
            hist.observe(v)
        ordered = sorted(values)
        assert hist.count() == len(values)
        assert hist.sum() == pytest.approx(sum(values))
        assert hist.max() == max(values)
        bounds = hist.buckets
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            oracle = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            estimate = hist.percentile(q)
            # the estimate must land inside the oracle's bucket (lo, hi]
            slot = next(i for i, b in enumerate(bounds) if oracle <= b)
            lo = bounds[slot - 1] if slot else 0.0
            hi = min(bounds[slot], max(values))
            assert lo <= estimate <= hi, (q, oracle, estimate, lo, hi)

    def test_empty_and_single_value(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        assert hist.summary() == {"count": 0, "sum": 0.0, "max": 0.0,
                                  "mean": 0.0, "p50": 0.0, "p95": 0.0,
                                  "p99": 0.0}
        hist.observe(1.5)
        summary = hist.summary()
        assert summary["count"] == 1 and summary["max"] == 1.5
        assert 1.0 <= summary["p50"] <= 1.5  # capped at the observed max

    def test_overflow_bucket_interpolates_toward_max(self):
        hist = Histogram("h", buckets=(1.0,))
        for v in (5.0, 7.0, 9.0):
            hist.observe(v)
        assert hist.percentile(1.0) == 9.0
        assert 1.0 <= hist.percentile(0.5) <= 9.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


# -- Prometheus exposition ----------------------------------------------------


class TestExposition:
    def test_golden_text(self):
        reg = MetricsRegistry(namespace="t")
        requests = reg.counter("requests_total", "Total requests.",
                               labelnames=("kind",))
        requests.inc(kind="read")
        requests.inc(2, kind="write")
        reg.gauge("temperature", "Current temp.").set(36.5)
        hist = reg.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        assert render_prometheus(reg) == (
            "# HELP t_requests_total Total requests.\n"
            "# TYPE t_requests_total counter\n"
            't_requests_total{kind="read"} 1\n'
            't_requests_total{kind="write"} 2\n'
            "# HELP t_temperature Current temp.\n"
            "# TYPE t_temperature gauge\n"
            "t_temperature 36.5\n"
            "# HELP t_latency_seconds Latency.\n"
            "# TYPE t_latency_seconds histogram\n"
            't_latency_seconds_bucket{le="0.1"} 1\n'
            't_latency_seconds_bucket{le="1"} 2\n'
            't_latency_seconds_bucket{le="+Inf"} 3\n'
            "t_latency_seconds_sum 5.55\n"
            "t_latency_seconds_count 3\n"
            "t_latency_seconds_max 5\n"
            "t_latency_seconds_mean 1.8499999999999999\n")

    def test_label_values_escaped(self):
        reg = MetricsRegistry(namespace="t")
        reg.counter("odd_total", labelnames=("q",)).inc(q='he said "hi"\n\\')
        text = render_prometheus(reg)
        assert 't_odd_total{q="he said \\"hi\\"\\n\\\\"} 1' in text

    def test_unlabeled_metrics_render_zero_before_first_write(self):
        reg = MetricsRegistry(namespace="t")
        reg.counter("quiet_total", "Never bumped.")
        reg.gauge("quiet_level")
        text = render_prometheus(reg)
        assert "t_quiet_total 0" in text.splitlines()
        assert "t_quiet_level 0" in text.splitlines()

    def test_every_sample_line_parses(self, store):
        store.sparql(STAR_QUERY)
        store.update(f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}')
        sample = re.compile(
            r"^[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [^ ]+$")
        text = render_prometheus(store.metrics_registry, default_registry())
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(lines) > 40
        for line in lines:
            assert sample.match(line), line


# -- traces -------------------------------------------------------------------


class TestTraces:
    def test_span_tree_mirrors_plan_shape(self, store):
        result = store.sparql(STAR_QUERY, profile=True)
        trace = store.last_trace()
        assert trace is result.trace and trace.root is not None
        assert result.run.total_seconds > 0

        def span_shape(span):
            return (span.label, tuple(span_shape(c) for c in span.children))

        def plan_shape(op):
            return (op.describe(), tuple(plan_shape(c) for c in op.children()))

        assert span_shape(trace.root) == plan_shape(result.plan)
        assert trace.root.rows == len(result)

    def test_explain_analyze_times_every_operator(self, store):
        text = store.explain(STAR_QUERY, analyze=True)
        operator_lines = [l for l in text.splitlines() if "actual=" in l]
        assert operator_lines, text
        for line in operator_lines:
            assert re.search(r"time=\d+\.\d+ms", line), line
        # the analyze run is also retained as the store's last trace
        assert store.last_trace() is not None

    def test_last_trace_retains_most_recent_traced_run(self, store):
        assert store.last_trace() is None
        store.sparql(STAR_QUERY, profile=True)
        traced = store.last_trace()
        store.sparql(STAR_QUERY)  # untraced runs don't clobber it
        assert store.last_trace() is traced

    def test_shared_cached_plan_keeps_per_run_accounting(self, store):
        """A cached plan is shared; every number a run produces lives on
        that run's own object and trace, none on the plan."""
        options = PlannerOptions()
        store.plan_cache.clear()
        first = store.sparql(LOOKUP_QUERY, options, profile=True)
        before = [dict(vars(op)) for op in _operators(first.plan)]
        hits = store.plan_cache.stats()["lifetime_hits"]
        second = store.sparql(LOOKUP_QUERY, options, profile=True)
        assert store.plan_cache.stats()["lifetime_hits"] == hits + 1
        assert second.plan is first.plan  # one shared physical plan
        # each run carries its own, non-accumulated accounting
        assert first.run is not second.run
        assert first.trace.root is not second.trace.root
        for result in (first, second):
            assert result.trace is result.run.trace
            assert result.trace.root.rows == len(result)
            assert result.run.actual(result.plan) == len(result)
            assert result.run.rows == len(result)
        # and the second run wrote nothing onto the shared plan
        assert [dict(vars(op)) for op in _operators(first.plan)] == before

    def test_render_is_indented_per_level(self, store):
        store.sparql(STAR_QUERY, profile=True)
        rendering = store.last_trace().render()
        lines = rendering.splitlines()
        assert len(lines) >= 2
        assert not lines[0].startswith(" ") and lines[1].startswith("  ")
        for line in lines:
            assert re.search(r"time=\d+\.\d+ms total=\d+\.\d+ms rows=\d+", line)


# -- slow-query log -----------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_seconds=0.25, capacity=4)
        assert not log.record("SELECT 1", "sparql", "default", 0.1, rows=0)
        assert log.record("SELECT  2", "sparql", "default", 0.3, rows=5)
        assert len(log) == 1
        entry = log.entries()[0]
        assert entry.text == "SELECT 2"  # whitespace-normalized
        assert entry.seconds == 0.3 and entry.rows == 5

    def test_ring_eviction_newest_first(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=2)
        for i in range(5):
            log.record(f"q{i}", "sql", "sql", float(i), rows=i)
        assert len(log) == 2 and log.dropped() == 3
        assert [e.text for e in log.entries()] == ["q4", "q3"]
        log.clear()
        assert len(log) == 0 and log.dropped() == 0

    def test_store_threshold_zero_logs_everything(self):
        store = RDFStore.build(book_triples(), config=_config(
            slow_query_seconds=0.0))
        for _ in range(5):
            store.sparql(STAR_QUERY)
        entries = store.slow_queries()
        assert len(entries) == 5
        assert entries[0].frontend == "sparql"
        assert store.slow_query_log.dropped() == 0

    def test_slow_entry_keeps_trace_summary(self):
        store = RDFStore.build(book_triples(), config=_config(
            slow_query_seconds=0.0))
        store.sparql(STAR_QUERY, profile=True)
        entry = store.slow_queries()[0]
        assert "ms" in entry.trace_summary

    def test_config_validation(self):
        with pytest.raises(StorageError):
            _config(slow_query_seconds=-1.0)

    def test_normalized_text_drops_comments_outside_iris_and_strings(self):
        assert normalize_text("SELECT ?s # subjects\nWHERE { ?s ?p ?o . }  # end") == \
            "SELECT ?s WHERE { ?s ?p ?o . }"
        kept = f'SELECT ?s WHERE {{ ?s <{EX}p#q> "a # b" . }}'
        assert normalize_text(kept.replace(" {", "\n  {").replace(" . ", "\n  .\n")) == kept
        assert normalize_text("SELECT a FROM T WHERE b = 'x # y''z'") == \
            "SELECT a FROM T WHERE b = 'x # y''z'"
        rng = random.Random(7)  # a comment-free text only has its whitespace collapsed
        for _ in range(500):
            text = "".join(rng.choice("ab<>\"'\\ \t\n{}?.") for _ in range(rng.randrange(40)))
            assert normalize_text(text) == " ".join(text.split())

    def test_a_recorded_commented_query_reruns_to_the_same_rows(self):
        """A ``#`` comment ends at its line break: the one-line text the
        slow log, the ``query_start`` event and ``/queries`` record drops
        it, so it cannot swallow the rest of the query."""
        store = RDFStore.build(book_triples(), config=_config(slow_query_seconds=0.0))
        text = ("PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>  # '#' in an IRI\n"
                "SELECT ?b ?a WHERE {  # every typed, authored book\n"
                f"  ?b rdf:type <{EX}Book> .\n  ?b <{EX}has_author> ?a .\n}}")
        rows = sorted(store.sparql(text).rows())
        assert len(rows) == 30
        (entry,) = store.slow_queries()
        (start,) = store.events(type="query_start")
        assert entry.text == start["text"] and "every typed" not in entry.text
        assert sorted(store.sparql(entry.text).rows()) == rows


# -- store integration --------------------------------------------------------


class TestStoreMetrics:
    def test_query_metrics_by_frontend_and_scheme(self, store):
        store.sparql(STAR_QUERY)
        store.sql("SELECT isbn_no FROM Book ORDER BY isbn_no")
        metrics = store.metrics()
        sparql_keys = [k for k in metrics
                       if k.startswith('queries_total{frontend="sparql"')]
        assert sum(metrics[k] for k in sparql_keys) == 1
        assert metrics['queries_total{frontend="sql",scheme="sql"}'] == 1
        assert metrics['query_seconds_count{frontend="sql",scheme="sql"}'] == 1
        assert metrics["rows_emitted_total"] > 0
        assert metrics["batches_emitted_total"] > 0

    def test_emitted_counters_count_the_root_once(self, store):
        """``rows_emitted_total`` / ``batches_emitted_total`` grow by what
        the plan's *root* emitted — once per query, however many blocking
        operators (sort, aggregate, hash build) drained a child on the way."""
        ordered = f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . }} ORDER BY ?y ?b"
        grouped = (f"SELECT ?n (COUNT(?b) AS ?c) WHERE {{ ?b <{EX}has_author> ?a . "
                   f"?a <{EX}name> ?n . }} GROUP BY ?n ORDER BY ?n")
        for text, rows in ((ordered, 30), (grouped, 5)):
            before = store.metrics()
            result = store.sparql(text)
            after = store.metrics()
            assert len(result) == rows
            batches = -(-rows // store.config.batch_size)
            assert result.run.batches == batches
            assert after["rows_emitted_total"] - before["rows_emitted_total"] == rows
            assert after["batches_emitted_total"] - before["batches_emitted_total"] == batches

    def test_update_and_buffer_pool_metrics(self, store):
        store.sparql(STAR_QUERY)  # cold: a scan reads each page once
        store.sparql(STAR_QUERY)  # warm: the same pages are hits
        store.update(f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}')
        metrics = store.metrics()
        assert metrics["updates_total"] == 1
        assert metrics["triples_inserted_total"] == 1
        assert metrics["delta_inserts"] == 1
        assert metrics["update_seconds_count"] == 1
        assert metrics["buffer_pool_page_hits_total"] >= 1
        assert metrics["live_triples"] == store.live_triple_count()

    def test_error_counter(self, store):
        with pytest.raises(Exception):
            store.sparql("THIS IS NOT SPARQL")
        assert store.metrics()['query_errors_total{frontend="sparql"}'] == 1

    def test_snapshot_delta_isolates_a_window(self, store):
        store.sparql(STAR_QUERY)  # warm
        mark = store.pool.stats()
        store.sparql(STAR_QUERY)
        delta = store.pool.snapshot_delta(mark)
        current = store.pool.stats()
        for key in ("evictions", "page_reads", "page_hits", "lazy_values_loaded"):
            assert delta[key] == current[key] - mark[key]
        assert delta["page_hits"] >= 1  # the hot re-run hit the cache
        assert delta["cached_pages"] == current["cached_pages"]  # level, not delta

    def test_snapshot_reader_records_into_store_registry(self, store):
        with store.snapshot() as snap:
            snap.sparql(STAR_QUERY)
        # a second reader keeps feeding the same registry
        with store.snapshot() as snap:
            snap.sparql(STAR_QUERY)
            snap.sql("SELECT isbn_no FROM Book ORDER BY isbn_no")
        metrics = store.metrics()
        totals = [v for k, v in metrics.items()
                  if k.startswith('queries_total{frontend="sparql"')]
        assert sum(totals) == 2
        assert metrics['queries_total{frontend="sql",scheme="sql"}'] == 1

    def test_wal_metrics_on_logged_update(self, store, tmp_path):
        store.save(tmp_path / "db")
        before = default_registry().counter("wal_appends_total").value()
        store.update(f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}')
        after = default_registry().counter("wal_appends_total").value()
        assert after == before + 1
        assert store.metrics()["wal_records"] == 1


# -- HTTP endpoint ------------------------------------------------------------


class TestMetricsEndpoint:
    def test_scrape_over_http(self, store):
        with QueryServer(store, workers=2) as server:
            port = server.start_metrics_endpoint()
            assert server.metrics_port == port
            server.submit_query(STAR_QUERY).result()
            url = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode("utf-8")
            assert "# TYPE repro_queries_total counter" in body
            assert 'repro_server_requests_total{kind="query"} 1' in body
            with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
                assert resp.status == 200
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{url}/nope", timeout=10)
            with pytest.raises(RuntimeError):
                server.start_metrics_endpoint()
        assert server.metrics_port is None  # shutdown stopped the endpoint

    def test_metrics_text_without_endpoint(self, store):
        with QueryServer(store, workers=1) as server:
            server.submit_update(
                f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}').result()
            text = server.metrics_text()
        assert 'repro_server_requests_total{kind="update"} 1' in text
        assert "repro_updates_total 1" in text
        # process-level gauges (on the global registry) let a scrape stand alone
        for gauge in ("repro_process_resident_memory_bytes", "repro_process_uptime_seconds"):
            value = re.search(rf"^{gauge} (\S+)$", text, re.MULTILINE)
            assert value and float(value.group(1)) > 0, gauge


# -- overhead guard -----------------------------------------------------------


def python_calls(fn) -> int:
    """Python-level calls (generator resumptions included) made by ``fn()``."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


class TestOverheadGuard:
    PER_QUERY_CEILING = 27
    """Python-level calls an untraced, unprofiled ``store.sparql`` adds to the
    bare engine path once per query (lifecycle, registry, metrics funnel,
    slow-log gate): 27 today."""
    PER_BATCH_CEILING = 0
    """... and per result batch: the progress tally reads the table's
    ``num_rows`` attribute, so a batch adds no call.  Exactly 0 today."""

    def test_untraced_observation_is_a_counted_constant(self):
        """What the store adds around ``engine.query`` on a warmed plan, with
        tracing and profiling off, is counted rather than timed: a constant
        per query plus a constant per batch — the same whether a batch holds
        one row or four, so never O(rows) — and both are pinned."""
        store = RDFStore.build(book_triples(), config=_config())
        options = PlannerOptions()
        added = {}
        for batch_size in (1024, 4, 2, 1):
            store.config.batch_size = batch_size
            rows = store.sparql(STAR_QUERY, options).bindings.num_rows  # warm
            engine = store.engine()
            bare = python_calls(lambda: engine.query("sparql", STAR_QUERY, options))
            observed = python_calls(lambda: store.sparql(STAR_QUERY, options))
            added[math.ceil(rows / batch_size)] = observed - bare
        assert min(added) == 1 and max(added) >= 8, added
        per_batch = {(added[batches] - added[1]) / (batches - 1)
                     for batches in added if batches > 1}
        assert len(per_batch) == 1, added  # linear in batches
        [per_batch] = per_batch
        assert 0 <= per_batch <= self.PER_BATCH_CEILING, added
        assert added[1] - per_batch <= self.PER_QUERY_CEILING, added
