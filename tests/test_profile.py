"""The per-query trace's resource attribution (``profile=True``).

Profiling must be a pure observer: identical results whether a query runs
bare or profiled, over every corpus and plan scheme.  Its numbers
must *reconcile* — per-operator self page reads sum to the root's cumulative
count, which equals the buffer pool's own delta over the run.  Its cost when
disabled is pinned by the counted overhead guard of ``test_observability.py``.
"""

from __future__ import annotations


import pytest

from _datasets import EX, book_triples
from repro import RDFStore, StoreConfig
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.errors import StorageError
from repro.obs import QueryTrace, TraceSpan, format_bytes
from repro.sparql import (
    DEFAULT_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
)

SCHEMES = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
]

BOOK_QUERIES = [
    f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    f"SELECT DISTINCT ?a WHERE {{ ?b <{EX}has_author> ?a . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . }} ORDER BY ?y ?b LIMIT 7",
]

DBLP_VOC = "http://example.org/dblp/schema/"

DBLP_QUERIES = [
    f"""SELECT ?p ?t ?cn WHERE {{
          ?p <{DBLP_VOC}creator> ?a .
          ?p <{DBLP_VOC}title> ?t .
          ?p <{DBLP_VOC}partOf> ?c .
          ?c <{DBLP_VOC}title> ?cn .
        }}""",
]

STAR_QUERY = BOOK_QUERIES[0]


def _config(**overrides) -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)), **overrides)


def _sorted_rows(store, text, options=None, **kwargs):
    result = store.sparql(text, options, **kwargs)
    return sorted(tuple(str(v) for v in row)
                  for row in store.decode_rows(result))


# -- results are observation-invariant ----------------------------------------


class TestDifferential:
    def test_book_corpus_profiled_results_identical(self, book_store):
        for text in BOOK_QUERIES:
            for options in SCHEMES:
                plain = _sorted_rows(book_store, text, options)
                profiled = _sorted_rows(book_store, text, options, profile=True)
                assert profiled == plain, (options.describe(), text)

    def test_dblp_corpus_profiled_results_identical(self, dblp_store):
        for text in DBLP_QUERIES:
            for options in SCHEMES:
                plain = _sorted_rows(dblp_store, text, options)
                profiled = _sorted_rows(dblp_store, text, options, profile=True)
                assert profiled == plain, (options.describe(), text)


# -- attribution reconciles ----------------------------------------------------


class TestReconciliation:
    def test_self_page_reads_sum_to_pool_delta(self):
        store = RDFStore.build(book_triples(), config=_config())
        store.reset_cold()
        mark = store.pool.stats()
        result = store.sparql(STAR_QUERY, PlannerOptions(scheme=RDFSCAN_SCHEME),
                              profile=True)
        external = store.pool.snapshot_delta(mark)
        profile, buffers = store.last_trace(), result.run.buffers
        assert isinstance(profile, QueryTrace)

        spans = profile.spans()
        assert spans and all(isinstance(span, TraceSpan) for span in spans)
        total_self = sum(span.self_page_reads for span in spans)
        # Σ per-operator self time == root cumulative == the pool's own delta
        assert total_self == profile.page_reads_total
        assert profile.page_reads_total == buffers["page_reads"]
        assert buffers["page_reads"] == external["page_reads"]
        assert profile.page_reads_total > 0  # the cold run really read pages
        assert buffers["page_hits"] == external["page_hits"]

    def test_run_and_trace_share_one_buffer_mark(self):
        """The run's ``buffers`` is the pool delta since the one mark it
        took at registration: the run's listing, its ``buffers``, its
        trace's root and the pool agree on a cold run's page reads."""
        store = RDFStore.build(book_triples(), config=_config())
        store.reset_cold()
        mark = store.pool.stats()
        result = store.sparql(STAR_QUERY, PlannerOptions(scheme=RDFSCAN_SCHEME),
                              profile=True)
        external = store.pool.snapshot_delta(mark)["page_reads"]
        listed = result.run.describe()["buffers"]["page_reads"]
        assert listed == result.run.buffers["page_reads"] == external > 0
        assert result.trace.page_reads_total == external

    def test_hot_run_reads_no_pages(self, book_store):
        book_store.sparql(STAR_QUERY)  # warm
        book_store.sparql(STAR_QUERY, profile=True)
        profile = book_store.last_trace()
        assert profile.page_reads_total == 0
        assert profile.page_hits_total > 0

    def test_payload_bytes_accumulate(self, book_store):
        book_store.sparql(STAR_QUERY, profile=True)
        profile = book_store.last_trace()
        assert profile.payload_bytes_total > 0
        assert profile.root.bytes > 0  # the root operator emitted batches

    def test_explain_analyze_carries_pages_column(self, book_store):
        text = book_store.explain(STAR_QUERY, analyze=True)
        assert "pages=" in text
        assert "buffers:" in text


# -- opt-in switches -----------------------------------------------------------


class TestSwitches:
    def test_default_runs_are_not_profiled(self):
        store = RDFStore.build(book_triples(), config=_config())
        store.sparql(STAR_QUERY)
        # an untraced run leaves no trace behind at all
        assert store.last_trace() is None

    def test_sql_frontend_profiles(self, book_store):
        catalog = book_store.require_catalog()
        table = next(iter(catalog.tables.values())).name
        result = book_store.sql(f"SELECT * FROM {table}", profile=True)
        assert book_store.last_trace() is result.trace
        assert result.trace.root is not None

    def test_snapshot_reads_honor_profile_flag(self, book_store):
        with book_store.snapshot() as snap:
            result = snap.sparql(STAR_QUERY, profile=True)
            assert len(result) > 0

    def test_config_validates_profile_flags(self):
        with pytest.raises(StorageError):
            StoreConfig(profile_memory=1.5)


# -- tracemalloc sampling ------------------------------------------------------


class TestMemorySampling:
    def test_memory_peaks_recorded_and_rendered(self):
        store = RDFStore.build(book_triples(), config=_config(profile_memory=True))
        store.sparql(STAR_QUERY, profile=True)
        profile = store.last_trace()
        assert profile.mem_peak > 0
        rendered = profile.render()
        assert "mem=" in rendered

    def test_memory_off_by_default(self, book_store):
        book_store.sparql(STAR_QUERY, profile=True)
        profile = book_store.last_trace()
        assert profile.mem_peak == 0
        assert "mem=" not in profile.render()


# -- observer integration ------------------------------------------------------


class TestObserverIntegration:
    def test_profiled_runs_feed_profile_histograms(self):
        store = RDFStore.build(book_triples(), config=_config())
        store.sparql(STAR_QUERY, profile=True)
        histogram = store.metrics_registry.get("query_profile_seconds")
        assert histogram is not None and histogram.count() == 1
        pages = store.metrics_registry.get("query_profile_page_reads")
        assert pages.count() == 1

    def test_unprofiled_runs_do_not(self, book_store):
        before = book_store.metrics_registry.get("query_profile_seconds").count()
        book_store.sparql(STAR_QUERY)
        after = book_store.metrics_registry.get("query_profile_seconds").count()
        assert after == before

    def test_summary_digest_mentions_pages(self, book_store):
        book_store.sparql(STAR_QUERY, profile=True)
        assert "pages=" in book_store.last_trace().summary()


# -- rendering -----------------------------------------------------------------


class TestSpanDict:
    def test_as_dict_visits_each_span_once(self, monkeypatch):
        """A chain of 12 spans is 12 ``as_dict`` calls, not 2**12 - 1."""
        class Op:
            def __init__(self, depth):
                self.depth = depth

            def describe(self):
                return f"op{self.depth}"

        trace = QueryTrace()
        ops = [Op(depth) for depth in range(12)]  # alive: spans key on id(op)
        frames = [trace.enter(op) for op in ops]
        for span in reversed(frames):
            trace.exit(span)
        calls = []
        span_class = type(trace.root)
        as_dict = span_class.as_dict

        def counted(self):
            calls.append(self.label)
            return as_dict(self)

        monkeypatch.setattr(span_class, "as_dict", counted)
        tree = trace.as_dict()["root"]
        assert len(calls) == 12
        depth = 0
        while tree["children"]:
            (tree,) = tree["children"]
            depth += 1
        assert depth == 11 and tree["label"] == "op11"


# -- formatting ----------------------------------------------------------------


class TestFormatBytes:
    def test_scales(self):
        assert format_bytes(0) == "0B"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KB"
        assert format_bytes(3 * 1024 * 1024) == "3.0MB"
        assert format_bytes(5 * 1024 ** 3) == "5.0GB"
