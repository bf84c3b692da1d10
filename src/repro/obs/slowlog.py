"""Slow-query ring buffer and the per-store query observer.

:class:`SlowQueryLog` keeps the most recent N queries that exceeded a
latency threshold — enough to answer "what was slow in the last hour"
without any external infrastructure.  Entries carry whitespace-normalized
query text (so logs stay single-line and cache-key-comparable), the plan
scheme, latency, row count and a one-line trace digest when tracing was on.

:class:`QueryObserver` is what ``RDFStore.run_query`` hands a finished
run to: it bumps the per-frontend/per-scheme counters, feeds the latency
histogram and the run's root and residual counts, and threshold-gates the
slow log, so direct reads, snapshots and the server all record identically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from .metrics import MetricsRegistry

__all__ = ["QueryObserver", "SlowQueryEntry", "SlowQueryLog"]


def _normalize(text: str) -> str:
    return " ".join(text.split())


@dataclass
class SlowQueryEntry:
    """One slow query: what ran, how it ran, and how long it took."""

    text: str
    frontend: str
    scheme: str
    seconds: float
    rows: int
    timestamp: float = field(default_factory=time.time)
    trace_summary: str = ""

    def as_dict(self) -> dict:
        return {
            "text": self.text,
            "frontend": self.frontend,
            "scheme": self.scheme,
            "seconds": self.seconds,
            "rows": self.rows,
            "timestamp": self.timestamp,
            "trace_summary": self.trace_summary,
        }


class SlowQueryLog:
    """Threshold-gated ring buffer of recent slow queries (thread-safe)."""

    def __init__(self, threshold_seconds: float = 0.25, capacity: int = 128) -> None:
        if threshold_seconds < 0:
            raise ValueError("threshold must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: Deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._dropped = 0

    def record(self, text: str, frontend: str, scheme: str, seconds: float,
               rows: int, trace_summary: str = "") -> bool:
        """Record the query if it crossed the threshold; True if logged."""
        if seconds < self.threshold_seconds:
            return False
        entry = SlowQueryEntry(text=_normalize(text), frontend=frontend,
                               scheme=scheme, seconds=seconds, rows=rows,
                               trace_summary=trace_summary)
        with self._lock:
            if len(self._entries) == self.capacity:
                self._dropped += 1
            self._entries.append(entry)
        return True

    def entries(self) -> List[SlowQueryEntry]:
        """Newest-first list of logged queries."""
        with self._lock:
            return list(reversed(self._entries))

    def dropped(self) -> int:
        """Entries evicted by the ring since creation (or last clear)."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dropped = 0


class QueryObserver:
    """The one place query completions are turned into metrics.

    Pre-creates its metric handles so the per-query cost is a few dict
    lookups and lock-guarded adds — no registry traffic on the hot path.
    """

    def __init__(self, registry: MetricsRegistry, slow_log: SlowQueryLog) -> None:
        self.registry = registry
        self.slow_log = slow_log
        self._queries = registry.counter(
            "queries_total", "Completed queries by front-end and plan scheme.",
            labelnames=("frontend", "scheme"))
        self._latency = registry.histogram(
            "query_seconds", "Query wall time by front-end and plan scheme.",
            labelnames=("frontend", "scheme"))
        self._rows = registry.counter(
            "query_rows_total", "Result rows returned by front-end.",
            labelnames=("frontend",))
        self._errors = registry.counter(
            "query_errors_total", "Queries that raised, by front-end.",
            labelnames=("frontend",))
        self._bound: dict = {}
        """Per (frontend, scheme), the three metrics above bound to it."""
        registry.counter(
            "rows_emitted_total", "Rows emitted by root plan operators.",
            fn=lambda: sum(rows for _labels, rows in self._rows.samples()))
        self._emitted_batches = registry.counter(
            "batches_emitted_total", "Batches emitted by root plan operators.").bound()
        self._residual_subjects = registry.histogram(
            "rdfscan_residual_subjects",
            "Subjects per clustered star scan routed to the residual scan.",
            buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                     5000, 10000, 100000)).bound()
        self._profile_seconds = registry.histogram(
            "query_profile_seconds", "Wall time of profiled queries.")
        self._profile_pages = registry.histogram(
            "query_profile_page_reads",
            "Buffer-pool page reads attributed per profiled query.",
            buckets=(1, 10, 100, 1_000, 10_000, 100_000, 1_000_000))
        self._profile_bytes = registry.histogram(
            "query_profile_payload_bytes",
            "Batch payload bytes flowing between operators per profiled query.",
            buckets=(1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30))

    def observe(self, run, seconds: float) -> None:
        """Account one successfully finished run (an
        :class:`~repro.obs.ActiveQuery`) that took ``seconds`` in all."""
        frontend, scheme, rows = run.frontend, run.scheme, run.rows
        bound = self._bound.get((frontend, scheme))
        if bound is None:
            bound = self._bound[frontend, scheme] = (
                self._queries.bound(frontend=frontend, scheme=scheme),
                self._latency.bound(frontend=frontend, scheme=scheme),
                self._rows.bound(frontend=frontend))
        count_query, observe_latency, count_rows = bound
        count_query()
        observe_latency(seconds)
        count_rows(rows)
        self._emitted_batches(run.batches)
        for subjects in run.residuals.values():
            self._residual_subjects(subjects)
        trace = run.trace
        if trace is not None:
            self._profile_seconds.observe(seconds)
            self._profile_pages.observe(trace.page_reads_total)
            self._profile_bytes.observe(trace.payload_bytes_total)
        slow_log = self.slow_log
        if seconds >= slow_log.threshold_seconds:
            slow_log.record(run.text, frontend, scheme, seconds, rows,
                            trace.summary() if trace is not None else "")

    def error(self, frontend: str) -> None:
        self._errors.inc(frontend=frontend)
