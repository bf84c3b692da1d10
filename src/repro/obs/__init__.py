"""Observability: metrics registry, query tracing, slow-query log,
structured event log, and the live active-query registry.

Depends only on the stdlib and :mod:`repro.errors` so every layer —
engine, buffer pool, WAL, server — can record into it without
cycles.  See ``docs/observability.md`` for the metric inventory and usage.
"""

from .events import EventLog
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    render_prometheus,
)
from .queries import (
    NULL_ACTIVE_QUERY,
    ActiveQuery,
    ActiveQueryRegistry,
    NullActiveQuery,
)
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import QueryTrace, TraceSpan, format_bytes

__all__ = [
    "ActiveQuery",
    "ActiveQueryRegistry",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_ACTIVE_QUERY",
    "NullActiveQuery",
    "QueryTrace",
    "SlowQueryEntry",
    "SlowQueryLog",
    "TraceSpan",
    "default_registry",
    "format_bytes",
    "render_prometheus",
]
