"""Metric primitives: counters, gauges, histograms and their registry.

The observability layer is deliberately dependency-free (stdlib only) and
import-free of the rest of the package, so every subsystem — the engine,
the buffer pool, the WAL, the server — can record into it without creating
import cycles.

Three primitive kinds, all label-aware:

* :class:`Counter` — monotonically increasing totals
  (``queries_total{scheme="optimized"}``);
* :class:`Gauge` — point-in-time values, either set explicitly or read
  lazily from a callback at collection time (``fn=``), which is how the
  buffer pool's and plan cache's existing ``stats()`` dictionaries are
  adapted without double bookkeeping;
* :class:`Histogram` — fixed log-scaled buckets with ``sum``/``count``/
  ``max`` and bucket-interpolated p50/p95/p99, sized for latencies from
  10 µs to minutes (other value domains pass their own ``buckets``).

A :class:`MetricsRegistry` owns a namespace of metrics.  Registration is
get-or-create: instrumentation sites simply ask for
``registry.counter("wal_appends_total")`` and always receive the same
object, so hot paths can cache the handle once and cold paths stay
one-liners.  There is one **process-global default registry**
(:func:`default_registry`) for components without a natural owner (the
WAL, module-level helpers) and one **per-store registry**
(``RDFStore.metrics_registry``) for everything scoped to a store's
lifetime; ``render_prometheus`` merges any number of registries into one
exposition document.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from bisect import bisect_left
from functools import partial
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "render_prometheus",
]

DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05,
    1e-04, 2.5e-04, 5e-04,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)
"""Log-scaled (1–2.5–5 decades) latency buckets, in seconds."""


class Metric:
    """Common behaviour: a name, help text, label names and child samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not name or any(ch in name for ch in ' \t\n{}"'):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        """Validate label kwargs against the declared names, in order."""
        names = self.labelnames
        if len(labels) == len(names):
            if not names:
                return ()
            try:
                return tuple([str(labels[name]) for name in names])
            except KeyError:
                pass
        raise ValueError(
            f"metric {self.name!r} takes labels {names}, "
            f"got {tuple(sorted(labels))}")

    def bound(self, **labels: object) -> Callable[[float], None]:
        """This metric's update (``inc`` / ``observe``) for one fixed label
        set, validated once — for callers on a per-query path."""
        return partial(self._update, self._key(labels))

    # -- collection interface (implemented per kind) --------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total, optionally labeled.

    ``fn`` adapts an existing lifetime counter (e.g. ``BufferPool.evictions``)
    without double bookkeeping: the callback is read at collection time and
    the counter accepts no explicit :meth:`inc` in that mode.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help, labelnames)
        if fn is not None and labelnames:
            raise ValueError("callback counters cannot be labeled")
        self._fn = fn
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labeled child."""
        if amount < 0:
            raise ValueError("counters only go up")
        if self._fn is not None:
            raise ValueError(f"counter {self.name!r} is callback-backed")
        self._update(self._key(labels), amount)

    def _update(self, key: Tuple[str, ...], amount: float = 1.0) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        if self._fn is not None:
            return [((), float(self._fn()))]
        with self._lock:
            if not self._values and not self.labelnames:
                return [((), 0.0)]  # unlabeled counters exist at 0 from birth
            return sorted(self._values.items())


class Gauge(Metric):
    """A point-in-time value: set/add explicitly, or computed by ``fn``."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 fn: Optional[Callable[[], float]] = None) -> None:
        super().__init__(name, help, labelnames)
        if fn is not None and labelnames:
            raise ValueError("callback gauges cannot be labeled")
        self._fn = fn
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, amount: float = 1.0, **labels: object) -> None:
        """Adjust the gauge by ``amount`` (negative to decrease)."""
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        if self._fn is not None:
            return [((), float(self._fn()))]
        with self._lock:
            if not self._values and not self.labelnames:
                return [((), 0.0)]  # unlabeled gauges exist at 0 from birth
            return sorted(self._values.items())


class _HistogramState:
    """Per-labelset bucket counts plus sum/count/max."""

    __slots__ = ("counts", "sum", "count", "max")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +1 for the overflow slot
        self.sum = 0.0
        self.count = 0
        self.max = 0.0


class Histogram(Metric):
    """Fixed-bucket histogram with percentile estimation.

    Buckets follow Prometheus ``le`` semantics: slot *i* counts values in
    ``(bucket[i-1], bucket[i]]`` and one overflow slot catches everything
    beyond the last bound.  Percentiles are estimated by linear
    interpolation inside the containing bucket (the overflow bucket
    interpolates toward the observed maximum), so their error is bounded by
    one bucket width — plenty for p50/p95/p99 dashboards, and cheap enough
    to keep on every query.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be a strictly increasing sequence")
        self.buckets: Tuple[float, ...] = bounds
        self._states: Dict[Tuple[str, ...], _HistogramState] = {}

    def observe(self, value: float, **labels: object) -> None:
        self._update(self._key(labels), value)

    def _update(self, key: Tuple[str, ...], value: float) -> None:
        value = float(value)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _HistogramState(len(self.buckets))
            state.counts[slot] += 1
            state.sum += value
            state.count += 1
            if value > state.max:
                state.max = value

    def _state(self, labels: Dict[str, object]) -> Optional[_HistogramState]:
        key = self._key(labels)
        with self._lock:
            return self._states.get(key)

    def count(self, **labels: object) -> int:
        state = self._state(labels)
        return state.count if state is not None else 0

    def sum(self, **labels: object) -> float:
        state = self._state(labels)
        return state.sum if state is not None else 0.0

    def max(self, **labels: object) -> float:
        state = self._state(labels)
        return state.max if state is not None else 0.0

    def mean(self, **labels: object) -> float:
        """Exact arithmetic mean, derived from the running sum/count."""
        state = self._state(labels)
        if state is None or state.count == 0:
            return 0.0
        return state.sum / state.count

    def percentile(self, q: float, **labels: object) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        state = self._state(labels)
        if state is None or state.count == 0:
            return 0.0
        with self._lock:
            counts = list(state.counts)
            total = state.count
            observed_max = state.max
        target = q * total
        cumulative = 0
        for slot, slot_count in enumerate(counts):
            if slot_count == 0:
                continue
            if cumulative + slot_count >= target:
                lower = self.buckets[slot - 1] if slot > 0 else 0.0
                upper = self.buckets[slot] if slot < len(self.buckets) else observed_max
                upper = min(upper, observed_max) if observed_max > 0 else upper
                if upper <= lower:
                    return min(upper if upper > lower else lower, observed_max)
                fraction = (target - cumulative) / slot_count
                return min(lower + fraction * (upper - lower), observed_max)
            cumulative += slot_count
        return observed_max

    def summary(self, **labels: object) -> Dict[str, float]:
        """``count``/``sum``/``max``/``mean``/``p50``/``p95``/``p99`` in one dict."""
        state = self._state(labels)
        if state is None or state.count == 0:
            return {"count": 0, "sum": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": state.count,
            "sum": state.sum,
            "max": state.max,
            "mean": state.sum / state.count,
            "p50": self.percentile(0.50, **labels),
            "p95": self.percentile(0.95, **labels),
            "p99": self.percentile(0.99, **labels),
        }

    def samples(self) -> List[Tuple[Tuple[str, ...], _HistogramState]]:
        with self._lock:
            return sorted(self._states.items())


class MetricsRegistry:
    """A thread-safe, get-or-create namespace of metrics.

    One registry exists per :class:`~repro.core.RDFStore` (store-lifetime:
    it survives physical rebuilds and compactions) plus the process-global
    :func:`default_registry`.  Asking for an existing name returns the
    existing object; asking with a conflicting kind or label set raises.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()

    # -- registration (get-or-create) -----------------------------------------

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str],
                  **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}")
                return existing
            metric = cls(name, help=help, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                fn: Optional[Callable[[], float]] = None) -> Counter:
        return self._register(Counter, name, help, labelnames, fn=fn)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        return self._register(Gauge, name, help, labelnames, fn=fn)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    # -- introspection ---------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def collect(self) -> Dict[str, float]:
        """Flatten every sample into ``{"name{label=\"v\"}": value}``.

        Histograms contribute ``_count``/``_sum``/``_max``/``_p50``/
        ``_p95``/``_p99`` pseudo-samples.  Callback metrics whose callback
        raises are skipped (a dying gauge must not take monitoring down).
        """
        out: Dict[str, float] = {}
        for metric in self.metrics():
            try:
                if isinstance(metric, Histogram):
                    for key, state in metric.samples():
                        suffix = _labels_text(metric.labelnames, key)
                        labels = dict(zip(metric.labelnames, key))
                        summary = metric.summary(**labels)
                        for stat, value in summary.items():
                            out[f"{metric.name}_{stat}{suffix}"] = value
                else:
                    for key, value in metric.samples():
                        out[f"{metric.name}{_labels_text(metric.labelnames, key)}"] = value
            except Exception:
                continue
        return out


_DEFAULT_REGISTRY = MetricsRegistry()

_PROCESS_STARTED = time.monotonic()


def _register_process_metrics(registry: MetricsRegistry) -> None:
    """Process-level gauges so a ``/metrics`` scrape stands alone.

    Callback-backed: nothing is sampled until collection time.  ``resource``
    is POSIX-only; on platforms without it only the uptime gauge exists.
    """
    registry.gauge(
        "process_uptime_seconds",
        "Seconds since this process imported the metrics module.",
        fn=lambda: time.monotonic() - _PROCESS_STARTED)
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    # ru_maxrss is KiB on Linux, bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    registry.gauge(
        "process_resident_memory_bytes",
        "Peak resident set size of this process (ru_maxrss).",
        fn=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale)
    registry.counter(
        "process_cpu_seconds_total",
        "Total user+system CPU time consumed by this process.",
        fn=lambda: (lambda ru: ru.ru_utime + ru.ru_stime)(
            resource.getrusage(resource.RUSAGE_SELF)))


_register_process_metrics(_DEFAULT_REGISTRY)


def default_registry() -> MetricsRegistry:
    """The process-global registry (WAL counters, ownerless components)."""
    return _DEFAULT_REGISTRY


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names: Iterable[str], values: Iterable[str],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [f'{name}="{_escape_label_value(value)}"'
             for name, value in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; keep 0/1
        return "1" if value else "0"
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bucket_bound(bound: float) -> str:
    return _format_value(bound) if bound != math.inf else "+Inf"


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Render one or more registries in the Prometheus text format (0.0.4).

    Metric names are prefixed with each registry's namespace.  When several
    registries expose the same full name (they should not), their samples
    are merged under a single ``# TYPE`` header — Prometheus rejects
    duplicate headers but accepts many samples per metric.
    """
    groups: "OrderedDict[str, Tuple[str, str, List[str]]]" = OrderedDict()
    for registry in registries:
        prefix = f"{registry.namespace}_" if registry.namespace else ""
        for metric in registry.metrics():
            full = prefix + metric.name
            try:
                lines = _render_samples(full, metric)
            except Exception:
                continue  # a dying callback must not break the whole page
            if full in groups:
                kind, help_text, existing = groups[full]
                existing.extend(lines)
            else:
                groups[full] = (metric.kind, metric.help, lines)
    out: List[str] = []
    for full, (kind, help_text, lines) in groups.items():
        if help_text:
            out.append(f"# HELP {full} {help_text}")
        out.append(f"# TYPE {full} {kind}")
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


def _render_samples(full: str, metric: Metric) -> List[str]:
    lines: List[str] = []
    if isinstance(metric, Histogram):
        for key, state in metric.samples():
            cumulative = 0
            for slot, bound in enumerate(metric.buckets):
                cumulative += state.counts[slot]
                labels = _labels_text(metric.labelnames, key,
                                      extra=("le", _format_bucket_bound(bound)))
                lines.append(f"{full}_bucket{labels} {cumulative}")
            cumulative += state.counts[len(metric.buckets)]
            labels = _labels_text(metric.labelnames, key, extra=("le", "+Inf"))
            lines.append(f"{full}_bucket{labels} {cumulative}")
            plain = _labels_text(metric.labelnames, key)
            lines.append(f"{full}_sum{plain} {_format_value(state.sum)}")
            lines.append(f"{full}_count{plain} {state.count}")
            # non-standard but invaluable: the exact tail, not a bucket
            # interpolation (and the exact mean alongside it)
            lines.append(f"{full}_max{plain} {_format_value(state.max)}")
            mean = state.sum / state.count if state.count else 0.0
            lines.append(f"{full}_mean{plain} {_format_value(mean)}")
    else:
        for key, value in metric.samples():
            labels = _labels_text(metric.labelnames, key)
            lines.append(f"{full}{labels} {_format_value(value)}")
    return lines
