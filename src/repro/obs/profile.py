"""Per-query resource profiler: the trace span tree with cost attribution.

:class:`QueryProfile` is a :class:`~repro.obs.trace.QueryTrace` whose spans
also account for *resources*, not just wall time.  It rides the exact same
enter/exit hooks around each batch pull — operators never learn whether
they are being traced or profiled — and attributes, per operator:

* **buffer-pool activity** — page reads, page hits and lazily materialized
  column values, measured as deltas of the pool's monotonic counters taken
  at span entry/exit (so a parent's numbers include its children, exactly
  like cumulative wall time; ``self_page_reads`` subtracts child activity);
* **batch payload** — bytes of live binding-table data emitted, recorded by
  :meth:`exit` from the batch each pull returned;
* **peak allocations** (opt-in, ``memory=True``) — sampled with
  :mod:`tracemalloc` by resetting the peak at span entry and reading it at
  exit.  Nested spans reset the shared peak counter, so a parent's number
  reflects its own frames between child calls — an approximation, clearly
  cheaper than snapshotting full allocation traces per batch, and good
  enough to point at the operator that allocates.

Attribution is per-execution and single-threaded by design (one profile
belongs to one run); under concurrent queries the pool counters are shared,
so cross-query attribution is best-effort — the same caveat as ``BUFFERS``
accounting in any multi-user database.

The profile's query-level ``buffers`` dict is a
:meth:`~repro.columnar.BufferPool.snapshot_delta` over the whole run
(planning included), so per-operator totals reconcile against it:
``sum(self_page_reads) == root.page_reads <= buffers["page_reads"]``.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Optional

from .trace import QueryTrace, TraceSpan

__all__ = ["ProfileSpan", "QueryProfile", "format_bytes"]


def format_bytes(count: float) -> str:
    """``2048 -> '2.0KB'`` — compact byte counts for explain/render lines."""
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")  # pragma: no cover


class ProfileSpan(TraceSpan):
    """A trace span that also accounts buffer-pool and allocation cost."""

    __slots__ = ("page_reads", "page_hits", "lazy_values", "mem_peak",
                 "_counters_at_enter")

    def __init__(self, label: str, parent: Optional[TraceSpan] = None) -> None:
        super().__init__(label, parent)
        self.page_reads = 0      # cumulative, includes children (like seconds)
        self.page_hits = 0
        self.lazy_values = 0
        self.mem_peak = 0        # peak tracemalloc bytes seen in own frames
        self._counters_at_enter: Optional[tuple] = None

    @property
    def self_page_reads(self) -> int:
        """Page reads charged to this operator minus its children's."""
        return max(0, self.page_reads - sum(c.page_reads for c in self.children))

    @property
    def self_page_hits(self) -> int:
        return max(0, self.page_hits - sum(c.page_hits for c in self.children))

    @property
    def self_lazy_values(self) -> int:
        return max(0, self.lazy_values - sum(c.lazy_values for c in self.children))

    def explain_tokens(self) -> str:
        """``time=`` plus ``pages=``/``mem=`` for ``explain(analyze=True)``."""
        tokens = [super().explain_tokens(), f"pages={self.self_page_reads}"]
        if self.mem_peak:
            tokens.append(f"mem={format_bytes(self.mem_peak)}")
        return " ".join(tokens)

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update({
            "page_reads": self.page_reads,
            "self_page_reads": self.self_page_reads,
            "page_hits": self.page_hits,
            "lazy_values": self.lazy_values,
            "mem_peak": self.mem_peak,
            "children": [c.as_dict() for c in self.children],
        })
        return out

    def render(self, indent: int = 0) -> List[str]:
        line = (f"{'  ' * indent}{self.label} "
                f"time={self.self_seconds * 1000.0:.3f}ms "
                f"total={self.seconds * 1000.0:.3f}ms "
                f"rows={self.rows} batches={self.batches} "
                f"pages={self.self_page_reads} hits={self.self_page_hits} "
                f"bytes={format_bytes(self.bytes)}")
        if self.lazy_values:
            line += f" lazy={self.self_lazy_values}"
        if self.mem_peak:
            line += f" mem={format_bytes(self.mem_peak)}"
        lines = [line]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class QueryProfile(QueryTrace):
    """A query trace that attributes buffer-pool I/O, payload bytes and
    (optionally) peak allocations to operators.

    Args:
        pool: the store's :class:`~repro.columnar.BufferPool`; ``None``
            profiles time/rows/bytes only (no page attribution).
        memory: sample per-operator allocation peaks with ``tracemalloc``
            (starts tracing if nothing else did, and stops it again at
            :meth:`finish`).  Roughly an order of magnitude of overhead —
            strictly opt-in.
    """

    is_profile = True
    """Duck-typed marker consumed by the query observer and CLI — avoids
    importing this module on hot paths."""

    span_class = ProfileSpan

    def __init__(self, pool=None, memory: bool = False) -> None:
        super().__init__()
        self.pool = pool
        self.memory = bool(memory)
        self._mark = pool.stats() if pool is not None else None
        self.buffers: Dict[str, int] = {}
        """Query-level :meth:`~repro.columnar.BufferPool.snapshot_delta`
        since profile construction; populated by :meth:`finish`."""
        self._owns_tracemalloc = False
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- span protocol ---------------------------------------------------------

    def enter(self, op) -> ProfileSpan:
        existing = self._spans.get(id(op))
        reentered = existing is not None and existing in self._stack
        span = super().enter(op)
        if not reentered:
            pool = self.pool
            if pool is not None:
                tracker = pool.tracker
                span._counters_at_enter = (tracker.page_reads,
                                           tracker.page_hits,
                                           pool.lazy_values_loaded)
            if self.memory:
                tracemalloc.reset_peak()
        return span

    def exit(self, span: ProfileSpan, batch=None) -> None:
        super().exit(span, batch)
        if span in self._stack:  # re-entered frame: outer frame accounts
            return
        marks = span._counters_at_enter
        if marks is not None:
            tracker = self.pool.tracker
            span.page_reads += tracker.page_reads - marks[0]
            span.page_hits += tracker.page_hits - marks[1]
            span.lazy_values += self.pool.lazy_values_loaded - marks[2]
            span._counters_at_enter = None
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            if peak > span.mem_peak:
                span.mem_peak = peak

    # -- results ---------------------------------------------------------------

    def finish(self, total_seconds: float, parse_seconds: float = 0.0,
               plan_seconds: float = 0.0) -> None:
        super().finish(total_seconds, parse_seconds, plan_seconds)
        if self.pool is not None and self._mark is not None:
            self.buffers = self.pool.snapshot_delta(self._mark)
        self._stop_tracemalloc()

    def _stop_tracemalloc(self) -> None:
        if self._owns_tracemalloc:
            self._owns_tracemalloc = False
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def __del__(self) -> None:  # a failed query must not leak tracing
        self._stop_tracemalloc()

    @property
    def page_reads_total(self) -> int:
        """Pages read during execution (the root span's cumulative count)."""
        return self.root.page_reads if self.root is not None else 0

    @property
    def page_hits_total(self) -> int:
        return self.root.page_hits if self.root is not None else 0

    @property
    def payload_bytes_total(self) -> int:
        """Payload bytes summed over every operator's emitted batches."""
        return sum(span.bytes for span in self._spans.values())

    @property
    def mem_peak(self) -> int:
        """Largest per-operator allocation peak seen (0 without ``memory``)."""
        return max((span.mem_peak for span in self._spans.values()), default=0)

    def spans(self) -> List[ProfileSpan]:
        """Every operator span, unordered (use ``root`` for the tree)."""
        return list(self._spans.values())

    def summary(self) -> str:
        """Slow-log digest: top self-time operators plus the I/O totals."""
        base = super().summary()
        if self.root is None:
            return base
        extra = f"pages={self.page_reads_total} hits={self.page_hits_total}"
        if self.mem_peak:
            extra += f" mem={format_bytes(self.mem_peak)}"
        return f"{base} {extra}" if base else extra

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["buffers"] = dict(self.buffers)
        out["payload_bytes"] = self.payload_bytes_total
        return out
