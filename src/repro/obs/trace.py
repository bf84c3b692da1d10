"""Per-query trace: a span tree over the operators' batch streams, with
time, rows, pages and payload attributed to each operator.

A :class:`QueryTrace` builds a span tree mirroring the physical plan:
``PhysicalOperator.batches`` pulls a traced run's batches through
:meth:`QueryTrace.timed`, which wraps each pull from an operator in
:meth:`QueryTrace.enter` / :meth:`QueryTrace.exit`.  Spans are keyed by
operator identity, so one span aggregates all pulls from the same operator
across the whole run, and accounts, per operator:

* **wall time** — cumulative (a parent's includes its children's), with
  *self* time derived by subtracting child time;
* **rows, batches and payload bytes** of the batches each pull returned;
* **buffer-pool activity** — page reads, page hits and lazily materialized
  column values, as deltas of the pool's monotonic counters between span
  entry and exit (cumulative like wall time; ``self_page_reads`` subtracts
  child activity);
* **peak allocations** (opt-in, ``memory=True``) — sampled with
  :mod:`tracemalloc` by resetting the peak at span entry and reading it at
  exit.  Nested spans reset the shared peak counter, so a parent's number
  reflects its own frames between child calls — an approximation, far
  cheaper than snapshotting allocation traces per batch, and good enough
  to point at the operator that allocates.

Only the outermost frame of a span accrues time, pages and allocations, so
an operator re-entered through itself is not counted twice.

The trace is only the span tree.  What the whole run took — its phases,
its wall time and its query-level ``buffers`` (the pool's
:meth:`~repro.columnar.BufferPool.snapshot_delta` since the mark the run
took when it was registered, planning included) — is on the run the trace
hangs off (``ActiveQuery.trace``), and the per-operator totals reconcile
against it: ``sum(self_page_reads) == root.page_reads <=
run.buffers["page_reads"]``.  Under concurrent queries the pool counters
are shared, so cross-query attribution is best-effort — the same caveat as
``BUFFERS`` accounting in any multi-user database.  A run without a trace
pays nothing for tracing.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, Iterator, List, Optional

__all__ = ["QueryTrace", "TraceSpan", "format_bytes"]


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


class TraceSpan:
    """Aggregated time and resources of one physical operator within one
    execution."""

    __slots__ = ("label", "parent", "children", "seconds", "rows", "batches",
                 "bytes", "calls", "page_reads", "page_hits", "lazy_values",
                 "mem_peak", "_entered_at", "_counters_at_enter")

    def __init__(self, label: str, parent: Optional["TraceSpan"] = None) -> None:
        self.label = label
        self.parent = parent
        self.children: List["TraceSpan"] = []
        self.seconds = 0.0       # cumulative wall time (includes children)
        self.rows = 0
        self.batches = 0
        self.bytes = 0           # payload bytes of emitted batches
        self.calls = 0
        self.page_reads = 0      # cumulative, includes children (like seconds)
        self.page_hits = 0
        self.lazy_values = 0
        self.mem_peak = 0        # peak tracemalloc bytes seen in own frames
        self._entered_at = 0.0
        self._counters_at_enter: Optional[tuple] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this operator minus time in its children."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

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
        """``time=`` and ``pages=`` (plus ``mem=`` when sampled) for this
        operator's line of ``plan.explain(run=…)``."""
        tokens = f"time={self.self_seconds * 1000.0:.3f}ms pages={self.self_page_reads}"
        if self.mem_peak:
            tokens += f" mem={format_bytes(self.mem_peak)}"
        return tokens

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "rows": self.rows,
            "batches": self.batches,
            "bytes": self.bytes,
            "calls": self.calls,
            "page_reads": self.page_reads,
            "self_page_reads": self.self_page_reads,
            "page_hits": self.page_hits,
            "lazy_values": self.lazy_values,
            "mem_peak": self.mem_peak,
            "children": [c.as_dict() for c in self.children],
        }

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


class QueryTrace:
    """A span tree for one query execution.

    Args:
        pool: the store's :class:`~repro.columnar.BufferPool`; ``None``
            traces time, rows and bytes only (no page attribution).
        memory: sample per-operator allocation peaks with ``tracemalloc``
            (starts tracing if nothing else did, and stops it again when
            the root operator's stream ends).  Roughly an order of
            magnitude of overhead — strictly opt-in.

    Not thread-safe by design: one trace belongs to one run, and one run
    executes on one thread.
    """

    def __init__(self, pool=None, memory: bool = False) -> None:
        self.pool = pool
        self.memory = bool(memory)
        self.root: Optional[TraceSpan] = None
        self._spans: Dict[int, TraceSpan] = {}
        self._stack: List[TraceSpan] = []
        self._owns_tracemalloc = False
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- span protocol (driven by PhysicalOperator.batches) --------------------

    def enter(self, op) -> TraceSpan:
        """Start timing a pull from ``op``; returns the span to pass to exit."""
        key = id(op)
        span = self._spans.get(key)
        if span is None:
            parent = self._stack[-1] if self._stack else None
            span = self._spans[key] = TraceSpan(op.describe(), parent)
            if parent is None and self.root is None:
                self.root = span
        elif span in self._stack:  # a re-entered frame: the outer one accounts
            self._stack.append(span)
            return span
        self._stack.append(span)
        pool = self.pool
        if pool is not None:
            tracker = pool.tracker
            span._counters_at_enter = (tracker.page_reads, tracker.page_hits,
                                       pool.lazy_values_loaded)
        if self.memory:
            tracemalloc.reset_peak()
        span._entered_at = time.perf_counter()
        return span

    def exit(self, span: TraceSpan, batch=None) -> None:
        """Stop timing and account the pulled ``batch`` (``None``: the
        stream ended or raised); only the outermost frame of a span accrues
        time, pages and allocations."""
        elapsed = time.perf_counter() - span._entered_at
        self._stack.pop()
        span.calls += 1
        if batch is not None:
            span.rows += batch.num_rows
            span.batches += 1
            span.bytes += batch.payload_bytes()
        if span in self._stack:
            return
        span.seconds += elapsed
        marks = span._counters_at_enter
        if marks is not None:
            pool = self.pool
            tracker = pool.tracker
            span.page_reads += tracker.page_reads - marks[0]
            span.page_hits += tracker.page_hits - marks[1]
            span.lazy_values += pool.lazy_values_loaded - marks[2]
            span._counters_at_enter = None
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            if peak > span.mem_peak:
                span.mem_peak = peak

    def timed(self, op, stream) -> Iterator:
        """``stream``'s batches, each pull from it timed in ``op``'s span."""
        while True:
            span = self.enter(op)
            batch = None
            try:
                batch = next(stream, None)
            finally:
                self.exit(span, batch)
            if batch is None:
                if not self._stack:  # the root's stream ended: the run is done
                    self._stop_tracemalloc()
                return
            yield batch

    # -- results ---------------------------------------------------------------

    def span_for(self, op: object) -> Optional[TraceSpan]:
        return self._spans.get(id(op))

    def spans(self) -> List[TraceSpan]:
        """Every operator span, unordered (use ``root`` for the tree)."""
        return list(self._spans.values())

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

    def as_dict(self) -> dict:
        return {
            "root": self.root.as_dict() if self.root is not None else None,
            "payload_bytes": self.payload_bytes_total,
        }

    def render(self) -> str:
        """The span tree as indented text, one operator per line."""
        if self.root is None:
            return "(empty trace)"
        return "\n".join(self.root.render())

    def summary(self) -> str:
        """One-line digest of the operators for the slow-query log (the
        run prefixes its phases, ``ActiveQuery.summary``): the top
        self-time operators and the I/O totals."""
        if self.root is None:
            return ""
        top = sorted(self._spans.values(), key=lambda s: s.self_seconds,
                     reverse=True)[:3]
        parts = [f"{s.label.split('[')[0].strip()}={s.self_seconds * 1000.0:.2f}ms"
                 for s in top]
        parts.append(f"pages={self.page_reads_total} hits={self.page_hits_total}")
        if self.mem_peak:
            parts.append(f"mem={format_bytes(self.mem_peak)}")
        return " ".join(parts)
