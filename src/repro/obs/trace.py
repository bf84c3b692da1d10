"""Per-query trace spans over the operators' batch streams.

A :class:`QueryTrace` builds a span tree mirroring the physical plan:
``PhysicalOperator.batches`` pulls a traced run's batches through
:meth:`QueryTrace.timed`, which wraps each pull from an operator in
:meth:`QueryTrace.enter` / :meth:`QueryTrace.exit`, and the trace
accumulates per-operator wall time (cumulative, with *self* time derived
by subtracting child time), batch and row counts.  Spans are keyed
by operator identity, so one span aggregates all pulls from the same
operator across the whole run.

A trace hangs off the run it belongs to (``ActiveQuery.trace``); a run
without one pays nothing for tracing.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

__all__ = ["QueryTrace", "TraceSpan"]


class TraceSpan:
    """Aggregated timings for one physical operator within one execution."""

    __slots__ = ("label", "parent", "children", "seconds", "rows", "batches",
                 "bytes", "calls", "_entered_at")

    def __init__(self, label: str, parent: Optional["TraceSpan"] = None) -> None:
        self.label = label
        self.parent = parent
        self.children: List["TraceSpan"] = []
        self.seconds = 0.0       # cumulative wall time (includes children)
        self.rows = 0
        self.batches = 0
        self.bytes = 0           # payload bytes of emitted batches
        self.calls = 0
        self._entered_at = 0.0
        if parent is not None:
            parent.children.append(self)

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this operator minus time in its children."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def explain_tokens(self) -> str:
        """This operator's ``time=`` token for ``plan.explain(run=…)``."""
        return f"time={self.self_seconds * 1000.0:.3f}ms"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "rows": self.rows,
            "batches": self.batches,
            "bytes": self.bytes,
            "calls": self.calls,
            "children": [c.as_dict() for c in self.children],
        }

    def render(self, indent: int = 0) -> List[str]:
        line = (f"{'  ' * indent}{self.label} "
                f"time={self.self_seconds * 1000.0:.3f}ms "
                f"total={self.seconds * 1000.0:.3f}ms "
                f"rows={self.rows} batches={self.batches}")
        lines = [line]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


class QueryTrace:
    """A span tree for one query execution.

    Not thread-safe by design: one trace belongs to one run, and one run
    executes on one thread.
    """

    span_class = TraceSpan
    """Span factory — :class:`~repro.obs.profile.QueryProfile` swaps in a
    resource-accounting subclass without touching the protocol."""

    def __init__(self) -> None:
        self.root: Optional[TraceSpan] = None
        self._spans: Dict[int, TraceSpan] = {}
        self._stack: List[TraceSpan] = []
        self.started_at = time.time()
        self.total_seconds = 0.0
        self.parse_seconds = 0.0
        self.plan_seconds = 0.0
        """What came before the operators ran; both zero on a plan-cache hit."""

    # -- span protocol (driven by PhysicalOperator.batches) --------------------

    def enter(self, op) -> TraceSpan:
        """Start timing a pull from ``op``; returns the span to pass to exit."""
        key = id(op)
        span = self._spans.get(key)
        if span is None:
            parent = self._stack[-1] if self._stack else None
            span = self.span_class(op.describe(), parent)
            self._spans[key] = span
            if parent is None and self.root is None:
                self.root = span
        self._stack.append(span)
        span._entered_at = time.perf_counter()
        return span

    def exit(self, span: TraceSpan, batch=None) -> None:
        """Stop timing and account the pulled ``batch`` (``None``: the
        stream ended or raised); only the outermost frame of a span accrues
        time (operators recurse into themselves only via distinct objects,
        but a guard keeps re-entrancy safe)."""
        elapsed = time.perf_counter() - span._entered_at
        self._stack.pop()
        if span not in self._stack:  # guard against pathological re-entry
            span.seconds += elapsed
        span.calls += 1
        if batch is not None:
            span.rows += batch.live_count()
            span.batches += 1
            span.bytes += batch.payload_bytes()

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
                return
            yield batch

    # -- results ---------------------------------------------------------------

    def span_for(self, op: object) -> Optional[TraceSpan]:
        return self._spans.get(id(op))

    def finish(self, total_seconds: float, parse_seconds: float = 0.0,
               plan_seconds: float = 0.0) -> None:
        self.total_seconds = total_seconds
        self.parse_seconds = parse_seconds
        self.plan_seconds = plan_seconds

    def as_dict(self) -> dict:
        return {
            "started_at": self.started_at,
            "total_seconds": self.total_seconds,
            "parse_seconds": self.parse_seconds,
            "plan_seconds": self.plan_seconds,
            "root": self.root.as_dict() if self.root is not None else None,
        }

    def render(self) -> str:
        """The span tree as indented text, one operator per line."""
        if self.root is None:
            return "(empty trace)"
        return "\n".join(self.root.render())

    def summary(self) -> str:
        """One-line digest for the slow-query log."""
        if self.root is None:
            return ""
        top = sorted(self._spans.values(), key=lambda s: s.self_seconds,
                     reverse=True)[:3]
        parts = [f"parse={self.parse_seconds * 1000.0:.2f}ms",
                 f"plan={self.plan_seconds * 1000.0:.2f}ms"]
        parts.extend(f"{s.label.split('[')[0].strip()}={s.self_seconds * 1000.0:.2f}ms"
                     for s in top)
        return " ".join(parts)
