"""Live query management: the per-run object, the active-query registry and
cooperative cancellation.

Every query a store executes is registered here for its lifetime: the
registry assigns a stable integer id and tracks what an operator of a
multi-tenant server needs to see — who is running what, under which plan
scheme, since when, how far along it is, and whether someone asked it to
stop.  The :class:`ActiveQuery` handle is also *the* per-run object: a
physical plan is an immutable template, and everything one execution of it
produces — per-operator row counts, residual-subject counts, parse, plan and
execution time, an optional :class:`~repro.obs.QueryTrace` — lives on the
handle the engine carries in the context's one observation slot
(``context.run``).  ``PhysicalOperator.batches`` checks ``run.enabled``
once per operator per run; a bare run (:data:`NULL_ACTIVE_QUERY`) then
streams unobserved, an observed one adds each batch to the tally
:meth:`ActiveQuery.tally` handed out, without a call per batch.

Cancellation is *cooperative*: :meth:`ActiveQueryRegistry.cancel` merely
sets a flag; the executing thread observes it at its next batch boundary
and raises :class:`~repro.errors.QueryCancelledError`, which closes the
operator tree's generators (releasing each run's hash tables and scans),
unwinds through the engine, and out of ``RDFStore.run_query`` — MVCC
snapshot pins are released by the same context managers that would release
them on success.  A query between batch boundaries (inside a numpy kernel)
finishes that batch first; cancellation latency is therefore bounded by one
batch, never by the whole query.

Progress is estimated from the planner's cardinality annotations:
each operator's live row count is compared against its ``estimated_rows``,
and the completion fraction is the estimate-weighted sum, clamped per
operator and kept monotonically non-decreasing (an estimate may be wrong;
the bar must still only move forward).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from ..errors import QueryCancelledError

__all__ = ["ActiveQuery", "ActiveQueryRegistry", "NULL_ACTIVE_QUERY",
           "NullActiveQuery"]


def _normalize(text: str) -> str:
    return " ".join(text.split())


class ActiveQuery:
    """One registered execution of a plan: its identity and all its state.

    The executing thread is the only mutator of the per-batch fields;
    listing threads read them racily (a snapshot may be one batch stale),
    which is exactly the consistency a ``top`` view needs.  The
    ``cancel_requested`` flag is written by the cancelling thread and read
    by the executing thread — a plain attribute store/load, safe under the
    GIL and checked once per batch.
    """

    enabled = True

    __slots__ = ("query_id", "text", "frontend", "scheme", "source",
                 "started_at", "cancel_requested", "cancel_reason",
                 "trace", "parse_seconds", "plan_seconds", "total_seconds", "residuals",
                 "_started_perf", "_pool", "_buffers_mark", "_tallies",
                 "_est_by_op", "_plan", "_current_op", "_progress_peak")

    def __init__(self, query_id: int, text: str, frontend: str, scheme: str,
                 source: str = "store", pool=None, trace=None) -> None:
        self.query_id = query_id
        self.text = _normalize(text)
        self.frontend = frontend
        self.scheme = scheme
        self.source = source
        self.started_at = time.time()
        self._started_perf = time.perf_counter()
        self.cancel_requested = False
        self.cancel_reason = ""
        self.trace = trace
        """The run's :class:`~repro.obs.QueryTrace`, if any."""
        self.parse_seconds = 0.0
        """Query text to AST; zero on a plan-cache hit."""
        self.plan_seconds = 0.0
        """AST to annotated physical plan (lowering, push-down, ordering,
        estimates); zero on a plan-cache hit."""
        self.total_seconds = 0.0
        """Wall time of the plan's execution, set by the executor."""
        self.residuals: Dict[object, int] = {}
        """Per star operator, the subjects its clustered scan answers by the
        residual scan in this run (counted before candidate or subject-range
        narrowing, hence the same at every batch size)."""
        self._pool = pool
        self._buffers_mark = _buffer_counters(pool) if pool is not None else None
        self._tallies: Dict[object, List[int]] = {}
        self._est_by_op: Dict[object, float] = {}
        self._plan = None
        self._current_op = None
        self._progress_peak = 0.0

    # -- engine-side hooks (hot path) ------------------------------------------

    def attach_plan(self, plan) -> None:
        """Capture the plan's per-operator cardinality estimates.

        Called by the executor before the first batch is pulled (cached
        plans carry their annotations); the estimate map is immutable
        afterwards, so listing threads can iterate it without locking.
        Operators are the keys, so the run keeps the plan alive.
        """
        estimates: Dict[object, float] = {}
        stack = [plan]
        while stack:
            op = stack.pop()
            estimated = op.estimated_rows
            if estimated is not None and estimated > 0:
                estimates[op] = float(estimated)
            stack.extend(op.children())
        self._est_by_op = estimates
        self._plan = plan

    def tally(self, op) -> List[int]:
        """This run's ``[rows, batches]`` tally for ``op``, handed to the
        operator's batch stream as it starts; the stream adds each emitted
        batch to it in place (executing thread only), so accounting a batch
        costs no call."""
        self._current_op = op
        return self._tallies.setdefault(op, [0, 0])

    @property
    def rows(self) -> int:
        """Rows the plan's root has emitted so far."""
        return self._tallies.get(self._plan, _NO_TALLY)[0]

    @property
    def batches(self) -> int:
        """Batches the plan's root has emitted so far."""
        return self._tallies.get(self._plan, _NO_TALLY)[1]

    def executed(self, seconds: float) -> None:
        """The executor's wall time for the plan; completes the trace."""
        self.total_seconds = seconds
        if self.trace is not None:
            self.trace.finish(seconds, self.parse_seconds, self.plan_seconds,
                              self._buffers_mark)

    def raise_cancelled(self) -> None:
        """Raise the typed cancellation error (executing thread only)."""
        raise QueryCancelledError(
            f"query {self.query_id} cancelled"
            + (f": {self.cancel_reason}" if self.cancel_reason else ""),
            query_id=self.query_id)

    # -- introspection ---------------------------------------------------------

    def actual(self, op) -> Optional[int]:
        """Rows ``op`` emitted in this run (``None`` if it never ran)."""
        tally = self._tallies.get(op)
        return tally[0] if tally is not None else None

    def explain_note(self, op) -> str:
        """This run's ``actual=… residual=… time=… pages=…`` tokens for one
        operator line of ``plan.explain(run=…)`` (empty if it never ran)."""
        parts = []
        rows = self.actual(op)
        if rows is not None:
            parts.append(f"actual={rows}")
        residual = self.residuals.get(op)
        if residual is not None:
            parts.append(f"residual={residual}")
        span = self.trace.span_for(op) if self.trace is not None else None
        if span is not None:
            parts.append(span.explain_tokens())
        return " ".join(parts)

    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._started_perf

    def progress(self) -> Optional[float]:
        """Estimated completion fraction in ``[0, 1]``, or ``None``.

        ``None`` when the plan's estimates sum to zero (every scheme
        annotates them; an empty plan estimates nothing).  Monotonically
        non-decreasing across calls, clamped per operator so one
        underestimated scan cannot report 300%.
        """
        estimates = self._est_by_op
        total = sum(estimates.values())
        if not total:
            return None
        tallies = self._tallies
        done = 0.0
        for op, estimate in estimates.items():
            emitted = tallies.get(op, _NO_TALLY)[0]
            done += emitted if emitted < estimate else estimate
        fraction = done / total
        if fraction > 1.0:
            fraction = 1.0
        if fraction > self._progress_peak:
            self._progress_peak = fraction
        return self._progress_peak

    def current_operator(self) -> str:
        """Describe-string of the operator that most recently started."""
        op = self._current_op
        return op.describe() if op is not None else ""

    def describe(self) -> Dict[str, object]:
        """One listing row: everything ``/queries`` and ``top`` render."""
        entry: Dict[str, object] = {
            "id": self.query_id,
            "frontend": self.frontend,
            "scheme": self.scheme,
            "source": self.source,
            "text": self.text[:500],
            "started_at": self.started_at,
            "elapsed_seconds": self.elapsed_seconds(),
            "rows": self.rows,
            "batches": self.batches,
            "progress": self.progress(),
            "operator": self.current_operator(),
            "cancel_requested": self.cancel_requested,
        }
        if self._buffers_mark is not None:
            now = _buffer_counters(self._pool)
            entry["buffers"] = {key: now[key] - self._buffers_mark[key]
                                for key in now}
        return entry


_NO_TALLY = (0, 0)


def _buffer_counters(pool) -> Dict[str, int]:
    """The pool's monotonic counters, read without its lock: a listing
    tolerates a value one access stale, and a run should not pay for the
    pool's full ``stats()`` just to be listable."""
    return {"page_reads": pool.tracker.page_reads,
            "page_hits": pool.tracker.page_hits,
            "evictions": pool.evictions,
            "lazy_values_loaded": pool.lazy_values_loaded}


class NullActiveQuery:
    """The run of an unregistered execution: nothing is observed.

    ``enabled`` is False: the engine checks it once per run and once per
    operator per run, then streams batches untouched — no accounting, no
    spans, no cancellation.  Stateless, hence shared.
    """

    enabled = False
    trace = None

    def explain_note(self, op) -> str:
        return ""


NULL_ACTIVE_QUERY = NullActiveQuery()
"""Shared default; ``context.run is NULL_ACTIVE_QUERY`` when the execution
is not registered (bare-engine runs, internal DELETE WHERE)."""


class ActiveQueryRegistry:
    """Tracks every in-flight query of one store; store-lifetime.

    Like the metrics registry, it survives rebuilds and compactions, so
    query ids stay unique for the life of the store and a ``top`` view
    never observes an id reset.
    """

    def __init__(self, events=None, metrics=None) -> None:
        self._lock = threading.Lock()
        self._next_id = 0
        self._active: Dict[int, ActiveQuery] = {}
        self._events = events
        self._cancelled_total = None
        if metrics is not None:
            self._cancelled_total = metrics.counter(
                "queries_cancelled_total",
                "Cancellation requests that reached a running query.")
            metrics.gauge("active_queries",
                          "Queries currently executing on this store.",
                          fn=self.active_count)

    # -- lifecycle (called from RDFStore.run_query) ----------------------------

    def begin(self, text: str, frontend: str, scheme: str,
              source: str = "store", pool=None, trace=None) -> ActiveQuery:
        """Register a query that is about to execute; returns its run."""
        with self._lock:
            self._next_id += 1
            query = ActiveQuery(self._next_id, text, frontend, scheme,
                                source=source, pool=pool, trace=trace)
            self._active[query.query_id] = query
        if self._events is not None:
            self._events.emit("query_start", id=query.query_id,
                              frontend=frontend, scheme=scheme, source=source,
                              text=query.text[:200])
        return query

    def finish(self, query: ActiveQuery, seconds: float = 0.0,
               status: str = "finished",
               error: Optional[BaseException] = None) -> None:
        """Deregister a query (idempotent); emits the lifecycle event.

        ``status`` is ``finished`` or ``cancelled``; pass ``error`` for
        failed runs (emits ``query_error`` instead of ``query_finish``).
        The event's ``rows`` are the rows the plan's root had emitted.
        """
        with self._lock:
            if self._active.pop(query.query_id, None) is None:
                return
        if self._events is None:
            return
        if error is not None:
            self._events.emit("query_error", id=query.query_id,
                              frontend=query.frontend,
                              error=f"{type(error).__name__}: {error}",
                              seconds=seconds)
        else:
            self._events.emit("query_finish", id=query.query_id,
                              frontend=query.frontend, status=status,
                              rows=query.rows, seconds=seconds)

    # -- control & introspection (any thread) ----------------------------------

    def cancel(self, query_id: int, reason: str = "") -> bool:
        """Request cooperative cancellation of a running query.

        Returns True when the id was active (the flag is now set and the
        executing thread will unwind at its next batch boundary); False for
        unknown or already-finished ids — cancelling those is a no-op.
        """
        with self._lock:
            query = self._active.get(query_id)
            if query is None:
                return False
            query.cancel_reason = reason
            query.cancel_requested = True
        if self._cancelled_total is not None:
            self._cancelled_total.inc()
        if self._events is not None:
            self._events.emit("query_cancel", id=query_id, reason=reason)
        return True

    def get(self, query_id: int) -> Optional[ActiveQuery]:
        with self._lock:
            return self._active.get(query_id)

    def active(self) -> List[Dict[str, object]]:
        """Listing rows for every in-flight query, oldest first."""
        with self._lock:
            queries = sorted(self._active.values(),
                             key=lambda q: q.query_id)
        return [query.describe() for query in queries]

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)
