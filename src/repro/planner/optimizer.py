"""Plan annotation and the LRU plan cache.

The planner orders stars by rule (``Planner._order_stars``); estimates never
choose a plan.  The :class:`QueryOptimizer` *annotates* finished plans: every
physical operator receives an ``estimated_rows`` value from the
:class:`~repro.columnar.CardinalityEstimator` (CS subject counts, property
fill factors, column statistics, exact index counts), so ``EXPLAIN`` can show
estimated vs. actual cardinalities and a running query can report progress.
(Hash-join build sides need no plan-time decision either: the executor's
``hash_join`` builds on whichever input is actually smaller.)

The :class:`PlanCache` keeps recently planned queries keyed on their front
end, normalized text and planner options, so repeated queries — SPARQL or
SQL — skip parsing and planning entirely; every engine scopes its keys by
what a plan reads of the store — its base generation and whether writes are
pending — so writes keep hitting and a new generation stops asking for old
plans.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence

from ..columnar import CardinalityEstimator
from ..engine import (
    AggregateOp,
    ExecutionContext,
    HashJoinOp,
    IndexScanOp,
    LimitOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    PhysicalOperator,
    RDFJoinOp,
    RDFScanOp,
)
from ..engine.operators import FilterNotEqualOp
from ..model.syntax import IRI_BODY

_NOT_EQUAL_SELECTIVITY = 0.9


class QueryOptimizer:
    """Plan annotation: estimated row counts on every operator.

    One optimizer is created per planner, so per store version; that costs
    nothing, because the statistics its estimator reads are kept by the
    columns and index stores they describe.
    """

    def __init__(self, context: ExecutionContext) -> None:
        self.estimator = CardinalityEstimator(
            schema=context.schema,
            index_store=context.index_store,
            clustered_store=context.clustered_store,
            delta=context.delta,
            dictionary=context.dictionary,
        )

    # -- plan annotation -----------------------------------------------------------

    def annotate(self, plan: PhysicalOperator) -> float:
        """Set ``estimated_rows`` on every operator of the plan, bottom-up.

        Returns the root estimate.  (Hash-join build sides are not decided
        here: the executor's ``hash_join`` already builds on whichever input
        is actually smaller, which beats any estimate-based choice.)
        """
        child_estimates = [self.annotate(child) for child in plan.children()]
        estimate = self._estimate_operator(plan, child_estimates)
        plan.estimated_rows = estimate
        return estimate

    def _estimate_operator(self, plan: PhysicalOperator,
                           child_estimates: Sequence[float]) -> float:
        est = self.estimator
        if isinstance(plan, MaterializedOp):
            return float(plan.table.num_rows)
        if isinstance(plan, IndexScanOp):
            s, p, o = plan.pattern.subject, plan.pattern.predicate, plan.pattern.object
            return est.pattern_cardinality(
                s=None if s.is_variable else s.oid,
                p=None if p.is_variable else p.oid,
                o=None if o.is_variable else o.oid,
                object_range=plan.object_range,
                subject_range=plan.subject_range,
            )
        if isinstance(plan, RDFScanOp):
            return est.star_cardinality(plan.star)
        if isinstance(plan, RDFJoinOp):
            child = child_estimates[0]
            star_rows = est.star_cardinality(plan.star)
            star_subjects = est.star_subject_cardinality(plan.star)
            return est.join_cardinality(child, star_rows, child, star_subjects)
        if isinstance(plan, NestedLoopIndexJoinOp):
            child = child_estimates[0]
            p, o = plan.pattern.predicate, plan.pattern.object
            pattern_rows = est.pattern_cardinality(
                p=None if p.is_variable else p.oid,
                o=None if o.is_variable else o.oid,
                object_range=plan.object_range,
            )
            # a variable predicate probes every triple of a subject
            subjects = (est.total_subjects() if p.is_variable
                        else est.distinct_subjects(p.oid))
            return child * pattern_rows / max(subjects, 1.0)
        if isinstance(plan, HashJoinOp):
            left, right = child_estimates
            return est.join_cardinality(left, right, max(left, 1.0), max(right, 1.0))
        if isinstance(plan, FilterNotEqualOp):
            return child_estimates[0] * _NOT_EQUAL_SELECTIVITY
        if isinstance(plan, LimitOp):
            return min(child_estimates[0], float(plan.limit))
        if isinstance(plan, AggregateOp):
            if not plan.group_vars:
                return 1.0
            return child_estimates[0]
        if len(child_estimates) == 1:
            return child_estimates[0]  # projection, distinct, ordering…
        if not child_estimates:
            return est.total_triples()
        return max(child_estimates)


class PlanCache:
    """LRU cache of prepared (parsed, lowered and planned) queries.

    Keys are built from the front end, the *normalized* query text
    (whitespace collapsed outside quoted literals, so reformatting a query
    still hits while ``"a b"`` and ``"a  b"`` stay distinct) and the planner
    options, which are part of plan identity: the same text planned under
    ``default`` and ``rdfscan`` schemes yields different physical plans,
    and the same string may be valid SPARQL and valid SQL.

    The cache stores ``(LogicalQuery, PhysicalOperator)`` pairs — a hit
    skips parsing, lowering *and* planning.  Plans are immutable templates:
    a run keeps its state in its operators' generator frames and what it
    observes on its own :class:`repro.obs.ActiveQuery`, so any number of
    snapshots may execute one cached plan at the same time.

    A plan is valid for a whole base generation, not for one write.  It
    embeds constant OIDs, head OID intervals and zone-map push-downs, all
    fixed until compaction, clustering or a reload starts a new generation;
    it reads the pending delta and the literal tail only at run time; and it
    depends on whether a write is pending (zone-map push-down pauses, SQL
    columns become nullable).  Every engine therefore puts ``(generation,
    pending)`` in front of its keys: the first write after a clean state
    and every new generation miss once, and every later write hits.  What
    the key cannot see is a constant that was absent at plan time and a
    write has since added: the lookup's ``valid`` check (the engine's
    re-check of :attr:`LogicalQuery.absent_terms
    <repro.planner.LogicalQuery.absent_terms>`) turns such a hit into a miss.
    Within a generation the dictionary only grows, so this is sound for
    newer readers and for snapshots pinned on older versions alike.
    Nothing clears the cache when the store changes — a superseded
    generation's plans are never asked for again and leave by LRU.

    A surviving plan keeps the estimates it was made with: the ``est=`` of
    ``explain()`` may describe an earlier delta than the run's.  Estimates
    only annotate a plan; they never choose one or change an answer.
    """

    _VERBATIM = re.compile(rf""""(?:[^"\\]|\\.)*"|'(?:[^']|'')*'|<{IRI_BODY}>|#[^\n]*\n?""")

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError("plan cache capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.RLock()
        """Concurrent readers of every version share one cache; all
        entry/counter access is serialized."""
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.lifetime_hits = 0
        self.lifetime_misses = 0
        self.lifetime_evictions = 0

    @staticmethod
    def make_key(frontend: str, text: str, options) -> tuple:
        """Cache key: front end, normalized query text, planner options.

        Whitespace is collapsed only *outside* quoted string literals
        (SPARQL's ``"…"``, SQL's ``'…'``), IRIREFs and ``#`` comments, which
        are kept verbatim: whitespace inside a literal is data, and the line
        break that ends a comment decides what the comment swallows, so
        either must keep distinct queries distinct.
        """
        parts = []
        last = 0
        for match in PlanCache._VERBATIM.finditer(text):
            parts.append(" ".join(text[last:match.start()].split()))
            parts.append(match.group(0))
            last = match.end()
        parts.append(" ".join(text[last:].split()))
        return (frontend, " ".join(part for part in parts if part), options)

    def lookup(self, key: tuple, valid: Optional[Callable[[object], bool]] = None):
        """Return the cached entry (refreshing recency) or ``None``.

        An entry ``valid`` rejects counts as a miss; the caller's
        :meth:`insert` then replaces it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (valid is not None and not valid(entry)):
                self.lifetime_misses += 1
                return None
            self._entries.move_to_end(key)
            self.lifetime_hits += 1
            return entry

    def insert(self, key: tuple, value) -> None:
        """Insert an entry, evicting the least recently used beyond capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.lifetime_evictions += 1

    def clear(self) -> None:
        """Drop every entry (the ``lifetime_*`` counters keep counting).  For
        measurements that want a cold cache; the store never calls it."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for monitoring: size, capacity and the hits, misses and
        evictions since the cache was made."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "lifetime_hits": self.lifetime_hits,
                "lifetime_misses": self.lifetime_misses,
                "lifetime_evictions": self.lifetime_evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
