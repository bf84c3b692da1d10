"""Cost-based join ordering, plan annotation and the LRU plan cache.

The heuristic planner orders stars by counting constraints.  The
:class:`QueryOptimizer` replaces that with cardinality-driven ordering:

* per-star cardinalities come from :class:`~repro.columnar.CardinalityEstimator`
  (CS subject counts, property fill factors, column statistics, exact index
  counts);
* star join orders are enumerated with a Selinger-style dynamic program over
  left-deep orders (greedy beyond :data:`QueryOptimizer.DP_STAR_LIMIT` stars);
  each candidate join is priced through the store's
  :class:`~repro.columnar.CostModel` from its estimated input/output
  cardinalities;
* finished plans are *annotated*: every physical operator receives an
  ``estimated_rows`` value so ``EXPLAIN`` can show estimated vs. actual
  cardinalities.  (Hash-join build sides need no plan-time decision: the
  executor's ``hash_join`` builds on whichever input is actually smaller.)

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
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    StarPattern,
)
from ..engine.operators import FilterNotEqualOp
from ..model.syntax import IRI_BODY

_NOT_EQUAL_SELECTIVITY = 0.9


@dataclass
class _StarProfile:
    """Pre-computed estimation facts about one star pattern."""

    index: int
    star: StarPattern
    rows: float
    subjects: float
    variables: FrozenSet[str]
    distincts: Dict[str, float] = field(default_factory=dict)


class QueryOptimizer:
    """Cardinality-driven join ordering and plan annotation.

    One optimizer is created per planner, so per store version; that costs
    nothing, because the statistics its estimator reads are kept by the
    columns and index stores they describe.
    """

    DP_STAR_LIMIT = 8
    """Largest star count enumerated exhaustively; larger queries go greedy."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context
        self.estimator = CardinalityEstimator(
            schema=context.schema,
            index_store=context.index_store,
            clustered_store=context.clustered_store,
            delta=context.delta,
            dictionary=context.dictionary,
        )
        self.cost_model = context.cost_model

    # -- star join ordering ------------------------------------------------------

    def order_stars(self, star_patterns: Dict[str, StarPattern]) -> List[StarPattern]:
        """Return the stars in estimated-cheapest join order.

        Orders are left-deep; each extension is priced as one hash join
        through the cost model from the estimated input and output
        cardinalities, and order cost is the sum of those join costs (a
        seconds-weighted ``C_out``).  Cross products are allowed (they stay
        correct — the executor falls back to a cross join when no variable
        is shared) but their multiplicative blow-up prices them out of
        contention naturally.
        """
        stars = [star_patterns[name] for name in sorted(star_patterns)]
        if len(stars) <= 1:
            return stars
        profiles = [self._profile(i, star) for i, star in enumerate(stars)]
        if len(stars) <= self.DP_STAR_LIMIT:
            order = self._dp_order(profiles)
        else:
            order = self._greedy_order(profiles)
        return [stars[i] for i in order]

    def star_cardinality(self, star: StarPattern) -> float:
        """Estimated result rows of one star (delegates to the estimator)."""
        return self.estimator.star_cardinality(star)

    def pattern_cardinality(self, predicate_oid: int, object_oid: Optional[int] = None,
                            object_range=None, subject_range=None) -> float:
        """Estimated rows of one ``?s <p> o`` pattern (for property ordering)."""
        return self.estimator.pattern_cardinality(
            p=predicate_oid, o=object_oid,
            object_range=object_range, subject_range=subject_range)

    def _profile(self, index: int, star: StarPattern) -> _StarProfile:
        rows = max(self.estimator.star_cardinality(star), 0.0)
        subjects = max(self.estimator.star_subject_cardinality(star), 0.0)
        variables = frozenset(star.output_variables())
        distincts: Dict[str, float] = {star.subject_var: max(subjects, 1.0)}
        for prop in star.properties:
            term = prop.object_term
            if term.is_variable and term.var not in distincts:
                distinct = self.estimator.distinct_objects(prop.predicate_oid)
                distincts[term.var] = max(min(max(rows, 1.0), distinct), 1.0)
        return _StarProfile(index=index, star=star, rows=rows, subjects=subjects,
                            variables=variables, distincts=distincts)

    @staticmethod
    def _joined_rows(rows: float, bound_vars: FrozenSet[str], profile: _StarProfile) -> float:
        """Estimated rows after joining ``profile`` into a plan of ``rows``."""
        result = rows * max(profile.rows, 0.0)
        for var in bound_vars & profile.variables:
            result /= profile.distincts.get(var, 1.0)
        return max(result, 0.0)

    def _extension_cost(self, rows: float, new_rows: float, profile: _StarProfile) -> float:
        """Price of joining one more star into the running plan, in seconds."""
        return self.cost_model.estimate_hash_join_seconds(rows, profile.rows, new_rows)

    def _dp_order(self, profiles: List[_StarProfile]) -> List[int]:
        """Selinger-style DP over left-deep orders, minimizing summed join cost."""
        n = len(profiles)
        # state: frozenset of profile indices -> (cost, rows, bound_vars, order)
        best: Dict[FrozenSet[int], Tuple[float, float, FrozenSet[str], Tuple[int, ...]]] = {}
        for p in profiles:
            best[frozenset((p.index,))] = (self.cost_model.estimate_scan_seconds(p.rows),
                                           p.rows, p.variables, (p.index,))
        for _size in range(1, n):
            current = [(key, value) for key, value in best.items() if len(key) == _size]
            for key, (cost, rows, bound_vars, order) in current:
                for p in profiles:
                    if p.index in key:
                        continue
                    new_rows = self._joined_rows(rows, bound_vars, p)
                    new_cost = cost + self._extension_cost(rows, new_rows, p)
                    new_key = key | {p.index}
                    candidate = (new_cost, new_rows, bound_vars | p.variables,
                                 order + (p.index,))
                    existing = best.get(new_key)
                    if existing is None or (candidate[0], candidate[3]) < (existing[0], existing[3]):
                        best[new_key] = candidate
        return list(best[frozenset(range(n))][3])

    def _greedy_order(self, profiles: List[_StarProfile]) -> List[int]:
        """Greedy fallback for wide queries: smallest star first, then the
        connected star whose join is estimated cheapest."""
        remaining = {p.index: p for p in profiles}
        first = min(remaining.values(), key=lambda p: (p.rows, p.index))
        order = [first.index]
        rows = first.rows
        bound_vars = frozenset(first.variables)
        del remaining[first.index]
        while remaining:
            connected = [p for p in remaining.values() if bound_vars & p.variables]
            candidates = connected or list(remaining.values())

            def extension_key(p: _StarProfile):
                new_rows = self._joined_rows(rows, bound_vars, p)
                return (self._extension_cost(rows, new_rows, p), p.index)

            choice = min(candidates, key=extension_key)
            rows = self._joined_rows(rows, bound_vars, choice)
            bound_vars = bound_vars | choice.variables
            order.append(choice.index)
            del remaining[choice.index]
        return order

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
    ``default`` and ``optimized`` schemes yields different physical plans,
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
    order stars; they never change an answer.
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
