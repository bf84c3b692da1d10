"""Plan annotation and the LRU plan cache.

The planner orders stars by rule (``Planner._order_stars``); estimates never
choose a plan.  The :class:`QueryOptimizer` *annotates* finished plans: every
physical operator receives an ``estimated_rows`` value from the
:class:`~repro.columnar.CardinalityEstimator` (CS subject counts, property
fill factors, column statistics, exact index counts), so ``EXPLAIN`` can show
estimated vs. actual cardinalities and a running query can report progress.
(Nor do estimates pick a hash join's build side: ``HashJoinOp`` always
drains its left child — the plan so far — as the build side and streams its
right child as the probe.)

The :class:`PlanCache` keeps recently prepared query templates keyed on
their front end, *shape* (the normalized text with its constants lifted
out) and planner options, so a query of a known shape — SPARQL or SQL —
binds its constants into the template instead of being parsed and lowered
again; every engine scopes its keys by what a plan reads of the store — its
base generation and whether writes are pending — so writes keep hitting and
a new generation stops asking for old templates.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Dict, Sequence, Tuple

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
from ..model.syntax import IRI_BODY, STRING_BODY
from .logical import LogicalQuery

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
        here: ``HashJoinOp`` always builds on its left child, the plan so
        far, and probes with its right.)
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
            if plan.key == "o":
                # each input row finds the subjects of one object value
                return (child * est.predicate_count(p.oid)
                        / max(est.distinct_objects(p.oid), 1.0))
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


class PlanTemplate:
    """A plan-cache entry: one lowered query template.

    ``structural`` are the lifted slots the template does not bind — a
    predicate IRI, a ``PREFIX`` IRI, a ``LIMIT`` count, a number in an
    arithmetic expression: their values shaped the template, so they are
    part of its key (``sub``).  ``binding`` is ``(values, (logical, plan))``
    of the text that made the template, when it found every constant
    present.
    """

    __slots__ = ("query", "structural", "sub", "binding")

    def __init__(self, query: LogicalQuery, values: Tuple[str, ...]) -> None:
        self.query = query
        bound = query.slots()
        self.structural = tuple(slot for slot in range(len(values)) if slot not in bound)
        self.sub = self.sub_key(values)
        self.binding = None

    def sub_key(self, values: Tuple[str, ...]) -> tuple:
        """The structural slots and ``values``' texts at them."""
        return self.structural, tuple(values[slot] for slot in self.structural)


class PlanCache:
    """LRU cache of query templates (parsed and lowered queries).

    A text is keyed by its *shape* (:meth:`make_key`): the front end, the
    normalized text with each IRIREF, quoted literal and bare number lifted
    out into a slot, the slot count and the planner options, which are part
    of plan identity — the same text planned under ``default`` and
    ``rdfscan`` yields different physical plans, and the same string may be
    valid SPARQL and valid SQL.  The entry under a shape is the
    :class:`PlanTemplate` the shape's first text made; a text whose values
    at that template's structural slots differ finds its own template under
    the shape plus those values.  A hit binds the text's values into the
    template (:meth:`LogicalQuery.bind <repro.planner.LogicalQuery.bind>`)
    and plans the bound query — no parsing, no name resolution.  The plan
    of a binding is kept too, under the template's key plus the values, as
    the least recently used entry: a text repeated while it stays — or the
    text that made the template — reuses its plan, and a stream of one-off
    constants never evicts a template.  Plans are immutable templates: a
    run keeps its state in its operators' generator frames and what it
    observes on its own :class:`repro.obs.ActiveQuery`, so any number of
    snapshots may execute one plan at the same time.

    A template is valid for a whole base generation, not for one write: the
    names it resolved do not change until compaction, clustering or a
    reload starts a new generation, and it depends on whether a write is
    pending (the zone-map push-down bounds head rows only, SQL columns
    become nullable).  Every engine therefore puts ``(generation,
    pending)`` in front of its keys:
    the first write after a clean state and every new generation miss once,
    and every later write hits.  A binding resolves its constants against
    the dictionary of the version it runs on, so a constant a write has
    added is found; a binding that found one absent is never reused.
    Nothing clears the cache when the store changes — a superseded
    generation's entries are never asked for again and leave by LRU.

    A reused plan keeps the estimates it was planned with: the ``est=``
    of ``explain()`` may describe an earlier delta than the run's.
    Estimates only annotate a plan; they never choose one or change an
    answer.
    """

    _LIFT = re.compile("|".join(
        [rf'"{STRING_BODY}"', "'(?:[^']|'')*'", f"<{IRI_BODY}>", r"#[^\n]*\n?"]
        + [rf"{first}(?<![\w?$:.@+-].)[0-9]*(?:\.[0-9]+)?" for first in "0123456789"]
        + [rf"\{sign}(?<![\w?$:.@+-].)[0-9]+(?:\.[0-9]+)?" for sign in "+-"]))
    """One pass over a text: a constant — a string (SPARQL's ``"…"``, SQL's
    ``'…'``), an IRIREF, a number that continues no word — or a ``#``
    comment, kept verbatim with the line break that ends it.  Every branch
    opens with a literal character (a number has one branch per first
    character), so the regex engine skips straight to the next position
    that can start one."""

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
    def make_key(frontend: str, text: str, options) -> Tuple[tuple, Tuple[str, ...]]:
        """The text's shape key — front end, normalized text with a
        placeholder per lifted constant, constant count, planner options —
        and the lifted constants' texts.

        Whitespace is collapsed only *outside* the lifted constants and
        ``#`` comments, which are kept verbatim: whitespace inside a
        literal is data, and the line break that ends a comment decides
        what the comment swallows.  A placeholder keeps its constant's
        opening character, so an IRI, a SPARQL string and a SQL string
        never share a slot.
        """
        parts, values = [], []
        last = 0
        for match in PlanCache._LIFT.finditer(text):
            start, end = match.span()
            parts.append(" ".join(text[last:start].split()))
            lifted = match.group()
            if lifted[0] == "#":
                parts.append(lifted)
            else:
                parts.append("\0" + (lifted[0] if lifted[0] in "\"'<" else "0"))
                values.append(lifted)
            last = end
        parts.append(" ".join(text[last:].split()))
        return ((frontend, " ".join(part for part in parts if part), len(values), options),
                tuple(values))

    @staticmethod
    def slots(text: str) -> Dict[int, Tuple[int, int]]:
        """``{start offset: (slot, end offset)}`` of the constants
        :meth:`make_key` lifts from ``text``: what a parser needs to read a
        constant token as its slot's :class:`~repro.planner.Param`."""
        constants = (match.span() for match in PlanCache._LIFT.finditer(text)
                     if match.group()[0] != "#")
        return {start: (slot, end) for slot, (start, end) in enumerate(constants)}

    def peek(self, key: tuple):
        """The entry under ``key``, or ``None``; neither counted nor
        refreshed."""
        with self._lock:
            return self._entries.get(key)

    def lookup(self, *keys: tuple):
        """Return the entry under the first of ``keys`` that has one
        (refreshing its recency), or ``None``: one hit or one miss."""
        with self._lock:
            for key in keys:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.lifetime_hits += 1
                    return entry
            self.lifetime_misses += 1
            return None

    def insert(self, key: tuple, value, recent: bool = True) -> None:
        """Insert an entry, evicting the least recently used beyond capacity.
        An entry inserted not ``recent`` counts as the least recently used
        one: it stays while there is room, and its first hit makes it
        recent."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key, last=recent)
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
