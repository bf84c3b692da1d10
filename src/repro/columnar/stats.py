"""Column and predicate statistics plus the cardinality estimator.

Per-column summaries (:class:`ColumnStats`: distinct counts, min/max, null
fractions) and — built on top of them, the index store's exact counts and
the emergent schema — the :class:`CardinalityEstimator` that annotates
physical plans with expected row counts (``explain()``'s ``est=`` and query
progress).

The estimator deliberately lives at the columnar layer (below the engine)
and treats plan objects duck-typed: a *star* is anything with
``predicate_oids()``, ``properties`` and ``subject_range``; a *property* is
anything with ``predicate_oid``, ``object_term``, ``oid_range`` and
``required``.  This keeps the layering acyclic: columnar ← engine ←
planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .column import NULL_OID


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column."""

    row_count: int
    null_count: int
    distinct_count: int
    min_value: Optional[int]
    max_value: Optional[int]

    @classmethod
    def from_values(cls, values: Sequence[int] | np.ndarray) -> "ColumnStats":
        data = np.asarray(values, dtype=np.int64)
        non_null = data[data != NULL_OID]
        if non_null.size == 0:
            return cls(row_count=int(data.size), null_count=int(data.size),
                       distinct_count=0, min_value=None, max_value=None)
        return cls(
            row_count=int(data.size),
            null_count=int(data.size - non_null.size),
            distinct_count=int(np.unique(non_null).size),
            min_value=int(non_null.min()),
            max_value=int(non_null.max()),
        )

    def to_dict(self) -> Dict[str, Optional[int]]:
        """JSON-ready form, persisted in snapshot manifests."""
        return {
            "rows": self.row_count,
            "nulls": self.null_count,
            "distinct": self.distinct_count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Optional[int]]) -> "ColumnStats":
        """Rebuild stats persisted by :meth:`to_dict`."""
        return cls(
            row_count=int(payload["rows"]),
            null_count=int(payload["nulls"]),
            distinct_count=int(payload["distinct"]),
            min_value=None if payload["min"] is None else int(payload["min"]),
            max_value=None if payload["max"] is None else int(payload["max"]),
        )

    def not_null_fraction(self) -> float:
        """Fraction of rows with a value (0 for an empty column)."""
        if self.row_count == 0:
            return 0.0
        return 1.0 - self.null_count / self.row_count

    def estimate_equality_selectivity(self) -> float:
        """Estimated fraction of rows matched by an equality predicate."""
        if self.distinct_count == 0:
            return 0.0
        return self.not_null_fraction() / self.distinct_count

    def estimate_range_selectivity(self, low: Optional[int], high: Optional[int]) -> float:
        """Estimated fraction matched by a range predicate (uniform model)."""
        if self.min_value is None or self.max_value is None:
            return 0.0
        span = self.max_value - self.min_value
        if span <= 0:
            return self.not_null_fraction()
        lo = self.min_value if low is None else max(low, self.min_value)
        hi = self.max_value if high is None else min(high, self.max_value)
        if hi < lo:
            return 0.0
        if hi == lo:
            return self.estimate_equality_selectivity()  # SQL's ``column = value``
        return self.not_null_fraction() * (hi - lo + 1) / (span + 1)


#: Fallback equality selectivity when no statistics cover a predicate.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
#: Fallback range selectivity when no statistics cover a predicate.
DEFAULT_RANGE_SELECTIVITY = 0.3


class CardinalityEstimator:
    """Cardinality estimates from CS statistics and index metadata.

    The estimator combines three sources, in decreasing order of precision:

    1. the exhaustive permutation indexes — exact per-pattern triple counts
       through binary search (no page accounting: statistics lookups are
       metadata, not query work);
    2. the clustered store's CS blocks — per-column
       :class:`ColumnStats` (distinct counts, min/max, null fractions),
       which each :class:`~repro.columnar.Column` computes once and keeps;
    3. the emergent schema — per-CS subject counts and property fill
       factors (``presence``), which make star-pattern estimates *structure
       aware*: a star is only charged to the characteristic sets that
       actually contain all its properties.

    Source 1 is always there (a store has its index store before it answers
    anything); every other argument is optional, and missing sources degrade
    gracefully to the textbook default selectivities.  Plan objects are
    duck-typed (see the module docstring) so this class has no dependency on
    the engine layer.

    The estimator caches nothing: whatever is a function of the base
    structures alone is remembered by the structure it describes (column
    statistics on the column, per-predicate counts on the index store), so
    an estimator per store version costs nothing to make.
    """

    def __init__(self, index_store, schema=None, clustered_store=None,
                 delta=None, dictionary=None) -> None:
        self.index_store = index_store
        self.schema = schema
        self.clustered_store = clustered_store
        self.dictionary = dictionary
        """Optional term dictionary: where a range's tail literals are
        resolved, so an exact range count sees those base columns hold."""
        self.delta = delta
        """Optional pending-write overlay (duck-typed
        :class:`repro.updates.FrozenDelta`).  Base statistics describe the
        immutable structures; the estimator adds the delta's insert and
        tombstone counts on top so estimates cover merged scans."""

    # -- base statistics ---------------------------------------------------------

    def total_triples(self) -> float:
        """Total live triple count: the base plus the net pending writes."""
        pending = 0
        if self.delta is not None:
            pending = self.delta.insert_count() - self.delta.tombstone_count()
        return max(0.0, float(len(self.index_store) + pending))

    def _delta_pattern_adjustment(self, s: Optional[int], p: Optional[int],
                                  o: Optional[int]) -> float:
        """Net delta rows matching one pattern (exact: the delta is small)."""
        if self.delta is None or self.delta.is_empty():
            return 0.0
        added = float(self.delta.index().count_pattern(s=s, p=p, o=o))
        removed = 0.0
        tombs = self.delta.tombstone_matrix()
        if tombs.size:
            mask = np.ones(tombs.shape[0], dtype=bool)
            if s is not None:
                mask &= tombs[:, 0] == s
            if p is not None:
                mask &= tombs[:, 1] == p
            if o is not None:
                mask &= tombs[:, 2] == o
            removed = float(mask.sum())
        return added - removed

    def total_subjects(self) -> float:
        """Total distinct-subject count known to the schema (or a bound)."""
        if self.schema is not None and self.schema.coverage.total_subjects:
            return float(self.schema.coverage.total_subjects)
        return self.total_triples()

    def predicate_count(self, predicate_oid: int) -> float:
        """Number of triples carrying the predicate."""
        return float(self.index_store.predicate_counts().get(predicate_oid, 0))

    def distinct_subjects(self, predicate_oid: int) -> float:
        """Estimated number of distinct subjects carrying a predicate."""
        if self.schema is not None:
            total = 0.0
            for cs in self.schema.tables.values():
                spec = cs.properties.get(predicate_oid)
                if spec is not None:
                    total += cs.support * spec.presence
            if total > 0:
                return total
        return float(self.index_store.distinct_in_predicate(predicate_oid, "s"))

    def distinct_objects(self, predicate_oid: int) -> float:
        """Number of distinct objects among a predicate's triples (exact,
        from the index store's POS projection)."""
        return float(self.index_store.distinct_in_predicate(predicate_oid, "o"))

    # -- per-pattern estimates -----------------------------------------------------

    def pattern_cardinality(self, s: Optional[int] = None, p: Optional[int] = None,
                            o: Optional[int] = None, object_range=None,
                            subject_range=None) -> float:
        """Estimated triples matching one pattern, with optional OID ranges.

        The bound-slot count is exact (binary search on the index store).  A
        predicate-only pattern's range is resolved exactly against the
        projection its index scan narrows: PSO for a subject range, else POS
        for an object range.  Any other range scales the count by the
        default range selectivity.
        """
        # the pending-delta contribution is pattern-exact but range-agnostic;
        # it is added after the base refinements so an exact base range count
        # cannot overwrite it (merged scans must never be priced at zero)
        delta_adjustment = self._delta_pattern_adjustment(s, p, o)
        base = float(self.index_store.count_pattern(s=s, p=p, o=o))
        if base == 0.0 and delta_adjustment <= 0.0:
            return 0.0
        if p is not None and s is None and o is None:
            if _is_bounded(subject_range):
                base *= self._range_fraction(p, subject_range, "s")
                subject_range = None
            elif _is_bounded(object_range):
                base = self._range_count(p, object_range, "o")
                object_range = None
        if _is_bounded(object_range):
            base *= DEFAULT_RANGE_SELECTIVITY
        if _is_bounded(subject_range):
            base *= DEFAULT_RANGE_SELECTIVITY
        return max(0.0, base + delta_adjustment)

    def _range_count(self, predicate_oid: int, oid_range, component: str) -> float:
        """Rows of predicate whose S/O component falls in the range's OID
        intervals: exact for head literals, the tail's hull for tail ones."""
        tail = (oid_range.tail_oids(self.dictionary) if self.dictionary is not None
                else np.empty(0, dtype=np.int64))
        table = self.index_store.within_predicate(component)
        ranges = table.narrowed_row_ranges(predicate_oid, oid_range.intervals(tail))
        return float(sum(stop - start for start, stop in ranges))

    def _range_fraction(self, predicate_oid: int, oid_range, component: str) -> float:
        total = self.predicate_count(predicate_oid)
        if total <= 0:
            return 0.0
        return self._range_count(predicate_oid, oid_range, component) / total

    # -- star-pattern estimates ------------------------------------------------------

    def star_subject_cardinality(self, star) -> float:
        """Estimated subjects satisfying every property of a star pattern."""
        return self._star_estimate(star)[0]

    def star_cardinality(self, star) -> float:
        """Estimated result rows of a star (subjects times multi-value fan-out)."""
        return self._star_estimate(star)[1]

    def _star_estimate(self, star) -> Tuple[float, float]:
        # a CS qualifies by the properties the star *requires*; an optional
        # (SQL nullable) column neither excludes a CS nor filters its rows
        predicates = ([prop.predicate_oid for prop in star.properties if prop.required]
                      or star.predicate_oids())
        tables = (self.schema.tables_with_properties(predicates)
                  if self.schema is not None else [])
        if tables:
            subjects = 0.0
            rows = 0.0
            for cs in tables:
                cs_rows = float(cs.support)
                selectivity = 1.0
                fan_out = 1.0
                for prop in star.properties:
                    selectivity *= self._property_selectivity(cs, prop)
                    spec = cs.properties.get(prop.predicate_oid)
                    if spec is not None:
                        fan_out *= max(spec.mean_multiplicity, 1.0)
                selectivity *= self._subject_range_fraction(cs, star.subject_range)
                subjects += cs_rows * selectivity
                rows += cs_rows * selectivity * fan_out
            return subjects, rows
        # No covering CS (schema missing, or the star spans irregular data):
        # bound the star by its most selective single pattern.
        cards = []
        for prop in star.properties:
            constant = None if prop.object_term.is_variable else prop.object_term.oid
            cards.append(self.pattern_cardinality(
                p=prop.predicate_oid, o=constant,
                object_range=prop.oid_range, subject_range=star.subject_range))
        if not cards:
            return self.total_subjects(), self.total_subjects()
        return min(cards), min(cards)

    def _property_selectivity(self, cs, prop) -> float:
        """Fraction of the CS's subjects matched by one star property."""
        spec = cs.properties.get(prop.predicate_oid)
        presence = spec.presence if spec is not None else 1.0
        stats = self._column_stats(cs.cs_id, prop.predicate_oid)
        constant = None if prop.object_term.is_variable else prop.object_term.oid
        if constant is not None:
            if stats is not None:
                return stats.estimate_equality_selectivity()
            total = self.predicate_count(prop.predicate_oid)
            if total > 0:
                matches = self.pattern_cardinality(p=prop.predicate_oid, o=constant)
                return presence * matches / total
            return presence * DEFAULT_EQUALITY_SELECTIVITY
        if _is_bounded(prop.oid_range):
            if stats is not None:
                return stats.estimate_range_selectivity(prop.oid_range.low, prop.oid_range.high)
            return presence * self._range_fraction(prop.predicate_oid, prop.oid_range, "o")
        return presence if prop.required else 1.0

    def _subject_range_fraction(self, cs, subject_range) -> float:
        if not _is_bounded(subject_range):
            return 1.0
        stats = self._column_stats(cs.cs_id)
        if stats is not None:
            return stats.estimate_range_selectivity(subject_range.low, subject_range.high)
        return DEFAULT_RANGE_SELECTIVITY

    def _column_stats(self, cs_id: int,
                      predicate_oid: Optional[int] = None) -> Optional[ColumnStats]:
        """Statistics of one CS block column — the subject column when no
        predicate is named; ``None`` when the block or column does not exist."""
        block = (self.clustered_store.find_block(cs_id)
                 if self.clustered_store is not None else None)
        if block is None:
            return None
        if predicate_oid is None:
            return block.subject_column.statistics()
        if not block.has_property(predicate_oid):
            return None
        return block.column(predicate_oid).statistics()

    # -- join estimates ------------------------------------------------------------------

    @staticmethod
    def join_cardinality(left_rows: float, right_rows: float,
                         left_distinct: float, right_distinct: float) -> float:
        """Textbook equi-join estimate: ``|L|·|R| / max(d(L), d(R))``."""
        denominator = max(left_distinct, right_distinct, 1.0)
        return max(0.0, left_rows * right_rows / denominator)


def _is_bounded(oid_range) -> bool:
    return oid_range is not None and not oid_range.is_unbounded()
