"""Compaction: fold the delta into base storage and maintain the schema.

``RDFStore.compact()`` delegates here.  Compaction is the *explicit* heavy
step of the write path — it rebuilds physical structures from the merged
triple set — but it deliberately does **not** re-run characteristic-set
discovery or subject clustering.  Schema maintenance is incremental, the way
the paper's emergent schema is meant to absorb change:

* every written subject goes where the delta version filed it
  (:class:`~repro.updates.delta.Filing`): to the table
  :func:`~repro.cs.match_characteristic_set` picks for its live property
  set — exactly, or as a subset of one CS's properties — or, matching
  nothing, to the irregular (leftover) bucket; a subject whose last triple
  was deleted leaves its CS.  Nothing is filed again here;
* affected tables get their per-property presence / mean multiplicity
  refreshed, and schema coverage is recomputed — one array pass over the
  merged matrix for both, whatever the number of tables.  A column may
  turn nullable or not, but never ``MANY`` or back (only discovery does
  that), so a table keeps its block's columns: a second value of a
  single-valued column is irregular, as in dirty data;
* no OID moves: literals appended by updates keep their OIDs above the
  dictionary's value-order watermark, in base columns now, and a range
  still matches them by value; only ``load()`` and ``cluster()`` put them
  back in value order.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..cs import EmergentSchema, measure_coverage
from ..cs.detect import run_starts
from ..cs.schema_model import Multiplicity, classify_multiplicity


@dataclass
class CompactionReport:
    """What one :meth:`repro.core.RDFStore.compact` call did."""

    merged_inserts: int = 0
    applied_deletes: int = 0
    subjects_assigned: int = 0
    """Written subjects that joined a characteristic set they were not in."""
    subjects_leftover: int = 0
    """New subjects routed to the irregular (leftover) bucket."""
    subjects_removed: int = 0
    """Written subjects left without a triple (out of their CS, if any)."""
    assignments: Dict[int, int] = field(default_factory=dict)
    """CS id -> number of subjects admitted into that table."""
    statistics_s: float = 0.0
    """Seconds spent refreshing table statistics and coverage."""

    def describe(self) -> str:
        return (f"compaction: +{self.merged_inserts} triples, "
                f"-{self.applied_deletes} triples, "
                f"{self.subjects_assigned} subjects joined a CS, "
                f"{self.subjects_leftover} to leftover, "
                f"{self.subjects_removed} removed")


def merge_matrices(base: np.ndarray, delta) -> tuple[np.ndarray, int, int]:
    """``base − tombstones + inserts``; returns (merged, inserted, deleted)."""
    kept = base
    applied_deletes = 0
    if delta.tombstone_count():
        mask = delta.tombstone_mask(base)
        applied_deletes = int(mask.sum())
        if applied_deletes:
            kept = base[~mask]
    inserts = delta.matrix()
    if inserts.size:
        merged = np.vstack([kept, inserts]) if kept.size else inserts.copy()
    else:
        merged = kept.copy()
    return merged, int(inserts.shape[0]), applied_deletes


def compact_store(matrix: np.ndarray, delta, schema: Optional[EmergentSchema]
                  ) -> Tuple[np.ndarray, Optional[EmergentSchema], CompactionReport]:
    """Merge one delta version (a :class:`~repro.updates.FrozenDelta`) into a
    base matrix and maintain the schema.

    Returns the merged matrix, the maintained schema and the report.  Nothing
    is edited: the schema is maintained in a deep copy (O(tables); it shares
    the immutable membership), so whoever holds ``schema`` keeps its tables'
    statistics and coverage.  The caller (:meth:`repro.core.RDFStore.compact`)
    value-orders the literals, settles delta and journal and rebuilds the
    physical stores and the catalog.
    """
    report = CompactionReport()
    merged, report.merged_inserts, report.applied_deletes = merge_matrices(matrix, delta)

    if schema is not None:
        schema = copy.deepcopy(schema)
        filing = delta.filing
        written, tables = filing.subjects, filing.tables
        before = schema.membership.cs_of(written)
        live = np.isin(written, merged[:, 0])
        report.subjects_removed = int(np.count_nonzero(~live))
        leftover = written[live & (tables < 0)]
        if leftover.size:  # new to the bucket: no base triple
            report.subjects_leftover = int(np.count_nonzero(~np.isin(leftover, matrix[:, 0])))
        joined = (tables >= 0) & (tables != before)
        cs_ids, counts = np.unique(tables[joined], return_counts=True)
        report.subjects_assigned = int(counts.sum())
        report.assignments = dict(zip(cs_ids.tolist(), counts.tolist()))
        schema.membership = schema.membership.assigned(written, tables)
        # statistics drift wherever members gained or lost triples, so a
        # written subject's table before *and* after counts
        affected_cs = set(np.concatenate([before, tables]).tolist()) - {-1}
        started = time.perf_counter()
        row_tables = schema.membership.cs_of(merged[:, 0])
        _refresh_table_statistics(schema, merged, row_tables, affected_cs)
        schema.coverage = measure_coverage(schema, merged, row_tables)
        report.statistics_s = time.perf_counter() - started
    return merged, schema, report


# -- schema maintenance ------------------------------------------------------------


def _refresh_table_statistics(schema, merged: np.ndarray, row_tables: np.ndarray,
                              cs_ids: Set[int]) -> None:
    """Recompute support and, per column, presence / mean multiplicity /
    multiplicity class of the tables ``cs_ids`` — the class within the
    block's columns: a ``MANY`` property stays one, another never becomes
    one, so the tables keep their blocks' columns.

    ``row_tables`` is each merged row's table.  One lexsort of the affected
    tables' rows by ``(table, predicate, subject)``: a ``(table, predicate)``
    run holds a column's triples, its ``(table, predicate, subject)`` runs
    the subjects that have the property.
    """
    rows = np.flatnonzero(np.isin(row_tables, np.fromiter(cs_ids, dtype=np.int64)))
    owner, predicate, subject = row_tables[rows], merged[rows, 1], merged[rows, 0]
    order = np.lexsort((subject, predicate, owner))
    owner, predicate, subject = owner[order], predicate[order], subject[order]
    columns = run_starts(owner, predicate)
    bounds = np.append(columns, order.size)
    triples = np.diff(bounds)
    holders = np.diff(np.searchsorted(run_starts(owner, predicate, subject), bounds))
    counts = dict(zip(zip(owner[columns].tolist(), predicate[columns].tolist()),
                      zip(triples.tolist(), holders.tolist())))
    tables, sizes = np.unique(schema.membership.cs_ids, return_counts=True)
    support = dict(zip(tables.tolist(), sizes.tolist()))
    for cs_id in cs_ids:
        table = schema.tables[cs_id]
        table.support = support.get(cs_id, 0)
        if not table.support:
            continue
        for predicate_oid, spec in table.properties.items():
            triple_count, subject_count = counts.get((cs_id, predicate_oid), (0, 0))
            spec.presence = subject_count / table.support
            spec.mean_multiplicity = triple_count / subject_count if subject_count else 1.0
            if spec.multiplicity is not Multiplicity.MANY:
                spec.multiplicity = classify_multiplicity(spec.presence, spec.mean_multiplicity,
                                                          many_threshold=math.inf)
