"""Compaction: fold the delta into base storage and maintain the schema.

``RDFStore.compact()`` delegates here.  Compaction is the *explicit* heavy
step of the write path — it rebuilds physical structures from the merged
triple set — but it deliberately does **not** re-run characteristic-set
discovery or subject clustering.  Schema maintenance is incremental, the way
the paper's emergent schema is meant to absorb change:

* new subjects whose (merged) property set matches an existing CS — exactly,
  or as a subset of one CS's properties — join that CS table;
* new subjects matching nothing fall into the irregular (leftover) bucket;
* subjects whose last triple was deleted leave their CS;
* affected tables get their per-property presence / mean multiplicity
  refreshed, and schema coverage is recomputed — one array pass over the
  merged matrix for both, whatever the number of tables.  A column may
  turn nullable or not, but never ``MANY`` or back (only discovery does
  that), so a table keeps its block's columns: a second value of a
  single-valued column is irregular, as in dirty data;
* literal OIDs appended by updates are folded back into value order, so
  pushed-down range predicates regain their exact OID-interval translation.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cs import EmergentSchema, match_characteristic_set, measure_coverage
from ..cs.detect import run_starts
from ..cs.schema_model import Multiplicity, classify_multiplicity


@dataclass
class CompactionReport:
    """What one :meth:`repro.core.RDFStore.compact` call did."""

    merged_inserts: int = 0
    applied_deletes: int = 0
    subjects_assigned: int = 0
    """New subjects that joined an existing characteristic set."""
    subjects_leftover: int = 0
    """New subjects routed to the irregular (leftover) bucket."""
    subjects_removed: int = 0
    """Subjects dropped from their CS because every triple was deleted."""
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
    delta_subjects = np.unique(delta.matrix()[:, 0])
    tombstone_subjects = np.unique(delta.tombstone_matrix()[:, 0])

    merged, report.merged_inserts, report.applied_deletes = merge_matrices(matrix, delta)

    if schema is not None:
        schema = copy.deepcopy(schema)
        # statistics drift wherever members gained or lost triples, so a
        # touched subject's table before *and* after the maintenance counts
        touched = np.union1d(delta_subjects, tombstone_subjects)
        before = schema.membership.cs_of(touched)
        gone = tombstone_subjects[~np.isin(tombstone_subjects, merged[:, 0])]
        schema.membership = schema.membership.without(gone)
        report.subjects_removed = int(gone.size)
        _assign_new_subjects(schema, matrix, merged, delta_subjects, report)
        after = schema.membership.cs_of(touched)
        affected_cs = set(np.concatenate([before, after]).tolist()) - {-1}
        started = time.perf_counter()
        row_tables = schema.membership.cs_of(merged[:, 0])
        _refresh_table_statistics(schema, merged, row_tables, affected_cs)
        schema.coverage = measure_coverage(schema, merged, row_tables)
        report.statistics_s = time.perf_counter() - started
    return merged, schema, report


# -- schema maintenance ------------------------------------------------------------


def _assign_new_subjects(schema, base: np.ndarray, merged: np.ndarray,
                         delta_subjects: np.ndarray, report: CompactionReport) -> None:
    """Route delta subjects that have no table: exact/subset match, else they
    stay irregular — new to the leftover bucket when ``base`` never had them."""
    candidates = delta_subjects[schema.membership.cs_of(delta_subjects) < 0]
    if not candidates.size:
        return
    property_sets = _property_sets_of(merged, candidates)
    in_base = np.isin(candidates, base[:, 0])
    additions: Dict[int, List[int]] = {}
    for subject, was_in_base in zip(candidates.tolist(), in_base.tolist()):
        props = property_sets.get(subject)
        if not props:  # inserted then fully deleted again before compaction
            continue
        cs_id = match_characteristic_set(schema, props)
        if cs_id is not None:
            additions.setdefault(cs_id, []).append(subject)
        elif not was_in_base:
            report.subjects_leftover += 1
    for cs_id, subjects in additions.items():
        schema.membership = schema.membership.assigned(subjects, cs_id)
        report.subjects_assigned += len(subjects)
        report.assignments[cs_id] = len(subjects)


def _property_sets_of(matrix: np.ndarray, subjects: np.ndarray) -> Dict[int, Set[int]]:
    """Each of ``subjects``' property set in ``matrix`` (a subject without a
    triple is absent): one lexsort of their rows by ``(s, p)``, one set per
    subject from the distinct pairs."""
    rows = matrix[np.isin(matrix[:, 0], subjects)]
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    pairs = rows[run_starts(rows[:, 0], rows[:, 1])]
    holders = run_starts(pairs[:, 0])
    return {subject: set(predicates.tolist()) for subject, predicates
            in zip(pairs[holders, 0].tolist(), np.split(pairs[:, 1], holders[1:]))}


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
