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
* affected tables get their per-property presence / multiplicity statistics
  refreshed, and schema coverage is recomputed;
* literal OIDs appended by updates are folded back into value order, so
  pushed-down range predicates regain their exact OID-interval translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cs import measure_coverage
from ..cs.schema_model import classify_multiplicity


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


def compact_store(store) -> CompactionReport:
    """Merge the store's delta into its base matrix and maintain the schema.

    The caller (:meth:`repro.core.RDFStore.compact`) settles the journal,
    rebuilds the physical stores and re-installs the catalog afterwards;
    this function owns the matrix merge and the incremental schema
    bookkeeping.
    """
    report = CompactionReport()
    if store.delta.is_empty():
        return report

    delta = store.delta.freeze()
    delta_subjects = [int(s) for s in np.unique(delta.matrix()[:, 0])]
    tombstone_subjects = {int(s) for s in delta.tombstone_matrix()[:, 0]}

    merged, report.merged_inserts, report.applied_deletes = merge_matrices(store.matrix, delta)

    schema = store.schema
    if schema is not None:
        merged_subject_set: Set[int] = set(int(s) for s in np.unique(merged[:, 0])) \
            if merged.size else set()
        affected_cs = _remove_emptied_subjects(schema, tombstone_subjects,
                                               merged_subject_set, report)
        affected_cs |= _assign_new_subjects(schema, merged, delta_subjects, report)
        # statistics drift wherever members gained or lost triples
        affected_cs |= {schema.subject_to_cs[s] for s in tombstone_subjects
                        if s in schema.subject_to_cs}
        affected_cs |= {schema.subject_to_cs[s] for s in delta_subjects
                        if s in schema.subject_to_cs}
        _refresh_table_statistics(schema, merged, affected_cs)
        schema.coverage = measure_coverage(schema, merged)

    store.matrix = merged
    store.delta.clear()
    return report


# -- schema maintenance ------------------------------------------------------------


def _remove_emptied_subjects(schema, tombstone_subjects: Set[int],
                             merged_subjects: Set[int], report: CompactionReport) -> Set[int]:
    affected: Set[int] = set()
    gone = {s for s in tombstone_subjects if s not in merged_subjects}
    if not gone:
        return affected
    # batch the removals per table: one filter pass each, not one per subject
    by_table: Dict[int, Set[int]] = {}
    irregular_gone: Set[int] = set()
    for subject in gone:
        cs_id = schema.subject_to_cs.get(subject)
        if cs_id is not None:
            by_table.setdefault(cs_id, set()).add(subject)
        elif subject in schema.irregular_subjects:
            irregular_gone.add(subject)
    for cs_id, removed in by_table.items():
        table = schema.tables[cs_id]
        table.subjects = [s for s in table.subjects if s not in removed]
        table.support = len(table.subjects)
        for subject in removed:
            del schema.subject_to_cs[subject]
        affected.add(cs_id)
        report.subjects_removed += len(removed)
    if irregular_gone:
        schema.irregular_subjects = [s for s in schema.irregular_subjects
                                     if s not in irregular_gone]
        report.subjects_removed += len(irregular_gone)
    return affected


def match_characteristic_set(schema, props: Set[int]) -> Optional[int]:
    """The one CS-admission rule: which table a subject with property set
    ``props`` joins.

    Exact property-set match wins; otherwise the tightest superset CS
    (fewest extra properties, ties broken by support then id); ``None``
    (the leftover bucket) when nothing fits.
    """
    if not props:
        return None
    exact: Optional[int] = None
    best: Optional[Tuple[int, int, int]] = None
    for cs in schema.tables.values():
        cs_props = cs.property_oids()
        if cs_props == props:
            exact = cs.cs_id if exact is None else min(exact, cs.cs_id)
        elif props <= cs_props:
            candidate = (len(cs_props - props), -cs.total_support(), cs.cs_id)
            if best is None or candidate < best:
                best = candidate
    if exact is not None:
        return exact
    return None if best is None else best[2]


def _assign_new_subjects(schema, merged: np.ndarray, delta_subjects: List[int],
                         report: CompactionReport) -> Set[int]:
    """Route delta subjects that have no CS yet: exact/subset match or leftover."""
    affected: Set[int] = set()
    candidates = [s for s in delta_subjects if s not in schema.subject_to_cs]
    if not candidates:
        return affected
    property_sets = _property_sets_of(merged, candidates)
    irregular = set(schema.irregular_subjects)
    additions: Dict[int, Set[int]] = {}
    for subject in candidates:
        props = property_sets.get(subject)
        if not props:  # inserted then fully deleted again before compaction
            continue
        cs_id = match_characteristic_set(schema, props)
        if cs_id is None:
            if subject not in irregular:
                irregular.add(subject)
                report.subjects_leftover += 1
            continue
        additions.setdefault(cs_id, set()).add(subject)
        schema.subject_to_cs[subject] = cs_id
        irregular.discard(subject)
        report.subjects_assigned += 1
        report.assignments[cs_id] = report.assignments.get(cs_id, 0) + 1
    # batch per table: one merge-and-sort each, not one per subject
    for cs_id, subjects in additions.items():
        table = schema.tables[cs_id]
        table.subjects = sorted(set(table.subjects) | subjects)
        table.support = len(table.subjects)
        affected.add(cs_id)
    schema.irregular_subjects = sorted(irregular)
    return affected


def _property_sets_of(matrix: np.ndarray, subjects: List[int]) -> Dict[int, Set[int]]:
    if matrix.size == 0 or not subjects:
        return {}
    wanted = np.asarray(sorted(set(subjects)), dtype=np.int64)
    rows = matrix[np.isin(matrix[:, 0], wanted)]
    out: Dict[int, Set[int]] = {}
    for s, p in zip(rows[:, 0], rows[:, 1]):
        out.setdefault(int(s), set()).add(int(p))
    return out


def _refresh_table_statistics(schema, merged: np.ndarray, cs_ids: Set[int]) -> None:
    """Recompute presence / mean multiplicity / multiplicity class per column."""
    for cs_id in cs_ids:
        table = schema.tables.get(cs_id)
        if table is None or not table.subjects:
            continue
        members = np.asarray(table.subjects, dtype=np.int64)
        rows = merged[np.isin(merged[:, 0], members)] if merged.size else merged
        predicates = rows[:, 1] if rows.size else np.empty(0, dtype=np.int64)
        for predicate_oid, spec in table.properties.items():
            prop_rows = rows[predicates == predicate_oid] if rows.size else rows
            triple_count = int(prop_rows.shape[0])
            subject_count = int(np.unique(prop_rows[:, 0]).size) if triple_count else 0
            spec.presence = subject_count / table.support if table.support else 0.0
            spec.mean_multiplicity = triple_count / subject_count if subject_count else 1.0
            spec.multiplicity = classify_multiplicity(spec.presence, spec.mean_multiplicity)
