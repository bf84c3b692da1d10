"""Basic characteristic-set detection.

The starting point is Neumann & Moerkotte's observation (cited as [1] in the
paper): group subjects by the exact set of properties they carry.  Each
distinct property combination is one *exact characteristic set*.  Later
passes (generalization, typing, fine-tuning) reshape these exact CSs into a
usable schema; this module only performs the initial grouping and the
support accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np


@dataclass
class ExactCS:
    """One exact characteristic set: a property combination and its members."""

    properties: frozenset[int]
    subjects: np.ndarray
    """The member subject OIDs, ascending."""

    @property
    def support(self) -> int:
        return int(self.subjects.size)


@dataclass
class DetectionResult:
    """Output of the basic detection pass: the run structure of the triples
    in SPO order.  A subject is one run of rows, its characteristic set the
    distinct predicates of that run, and each ``(subject, predicate)`` pair
    of the run knows how many rows (objects) it spans."""

    exact_sets: List[ExactCS]
    """Largest support first, ties by the sorted property list."""
    subjects: np.ndarray
    """The distinct subject OIDs, ascending."""
    exact_index: np.ndarray
    """Per subject, the position in ``exact_sets`` of its exact set."""
    pair_subject: np.ndarray
    """Per distinct ``(subject, predicate)`` pair, in SPO order, the position
    of its subject in ``subjects``."""
    pair_predicate: np.ndarray
    pair_count: np.ndarray
    """The pair's number of triples: the property's multiplicity on that subject."""
    total_triples: int

    def total_subjects(self) -> int:
        return int(self.subjects.size)


def detection_from_triples(triples) -> DetectionResult:
    """Group the subjects of an encoded ``(n, 3)`` S/P/O matrix by their exact
    property set: one ``lexsort`` into SP order, then run boundaries."""
    matrix = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    order = np.lexsort((matrix[:, 1], matrix[:, 0]))
    s, p = matrix[order, 0], matrix[order, 1]
    starts = run_starts(s, p)
    return _detection_of_pairs(s[starts], p[starts],
                               np.diff(starts, append=len(order)), len(order))


def detect_characteristic_sets(
    subject_properties: Mapping[int, frozenset[int]],
    property_multiplicities: Mapping[int, Mapping[int, int]] | None = None,
    total_triples: int | None = None,
) -> DetectionResult:
    """The same grouping from per-subject property sets.

    Parameters
    ----------
    subject_properties:
        Mapping subject OID -> non-empty frozenset of predicate OIDs.
    property_multiplicities:
        Optional mapping subject OID -> {predicate OID -> object count},
        used later for multiplicity classification.  When omitted, every
        property is assumed single-valued.
    total_triples:
        Total number of triples in the input, used for coverage accounting.
        When omitted it is the sum of the multiplicities.
    """
    pairs = [(subject, predicate) for subject in sorted(subject_properties)
             for predicate in sorted(subject_properties[subject])]
    counts = [1 if property_multiplicities is None else property_multiplicities[subject][predicate]
              for subject, predicate in pairs]
    pair_subject, pair_predicate = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    return _detection_of_pairs(pair_subject, pair_predicate, np.asarray(counts, dtype=np.int64),
                               sum(counts) if total_triples is None else int(total_triples))


def run_starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where any of the aligned, sorted columns changes value."""
    fresh = np.zeros(len(columns[0]), dtype=bool)
    fresh[:1] = True
    for column in columns:
        fresh[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(fresh)


def group_equal_runs(values: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Which of the runs ``values[starts[i]:starts[i + 1]]`` (the last one to
    the end) are equal.

    Returns, per run, the number of its class of equal runs — classes are
    numbered by first appearance — and, per class, its first run.  Equal runs
    are equal byte strings: one dict probe per *run*, none per value.
    """
    packed = values.tobytes()
    bounds = (np.append(starts, len(values)) * values.itemsize).tolist()
    classes: Dict[bytes, int] = {}
    group = np.asarray([classes.setdefault(packed[a:b], len(classes))
                        for a, b in zip(bounds, bounds[1:])], dtype=np.int64)
    return group, np.unique(group, return_index=True)[1]


def _detection_of_pairs(pair_subject_oid: np.ndarray, pair_predicate: np.ndarray,
                        pair_count: np.ndarray, total_triples: int) -> DetectionResult:
    """From the distinct ``(subject, predicate)`` pairs in SP order."""
    starts = run_starts(pair_subject_oid)
    subjects = pair_subject_oid[starts]
    lengths = np.diff(starts, append=len(pair_subject_oid))
    # a subject's run of predicates is ascending and distinct: equal sets are equal runs
    group, first = group_equal_runs(pair_predicate, starts)
    members = np.split(subjects[np.argsort(group, kind="stable")],
                       np.cumsum(np.bincount(group, minlength=first.size))[:-1])
    exact_sets = [ExactCS(frozenset(pair_predicate[a:b].tolist()), subjects_of)
                  for a, b, subjects_of in zip(starts[first].tolist(),
                                               (starts[first] + lengths[first]).tolist(), members)]
    by_support = sorted(range(len(exact_sets)),
                        key=lambda i: (-exact_sets[i].support, sorted(exact_sets[i].properties)))
    position = np.empty(len(exact_sets), dtype=np.int64)
    position[by_support] = np.arange(len(exact_sets))
    return DetectionResult(
        exact_sets=[exact_sets[i] for i in by_support],
        subjects=subjects,
        exact_index=position[group],
        pair_subject=np.repeat(np.arange(subjects.size), lengths),
        pair_predicate=pair_predicate,
        pair_count=pair_count,
        total_triples=total_triples,
    )


def support_histogram(result: DetectionResult) -> Dict[int, int]:
    """Histogram: CS support value -> number of exact CSs with that support.

    Useful for choosing a support threshold: real data sets typically show a
    few very large CSs and a long tail of singletons.
    """
    histogram: Dict[int, int] = defaultdict(int)
    for cs in result.exact_sets:
        histogram[cs.support] += 1
    return dict(histogram)


def coverage_at_threshold(result: DetectionResult, min_support: int) -> float:
    """Fraction of subjects covered by exact CSs with support >= threshold."""
    total = result.total_subjects()
    if total == 0:
        return 0.0
    covered = sum(cs.support for cs in result.exact_sets if cs.support >= min_support)
    return covered / total
