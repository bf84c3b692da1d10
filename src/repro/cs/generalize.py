"""Generalization of exact characteristic sets.

The original CS algorithm creates a distinct CS for every unique property
combination, which on real data yields thousands of near-duplicate sets
("the same class, but one subject is missing a phone number").  The paper's
extension: *allow attributes of kind 0..n (NULLABLE) if a significant
minority fraction of the subjects has at least one occurrence* — i.e. merge
similar property combinations into one generalized CS whose rarely-missing
properties become nullable columns.

The algorithm here:

1. rank exact CSs by support; those above ``min_support`` seed *cores*;
2. greedily fold later cores into earlier ones when their property sets are
   similar enough (Jaccard >= ``core_merge_similarity``);
3. attach every remaining small CS to the most similar core (Jaccard >=
   ``attach_similarity``); subjects of sets that match no core stay
   *irregular*;
4. for each generalized CS keep the properties present in at least a
   ``minority_presence`` fraction of its members — the rest of the members'
   triples fall back to the irregular triple store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .detect import DetectionResult, ExactCS
from .schema_model import Membership


@dataclass(frozen=True)
class GeneralizationConfig:
    """Tuning knobs for the generalization pass."""

    min_support: int = 3
    """An exact CS needs at least this many subjects to seed a core."""
    min_support_fraction: float = 0.0
    """Alternative relative threshold (fraction of all subjects); the larger
    of the absolute and relative thresholds applies."""
    core_merge_similarity: float = 0.65
    """Jaccard similarity above which two cores are merged into one."""
    attach_similarity: float = 0.5
    """Jaccard similarity above which a small CS joins an existing core."""
    minority_presence: float = 0.1
    """A property is kept (as nullable) if at least this fraction of the
    generalized CS's subjects carries it."""
    max_tables: Optional[int] = None
    """Optional cap on the number of generalized CSs (keep the largest)."""


@dataclass
class GeneralizedCS:
    """A merged characteristic set prior to typing and fine-tuning."""

    gcs_id: int
    properties: frozenset[int]
    subjects: np.ndarray
    """The member subject OIDs, ascending."""
    merged_exact: List[frozenset[int]] = field(default_factory=list)
    property_presence: Dict[int, float] = field(default_factory=dict)
    property_mean_multiplicity: Dict[int, float] = field(default_factory=dict)

    @property
    def support(self) -> int:
        return int(self.subjects.size)


@dataclass
class GeneralizationResult:
    """Output of the generalization pass."""

    generalized: List[GeneralizedCS]
    membership: Membership
    """Which generalized CS each subject joined (by ``gcs_id``); subjects
    absent from it are irregular."""

    def coverage(self, total_subjects: int) -> float:
        if total_subjects == 0:
            return 0.0
        return len(self.membership) / total_subjects


def jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Jaccard similarity of two property sets (1.0 for two empty sets)."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def generalize(detection: DetectionResult,
               config: GeneralizationConfig | None = None) -> GeneralizationResult:
    """Merge exact CSs into generalized CSs according to ``config``."""
    config = config or GeneralizationConfig()
    total_subjects = detection.total_subjects()
    threshold = max(config.min_support,
                    int(config.min_support_fraction * total_subjects))
    threshold = max(threshold, 1)

    ranked = detection.exact_sets  # largest support first
    cores: List[_Core] = []
    small: List[int] = []
    for index, exact in enumerate(ranked):
        if exact.support >= threshold:
            _merge_or_add_core(cores, index, exact, config.core_merge_similarity)
        else:
            small.append(index)

    if not cores and ranked:
        # degenerate input: nothing reaches the threshold; promote the largest
        cores.append(_Core(0, ranked[0]))
        small = small[1:]

    for index in small:  # one that attaches to no core stays irregular
        exact = ranked[index]
        best = _best_core(cores, exact.properties)
        if best is not None and jaccard(best.properties, exact.properties) >= config.attach_similarity:
            best.absorb(index, exact)

    if config.max_tables is not None and len(cores) > config.max_tables:
        cores.sort(key=lambda c: -c.support)
        cores = cores[:config.max_tables]

    return _finalize_cores(cores, detection, config)


# -- internals -----------------------------------------------------------------


class _Core:
    """Mutable accumulator for one generalized CS under construction."""

    def __init__(self, index: int, exact: ExactCS) -> None:
        self.properties: frozenset[int] = exact.properties
        self.exact: List[int] = [index]
        """Positions in ``DetectionResult.exact_sets`` of the merged sets."""
        self.support = exact.support
        self.merged_exact: List[frozenset[int]] = [exact.properties]

    def absorb(self, index: int, exact: ExactCS) -> None:
        self.properties = self.properties | exact.properties
        self.exact.append(index)
        self.support += exact.support
        self.merged_exact.append(exact.properties)


def _merge_or_add_core(cores: List[_Core], index: int, exact: ExactCS, similarity: float) -> None:
    best = _best_core(cores, exact.properties)
    if best is not None and jaccard(best.properties, exact.properties) >= similarity:
        best.absorb(index, exact)
    else:
        cores.append(_Core(index, exact))


def _best_core(cores: List[_Core], properties: frozenset[int]) -> Optional[_Core]:
    best: Optional[_Core] = None
    best_score = -1.0
    for core in cores:
        score = jaccard(core.properties, properties)
        if score > best_score:
            best_score = score
            best = core
    return best


def _finalize_cores(cores: List[_Core], detection: DetectionResult,
                    config: GeneralizationConfig) -> GeneralizationResult:
    """Per core, its members and presence / multiplicity statistics; rare
    properties are dropped, and with them a core that keeps none.

    Merging happened between exact sets; the statistics are counted over the
    detection's ``(subject, predicate)`` pairs in one pass for all cores: a
    pair is one subject having the property (presence) with ``pair_count``
    values (multiplicity).
    """
    core_of_exact = np.full(len(detection.exact_sets), -1, dtype=np.int64)
    for core_index, core in enumerate(cores):
        core_of_exact[core.exact] = core_index
    core_of_subject = core_of_exact[detection.exact_index]  # -1: in no core
    core_of_pair = core_of_subject[detection.pair_subject]
    in_core = core_of_pair >= 0
    # one cell per (core, property) that some member has, cores ascending
    width = int(detection.pair_predicate.max(initial=0)) + 1
    cells, cell_of_pair = np.unique(
        core_of_pair[in_core] * width + detection.pair_predicate[in_core], return_inverse=True)
    cell_core, cell_predicate = (part.tolist() for part in np.divmod(cells, width))
    having = np.bincount(cell_of_pair, minlength=cells.size).tolist()
    values = np.bincount(cell_of_pair, weights=detection.pair_count[in_core],  # exact below 2**53
                         minlength=cells.size).astype(np.int64).tolist()
    by_core = np.argsort(core_of_subject, kind="stable")  # subjects stay ascending per core
    members = np.split(detection.subjects[by_core],
                       np.searchsorted(core_of_subject[by_core], np.arange(len(cores) + 1)))[1:]

    generalized: List[GeneralizedCS] = []
    gcs_of_core = np.full(len(cores) + 1, -1, dtype=np.int64)  # the spare slot answers for -1
    cell = 0
    for core_index, core in enumerate(cores):
        kept: Dict[int, float] = {}
        mean_multiplicity: Dict[int, float] = {}
        while cell < len(cell_core) and cell_core[cell] == core_index:
            presence = having[cell] / core.support
            if presence >= config.minority_presence or presence >= 0.999:
                kept[cell_predicate[cell]] = presence
                mean_multiplicity[cell_predicate[cell]] = values[cell] / having[cell]
            cell += 1
        if not kept:
            continue
        gcs_of_core[core_index] = len(generalized)
        generalized.append(GeneralizedCS(
            gcs_id=len(generalized),
            properties=frozenset(kept),
            subjects=members[core_index],
            merged_exact=core.merged_exact,
            property_presence=kept,
            property_mean_multiplicity=mean_multiplicity,
        ))
    gcs_of_subject = gcs_of_core[core_of_subject]
    covered = gcs_of_subject >= 0
    return GeneralizationResult(
        generalized=generalized,
        membership=Membership(detection.subjects[covered], gcs_of_subject[covered]),
    )
