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

from .detect import DetectionResult, ExactCS


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
    subjects: List[int] = field(default_factory=list)
    merged_exact: List[frozenset[int]] = field(default_factory=list)
    property_presence: Dict[int, float] = field(default_factory=dict)
    property_mean_multiplicity: Dict[int, float] = field(default_factory=dict)

    @property
    def support(self) -> int:
        return len(self.subjects)


@dataclass
class GeneralizationResult:
    """Output of the generalization pass."""

    generalized: List[GeneralizedCS]
    subject_to_gcs: Dict[int, int]
    """Subjects absent from it are irregular."""

    def coverage(self, total_subjects: int) -> float:
        if total_subjects == 0:
            return 0.0
        covered = sum(g.support for g in self.generalized)
        return covered / total_subjects


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

    ranked = detection.sets_by_support()
    cores: List[_Core] = []
    small: List[ExactCS] = []
    for exact in ranked:
        if exact.support >= threshold:
            _merge_or_add_core(cores, exact, config.core_merge_similarity)
        else:
            small.append(exact)

    if not cores and ranked:
        # degenerate input: nothing reaches the threshold; promote the largest
        _merge_or_add_core(cores, ranked[0], config.core_merge_similarity)
        small = ranked[1:]

    for exact in small:  # one that attaches to no core stays irregular
        best = _best_core(cores, exact.properties)
        if best is not None and jaccard(best.properties, exact.properties) >= config.attach_similarity:
            best.absorb(exact)

    if config.max_tables is not None and len(cores) > config.max_tables:
        cores.sort(key=lambda c: -len(c.subjects))
        cores = cores[:config.max_tables]

    generalized: List[GeneralizedCS] = []
    subject_to_gcs: Dict[int, int] = {}
    for gcs_id, core in enumerate(cores):
        gcs = _finalize_core(gcs_id, core, detection, config)
        if not gcs.properties:
            continue
        generalized.append(gcs)
        for subject in gcs.subjects:
            subject_to_gcs[subject] = gcs.gcs_id

    # re-number consecutively in case empty cores were dropped
    for new_id, gcs in enumerate(generalized):
        if gcs.gcs_id != new_id:
            for subject in gcs.subjects:
                subject_to_gcs[subject] = new_id
            gcs.gcs_id = new_id

    return GeneralizationResult(
        generalized=generalized,
        subject_to_gcs=subject_to_gcs,
    )


# -- internals -----------------------------------------------------------------


class _Core:
    """Mutable accumulator for one generalized CS under construction."""

    def __init__(self, exact: ExactCS) -> None:
        self.properties: frozenset[int] = exact.properties
        self.subjects: List[int] = list(exact.subjects)
        self.merged_exact: List[frozenset[int]] = [exact.properties]

    def absorb(self, exact: ExactCS) -> None:
        self.properties = self.properties | exact.properties
        self.subjects.extend(exact.subjects)
        self.merged_exact.append(exact.properties)


def _merge_or_add_core(cores: List[_Core], exact: ExactCS, similarity: float) -> None:
    best = _best_core(cores, exact.properties)
    if best is not None and jaccard(best.properties, exact.properties) >= similarity:
        best.absorb(exact)
    else:
        cores.append(_Core(exact))


def _best_core(cores: List[_Core], properties: frozenset[int]) -> Optional[_Core]:
    best: Optional[_Core] = None
    best_score = -1.0
    for core in cores:
        score = jaccard(core.properties, properties)
        if score > best_score:
            best_score = score
            best = core
    return best


def _finalize_core(gcs_id: int, core: _Core, detection: DetectionResult,
                   config: GeneralizationConfig) -> GeneralizedCS:
    """Compute presence/multiplicity statistics and drop rare properties."""
    subject_count = len(core.subjects)
    presence_counts: Dict[int, int] = {}
    value_counts: Dict[int, int] = {}
    for subject in core.subjects:
        props = detection.subject_properties.get(subject, frozenset())
        mults = detection.property_multiplicities.get(subject, {})
        for prop in props:
            if prop not in core.properties:
                continue
            presence_counts[prop] = presence_counts.get(prop, 0) + 1
            value_counts[prop] = value_counts.get(prop, 0) + mults.get(prop, 1)

    kept: Dict[int, float] = {}
    mean_multiplicity: Dict[int, float] = {}
    for prop in core.properties:
        count = presence_counts.get(prop, 0)
        presence = count / subject_count if subject_count else 0.0
        if presence >= config.minority_presence or presence >= 0.999:
            kept[prop] = presence
            mean_multiplicity[prop] = (value_counts.get(prop, 0) / count) if count else 0.0

    return GeneralizedCS(
        gcs_id=gcs_id,
        properties=frozenset(kept),
        subjects=sorted(core.subjects),
        merged_exact=core.merged_exact,
        property_presence=kept,
        property_mean_multiplicity=mean_multiplicity,
    )
