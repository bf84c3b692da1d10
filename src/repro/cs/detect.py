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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple


@dataclass
class ExactCS:
    """One exact characteristic set: a property combination and its members."""

    properties: frozenset[int]
    subjects: List[int] = field(default_factory=list)

    @property
    def support(self) -> int:
        return len(self.subjects)


@dataclass
class DetectionResult:
    """Output of the basic detection pass."""

    exact_sets: List[ExactCS]
    subject_properties: Dict[int, frozenset[int]]
    property_multiplicities: Dict[int, Dict[int, int]]
    total_triples: int

    def sets_by_support(self) -> List[ExactCS]:
        return sorted(self.exact_sets, key=lambda cs: (-cs.support, sorted(cs.properties)))

    def total_subjects(self) -> int:
        return len(self.subject_properties)


def detect_characteristic_sets(
    subject_properties: Mapping[int, frozenset[int]],
    property_multiplicities: Mapping[int, Mapping[int, int]] | None = None,
    total_triples: int | None = None,
) -> DetectionResult:
    """Group subjects by their exact property set.

    Parameters
    ----------
    subject_properties:
        Mapping subject OID -> frozenset of predicate OIDs (one entry per
        distinct subject; see :func:`detection_from_triples`).
    property_multiplicities:
        Optional mapping subject OID -> {predicate OID -> object count},
        used later for multiplicity classification.  When omitted, every
        property is assumed single-valued.
    total_triples:
        Total number of triples in the input, used for coverage accounting.
        When omitted it is reconstructed from the multiplicities (or from
        property-set sizes if those are missing too).
    """
    groups: Dict[frozenset[int], List[int]] = defaultdict(list)
    for subject, properties in subject_properties.items():
        groups[properties].append(subject)

    exact_sets = [ExactCS(properties=props, subjects=sorted(members))
                  for props, members in groups.items()]
    exact_sets.sort(key=lambda cs: (-cs.support, sorted(cs.properties)))

    multiplicities: Dict[int, Dict[int, int]] = {}
    if property_multiplicities is not None:
        multiplicities = {int(s): dict(props) for s, props in property_multiplicities.items()}
    else:
        multiplicities = {int(s): {p: 1 for p in props} for s, props in subject_properties.items()}

    if total_triples is None:
        total_triples = sum(sum(props.values()) for props in multiplicities.values())

    return DetectionResult(
        exact_sets=exact_sets,
        subject_properties=dict(subject_properties),
        property_multiplicities=multiplicities,
        total_triples=int(total_triples),
    )


def detection_from_triples(triples: Iterable[Tuple[int, int, int]]) -> DetectionResult:
    """Convenience: run detection directly over encoded ``(s, p, o)`` triples."""
    subject_properties: Dict[int, set[int]] = defaultdict(set)
    multiplicities: Dict[int, Dict[int, int]] = defaultdict(dict)
    total = 0
    for s, p, _o in triples:
        total += 1
        subject_properties[int(s)].add(int(p))
        props = multiplicities[int(s)]
        props[int(p)] = props.get(int(p), 0) + 1
    frozen = {s: frozenset(props) for s, props in subject_properties.items()}
    return detect_characteristic_sets(frozen, multiplicities, total_triples=total)


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
