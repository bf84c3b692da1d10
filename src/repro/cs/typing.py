"""Property typing: assign a value class to every CS property.

After generalization we know *which* properties each CS has; this pass looks
at the actual object values to find out *what* they hold:

* literal objects are classified by their atomic type (integer, decimal,
  boolean, date, dateTime, string) — declared ``xsd`` datatypes win, and
  untyped literals are sniffed from their lexical form;
* IRI / blank-node objects are typed by the CS membership of the referenced
  subject ("initial CS membership" in the paper) — which simultaneously
  feeds foreign-key discovery;
* a property whose objects mix classes is typed ``MIXED`` unless one class
  clearly dominates.

Optionally, a CS can be *split into typed variants*: one CS per distinct
combination of property types among its subjects, which makes every column
of each variant homogeneous (the paper accepts the CS-count increase for the
benefit of faster, type-homogeneous processing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..model import IRI, Literal, TermDictionary
from ..model.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from .generalize import GeneralizationResult, GeneralizedCS
from .schema_model import PropertyKind


@dataclass(frozen=True)
class TypingConfig:
    """Tuning knobs for the typing pass."""

    dominance_threshold: float = 0.9
    """A kind must cover at least this fraction of observed objects for the
    property to be typed with it; otherwise the property is ``MIXED``."""
    split_variants: bool = False
    """Split each CS into per-type-signature variants."""
    min_variant_support: int = 3
    """A typed variant must keep at least this many subjects, otherwise its
    subjects stay with the dominant variant."""


@dataclass
class PropertyObservation:
    """Accumulated evidence about one (CS, property) pair's objects."""

    kind_counts: Dict[PropertyKind, int] = field(default_factory=dict)
    target_cs_counts: Dict[int, int] = field(default_factory=dict)
    irregular_target_count: int = 0
    total: int = 0

    def record_kind(self, kind: PropertyKind) -> None:
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.total += 1

    def record_target(self, target_gcs: Optional[int]) -> None:
        if target_gcs is None:
            self.irregular_target_count += 1
        else:
            self.target_cs_counts[target_gcs] = self.target_cs_counts.get(target_gcs, 0) + 1

    def dominant_kind(self, threshold: float) -> PropertyKind:
        if self.total == 0:
            return PropertyKind.MIXED
        kind, count = max(self.kind_counts.items(), key=lambda item: item[1])
        if count / self.total >= threshold:
            return kind
        return PropertyKind.MIXED

    def iri_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.kind_counts.get(PropertyKind.IRI, 0) / self.total


_DATATYPE_KINDS = {
    XSD_INTEGER: PropertyKind.INTEGER,
    XSD_DECIMAL: PropertyKind.DECIMAL,
    XSD_DOUBLE: PropertyKind.DECIMAL,
    XSD_BOOLEAN: PropertyKind.BOOLEAN,
    XSD_DATE: PropertyKind.DATE,
    XSD_DATETIME: PropertyKind.DATETIME,
}


def literal_kind(literal: Literal) -> PropertyKind:
    """Classify a literal by declared datatype, falling back to sniffing."""
    datatype = literal.datatype
    if datatype:
        if datatype in _DATATYPE_KINDS:
            return _DATATYPE_KINDS[datatype]
        if datatype.endswith(("#int", "#long", "#short", "#byte", "#nonNegativeInteger")):
            return PropertyKind.INTEGER
        if datatype.endswith("#float"):
            return PropertyKind.DECIMAL
        return PropertyKind.STRING
    return _sniff_lexical(literal.lexical)


def _sniff_lexical(text: str) -> PropertyKind:
    stripped = text.strip()
    if not stripped:
        return PropertyKind.STRING
    try:
        int(stripped)
        return PropertyKind.INTEGER
    except ValueError:
        pass
    try:
        float(stripped)
        return PropertyKind.DECIMAL
    except ValueError:
        pass
    if len(stripped) == 10 and stripped[4] == "-" and stripped[7] == "-":
        try:
            from datetime import date

            date.fromisoformat(stripped)
            return PropertyKind.DATE
        except ValueError:
            pass
    if stripped.lower() in ("true", "false"):
        return PropertyKind.BOOLEAN
    return PropertyKind.STRING


def term_kind(dictionary: TermDictionary, oid: int) -> PropertyKind:
    """Classify the object OID: IRI/BNode -> IRI, literal -> its atomic type."""
    term = dictionary.decode(oid)
    if isinstance(term, Literal):
        return literal_kind(term)
    return PropertyKind.IRI


def analyze_property_objects(
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    subject_to_gcs: Mapping[int, int],
) -> Dict[Tuple[int, int], PropertyObservation]:
    """Scan all triples once, collecting per-(CS, property) object evidence.

    ``triple_matrix`` is the ``(n, 3)`` encoded S/P/O matrix.  Only triples
    whose subject belongs to a generalized CS contribute; for IRI objects
    the referenced subject's CS membership (or irregularity) is recorded for
    foreign-key discovery.
    """
    observations: Dict[Tuple[int, int], PropertyObservation] = {}
    kind_cache: Dict[int, PropertyKind] = {}
    for s, p, o in triple_matrix:
        gcs = subject_to_gcs.get(int(s))
        if gcs is None:
            continue
        key = (gcs, int(p))
        obs = observations.get(key)
        if obs is None:
            obs = PropertyObservation()
            observations[key] = obs
        oid = int(o)
        kind = kind_cache.get(oid)
        if kind is None:
            kind = term_kind(dictionary, oid)
            kind_cache[oid] = kind
        obs.record_kind(kind)
        if kind is PropertyKind.IRI:
            obs.record_target(subject_to_gcs.get(oid))
    return observations


def assign_property_kinds(
    generalization: GeneralizationResult,
    observations: Mapping[Tuple[int, int], PropertyObservation],
    config: TypingConfig | None = None,
) -> Dict[Tuple[int, int], PropertyKind]:
    """Resolve one :class:`PropertyKind` per (CS, property) pair."""
    config = config or TypingConfig()
    kinds: Dict[Tuple[int, int], PropertyKind] = {}
    for gcs in generalization.generalized:
        for prop in gcs.properties:
            obs = observations.get((gcs.gcs_id, prop))
            if obs is None:
                kinds[(gcs.gcs_id, prop)] = PropertyKind.MIXED
            else:
                kinds[(gcs.gcs_id, prop)] = obs.dominant_kind(config.dominance_threshold)
    return kinds


# -- typed variants ------------------------------------------------------------


def compute_subject_signatures(
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    subjects: List[int],
    properties: frozenset[int],
) -> Dict[int, Tuple[Tuple[int, str], ...]]:
    """Per-subject type signature over the CS's properties.

    The signature is a sorted tuple of ``(property, kind value)`` pairs for
    the properties the subject actually has; subjects with identical
    signatures can share a fully type-homogeneous variant.
    """
    wanted = set(subjects)
    per_subject: Dict[int, Dict[int, PropertyKind]] = {s: {} for s in subjects}
    kind_cache: Dict[int, PropertyKind] = {}
    for s, p, o in triple_matrix:
        s_int, p_int, o_int = int(s), int(p), int(o)
        if s_int not in wanted or p_int not in properties:
            continue
        kind = kind_cache.get(o_int)
        if kind is None:
            kind = term_kind(dictionary, o_int)
            kind_cache[o_int] = kind
        existing = per_subject[s_int].get(p_int)
        if existing is None:
            per_subject[s_int][p_int] = kind
        elif existing is not kind:
            per_subject[s_int][p_int] = PropertyKind.MIXED
    signatures: Dict[int, Tuple[Tuple[int, str], ...]] = {}
    for subject, kinds in per_subject.items():
        signatures[subject] = tuple(sorted((p, k.value) for p, k in kinds.items()))
    return signatures


def split_type_variants(
    generalization: GeneralizationResult,
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    config: TypingConfig | None = None,
) -> GeneralizationResult:
    """Split each generalized CS into typed variants (optional pass).

    Subjects whose signature group is smaller than ``min_variant_support``
    stay with the largest variant of their CS, so the pass never creates
    tiny fragments.
    """
    config = config or TypingConfig()
    new_sets: List[GeneralizedCS] = []
    subject_to_gcs: Dict[int, int] = {}
    for gcs in generalization.generalized:
        signatures = compute_subject_signatures(triple_matrix, dictionary, gcs.subjects, gcs.properties)
        groups: Dict[Tuple, List[int]] = {}
        for subject in gcs.subjects:
            groups.setdefault(signatures.get(subject, ()), []).append(subject)
        ordered = sorted(groups.items(), key=lambda item: -len(item[1]))
        if not ordered:
            continue
        main_signature, main_subjects = ordered[0]
        main_subjects = list(main_subjects)
        variant_groups: List[Tuple[Tuple, List[int]]] = []
        for signature, members in ordered[1:]:
            if len(members) >= config.min_variant_support:
                variant_groups.append((signature, members))
            else:
                main_subjects.extend(members)
        variant_groups.insert(0, (main_signature, sorted(main_subjects)))
        for signature, members in variant_groups:
            new_id = len(new_sets)
            new_sets.append(GeneralizedCS(
                gcs_id=new_id,
                properties=gcs.properties,
                subjects=sorted(members),
                merged_exact=gcs.merged_exact,
                property_presence=dict(gcs.property_presence),
                property_mean_multiplicity=dict(gcs.property_mean_multiplicity),
            ))
            for subject in members:
                subject_to_gcs[subject] = new_id
    return GeneralizationResult(
        generalized=new_sets,
        subject_to_gcs=subject_to_gcs,
    )
