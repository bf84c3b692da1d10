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
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..model import Literal, TermDictionary
from ..model.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from .detect import group_equal_runs, run_starts
from .generalize import GeneralizationResult, GeneralizedCS
from .schema_model import Membership, PropertyKind, rows_in_table_columns


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
    """Accumulated evidence about one (CS, property) pair's objects.

    Both count dicts list their keys in the order the triple matrix first
    shows them, and a tie between the largest counts goes to the earlier key
    (``max`` keeps the first maximum it meets): of two equally frequent
    kinds, or target CSs, the one seen first in matrix order wins.
    """

    kind_counts: Dict[PropertyKind, int] = field(default_factory=dict)
    target_cs_counts: Dict[int, int] = field(default_factory=dict)
    irregular_target_count: int = 0
    total: int = 0

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


KINDS = list(PropertyKind)
"""A kind's *code* is its position here: what a kind-code column holds."""
_CODE_OF = {kind: code for code, kind in enumerate(KINDS)}
_IRI, _MIXED = _CODE_OF[PropertyKind.IRI], _CODE_OF[PropertyKind.MIXED]


def object_kind_codes(dictionary: TermDictionary, objects: np.ndarray) -> np.ndarray:
    """The kind code of every entry of an object-OID column; each *distinct*
    object is classified once (:func:`term_kind`)."""
    distinct, inverse = np.unique(objects, return_inverse=True)
    codes = np.asarray([_CODE_OF[term_kind(dictionary, oid)] for oid in distinct.tolist()],
                       dtype=np.int64)
    return codes[inverse]


def _count_first_seen(*columns: np.ndarray):
    """The distinct rows of the aligned columns in order of first appearance,
    each followed by its number of occurrences, as tuples of ints."""
    order = np.lexsort(columns[::-1])
    ordered = [column[order] for column in columns]
    starts = run_starts(*ordered)
    by_first = np.argsort(order[starts])  # the sort is stable: a run starts at its earliest row
    return zip(*(column[starts][by_first].tolist() for column in ordered),
               np.diff(starts, append=len(order))[by_first].tolist())


def analyze_property_objects(
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    membership: Membership,
) -> Dict[Tuple[int, int], PropertyObservation]:
    """Collect per-(CS, property) object evidence in one pass over the matrix.

    ``triple_matrix`` is the ``(n, 3)`` encoded S/P/O matrix.  Only triples
    whose subject belongs to a generalized CS (``membership``) contribute;
    for IRI objects the referenced subject's CS membership (or irregularity)
    is recorded for foreign-key discovery.  The pass is a kind-code column
    over the contributing rows and two grouped counts — of ``(CS, property,
    kind)`` and of ``(CS, property, target CS)`` — whose cells arrive in the
    order the matrix first shows them (see :class:`PropertyObservation`).
    """
    row_cs = membership.cs_of(triple_matrix[:, 0])
    rows = np.flatnonzero(row_cs >= 0)
    cs, predicate, obj = row_cs[rows], triple_matrix[rows, 1], triple_matrix[rows, 2]
    kind = object_kind_codes(dictionary, obj)
    observations: Dict[Tuple[int, int], PropertyObservation] = {}
    for cs_id, prop, kind_code, count in _count_first_seen(cs, predicate, kind):
        obs = observations.setdefault((cs_id, prop), PropertyObservation())
        obs.kind_counts[KINDS[kind_code]] = count
        obs.total += count
    to_iri = kind == _IRI
    target = membership.cs_of(obj[to_iri])
    for cs_id, prop, target_cs, count in _count_first_seen(cs[to_iri], predicate[to_iri], target):
        obs = observations[(cs_id, prop)]
        if target_cs >= 0:
            obs.target_cs_counts[target_cs] = count
        else:  # the referenced term belongs to no table
            obs.irregular_target_count = count
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


def subject_signatures(
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    generalization: GeneralizationResult,
) -> np.ndarray:
    """Per member subject (aligned with ``generalization.membership``), the
    number of its type signature: equal numbers, equal signatures.

    The signature is the subject's ``(property, kind)`` pairs over the
    properties of its CS, a property whose objects disagree counting as
    ``MIXED``; subjects with identical signatures can share a fully
    type-homogeneous variant.  One pass for all CSs: the kind-code column
    of the members' rows, reduced per ``(subject, property)``, then per
    subject.
    """
    membership = generalization.membership
    rows = np.flatnonzero(rows_in_table_columns(
        triple_matrix, membership.cs_of(triple_matrix[:, 0]),
        {gcs.gcs_id: gcs.properties for gcs in generalization.generalized}))
    rows = rows[np.lexsort((triple_matrix[rows, 1], triple_matrix[rows, 0]))]
    subject, predicate = triple_matrix[rows, 0], triple_matrix[rows, 1]
    kind = object_kind_codes(dictionary, triple_matrix[rows, 2])
    pairs = run_starts(subject, predicate)
    signature = np.zeros(len(membership), dtype=np.int64)  # 0: no typed property at all
    if pairs.size:
        lowest, highest = np.minimum.reduceat(kind, pairs), np.maximum.reduceat(kind, pairs)
        pair_kind = np.where(lowest == highest, lowest, _MIXED)
        holders = run_starts(subject[pairs])
        group, _first = group_equal_runs(predicate[pairs] * len(KINDS) + pair_kind, holders)
        signature[np.searchsorted(membership.subjects, subject[pairs][holders])] = group + 1
    return signature


def split_type_variants(
    generalization: GeneralizationResult,
    triple_matrix: np.ndarray,
    dictionary: TermDictionary,
    config: TypingConfig | None = None,
) -> GeneralizationResult:
    """Split each generalized CS into typed variants (optional pass).

    The largest signature group of a CS (of equally large ones, the one
    holding the lowest subject OID) is its main variant; every other group
    of at least ``min_variant_support`` subjects becomes a variant of its
    own, in that order, and the subjects of smaller groups stay with the
    main variant, so the pass never creates tiny fragments.
    """
    config = config or TypingConfig()
    membership = generalization.membership
    signature = subject_signatures(triple_matrix, dictionary, generalization)
    variant_of_member = np.empty(len(membership), dtype=np.int64)
    origin: List[GeneralizedCS] = []  # per new variant, the CS it was split from
    for gcs in generalization.generalized:
        members = np.flatnonzero(membership.cs_ids == gcs.gcs_id)
        if not members.size:
            continue
        _groups, first, group, sizes = np.unique(
            signature[members], return_index=True, return_inverse=True, return_counts=True)
        ordered = sorted(range(len(sizes)), key=lambda g: (-sizes[g], first[g]))
        variant_of_group = np.full(len(sizes), len(origin), dtype=np.int64)  # the main variant
        origin.append(gcs)
        for g in ordered[1:]:
            if sizes[g] >= config.min_variant_support:
                variant_of_group[g] = len(origin)
                origin.append(gcs)
        variant_of_member[members] = variant_of_group[group]
    split = Membership(membership.subjects, variant_of_member)
    return GeneralizationResult(
        generalized=[GeneralizedCS(
            gcs_id=new_id,
            properties=gcs.properties,
            subjects=split.members(new_id),
            merged_exact=gcs.merged_exact,
            property_presence=dict(gcs.property_presence),
            property_mean_multiplicity=dict(gcs.property_mean_multiplicity),
        ) for new_id, gcs in enumerate(origin)],
        membership=split,
    )
