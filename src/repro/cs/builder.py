"""The schema-discovery pipeline: triples in, emergent relational schema out.

This module wires the individual passes together in the order the paper
describes them:

1. basic CS detection (group subjects by exact property set);
2. generalization (merge similar sets, nullable minority properties);
3. optional typed-variant splitting;
4. property typing from object values;
5. foreign-key relationship discovery;
6. schema assembly into :class:`~repro.cs.schema_model.EmergentSchema`;
7. fine-tuning (multiplicities, 1-1 merges, indirect support, pruning);
8. human-readable labeling;
9. coverage accounting.

The single entry point is :func:`discover_schema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..model import TermDictionary
from .detect import DetectionResult, detection_from_triples
from .finetune import FinetuneConfig, finetune_schema
from .generalize import GeneralizationConfig, GeneralizationResult, generalize
from .labeling import LabelingConfig, label_schema
from .relationships import RelationshipConfig, RelationshipResult, discover_relationships
from .schema_model import (
    CharacteristicSet,
    EmergentSchema,
    PropertySpec,
    SchemaCoverage,
    rows_in_table_columns,
)
from .typing import (
    PropertyObservation,
    TypingConfig,
    analyze_property_objects,
    assign_property_kinds,
    split_type_variants,
)


@dataclass
class DiscoveryConfig:
    """All tuning knobs of the discovery pipeline in one place."""

    generalization: GeneralizationConfig = field(default_factory=GeneralizationConfig)
    typing: TypingConfig = field(default_factory=TypingConfig)
    relationships: RelationshipConfig = field(default_factory=RelationshipConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    label_tables: bool = True


@dataclass
class DiscoveryReport:
    """Intermediate artifacts of a discovery run, for inspection and tests."""

    detection: DetectionResult
    generalization: GeneralizationResult
    observations: Dict[Tuple[int, int], PropertyObservation]
    relationships: RelationshipResult
    finetune_report: Dict[str, object]


def discover_schema(
    triple_matrix: np.ndarray,
    dictionary: Optional[TermDictionary] = None,
    config: DiscoveryConfig | None = None,
    return_report: bool = False,
) -> EmergentSchema | Tuple[EmergentSchema, DiscoveryReport]:
    """Run the full discovery pipeline over an encoded ``(n, 3)`` triple matrix.

    The pipeline detects exact characteristic sets, generalizes them under
    the configured support thresholds, optionally splits typed variants,
    infers property kinds, discovers foreign-key relationships, and
    fine-tunes the result (merging/dropping marginal sets).

    Args:
        triple_matrix: ``(n, 3)`` int64 array of (subject, predicate,
            object) OIDs.
        dictionary: needed for property typing and labeling; when omitted,
            every property is typed ``MIXED`` and labels fall back to
            numeric names.
        config: discovery thresholds; defaults to :class:`DiscoveryConfig`.
        return_report: also return the per-stage :class:`DiscoveryReport`.

    Returns:
        The :class:`EmergentSchema` — or a ``(schema, report)`` tuple when
        ``return_report`` is set.
    """
    config = config or DiscoveryConfig()
    matrix = np.asarray(triple_matrix, dtype=np.int64).reshape(-1, 3)

    detection = detection_from_triples(matrix)
    generalization = generalize(detection, config.generalization)

    if config.typing.split_variants and dictionary is not None:
        generalization = split_type_variants(generalization, matrix, dictionary, config.typing)

    if dictionary is not None:
        observations = analyze_property_objects(matrix, dictionary, generalization.membership)
        kinds = assign_property_kinds(generalization, observations, config.typing)
    else:
        observations = {}
        kinds = {}

    relationships = discover_relationships(observations, config.relationships)

    schema = _assemble_schema(generalization, kinds, relationships)
    finetune_report = finetune_schema(schema, relationships, observations, config.finetune)

    if config.label_tables and dictionary is not None:
        label_schema(schema, dictionary, matrix, config.labeling)

    schema.coverage = measure_coverage(schema, matrix)

    if return_report:
        report = DiscoveryReport(
            detection=detection,
            generalization=generalization,
            observations=observations,
            relationships=relationships,
            finetune_report=finetune_report,
        )
        return schema, report
    return schema


# -- assembly ------------------------------------------------------------------


def _assemble_schema(
    generalization: GeneralizationResult,
    kinds: Dict[Tuple[int, int], object],
    relationships: RelationshipResult,
) -> EmergentSchema:
    from .schema_model import PropertyKind  # local import to avoid cycle noise

    schema = EmergentSchema()
    fk_map = relationships.fk_map()
    for gcs in generalization.generalized:
        properties: Dict[int, PropertySpec] = {}
        for prop in sorted(gcs.properties):
            kind = kinds.get((gcs.gcs_id, prop), PropertyKind.MIXED)
            fk = fk_map.get((gcs.gcs_id, prop))
            properties[prop] = PropertySpec(
                predicate_oid=prop,
                kind=kind,
                presence=gcs.property_presence.get(prop, 1.0),
                mean_multiplicity=gcs.property_mean_multiplicity.get(prop, 1.0),
                fk_target_cs=fk.target_cs if fk else None,
                fk_confidence=fk.confidence if fk else 0.0,
            )
        schema.tables[gcs.gcs_id] = CharacteristicSet(
            cs_id=gcs.gcs_id,
            properties=properties,
            support=gcs.support,
            merged_from=[],
        )
    schema.membership = generalization.membership
    schema.foreign_keys = [fk for fk in relationships.foreign_keys
                           if fk.source_cs in schema.tables and fk.target_cs in schema.tables]
    return schema


def measure_coverage(schema: EmergentSchema, matrix: np.ndarray,
                     row_tables: Optional[np.ndarray] = None) -> SchemaCoverage:
    """Count how many subjects and triples of ``matrix`` the regular schema
    captures; discovery and every compaction call it.

    A triple is covered when its subject belongs to a table *and* its
    predicate is one of that table's properties; everything else lives in
    the irregular triple store.  One vectorized pass, O(n log m)
    (:func:`~repro.cs.schema_model.rows_in_table_columns`) — not one
    full-matrix scan per table.  ``row_tables`` is each row's table,
    ``schema.membership.cs_of(matrix[:, 0])``: compaction passes the one it
    already has, other callers leave it to be computed here.
    """
    if row_tables is None:
        row_tables = schema.membership.cs_of(matrix[:, 0])
    subjects = np.unique(matrix[:, 0])
    coverage = SchemaCoverage(total_triples=int(matrix.shape[0]),
                              total_subjects=int(subjects.size))
    coverage.covered_subjects = int((schema.membership.cs_of(subjects) >= 0).sum())
    coverage.covered_triples = int(rows_in_table_columns(
        matrix, row_tables,
        {cs.cs_id: cs.property_oids() for cs in schema.tables.values()}).sum())
    return coverage
