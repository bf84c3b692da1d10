"""Characteristic-set detection and emergent-schema discovery (the paper's
primary contribution)."""

from .builder import (
    DiscoveryConfig,
    DiscoveryReport,
    discover_schema,
    measure_coverage,
)
from .detect import (
    DetectionResult,
    ExactCS,
    coverage_at_threshold,
    detect_characteristic_sets,
    detection_from_triples,
    support_histogram,
)
from .finetune import FinetuneConfig, finetune_schema
from .generalize import GeneralizationConfig, GeneralizationResult, GeneralizedCS, generalize, jaccard
from .labeling import LabelingConfig, label_schema, sanitize_identifier
from .relationships import RelationshipConfig, RelationshipResult, discover_relationships
from .schema_model import (
    CharacteristicSet,
    EmergentSchema,
    ForeignKey,
    Membership,
    Multiplicity,
    PropertyKind,
    PropertySpec,
    SchemaCoverage,
    match_characteristic_set,
)
from .summarize import (
    SchemaSummary,
    expand_over_foreign_keys,
    summarize_by_keywords,
    summarize_by_support,
    top_k_summary,
)
from .typing import TypingConfig, analyze_property_objects, assign_property_kinds, literal_kind

__all__ = [
    "CharacteristicSet",
    "DetectionResult",
    "DiscoveryConfig",
    "DiscoveryReport",
    "EmergentSchema",
    "ExactCS",
    "FinetuneConfig",
    "ForeignKey",
    "GeneralizationConfig",
    "GeneralizationResult",
    "GeneralizedCS",
    "LabelingConfig",
    "Membership",
    "Multiplicity",
    "PropertyKind",
    "PropertySpec",
    "RelationshipConfig",
    "RelationshipResult",
    "SchemaCoverage",
    "SchemaSummary",
    "TypingConfig",
    "analyze_property_objects",
    "assign_property_kinds",
    "coverage_at_threshold",
    "detect_characteristic_sets",
    "detection_from_triples",
    "discover_relationships",
    "discover_schema",
    "expand_over_foreign_keys",
    "finetune_schema",
    "generalize",
    "jaccard",
    "label_schema",
    "literal_kind",
    "match_characteristic_set",
    "measure_coverage",
    "sanitize_identifier",
    "summarize_by_keywords",
    "summarize_by_support",
    "support_histogram",
    "top_k_summary",
]
