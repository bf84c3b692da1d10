"""Schema fine-tuning.

The paper lists several clean-ups applied after the initial CS, typing and
relationship passes:

* classify property multiplicities — reduce ``0..n`` attributes to ``0..1``
  where the data allows it, and mark genuinely multi-valued properties
  (mean multiplicity above a threshold) as ``MANY`` so they are *not*
  materialized as aligned columns (their triples stay in the irregular
  triple store / a separate table);
* unify CSs that are 1-1 linked (the blank-node satellite pattern);
* use *indirect support* (incoming foreign-key references) in addition to
  direct support when deciding which small CSs to keep, so that a small
  dimension table referenced by a large fact table survives pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from .relationships import RelationshipResult, one_to_one_links
from .schema_model import (
    CharacteristicSet,
    EmergentSchema,
    ForeignKey,
    Multiplicity,
    classify_multiplicity,
)
from .typing import PropertyObservation


@dataclass(frozen=True)
class FinetuneConfig:
    """Tuning knobs for the fine-tuning pass."""

    many_multiplicity_threshold: float = 1.5
    """Mean objects-per-subject above which a property is classed ``MANY``."""
    merge_one_to_one: bool = True
    """Merge CS pairs connected by a 1-1 foreign key into a single table."""
    one_to_one_tolerance: float = 0.1
    min_total_support: int = 1
    """Tables whose direct + indirect support is below this are dropped
    (their subjects become irregular)."""


def classify_multiplicities(schema: EmergentSchema, config: FinetuneConfig | None = None) -> None:
    """Set each property's multiplicity class from presence / mean counts."""
    config = config or FinetuneConfig()
    for table in schema.tables.values():
        for spec in table.properties.values():
            spec.multiplicity = classify_multiplicity(
                spec.presence, spec.mean_multiplicity,
                many_threshold=config.many_multiplicity_threshold,
            )


def apply_indirect_support(schema: EmergentSchema, relationships: RelationshipResult) -> None:
    """Add incoming-reference counts to each table's indirect support."""
    for cs_id, count in relationships.incoming_references.items():
        if cs_id in schema.tables:
            schema.tables[cs_id].indirect_support = count


def prune_low_support_tables(schema: EmergentSchema, config: FinetuneConfig | None = None) -> List[int]:
    """Drop tables whose *total* support is below the configured minimum.

    Returns the ids of the dropped tables; their subjects become irregular.
    """
    config = config or FinetuneConfig()
    dropped: List[int] = []
    for cs_id in list(schema.tables):
        if schema.tables[cs_id].total_support() < config.min_total_support:
            schema.remove_table(cs_id)
            dropped.append(cs_id)
    return dropped


def merge_one_to_one_tables(
    schema: EmergentSchema,
    relationships: RelationshipResult,
    observations: Mapping[Tuple[int, int], PropertyObservation],
    config: FinetuneConfig | None = None,
) -> List[Tuple[int, int]]:
    """Merge CS pairs linked 1-1 into a single wider table.

    The target table's properties are folded into the source table (the one
    holding the linking property); the linking property itself is dropped.
    Returns the list of ``(kept_cs, absorbed_cs)`` pairs.

    The *target*'s subjects stop being table members — they are irregular
    from then on (their data is reachable via the source row) — which
    mirrors how a blank-node satellite disappears as a standalone table.
    """
    config = config or FinetuneConfig()
    if not config.merge_one_to_one:
        return []
    supports = {cs_id: table.support for cs_id, table in schema.tables.items()}
    links = one_to_one_links(relationships.foreign_keys, supports, observations,
                             tolerance=config.one_to_one_tolerance)
    merged_pairs: List[Tuple[int, int]] = []
    absorbed: set[int] = set()
    for source_cs, predicate, target_cs in links:
        if source_cs in absorbed or target_cs in absorbed:
            continue
        if source_cs not in schema.tables or target_cs not in schema.tables:
            continue
        if source_cs == target_cs:
            continue
        source = schema.tables[source_cs]
        target = schema.tables[target_cs]
        # never absorb a table that other tables also reference
        other_referrers = [fk for fk in schema.foreign_keys
                           if fk.target_cs == target_cs and fk.source_cs != source_cs]
        if other_referrers:
            continue
        _absorb_table(schema, source, target, predicate)
        merged_pairs.append((source_cs, target_cs))
        absorbed.add(target_cs)
    return merged_pairs


def _absorb_table(schema: EmergentSchema, source: CharacteristicSet,
                  target: CharacteristicSet, linking_predicate: int) -> None:
    """Fold ``target``'s columns into ``source`` and drop ``target``."""
    for prop, spec in target.properties.items():
        if prop not in source.properties:
            source.properties[prop] = spec
    if linking_predicate in source.properties:
        del source.properties[linking_predicate]
    source.merged_from.append(target.cs_id)
    schema.remove_table(target.cs_id)
    # redirect foreign keys that pointed *from* the absorbed table
    redirected: List[ForeignKey] = []
    for fk in schema.foreign_keys:
        if fk.source_cs == target.cs_id:
            redirected.append(ForeignKey(source.cs_id, fk.predicate_oid, fk.target_cs, fk.confidence))
        else:
            redirected.append(fk)
    schema.foreign_keys = [fk for fk in redirected
                           if fk.source_cs in schema.tables and fk.target_cs in schema.tables]
    for prop, spec in source.properties.items():
        if spec.fk_target_cs == target.cs_id:
            spec.fk_target_cs = None
            spec.fk_confidence = 0.0


def finetune_schema(
    schema: EmergentSchema,
    relationships: RelationshipResult,
    observations: Mapping[Tuple[int, int], PropertyObservation],
    config: FinetuneConfig | None = None,
) -> Dict[str, object]:
    """Run the full fine-tuning sequence; returns a small report dict."""
    config = config or FinetuneConfig()
    classify_multiplicities(schema, config)
    apply_indirect_support(schema, relationships)
    merged = merge_one_to_one_tables(schema, relationships, observations, config)
    dropped = prune_low_support_tables(schema, config)
    return {"merged_one_to_one": merged, "dropped_tables": dropped}
