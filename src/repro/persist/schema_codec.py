"""Codec for the emergent schema.

The schema is the one structure that is genuinely expensive to recreate —
it is the output of characteristic-set discovery — so the snapshot persists
it in full, in two parts.  The JSON payload holds every table with its
property specs, the foreign-key graph and coverage accounting: O(tables).
Who belongs to which table is one ``(2, n)`` int64 array — the membership's
subjects over their table ids — which the snapshot writes as a checksummed
array file next to the JSON.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cs import EmergentSchema
from ..cs.schema_model import (
    CharacteristicSet,
    ForeignKey,
    Membership,
    Multiplicity,
    PropertyKind,
    PropertySpec,
    SchemaCoverage,
)
from ..errors import PersistenceError


def membership_to_array(schema: EmergentSchema) -> np.ndarray:
    """The schema's membership as one ``(2, n)`` array: subjects over table ids."""
    return np.vstack([schema.membership.subjects, schema.membership.cs_ids])


def schema_to_dict(schema: EmergentSchema) -> dict:
    """Serialize everything but the membership to a JSON-ready dictionary."""
    return {
        "tables": [_table_to_dict(table) for table in schema.tables.values()],
        "foreign_keys": [
            {
                "source_cs": fk.source_cs,
                "predicate_oid": fk.predicate_oid,
                "target_cs": fk.target_cs,
                "confidence": fk.confidence,
            }
            for fk in schema.foreign_keys
        ],
        "coverage": {
            "total_triples": schema.coverage.total_triples,
            "covered_triples": schema.coverage.covered_triples,
            "total_subjects": schema.coverage.total_subjects,
            "covered_subjects": schema.coverage.covered_subjects,
        },
    }


def schema_from_dict(payload: dict, membership: Optional[np.ndarray]) -> EmergentSchema:
    """Rebuild a schema from its JSON payload and its membership array.

    ``membership`` is ``None`` for a format v1 database, which has no
    membership file: its table payloads list their ``subjects`` instead
    (its list of irregular subjects is implied, so ignored).
    """
    try:
        schema = EmergentSchema()
        for table_payload in payload["tables"]:
            table = _table_from_dict(table_payload)
            schema.tables[table.cs_id] = table
        if membership is None:
            schema.membership = Membership.of_tables(
                {int(table_payload["cs_id"]): table_payload["subjects"]
                 for table_payload in payload["tables"]})
        else:
            schema.membership = Membership(*np.asarray(membership).reshape(2, -1))
            if not np.isin(schema.membership.cs_ids, list(schema.tables)).all():
                raise ValueError("membership names a table the schema does not have")
        schema.foreign_keys = [
            ForeignKey(
                source_cs=int(fk["source_cs"]),
                predicate_oid=int(fk["predicate_oid"]),
                target_cs=int(fk["target_cs"]),
                confidence=float(fk["confidence"]),
            )
            for fk in payload["foreign_keys"]
        ]
        coverage = payload["coverage"]
        schema.coverage = SchemaCoverage(
            total_triples=int(coverage["total_triples"]),
            covered_triples=int(coverage["covered_triples"]),
            total_subjects=int(coverage["total_subjects"]),
            covered_subjects=int(coverage["covered_subjects"]),
        )
        return schema
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed schema payload: {exc}") from exc


# -- tables -------------------------------------------------------------------


def _table_to_dict(table: CharacteristicSet) -> dict:
    return {
        "cs_id": table.cs_id,
        "label": table.label,
        "support": table.support,
        "indirect_support": table.indirect_support,
        "merged_from": list(table.merged_from),
        "type_signature": list(table.type_signature),
        "properties": [_spec_to_dict(spec) for spec in table.properties.values()],
    }


def _table_from_dict(payload: dict) -> CharacteristicSet:
    properties: Dict[int, PropertySpec] = {}
    for spec_payload in payload["properties"]:
        spec = _spec_from_dict(spec_payload)
        properties[spec.predicate_oid] = spec
    return CharacteristicSet(
        cs_id=int(payload["cs_id"]),
        properties=properties,
        support=int(payload["support"]),
        indirect_support=int(payload["indirect_support"]),
        label=str(payload["label"]),
        merged_from=[int(m) for m in payload["merged_from"]],
        type_signature=tuple(tuple(e) if isinstance(e, list) else e
                             for e in payload["type_signature"]),
    )


def _spec_to_dict(spec: PropertySpec) -> dict:
    return {
        "predicate_oid": spec.predicate_oid,
        "multiplicity": spec.multiplicity.value,
        "kind": spec.kind.value,
        "presence": spec.presence,
        "mean_multiplicity": spec.mean_multiplicity,
        "fk_target_cs": spec.fk_target_cs,
        "fk_confidence": spec.fk_confidence,
        "label": spec.label,
    }


def _spec_from_dict(payload: dict) -> PropertySpec:
    return PropertySpec(
        predicate_oid=int(payload["predicate_oid"]),
        multiplicity=Multiplicity(payload["multiplicity"]),
        kind=PropertyKind(payload["kind"]),
        presence=float(payload["presence"]),
        mean_multiplicity=float(payload["mean_multiplicity"]),
        fk_target_cs=_opt_int(payload["fk_target_cs"]),
        fk_confidence=float(payload["fk_confidence"]),
        label=str(payload["label"]),
    )


def _opt_int(value) -> Optional[int]:
    return None if value is None else int(value)
