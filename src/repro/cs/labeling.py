"""Human-readable naming of the emergent schema.

A discovered schema is only useful to SQL users if its tables and columns
have understandable names.  The labeling pass derives them from the data:

* a table is named after the dominant ``rdf:type`` object of its members
  (``<.../Conference>`` -> ``Conference``), falling back to the most
  discriminative property's local name, then to ``cs<N>``;
* a column is named after the predicate IRI's local name
  (``<.../has_author>`` -> ``has_author``);
* name collisions are resolved by suffixing ``_2``, ``_3``, …
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from ..model import IRI, TermDictionary
from ..model.terms import RDF_TYPE
from .schema_model import EmergentSchema


@dataclass(frozen=True)
class LabelingConfig:
    """Tuning knobs for the naming pass."""

    lowercase: bool = False
    max_length: int = 48
    type_sample_limit: int = 5000
    """At most this many members per table are sampled for the dominant type."""


_IDENTIFIER_RE = re.compile(r"[^0-9A-Za-z_]")


def sanitize_identifier(raw: str, max_length: int = 48, fallback: str = "col") -> str:
    """Turn an arbitrary string into a SQL-friendly identifier."""
    cleaned = _IDENTIFIER_RE.sub("_", raw).strip("_")
    if not cleaned:
        cleaned = fallback
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned[:max_length]


def label_schema(
    schema: EmergentSchema,
    dictionary: TermDictionary,
    triple_matrix: Optional[np.ndarray] = None,
    config: LabelingConfig | None = None,
) -> Dict[int, str]:
    """Assign labels to every table and property; returns table id -> name."""
    config = config or LabelingConfig()
    type_oid = dictionary.lookup_term(IRI(RDF_TYPE))
    dominant_types = _dominant_types(schema, triple_matrix, type_oid, config) if triple_matrix is not None else {}

    used_names: set[str] = set()
    table_names: Dict[int, str] = {}
    for table in schema.tables_by_support():
        name = _table_base_name(table.cs_id, dominant_types.get(table.cs_id), table, dictionary, config)
        name = _unique(name, used_names)
        used_names.add(name)
        table.label = name
        table_names[table.cs_id] = name
        _label_columns(table, dictionary, config)
    return table_names


def _table_base_name(cs_id: int, type_oid: Optional[int], table, dictionary: TermDictionary,
                     config: LabelingConfig) -> str:
    if type_oid is not None:
        try:
            term = dictionary.decode(type_oid)
            if isinstance(term, IRI):
                return _case(sanitize_identifier(term.local_name(), config.max_length), config)
        except Exception:  # noqa: BLE001 - labels are best-effort
            pass
    # fall back to the most discriminative (least common across tables) property
    rdf_type = None
    for prop in sorted(table.properties):
        try:
            decoded = dictionary.decode(prop)
        except Exception:  # noqa: BLE001
            continue
        if isinstance(decoded, IRI):
            if decoded.value == RDF_TYPE:
                rdf_type = decoded
                continue
            return _case(sanitize_identifier(decoded.local_name(), config.max_length, fallback=f"cs{cs_id}"),
                         config)
    if rdf_type is not None:
        return _case(f"typed_cs{cs_id}", config)
    return _case(f"cs{cs_id}", config)


def _label_columns(table, dictionary: TermDictionary, config: LabelingConfig) -> None:
    used: set[str] = set()
    for prop in sorted(table.properties):
        spec = table.properties[prop]
        try:
            term = dictionary.decode(prop)
            base = term.local_name() if isinstance(term, IRI) else f"p{prop}"
        except Exception:  # noqa: BLE001
            base = f"p{prop}"
        name = _case(sanitize_identifier(base, config.max_length, fallback=f"p{prop}"), config)
        name = _unique(name, used)
        used.add(name)
        spec.label = name


def _dominant_types(schema: EmergentSchema, triple_matrix: np.ndarray,
                    type_predicate_oid: Optional[int], config: LabelingConfig) -> Dict[int, int]:
    """For each table, the most frequent rdf:type object OID among members."""
    if type_predicate_oid is None or triple_matrix is None or triple_matrix.shape[0] == 0:
        return {}
    typed = triple_matrix[triple_matrix[:, 1] == type_predicate_oid]
    typed_cs = schema.membership.cs_of(typed[:, 0])
    dominant: Dict[int, int] = {}
    for cs_id in schema.tables:
        sample = typed[typed_cs == cs_id, 2][:config.type_sample_limit]
        if sample.size:
            dominant[cs_id] = Counter(sample.tolist()).most_common(1)[0][0]
    return dominant


def _unique(name: str, used: set[str]) -> str:
    if name not in used:
        return name
    suffix = 2
    while f"{name}_{suffix}" in used:
        suffix += 1
    return f"{name}_{suffix}"


def _case(name: str, config: LabelingConfig) -> str:
    return name.lower() if config.lowercase else name
