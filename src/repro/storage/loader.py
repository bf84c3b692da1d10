"""Bulk loading and subject clustering.

The loading pipeline mirrors the paper's architecture:

1. parse / generate decoded triples;
2. dictionary-encode them in parse order (``encode_graph``);
3. optionally reassign literal OIDs so OID order equals value order
   (``value_order_literals``) — this is what lets range predicates run on
   OIDs directly;
4. discover the emergent schema (:mod:`repro.cs`);
5. *subject clustering*: re-assign subject OIDs so that the members of each
   characteristic set occupy one contiguous stretch, optionally sub-ordered
   on a chosen property's value (``cluster_subjects``);
6. build physical stores: the exhaustive-permutation baseline and/or the
   CS-clustered store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cs import EmergentSchema
from ..model import Graph, TermDictionary, Triple
from ..model.terms import term_sort_key


def encode_graph(graph: Graph | Iterable[Triple],
                 dictionary: Optional[TermDictionary] = None) -> Tuple[TermDictionary, np.ndarray]:
    """Dictionary-encode decoded triples in parse order.

    Returns the dictionary and an ``(n, 3)`` encoded S/P/O matrix.  Exact
    duplicate triples are dropped (RDF graphs are sets).
    """
    dictionary = dictionary or TermDictionary()
    seen: set[Tuple[int, int, int]] = set()
    rows: List[Tuple[int, int, int]] = []
    for triple in graph:
        encoded = dictionary.encode_triple(triple)
        key = (encoded.s, encoded.p, encoded.o)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    matrix = np.asarray(rows, dtype=np.int64).reshape(-1, 3) if rows else np.empty((0, 3), dtype=np.int64)
    return dictionary, matrix


def apply_oid_mapping(matrix: np.ndarray, mapping: Dict[int, int]) -> np.ndarray:
    """Rewrite every OID in the matrix according to ``mapping`` (old -> new)."""
    if not mapping or matrix.size == 0:
        return matrix.copy()
    max_oid = int(matrix.max())
    lookup = np.arange(max(max_oid + 1, max(mapping) + 1), dtype=np.int64)
    for old, new in mapping.items():
        if old < lookup.shape[0]:
            lookup[old] = new
    return lookup[matrix]


def value_order_literals(matrix: np.ndarray, dictionary: TermDictionary) -> np.ndarray:
    """Permute literal OIDs into value order; returns the rewritten matrix."""
    mapping = dictionary.reassign_value_ordered_literals()
    if not mapping:
        return matrix.copy()
    return apply_oid_mapping(matrix, mapping)


# -- subject clustering -----------------------------------------------------------


@dataclass
class ClusteringPlan:
    """The subject-OID permutation chosen by :func:`plan_subject_clustering`."""

    mapping: Dict[int, int]
    cs_order: List[int]
    sort_keys: Dict[int, Optional[int]] = field(default_factory=dict)

    def is_identity(self) -> bool:
        return all(old == new for old, new in self.mapping.items())


def plan_subject_clustering(
    matrix: np.ndarray,
    dictionary: TermDictionary,
    schema: EmergentSchema,
    sort_keys: Optional[Dict[int, int]] = None,
) -> ClusteringPlan:
    """Compute the subject-OID permutation that clusters subjects by CS.

    The permutation only shuffles the OIDs of subjects that belong to some
    CS *among themselves*: the set of OID values is unchanged, but after the
    permutation the numeric order of those OIDs follows (CS, sort key, old
    OID).  Because the reassigned values are the sorted original values, all
    other terms keep their OIDs and the mapping is a bijection.

    ``sort_keys`` optionally maps a CS id to the predicate OID whose value
    should sub-order the members (e.g. LINEITEM on ``shipdate``).  Members
    lacking the key keep their relative position at the end of the block.
    """
    sort_keys = sort_keys or {}
    available = schema.membership.subjects.tolist()  # sorted ascending
    if not available:
        return ClusteringPlan(mapping={}, cs_order=[], sort_keys=dict(sort_keys))

    # value of the sort-key property per subject, when requested
    key_values = _subject_key_values(matrix, schema, sort_keys, dictionary)

    cs_order = [table.cs_id for table in schema.tables_by_support()]
    cs_rank = {cs_id: rank for rank, cs_id in enumerate(cs_order)}
    desired = sorted(zip((cs_rank[cs_id] for cs_id in schema.membership.cs_ids.tolist()),
                         (key_values.get(subject, _MISSING_KEY) for subject in available),
                         available))
    mapping = {old: new for (_rank, _key, old), new in zip(desired, available)}
    return ClusteringPlan(mapping=mapping, cs_order=cs_order, sort_keys=dict(sort_keys))


_MISSING_KEY: tuple = (9, "", "")
"""Sort key ranking after every real value (see ``term_sort_key`` ranks 0-3)."""


def _subject_key_values(
    matrix: np.ndarray,
    schema: EmergentSchema,
    sort_keys: Dict[int, int],
    dictionary: TermDictionary,
) -> Dict[int, tuple]:
    """For each member subject of a CS with a sort key, the key's value rank."""
    if not sort_keys:
        return {}
    wanted: Dict[int, int] = {}
    for cs_id, predicate in sort_keys.items():
        wanted.update(dict.fromkeys(schema.membership.members(cs_id).tolist(), predicate))
    values: Dict[int, tuple] = {}
    for s, p, o in matrix:
        s_int, p_int = int(s), int(p)
        if wanted.get(s_int) != p_int or s_int in values:
            continue
        values[s_int] = term_sort_key(dictionary.decode(int(o)))
    return values


def cluster_subjects(
    matrix: np.ndarray,
    dictionary: TermDictionary,
    schema: EmergentSchema,
    sort_keys: Optional[Dict[int, int]] = None,
) -> Tuple[np.ndarray, ClusteringPlan]:
    """Apply subject clustering: permute subject OIDs in both the dictionary
    and the triple matrix, and rewrite the schema's subject references.

    Returns the rewritten matrix and the applied plan.
    """
    plan = plan_subject_clustering(matrix, dictionary, schema, sort_keys)
    if not plan.mapping or plan.is_identity():
        return matrix.copy(), plan
    dictionary.remap(plan.mapping)
    new_matrix = apply_oid_mapping(matrix, plan.mapping)
    schema.membership = schema.membership.remapped(plan.mapping)
    return new_matrix, plan
