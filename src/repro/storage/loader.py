"""Bulk loading and subject clustering.

The loading pipeline mirrors the paper's architecture:

1. parse / generate decoded triples;
2. dictionary-encode them in parse order (``encode_graph``);
3. reassign literal OIDs so OID order equals value order
   (``value_order_literals``) — this is what lets range predicates run on
   OIDs directly; clustering runs it again for the literals updates have
   appended since, which compaction leaves where they are;
4. discover the emergent schema (:mod:`repro.cs`);
5. *subject clustering*: permute the member subjects' OIDs among themselves
   so that each characteristic set's members take consecutive *member* OIDs,
   optionally sub-ordered on a chosen property's value
   (``cluster_subjects``).  The set of OID values is unchanged, so a table's
   OIDs ascend but are no dense interval (see ``plan_subject_clustering``;
   dense intervals are the ROADMAP item "Dense subject OIDs", item 5);
6. build physical stores: the exhaustive-permutation baseline (each
   projection sorted when first read) and/or the CS-clustered store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..cs import EmergentSchema, Membership
from ..cs.detect import run_starts
from ..model import Graph, TermDictionary, Triple
from ..model.terms import term_sort_key


def encode_graph(graph: Graph | Iterable[Triple],
                 dictionary: Optional[TermDictionary] = None) -> Tuple[TermDictionary, np.ndarray]:
    """Dictionary-encode decoded triples in parse order.

    Returns the dictionary and an ``(n, 3)`` encoded S/P/O matrix.  Exact
    duplicate triples are dropped (RDF graphs are sets): one stable sort
    brings equal rows together, and the first of each run — the earliest
    occurrence — is kept, in parse order.
    """
    if dictionary is None:
        dictionary = TermDictionary()
    matrix = dictionary.encode_triples(graph)
    order = np.lexsort((matrix[:, 2], matrix[:, 1], matrix[:, 0]))
    firsts = order[run_starts(*matrix[order].T)]
    if len(firsts) < len(order):
        matrix = matrix[np.sort(firsts)]
    return dictionary, matrix


def apply_oid_mapping(matrix: np.ndarray, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Rewrite every OID in the matrix: ``old[i]`` becomes ``new[i]`` (aligned
    arrays, see :meth:`TermDictionary.remap`); an OID not in ``old`` stays."""
    if not old.size or not matrix.size:
        return matrix.copy()
    lookup = np.arange(max(int(matrix.max()), int(old.max())) + 1, dtype=np.int64)
    lookup[old] = new
    return lookup[matrix]


def value_order_literals(matrix: np.ndarray,
                         dictionary: TermDictionary) -> Tuple[TermDictionary, np.ndarray]:
    """Permute literal OIDs into value order; returns the new dictionary and
    the rewritten matrix (``matrix`` itself when no literal moved; both
    arguments when every term is value-ordered already).  Neither argument
    is edited."""
    if dictionary.value_order_watermark == len(dictionary):
        return dictionary, matrix
    ordered, old, new = dictionary.reassign_value_ordered_literals()
    if np.array_equal(old, new):
        return ordered, matrix
    return ordered, apply_oid_mapping(matrix, old, new)


# -- subject clustering -----------------------------------------------------------


@dataclass
class ClusteringPlan:
    """The subject-OID permutation chosen by :func:`plan_subject_clustering`:
    the subject with OID ``old[i]`` receives OID ``new[i]`` (aligned arrays;
    ``new`` is the member subjects ascending, ``old`` the same OIDs in
    clustered order)."""

    old: np.ndarray
    new: np.ndarray
    cs_order: List[int]
    sort_keys: Dict[int, int] = field(default_factory=dict)

    def is_identity(self) -> bool:
        return bool((self.old == self.new).all())


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
    OID) — one ``lexsort`` over the membership arrays.  Because the
    reassigned values are the sorted original values, all other terms keep
    their OIDs and the mapping is a bijection.

    ``sort_keys`` optionally maps a CS id to the predicate OID whose value
    should sub-order the members (e.g. LINEITEM on ``shipdate``).  A member
    with several values of the key is ordered by the one that comes first in
    ``matrix``; members lacking the key keep their relative position at the
    end of the block.
    """
    sort_keys = sort_keys or {}
    membership = schema.membership
    members = membership.subjects  # ascending
    cs_order = [table.cs_id for table in schema.tables_by_support()]
    table_rank = _per_member(membership, {cs_id: rank for rank, cs_id in enumerate(cs_order)})
    key_rank = _member_key_ranks(matrix, dictionary, membership, sort_keys)
    order = np.lexsort((members, key_rank, table_rank))
    return ClusteringPlan(old=members[order], new=members, cs_order=cs_order,
                          sort_keys=dict(sort_keys))


def _per_member(membership: Membership, of_table: Dict[int, int]) -> np.ndarray:
    """Per member subject, its table's entry in ``of_table`` (``-1`` without one)."""
    size = max(int(membership.cs_ids.max(initial=-1)), max(of_table, default=-1)) + 1
    lookup = np.full(size, -1, dtype=np.int64)
    lookup[list(of_table)] = list(of_table.values())
    return lookup[membership.cs_ids]


def _member_key_ranks(matrix: np.ndarray, dictionary: TermDictionary,
                      membership: Membership, sort_keys: Dict[int, int]) -> np.ndarray:
    """Per member subject, the rank of its sort-key value among the distinct
    key values (by :func:`term_sort_key`, equal values sharing a rank); a
    member whose table has no key, or that lacks the property, ranks last."""
    members = membership.subjects
    key_object = np.full(members.size, -1, dtype=np.int64)
    if sort_keys and members.size:
        key_predicate = _per_member(membership, sort_keys)
        position = np.minimum(np.searchsorted(members, matrix[:, 0]), members.size - 1)
        rows = np.flatnonzero((members[position] == matrix[:, 0])
                              & (key_predicate[position] == matrix[:, 1]))
        holders, first = np.unique(position[rows], return_index=True)
        key_object[holders] = matrix[rows[first], 2]  # the first in matrix order
    distinct, code = np.unique(key_object, return_inverse=True)
    keys = [term_sort_key(dictionary.decode(oid)) if oid >= 0 else _MISSING_KEY
            for oid in distinct.tolist()]
    rank = {key: position for position, key in enumerate(sorted(set(keys)))}
    return np.asarray([rank[key] for key in keys], dtype=np.int64)[code]


_MISSING_KEY: tuple = (9, "", "")
"""Sort key ranking after every real value (see ``term_sort_key`` ranks 0-3)."""


def cluster_subjects(
    matrix: np.ndarray,
    dictionary: TermDictionary,
    schema: EmergentSchema,
    sort_keys: Optional[Dict[int, int]] = None,
) -> Tuple[TermDictionary, np.ndarray, EmergentSchema, ClusteringPlan]:
    """Apply subject clustering: permute subject OIDs in the dictionary, the
    triple matrix and the schema's membership.

    Returns the new dictionary, the rewritten matrix, the new schema and the
    applied plan; no argument is edited.  The schema is a shallow copy with
    the remapped membership — its tables name no subject.
    """
    plan = plan_subject_clustering(matrix, dictionary, schema, sort_keys)
    if plan.is_identity():
        return dictionary, matrix.copy(), schema, plan
    return (dictionary.remap(plan.old, plan.new),
            apply_oid_mapping(matrix, plan.old, plan.new),
            replace(schema, membership=schema.membership.remapped(plan.old, plan.new)),
            plan)
