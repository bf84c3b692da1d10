"""MergeScan: the read-side of the write path.

Every physical access path — index scans over the exhaustive permutation
store, the per-property probes of nested-loop index joins, RDFscan's merged
property pairs and the clustered CS-block scans — must see the same logical
graph: ``base ∪ delta − tombstones``.  The base structures stay immutable;
this module supplies the small merge helpers the operators call when the
execution context carries a pending :class:`~repro.updates.DeltaStore`.

The delta object is duck-typed (the engine layer does not import the
updates package): it only needs ``scan_pattern``, ``index``,
``insert_count``, ``tombstone_mask`` and ``pair_tombstone_mask`` (the
clustered scans also read its ``filing``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .kernels import merge_join_indices


def merge_pattern_rows(delta, rows: np.ndarray,
                       s: Optional[int], p: Optional[int], o: Optional[int]) -> np.ndarray:
    """Merge one triple pattern's base rows with the pending delta.

    ``rows`` is the base scan's ``(n, 3)`` S/P/O result; tombstoned rows are
    dropped and matching delta inserts appended.  Range constraints need no
    special handling here — callers apply them to the merged rows exactly as
    they would to base rows.
    """
    if rows.size:
        mask = delta.tombstone_mask(rows, predicate=p)
        if mask.any():
            rows = rows[~mask]
    extra = delta.scan_pattern(s=s, p=p, o=o, fetch="spo")
    if extra.size == 0:
        return rows
    if rows.size == 0:
        return extra
    return np.vstack([rows, extra])


def merge_property_pairs(delta, subjects: np.ndarray, objects: np.ndarray,
                         predicate: int, constant_object: Optional[int] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Merge one star property's base ``(subject, object)`` pairs with the delta.

    Used by the parse-order RDFscan path: the caller re-sorts by subject and
    applies its object/subject ranges after the merge, so ordering and
    filtering stay uniform across base and delta pairs.
    """
    if subjects.size:
        mask = delta.pair_tombstone_mask(predicate, subjects, objects)
        if mask.any():
            keep = ~mask
            subjects, objects = subjects[keep], objects[keep]
    extra = delta.scan_pattern(p=predicate, o=constant_object, fetch="so")
    if extra.size == 0:
        return subjects, objects
    return (np.concatenate([subjects, extra[:, 0]]),
            np.concatenate([objects, extra[:, 1]]))


def merged_subject_matches(delta, predicate: Optional[int], keys: np.ndarray,
                           fetch: str = "o", key: str = "s") -> tuple[np.ndarray, np.ndarray]:
    """Delta matches of ``?s <predicate> ?o`` (``?s ?p ?o`` when ``predicate``
    is ``None``) for a vector of probe keys: subjects (``key="s"``) or, with
    the predicate bound, objects (``key="o"``).

    Returns the index into ``keys`` of each match and an ``(n,
    len(fetch))`` array of its ``fetch`` components — the delta half of a
    nested-loop index probe.  The pending inserts are probed through the
    projection the base probe reads (SPO, or the one sorting the key inside
    the predicate: PSO or POS), which sorts them once per delta version, so
    the matches are one binary search per key.
    """
    if predicate is None:
        rows = delta.scan_pattern(fetch="s" + fetch)
    elif delta.insert_count():
        rows = delta.index().within_predicate(key).scan_prefix(predicate, fetch=key + fetch)
    else:
        rows = np.empty((0, 1 + len(fetch)), dtype=np.int64)
    input_rows, positions = merge_join_indices(rows[:, 0], keys)
    return input_rows, rows[positions, 1:]
