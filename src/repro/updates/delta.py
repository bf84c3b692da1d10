"""The delta store: pending inserts, tombstones and the undo log.

Writes never touch the immutable base structures (clustered CS blocks, the
irregular triple table, the permutation indexes).  Instead they
accumulate here:

* **inserts** — dictionary-encoded triples not present in the base store,
  kept in first-write order and exposed through a small exhaustive
  permutation index so every engine access path can merge them in;
* **tombstones** — base triples marked deleted; scans filter them out.

Which characteristic set a new subject joins is decided by one rule,
:func:`repro.cs.match_characteristic_set`: at compaction, from the merged
triples, and while the write is pending, for a brand-new subject with one
value per predicate, by :meth:`FrozenDelta.pending_tails`, which files it
in its table's tail block.  The delta itself stores nothing of the schema.

Deleting a triple that only exists in the delta simply removes the insert;
re-inserting a tombstoned base triple removes the tombstone (resurrection).

The delta has a write half and a read half:

* :class:`DeltaStore` is what the single writer mutates: the insert and
  tombstone sets with O(1) membership and **per-request undo
  logs** — ``RDFStore.update`` brackets each request with
  :meth:`DeltaStore.begin_request` / :meth:`DeltaStore.commit_request`, every
  mutation records its *inverse* in the active :class:`UndoLog`, and a failed
  request is rolled back by replaying only the keys it touched — O(touched),
  not O(pending) — which keeps a burst of N uncompacted updates linear
  instead of quadratic;
* :class:`FrozenDelta` is what every query reads: :meth:`DeltaStore.freeze`
  hands out *the* immutable read half of the current version — the two sets
  as arrays plus what scans derive from them (the permutation index,
  per-predicate tombstones, touched subjects, the tail blocks of the
  newcomers), each built once for the version.  The writer builds the next
  one when it publishes the version, by folding the mutations since into
  the previous one's arrays.  Deltas are small by design, and
  :func:`repro.updates.compaction.compact_store` folds them into the base
  before they grow large.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cs.detect import run_starts
from ..errors import StorageError
from ..storage import ExhaustiveIndexStore, PendingTails

TripleKey = Tuple[int, int, int]

_INT64_MAX = (1 << 63) - 1
"""Packed-key membership tests use per-component bases (``max+1`` of each
column over both operands); packing applies whenever the bases' product fits
in an int64, which holds for any realistic dictionary since the predicate
component is tiny."""


class UndoLog:
    """The inverse operations of one in-flight update request.

    Each entry is ``(op, key)`` where ``op`` names what the request *did* to
    ``key``; :meth:`DeltaStore.abort_request` replays the entries backwards
    to restore the pre-request state.  The log grows with the keys the
    request actually touched, never with the number of pending writes — this
    is what makes request atomicity O(touched) instead of O(pending)."""

    __slots__ = ("ops",)

    #: The request added ``key`` to the pending inserts.
    INSERTED = "inserted"
    #: The request removed ``key`` from the pending inserts (delta-only delete).
    INSERT_REMOVED = "insert_removed"
    #: The request tombstoned the base triple ``key``.
    TOMBSTONED = "tombstoned"
    #: The request resurrected ``key`` (dropped its tombstone).
    TOMBSTONE_REMOVED = "tombstone_removed"

    def __init__(self) -> None:
        self.ops: List[Tuple[str, TripleKey]] = []

    def record(self, op: str, key: TripleKey) -> None:
        self.ops.append((op, key))

    def __len__(self) -> int:
        return len(self.ops)


class DeltaStore:
    """Pending writes over an immutable base store, in OID space: the insert
    set, the tombstone set and the undo log of the request in flight."""

    def __init__(self, pool=None, name: str = "delta") -> None:
        self.pool = pool
        self.name = name
        self._inserts: Dict[TripleKey, None] = {}  # ordered set
        self._tombstones: Set[TripleKey] = set()
        self._frozen: Optional[FrozenDelta] = None
        self._changes: List[Tuple[str, TripleKey]] = []
        """The mutations since ``_frozen`` was built, as ``(op, key)`` with
        the :class:`UndoLog` op names: what :meth:`freeze` folds into it."""
        self.version = 0
        self._undo: Optional[UndoLog] = None

    # -- mutation -----------------------------------------------------------------

    def insert(self, s: int, p: int, o: int, in_base: bool) -> bool:
        """Record one inserted triple; returns ``True`` when state changed.

        ``in_base`` tells whether the triple exists in the base store.  A
        tombstoned base triple is resurrected (tombstone dropped); a triple
        already present (base or delta) is a no-op — RDF graphs are sets.
        """
        key = (int(s), int(p), int(o))
        if key in self._tombstones:
            self._tombstones.discard(key)
            self._changed(UndoLog.TOMBSTONE_REMOVED, key)
            return True
        if in_base or key in self._inserts:
            return False
        self._inserts[key] = None
        self._changed(UndoLog.INSERTED, key)
        return True

    def delete(self, s: int, p: int, o: int, in_base: bool) -> bool:
        """Record one deleted triple; returns ``True`` when state changed.

        A delta-only triple is removed from the delta; a base triple gains a
        tombstone; anything else is a no-op.
        """
        key = (int(s), int(p), int(o))
        if key in self._inserts:
            del self._inserts[key]
            self._changed(UndoLog.INSERT_REMOVED, key)
            return True
        if key in self._tombstones or not in_base:
            return False
        self._tombstones.add(key)
        self._changed(UndoLog.TOMBSTONED, key)
        return True

    # -- request atomicity (per-request undo log) -----------------------------------

    def begin_request(self) -> UndoLog:
        """Open an undo log for one update request.

        Every mutation until :meth:`commit_request` / :meth:`abort_request`
        records its inverse in the returned log.  Requests cannot nest — the
        store's writer mutex guarantees one request at a time, and a
        second ``begin_request`` is a programming error, not a race.
        """
        if self._undo is not None:
            raise StorageError("an update request is already in flight")
        self._undo = UndoLog()
        return self._undo

    def commit_request(self, undo: UndoLog) -> None:
        """Close a request's undo log, keeping its effects."""
        if undo is not self._undo:
            raise StorageError("commit_request called with a stale undo log")
        self._undo = None

    def abort_request(self, undo: UndoLog) -> None:
        """Roll back one request by replaying its undo log backwards.

        Only the keys the request touched are visited.  A re-added insert
        lands at the end of the insert order; that order only affects the
        matrix layout at the next compaction, never query results (RDF
        graphs are sets).
        """
        if undo is not self._undo:
            raise StorageError("abort_request called with a stale undo log")
        self._undo = None
        for op, key in reversed(undo.ops):
            if op == UndoLog.INSERTED:
                self._inserts.pop(key, None)
            elif op == UndoLog.INSERT_REMOVED:
                self._inserts[key] = None
            elif op == UndoLog.TOMBSTONED:
                self._tombstones.discard(key)
            elif op == UndoLog.TOMBSTONE_REMOVED:
                self._tombstones.add(key)
            else:  # pragma: no cover - the four ops above are exhaustive
                raise StorageError(f"unknown undo operation {op!r}")
            self._changes.append((_INVERSE[op], key))
        if undo.ops:
            self.version += 1

    def _changed(self, op: str, key: TripleKey) -> None:
        """Account one mutation: in the request's undo log, in the changes
        the next :meth:`freeze` folds, and as a new version."""
        if self._undo is not None:
            self._undo.record(op, key)
        self._changes.append((op, key))
        self.version += 1

    def clear(self) -> None:
        """Drop all pending writes (after compaction or a full reload)."""
        self._inserts.clear()
        self._tombstones.clear()
        self._frozen = None
        self._changes = []
        self.version += 1

    def freeze(self) -> "FrozenDelta":
        """The read half of the current version.

        Built on the first call after a mutation — the store's publish, or
        a request's own read of its pending state — from the previous
        frozen version's arrays and the mutations since: O(keys touched)
        Python and one masked array copy, so a burst of updates that each
        publish stays linear.  Every later caller of the version gets it as
        is, so all readers of one version share one index.  Only the writer
        calls this, under the store's writer mutex.
        """
        name = f"{self.name}.v{self.version}"
        frozen = self._frozen
        if frozen is None or frozen.name != name:
            previous = ((_NO_TRIPLES, _NO_TRIPLES) if frozen is None
                        else (frozen.matrix(), frozen.tombstone_matrix()))
            inserts, tombstones = _fold_changes(*previous, self._changes)
            frozen = self._frozen = FrozenDelta(inserts, tombstones, self.pool, name)
            self._changes = []
        return frozen

    # -- inspection ---------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._inserts and not self._tombstones

    def insert_count(self) -> int:
        return len(self._inserts)

    def tombstone_count(self) -> int:
        return len(self._tombstones)

    def contains_insert(self, s: int, p: int, o: int) -> bool:
        return (int(s), int(p), int(o)) in self._inserts

    def is_tombstoned(self, s: int, p: int, o: int) -> bool:
        return (int(s), int(p), int(o)) in self._tombstones

    def matrix(self) -> np.ndarray:
        """The pending inserts as an ``(n, 3)`` S/P/O matrix (insert order)."""
        return _as_triples(list(self._inserts))

    def tombstone_matrix(self) -> np.ndarray:
        """The tombstones as an ``(n, 3)`` S/P/O matrix (unordered)."""
        return _as_triples(list(self._tombstones))

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "pending_inserts": self.insert_count(),
            "pending_deletes": self.tombstone_count(),
        }


class FrozenDelta:
    """The read half of one delta version: what queries merge with the base.

    Holds the pending inserts and tombstones as two ``(n, 3)`` arrays and
    offers nothing that mutates.  What scans need beyond the arrays — the
    permutation index over the inserts (each order sorted when a scan
    first reads it), the tombstones grouped by predicate, the touched
    subjects per predicate, the newcomers' tail blocks — is derived on first
    use and kept, so every context, snapshot and estimator of the version
    shares it.  Racing first readers derive equal values and the last one
    stored is kept.  ``name`` (``<delta>.v<N>``) prefixes the buffer-pool
    segments of the index and the tails, keeping two versions' pages apart.
    """

    def __init__(self, inserts: np.ndarray, tombstones: np.ndarray,
                 pool=None, name: str = "delta") -> None:
        for array in (inserts, tombstones):
            array.setflags(write=False)
        self._inserts = inserts
        self._tombstones = tombstones
        self.pool = pool
        self.name = name
        self._index: Optional[ExhaustiveIndexStore] = None
        self._tombstones_by_p: Optional[Dict[int, np.ndarray]] = None
        self._groups: Optional[Tuple[Dict[int, np.ndarray], np.ndarray]] = None
        self._tails: Optional[Tuple[object, PendingTails]] = None
        self._subjects: Optional[np.ndarray] = None
        self._derived: Dict[object, np.ndarray] = {}

    # -- inspection ---------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._inserts.size and not self._tombstones.size

    def insert_count(self) -> int:
        return int(self._inserts.shape[0])

    def tombstone_count(self) -> int:
        return int(self._tombstones.shape[0])

    def matrix(self) -> np.ndarray:
        """The pending inserts as an ``(n, 3)`` S/P/O matrix (insert order)."""
        return self._inserts

    def tombstone_matrix(self) -> np.ndarray:
        """The tombstones as an ``(n, 3)`` S/P/O matrix (unordered)."""
        return self._tombstones

    def derived(self, key, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """What a reader derives from this version and ``key`` alone (say, a
        plan's range widened by the version's writes): ``compute()`` on the
        first read, kept for every later one."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = compute()
        return value

    def subjects(self) -> np.ndarray:
        """Every subject with a pending insert or tombstone, sorted."""
        if self._subjects is None:
            self._subjects = np.union1d(self._inserts[:, 0], self._tombstones[:, 0])
        return self._subjects

    def subjects_touching(self, predicates: Iterable[int]) -> np.ndarray:
        """Sorted subjects with an insert *or* tombstone on any given predicate.

        These are the subjects whose star-pattern answers can no longer be
        read from the base CS block alone; the clustered scan answers them
        from a tail block (:meth:`pending_tails`) or its residual scan.
        """
        touched_by_p = self._subject_groups()[0]
        parts = [touched_by_p[p] for p in predicates if p in touched_by_p]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))

    def pending_tails(self, store) -> PendingTails:
        """The tail blocks of this version's newcomers over the clustered
        ``store`` (:meth:`repro.storage.ClusteredStore.pending_tails` of the
        subjects with one value per predicate), derived on the first read
        and kept, their columns' segments named under this version."""
        tails = self._tails
        if tails is None or tails[0] is not store:
            tails = self._tails = (store, store.pending_tails(self._subject_groups()[1],
                                                              f"{self.name}.tail"))
        return tails[1]

    def _subject_groups(self) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
        """One pass over the pending rows grouped by subject: the sorted
        distinct subjects per predicate (:meth:`subjects_touching`), and the
        inserts, sorted by subject and predicate, of the subjects with one
        pending row per predicate (the tail candidates)."""
        if self._groups is None:
            inserts = self._inserts
            rows = np.concatenate([inserts, self._tombstones])
            order = np.lexsort((rows[:, 1], rows[:, 0]))
            rows = rows[order]
            pairs = run_starts(rows[:, 0], rows[:, 1])  # first row of each (s, p)
            # pairs are distinct and subject-major: a stable split by
            # predicate leaves each predicate's subjects ascending and unique
            touched_by_p = _split_by(rows[pairs, 1], rows[pairs, 0])
            candidates = rows[:0]
            if rows.size:
                # a tombstone's subject has a base triple, so it is no tail
                # candidate: the store drops it with the other base subjects
                starts = run_starts(rows[:, 0])
                sizes = np.diff(np.append(starts, rows.shape[0]))
                first_of_pair = np.zeros(rows.shape[0], dtype=bool)
                first_of_pair[pairs] = True
                one_value = np.repeat(np.add.reduceat(first_of_pair, starts) == sizes, sizes)
                candidates = rows[one_value & (order < inserts.shape[0])]
            self._groups = (touched_by_p, candidates)
        return self._groups

    # -- merge-scan access paths ----------------------------------------------------

    def index(self) -> ExhaustiveIndexStore:
        """A small exhaustive permutation index over the pending inserts."""
        if self._index is None:
            self._index = ExhaustiveIndexStore(self._inserts, pool=self.pool,
                                               name=self.name)
        return self._index

    def scan_pattern(self, s: Optional[int] = None, p: Optional[int] = None,
                     o: Optional[int] = None, fetch: str = "spo") -> np.ndarray:
        """Pattern scan over the pending inserts (same shape as the base API)."""
        if not self._inserts.size:
            return np.empty((0, len(fetch)), dtype=np.int64)
        return self.index().scan_pattern(s=s, p=p, o=o, fetch=fetch)

    def tombstone_mask(self, rows: np.ndarray,
                       predicate: Optional[int] = None) -> np.ndarray:
        """Boolean mask of tombstoned rows in an ``(n, 3)`` S/P/O array.

        ``predicate`` narrows the tombstones consulted when every row is
        known to carry that predicate.
        """
        if predicate is not None:
            return self.pair_tombstone_mask(predicate, rows[:, 0], rows[:, 2])
        return _isin_rows(rows.T, self._tombstones.T)

    def pair_tombstone_mask(self, predicate: int, subjects: np.ndarray,
                            objects: np.ndarray) -> np.ndarray:
        """Tombstone mask over aligned (subject, object) pairs of one predicate."""
        if self._tombstones_by_p is None:
            self._tombstones_by_p = _split_by(self._tombstones[:, 1],
                                              self._tombstones[:, ::2])
        tombs = self._tombstones_by_p.get(int(predicate))
        if tombs is None:
            return np.zeros(subjects.shape[0], dtype=bool)
        return _isin_rows((subjects, objects), tombs.T)

    def is_tombstoned(self, s: int, p: int, o: int) -> bool:
        return bool(self.pair_tombstone_mask(
            p, np.asarray([s], dtype=np.int64), np.asarray([o], dtype=np.int64))[0])

    # -- buffer-pool integration ------------------------------------------------------

    def warm(self) -> None:
        """Pre-load the delta index pages (part of the store's hot state)."""
        if self._inserts.size:
            self.index().warm()

    def drop_pages(self) -> None:
        """Evict this version's index and tail pages, so a superseded
        version stops counting toward pool capacity and cold/hot
        accounting.  *When* is
        the snapshot registry's one rule (``docs/concurrency.md``)."""
        if (self._index is not None or self._tails is not None) and self.pool is not None:
            # the trailing separator keeps ``v1`` from also matching ``v10``
            self.pool.drop_segments(f"{self.name}.")


def _as_triples(keys: List[TripleKey]) -> np.ndarray:
    return np.asarray(keys, dtype=np.int64).reshape(-1, 3)


_NO_TRIPLES = _as_triples([])
_NO_TRIPLES.setflags(write=False)

_INVERSE = {UndoLog.INSERTED: UndoLog.INSERT_REMOVED,
            UndoLog.INSERT_REMOVED: UndoLog.INSERTED,
            UndoLog.TOMBSTONED: UndoLog.TOMBSTONE_REMOVED,
            UndoLog.TOMBSTONE_REMOVED: UndoLog.TOMBSTONED}

_SIDE = {UndoLog.INSERTED: (0, True), UndoLog.INSERT_REMOVED: (0, False),
         UndoLog.TOMBSTONED: (1, True), UndoLog.TOMBSTONE_REMOVED: (1, False)}
"""Which array an op changes (inserts 0, tombstones 1) and whether it adds."""


def _fold_changes(inserts: np.ndarray, tombstones: np.ndarray,
                  changes: List[Tuple[str, TripleKey]]) -> Tuple[np.ndarray, np.ndarray]:
    """The next version's arrays: ``inserts`` and ``tombstones`` with
    ``changes`` applied in order.

    A key removed at any point leaves its old row; a key whose last change
    adds it is appended, in the order of those last adds — so the inserts
    come out in the order the writer's insert set iterates (a re-added
    insert lands at its end)."""
    added: Tuple[Dict[TripleKey, None], ...] = ({}, {})
    removed: Tuple[Set[TripleKey], ...] = (set(), set())
    for op, key in changes:
        side, adds = _SIDE[op]
        added[side].pop(key, None)
        if adds:
            added[side][key] = None
        else:
            removed[side].add(key)
    folded = []
    for rows, side_added, side_removed in zip((inserts, tombstones), added, removed):
        if side_removed:
            rows = rows[~_isin_rows(rows.T, _as_triples(list(side_removed)).T)]
        if side_added:
            rows = np.concatenate([rows, _as_triples(list(side_added))])
        folded.append(rows)
    return folded[0], folded[1]


def _split_by(keys: np.ndarray, values: np.ndarray) -> Dict[int, np.ndarray]:
    """``values`` (rows aligned with ``keys``) grouped by key, each group in
    row order."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = run_starts(keys)
    bounds = np.append(starts, keys.size).tolist()
    return {key: values[start:stop] for key, start, stop
            in zip(keys[starts].tolist(), bounds, bounds[1:])}


def _isin_rows(rows: Sequence[np.ndarray], members: Sequence[np.ndarray]) -> np.ndarray:
    """Which rows occur among ``members``; both are parallel component columns.

    Membership is one ``np.isin`` over packed int64 keys — a single ``DELETE
    WHERE`` can create thousands of tombstones, so the check must stay
    ``O((n + T) log T)``, not ``O(n · T)``.
    """
    mask = np.zeros(rows[0].shape[0], dtype=bool)
    if not mask.size or not members[0].size:
        return mask
    bases = [max(int(row.max()), int(member.max())) + 1
             for row, member in zip(rows, members)]
    if 0 < math.prod(bases) <= _INT64_MAX:
        row_keys, member_keys = rows[0], members[0]
        for base, row, member in zip(bases[1:], rows[1:], members[1:]):
            row_keys = row_keys * base + row
            member_keys = member_keys * base + member
        return np.isin(row_keys, member_keys)
    for member in zip(*members):  # astronomically large OIDs: safe fallback
        mask |= np.logical_and.reduce([row == value for row, value in zip(rows, member)])
    return mask
