"""The delta store: pending inserts, tombstones and CS routing.

Writes never touch the immutable base structures (clustered CS blocks, the
irregular triple table, the six permutation indexes).  Instead they
accumulate here:

* **inserts** — dictionary-encoded triples not present in the base store,
  kept in first-write order and exposed through a small exhaustive
  permutation index so every engine access path can merge them in;
* **tombstones** — base triples marked deleted; scans filter them out;
* **routing** — each inserted subject is assigned to the characteristic set
  whose property set matches its own (exact match first, then the smallest
  superset), or to the leftover bucket when nothing matches.  Routing is
  metadata: query correctness never depends on it, but compaction uses it to
  admit new subjects into CS blocks and the store surfaces it in summaries.

Deleting a triple that only exists in the delta simply removes the insert;
re-inserting a tombstoned base triple removes the tombstone (resurrection).
The delta index is rebuilt lazily after mutations — deltas are small by
design, and :func:`repro.updates.compaction.compact_store` folds them into
the base before they grow large.

Two concurrency-facing mechanisms live here as well:

* **per-request undo logs** — ``RDFStore.update`` brackets each request with
  :meth:`DeltaStore.begin_request` / :meth:`DeltaStore.commit_request`.
  Every mutation records its *inverse* in the active :class:`UndoLog`, so a
  failed request is rolled back by replaying only the keys it touched —
  O(touched), not O(pending) — which keeps a burst of N uncompacted updates
  linear instead of quadratic;
* **frozen views** — :meth:`DeltaStore.freeze` captures the current delta
  state as an immutable :class:`FrozenDelta` that MVCC read snapshots query
  while the live delta keeps mutating.  Frozen views share the (immutable)
  per-version permutation index; versions still referenced by a pinned
  snapshot keep their buffer-pool pages until the pin is released
  (:meth:`DeltaStore.pin_version` / :meth:`DeltaStore.unpin_version`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import StorageError
from ..storage import ExhaustiveIndexStore

TripleKey = Tuple[int, int, int]

#: Routing key for inserts whose subject matches no characteristic set.
LEFTOVER = None

_INT64_MAX = (1 << 63) - 1
"""Packed-key membership tests use per-component bases (``max+1`` of each
column over both operands); packing applies whenever the bases' product fits
in an int64, which holds for any realistic dictionary since the predicate
component is tiny."""


def match_characteristic_set(schema, props: Set[int]) -> Optional[int]:
    """The single CS-routing rule shared by insert routing and compaction.

    Exact property-set match wins; otherwise the tightest superset CS
    (fewest extra properties, ties broken by support then id); ``None``
    (the leftover bucket) when nothing fits.
    """
    if schema is None or not props:
        return LEFTOVER
    exact: Optional[int] = None
    best: Optional[Tuple[int, int, int]] = None
    for cs in schema.tables.values():
        cs_props = cs.property_oids()
        if cs_props == props:
            exact = cs.cs_id if exact is None else min(exact, cs.cs_id)
        elif props <= cs_props:
            candidate = (len(cs_props - props), -cs.total_support(), cs.cs_id)
            if best is None or candidate < best:
                best = candidate
    if exact is not None:
        return exact
    if best is not None:
        return best[2]
    return LEFTOVER


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
    """Pending writes over an immutable base store, in OID space."""

    def __init__(self, schema=None, pool=None, name: str = "delta") -> None:
        self.schema = schema
        self.pool = pool
        self.name = name
        self._inserts: Dict[TripleKey, None] = {}  # ordered set
        self._tombstones: Set[TripleKey] = set()
        self._subject_props: Dict[int, Set[int]] = {}
        self._subject_inserts: Dict[int, Set[TripleKey]] = {}
        self._routes: Dict[int, Optional[int]] = {}
        self._index: Optional[ExhaustiveIndexStore] = None
        self._tombstones_by_p: Optional[Dict[int, List[TripleKey]]] = None
        self._touched_by_p: Optional[Dict[int, np.ndarray]] = None
        """Per predicate, the sorted distinct subjects with a pending insert
        or tombstone on it.  Derived once per delta version, like the index:
        built on first use, dropped by :meth:`_dirty`, shared with frozen
        views."""
        self.version = 0
        self._undo: Optional[UndoLog] = None
        self._pin_lock = threading.Lock()
        """Guards the pin/deferred-drop bookkeeping: snapshots release their
        pins from reader threads while the writer may be superseding the
        version they pinned."""
        self._pins: Dict[int, int] = {}
        """Pin counts per delta version held by open read snapshots."""
        self._deferred_drops: Set[int] = set()
        """Superseded versions whose index pages are still pinned."""

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
            self._record_undo(UndoLog.TOMBSTONE_REMOVED, key)
            self._dirty()
            return True
        if in_base or key in self._inserts:
            return False
        self._inserts[key] = None
        self._note_subject_insert(key)
        self._record_undo(UndoLog.INSERTED, key)
        self._dirty()
        return True

    def delete(self, s: int, p: int, o: int, in_base: bool) -> bool:
        """Record one deleted triple; returns ``True`` when state changed.

        A delta-only triple is removed from the delta; a base triple gains a
        tombstone; anything else is a no-op.
        """
        key = (int(s), int(p), int(o))
        if key in self._inserts:
            del self._inserts[key]
            self._drop_subject_insert(key)
            self._record_undo(UndoLog.INSERT_REMOVED, key)
            self._dirty()
            return True
        if key in self._tombstones or not in_base:
            return False
        self._tombstones.add(key)
        self._record_undo(UndoLog.TOMBSTONED, key)
        self._dirty()
        return True

    # -- request atomicity (per-request undo log) -----------------------------------

    def begin_request(self) -> UndoLog:
        """Open an undo log for one update request.

        Every mutation until :meth:`commit_request` / :meth:`abort_request`
        records its inverse in the returned log.  Requests cannot nest — the
        store's single-writer lock guarantees one request at a time, and a
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
                self._drop_subject_insert(key)
            elif op == UndoLog.INSERT_REMOVED:
                self._inserts[key] = None
                self._note_subject_insert(key)
            elif op == UndoLog.TOMBSTONED:
                self._tombstones.discard(key)
            elif op == UndoLog.TOMBSTONE_REMOVED:
                self._tombstones.add(key)
            else:  # pragma: no cover - the four ops above are exhaustive
                raise StorageError(f"unknown undo operation {op!r}")
        if undo.ops:
            self._dirty()

    def _record_undo(self, op: str, key: TripleKey) -> None:
        if self._undo is not None:
            self._undo.record(op, key)

    def attach_schema(self, schema) -> None:
        """Attach (or replace) the schema used for CS routing."""
        self.schema = schema
        self._routes.clear()

    def clear(self) -> None:
        """Drop all pending writes (after compaction or a full reload)."""
        self._inserts.clear()
        self._tombstones.clear()
        self._subject_props.clear()
        self._subject_inserts.clear()
        self._routes.clear()
        self._dirty()

    def _dirty(self) -> None:
        if self.pool is not None:
            # the index is rebuilt under a new versioned segment name; evict
            # the superseded generation's pages so they stop counting toward
            # pool capacity and cold/hot accounting.  A version pinned by an
            # open read snapshot is *not* evicted — its frozen view still
            # scans those segments — only queued for reclaim at unpin time.
            # The deferred set can also hold the *current* version: a frozen
            # view may have built (and released) index pages the live store
            # never did (see unpin_version).
            with self._pin_lock:
                stale_pages = (self._index is not None
                               or self.version in self._deferred_drops)
                if stale_pages:
                    if self._pins.get(self.version):
                        self._deferred_drops.add(self.version)
                    else:
                        self._deferred_drops.discard(self.version)
                        self.pool.drop_segments(self._segment_prefix(self.version))
        self._index = None
        self._tombstones_by_p = None
        self._touched_by_p = None
        self.version += 1

    def _segment_prefix(self, version: int) -> str:
        """Buffer-pool segment prefix of one version's permutation index.

        The trailing separator keeps ``v1`` from also matching ``v10``."""
        return f"{self.name}.v{version}."

    # -- snapshot pinning ------------------------------------------------------------

    def pin_version(self) -> int:
        """Pin the current version (an open read snapshot references it).

        While a version is pinned, superseding it does not evict its index
        pages from the buffer pool — a frozen view may still be scanning
        them.  Returns the pinned version for :meth:`unpin_version`.
        """
        with self._pin_lock:
            self._pins[self.version] = self._pins.get(self.version, 0) + 1
            return self.version

    def unpin_version(self, version: int) -> None:
        """Release one pin; reclaim the version's pages once unreferenced."""
        with self._pin_lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
                return
            self._pins.pop(version, None)
            if version == self.version:
                # the version is still current: its pages must never be
                # dropped here — the live index (if built) is in active use.
                # When only a frozen view built pages (live _index is None),
                # queue them so the next supersession's _dirty() reclaims
                # them instead of leaking them in the pool.
                if self._index is None:
                    self._deferred_drops.add(version)
                return
            self._deferred_drops.discard(version)
        if self.pool is not None:
            # superseded and unreferenced — whether the drop was deferred at
            # supersession time or the pages were built by a frozen view the
            # live store never queued a drop for, sweep them now
            self.pool.drop_segments(self._segment_prefix(version))

    def pinned_versions(self) -> Set[int]:
        """Versions currently referenced by open read snapshots."""
        with self._pin_lock:
            return set(self._pins)

    def deferred_reclaim_depth(self) -> int:
        """Versions whose page reclamation is queued behind open pins.

        A persistently nonzero depth under a read-heavy workload means
        snapshot pins are outliving writes and superseded delta index pages
        are accumulating in the buffer pool.
        """
        with self._pin_lock:
            return len(self._deferred_drops)

    # -- frozen views (MVCC read epochs) -----------------------------------------------

    def freeze(self) -> "FrozenDelta":
        """An immutable view of the current delta state.

        The view copies the insert/tombstone bookkeeping (O(pending), done
        once per read epoch, typically cached by the snapshot registry) and
        *shares* the already-built permutation index — index objects are
        immutable per version; mutations always build a new one.
        """
        return FrozenDelta(self)

    def _note_subject_insert(self, key: TripleKey) -> None:
        subject, predicate = key[0], key[1]
        self._subject_props.setdefault(subject, set()).add(predicate)
        self._subject_inserts.setdefault(subject, set()).add(key)
        self._routes.pop(subject, None)

    def _drop_subject_insert(self, key: TripleKey) -> None:
        """Forget one insert, recomputing only that subject's property set."""
        subject = key[0]
        remaining = self._subject_inserts.get(subject, set())
        remaining.discard(key)
        if remaining:
            self._subject_props[subject] = {p for (_s, p, _o) in remaining}
        else:
            self._subject_inserts.pop(subject, None)
            self._subject_props.pop(subject, None)
        self._routes.pop(subject, None)

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
        if not self._inserts:
            return np.empty((0, 3), dtype=np.int64)
        return np.asarray(list(self._inserts), dtype=np.int64)

    def tombstone_matrix(self) -> np.ndarray:
        """The tombstones as an ``(n, 3)`` S/P/O matrix (unordered)."""
        if not self._tombstones:
            return np.empty((0, 3), dtype=np.int64)
        return np.asarray(sorted(self._tombstones), dtype=np.int64)

    def delta_subjects(self) -> np.ndarray:
        """Distinct subject OIDs with at least one pending insert."""
        if not self._subject_props:
            return np.empty(0, dtype=np.int64)
        return np.asarray(sorted(self._subject_props), dtype=np.int64)

    def subjects_touching(self, predicates: Iterable[int]) -> np.ndarray:
        """Sorted subjects with an insert *or* tombstone on any given predicate.

        These are the subjects whose star-pattern answers can no longer be
        read from the base CS block alone; the clustered scan routes them
        through its residual scan.
        """
        touched = self._touched_subjects()
        parts = [touched[p] for p in predicates if p in touched]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))

    def _touched_subjects(self) -> Dict[int, np.ndarray]:
        if self._touched_by_p is None:
            grouped: Dict[int, Set[int]] = {}
            for keys in (self._inserts, self._tombstones):
                for s, p, _o in keys:
                    grouped.setdefault(p, set()).add(s)
            self._touched_by_p = {p: np.asarray(sorted(subjects), dtype=np.int64)
                                  for p, subjects in grouped.items()}
        return self._touched_by_p

    # -- merge-scan access paths ----------------------------------------------------

    def index(self) -> ExhaustiveIndexStore:
        """A small exhaustive permutation index over the pending inserts.

        Rebuilt lazily after mutations; the segment names carry the delta
        version so buffer-pool accounting never confuses two generations of
        delta pages.
        """
        if self._index is None:
            self._index = ExhaustiveIndexStore(
                self.matrix(), pool=self.pool, name=f"{self.name}.v{self.version}")
        return self._index

    def scan_pattern(self, s: Optional[int] = None, p: Optional[int] = None,
                     o: Optional[int] = None, fetch: str = "spo") -> np.ndarray:
        """Pattern scan over the pending inserts (same shape as the base API)."""
        if not self._inserts:
            return np.empty((0, len(fetch)), dtype=np.int64)
        return self.index().scan_pattern(s=s, p=p, o=o, fetch=fetch)

    def _grouped_tombstones(self) -> Dict[int, List[TripleKey]]:
        if self._tombstones_by_p is None:
            grouped: Dict[int, List[TripleKey]] = {}
            for key in self._tombstones:
                grouped.setdefault(key[1], []).append(key)
            self._tombstones_by_p = grouped
        return self._tombstones_by_p

    def tombstone_mask(self, rows: np.ndarray,
                       predicate: Optional[int] = None) -> np.ndarray:
        """Boolean mask of tombstoned rows in an ``(n, 3)`` S/P/O array.

        ``predicate`` narrows the tombstones consulted when every row is
        known to carry that predicate.  Membership is tested with one
        ``np.isin`` over packed ``(s, p, o)`` int64 keys — a single
        ``DELETE WHERE`` can create thousands of tombstones, so the check
        must stay ``O((n + T) log T)``, not ``O(n · T)``.
        """
        mask = np.zeros(rows.shape[0], dtype=bool)
        if not self._tombstones or rows.size == 0:
            return mask
        if predicate is not None:
            candidates = self._grouped_tombstones().get(int(predicate), [])
        else:
            candidates = list(self._tombstones)
        if not candidates:
            return mask
        tombs = np.asarray(candidates, dtype=np.int64)
        base_p = max(int(rows[:, 1].max()), int(tombs[:, 1].max())) + 1
        base_o = max(int(rows[:, 2].max()), int(tombs[:, 2].max())) + 1
        base_s = max(int(rows[:, 0].max()), int(tombs[:, 0].max())) + 1
        if 0 < base_s * base_p * base_o <= _INT64_MAX:
            row_keys = (rows[:, 0] * base_p + rows[:, 1]) * base_o + rows[:, 2]
            tomb_keys = (tombs[:, 0] * base_p + tombs[:, 1]) * base_o + tombs[:, 2]
            return np.isin(row_keys, tomb_keys)
        for ts, tp, to in candidates:  # astronomically large OIDs: safe fallback
            mask |= (rows[:, 0] == ts) & (rows[:, 1] == tp) & (rows[:, 2] == to)
        return mask

    def pair_tombstone_mask(self, predicate: int, subjects: np.ndarray,
                            objects: np.ndarray) -> np.ndarray:
        """Tombstone mask over aligned (subject, object) pairs of one predicate."""
        mask = np.zeros(subjects.shape[0], dtype=bool)
        if subjects.size == 0:
            return mask
        candidates = self._grouped_tombstones().get(int(predicate), [])
        if not candidates:
            return mask
        tombs = np.asarray(candidates, dtype=np.int64)
        base_s = max(int(subjects.max()), int(tombs[:, 0].max())) + 1
        base_o = max(int(objects.max()), int(tombs[:, 2].max())) + 1
        if 0 < base_s * base_o <= _INT64_MAX:
            pair_keys = subjects * base_o + objects
            tomb_keys = tombs[:, 0] * base_o + tombs[:, 2]
            return np.isin(pair_keys, tomb_keys)
        for ts, _tp, to in candidates:
            mask |= (subjects == ts) & (objects == to)
        return mask

    # -- CS routing -----------------------------------------------------------------

    def route_of(self, subject: int, base_properties: Optional[Set[int]] = None) -> Optional[int]:
        """The CS id this inserted subject is routed to (``None`` = leftover).

        The routed CS is the one whose property set equals the subject's
        combined (base + delta) property set; failing that, the smallest
        superset CS (ties broken by support).  Subjects already assigned to
        a CS in the schema keep that assignment.
        """
        subject = int(subject)
        if self.schema is not None:
            assigned = self.schema.subject_to_cs.get(subject)
            if assigned is not None:
                return assigned
        if subject in self._routes and base_properties is None:
            return self._routes[subject]
        props = set(self._subject_props.get(subject, set()))
        if base_properties:
            props |= set(base_properties)
        route = self._match_cs(props)
        if base_properties is None:
            self._routes[subject] = route
        return route

    def _match_cs(self, props: Set[int]) -> Optional[int]:
        return match_characteristic_set(self.schema, props)

    def routed_inserts(self) -> Dict[Optional[int], np.ndarray]:
        """Pending inserts bucketed by routed CS (``None`` = leftover)."""
        buckets: Dict[Optional[int], List[TripleKey]] = {}
        for key in self._inserts:
            buckets.setdefault(self.route_of(key[0]), []).append(key)
        return {cs_id: np.asarray(rows, dtype=np.int64)
                for cs_id, rows in buckets.items()}

    # -- buffer-pool integration ------------------------------------------------------

    def attach_pool(self, pool) -> None:
        self.pool = pool
        if self._index is not None:
            self._index.attach_pool(pool)

    def warm(self) -> None:
        """Pre-load the delta index pages (part of the store's hot state)."""
        if self._inserts:
            self.index().warm()

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        routed = self.routed_inserts()
        return {
            "pending_inserts": self.insert_count(),
            "pending_deletes": self.tombstone_count(),
            "routed_cs_buckets": sum(1 for cs_id in routed if cs_id is not None),
            "leftover_inserts": int(routed.get(LEFTOVER, np.empty((0, 3))).shape[0]),
        }


class FrozenDelta(DeltaStore):
    """An immutable point-in-time view of a :class:`DeltaStore`.

    MVCC read snapshots query one of these while the live delta keeps
    mutating: the view owns shallow copies of the insert/tombstone
    bookkeeping and shares the per-version permutation index (immutable —
    mutations always create a new one under a new segment name).  Every read
    method of :class:`DeltaStore` works unchanged; the mutating ones raise
    :class:`~repro.errors.StorageError`.
    """

    def __init__(self, source: DeltaStore) -> None:
        super().__init__(schema=source.schema, pool=source.pool, name=source.name)
        self.version = source.version
        self._inserts = dict(source._inserts)
        self._tombstones = set(source._tombstones)
        self._subject_props = {s: set(p) for s, p in source._subject_props.items()}
        self._subject_inserts = {s: set(k) for s, k in source._subject_inserts.items()}
        self._routes = dict(source._routes)
        self._index = source._index
        self._touched_by_p = source._touched_by_p
        self._frozen = True

    def _immutable(self) -> StorageError:
        return StorageError("a frozen delta view is immutable; write through the store")

    def insert(self, s: int, p: int, o: int, in_base: bool) -> bool:
        raise self._immutable()

    def delete(self, s: int, p: int, o: int, in_base: bool) -> bool:
        raise self._immutable()

    def clear(self) -> None:
        raise self._immutable()

    def begin_request(self) -> UndoLog:
        raise self._immutable()

    def attach_schema(self, schema) -> None:
        raise self._immutable()
