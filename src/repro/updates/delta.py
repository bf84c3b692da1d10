"""The delta store: pending inserts, tombstones and the undo log.

Writes never touch the immutable base structures (clustered CS blocks, the
irregular triple table, the permutation indexes).  Instead they
accumulate here:

* **inserts** — dictionary-encoded triples not present in the base store,
  kept in first-write order and exposed through a small exhaustive
  permutation index so every engine access path can merge them in;
* **tombstones** — base triples marked deleted; scans filter them out.

Deleting a triple that only exists in the delta simply removes the insert;
re-inserting a tombstoned base triple removes the tombstone (resurrection).

A write is filed once, when its version is frozen: every subject with a
pending insert or tombstone goes to the table the one admission rule,
:func:`repro.cs.match_characteristic_set`, picks for its live property set,
as a row of that table's tail block, and what the table's columns cannot
hold stays pending-irregular (:class:`Filing`).  Readers read the filing;
compaction applies it.

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
  as arrays, the version's :class:`Filing`, and what scans derive from the
  arrays (the permutation index, per-predicate tombstones), each built once
  for the version.  The writer builds the next one when it publishes the
  version, by folding the mutations since into the previous one's arrays
  and filing again only the subjects they touched.  Deltas are small by
  design, and :func:`repro.updates.compaction.compact_store` folds them
  into the base before they grow large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..columnar import Column
from ..cs import EmergentSchema, match_characteristic_set
from ..cs.detect import run_starts
from ..engine.kernels import expand_ranges, sorted_member_mask
from ..errors import StorageError
from ..storage import CSBlock, ExhaustiveIndexStore
from ..storage.clustered import column_properties, column_values

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
        self._tables_of: Dict[bytes, int] = {}
        """The table of each property set filed so far, under the schema of
        ``_frozen``'s filing."""

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

    def freeze(self, schema: Optional[EmergentSchema], index_store) -> "FrozenDelta":
        """The read half of the current version, its subjects filed by
        ``schema`` over the base rows of ``index_store`` (a store without a
        schema files nothing and passes ``None`` for both).

        Built on the first call after a mutation — the store's publish, or
        a request's own read of its pending state — from the previous
        frozen version's arrays and filing and the mutations since: Python
        work per key touched, binary searches and array copies, no sort of
        the pending rows.  Folding the two sets copies them, and refiling a
        table copies its tail, so a write costs a few memory copies of what
        is pending beside its own keys.  A new ``schema`` files every
        pending subject again.  Every later caller of the version gets it
        as is, so all readers of one version share one index.  Only the
        writer calls this, under the store's writer mutex.
        """
        name = f"{self.name}.v{self.version}"
        frozen = self._frozen
        if (frozen is None or frozen.name != name
                or (schema is not None and frozen.filing.schema is not schema)):
            previous = _NO_DELTA if frozen is None else frozen
            inserts, tombstones, added = _fold_changes(
                previous.matrix(), previous.tombstone_matrix(), self._changes)
            filing = _NO_FILING
            if schema is not None:
                filing = previous.filing
                if filing.schema is schema:
                    changed = np.asarray(sorted({key[0] for _op, key in self._changes}),
                                         dtype=np.int64)
                else:  # every pending row is new to the filing
                    filing, self._tables_of, added = _NO_FILING, {}, (inserts, tombstones)
                    changed = np.union1d(inserts[:, 0], tombstones[:, 0])
                filing = _file(filing, changed, schema, index_store.table("spo"),
                               (inserts, tombstones), added, self._tables_of, name, self.pool)
            frozen = self._frozen = FrozenDelta(inserts, tombstones, self.pool, name, filing)
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


@dataclass(frozen=True, eq=False)
class Filing:
    """Where one delta version files its written subjects.

    Each subject with a pending insert or tombstone replaces its base rows:
    it is a row of the tail block of the table
    :func:`~repro.cs.match_characteristic_set` picks for its live property
    set (base rows less tombstones, plus inserts), with one value per
    column cell, as a block's columns are filled at build
    (:func:`repro.storage.clustered.column_values`).  What the columns
    cannot hold — a second value, a property without a column, every
    triple of a subject no table fits — is pending-irregular.
    """

    schema: Optional[EmergentSchema]
    """The schema the subjects were filed by (``None``: nothing filed)."""
    subjects: np.ndarray
    """Every written subject, ascending."""
    tables: np.ndarray
    """Aligned with :attr:`subjects`: each one's table, ``-1`` for none (no
    table fits, or no triple is left)."""
    replaced: Dict[int, np.ndarray]
    """Table id -> its members among the written subjects, ascending: the
    rows of its block a reader skips."""
    tails: Dict[int, CSBlock]
    """Table id -> the tail block of its filed subjects, subject-ascending,
    all tail rows (``head_rows`` 0), no zone maps, its columns' segments
    named under the version that built it."""
    irregular: np.ndarray
    """The written subjects' live triples no tail column holds, ``(n, 3)``,
    subject-ascending."""


class FrozenDelta:
    """The read half of one delta version: what queries merge with the base.

    Holds the pending inserts and tombstones as two ``(n, 3)`` arrays and
    the version's :class:`Filing`, and offers nothing that mutates.  What
    scans need beyond them — the permutation index over the inserts (each
    order sorted when a scan first reads it), the tombstones grouped by
    predicate — is derived on first use and kept, so every context,
    snapshot and estimator of the version shares it.  Racing first readers
    derive equal values and the last one stored is kept.  ``name``
    (``<delta>.v<N>``) prefixes the buffer-pool segments of the index and
    of the tail blocks the version builds, keeping two versions' pages
    apart.
    """

    def __init__(self, inserts: np.ndarray, tombstones: np.ndarray,
                 pool=None, name: str = "delta", filing: Optional[Filing] = None) -> None:
        for array in (inserts, tombstones):
            array.setflags(write=False)
        self._inserts = inserts
        self._tombstones = tombstones
        self.pool = pool
        self.name = name
        self.filing = _NO_FILING if filing is None else filing
        self._index: Optional[ExhaustiveIndexStore] = None
        self._tombstones_by_p: Optional[Dict[int, np.ndarray]] = None

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

    def drop_pages(self, current: Optional["FrozenDelta"]) -> None:
        """Evict this version's index pages, and those of its tail blocks
        ``current`` (the version now published, ``None`` for none) does not
        hold, so a superseded version stops counting toward pool capacity
        and cold/hot accounting: a tail block a later version kept goes with
        the last version holding it.  *When* is the snapshot registry's one
        rule (``docs/concurrency.md``)."""
        if self.pool is None:
            return
        # the trailing separator keeps ``v1`` from also matching ``v10``
        prefixes = ([] if self._index is None else
                    [f"{table.name}." for table in self._index.tables.values()])
        held = [] if current is None else list(current.filing.tails.values())
        prefixes += [tail.subject_column.segment_id.rpartition(".")[0] + "."
                     for tail in self.filing.tails.values()
                     if not any(tail is other for other in held)]
        if prefixes:
            self.pool.drop_segments(tuple(prefixes))


def _as_triples(keys: List[TripleKey]) -> np.ndarray:
    return np.asarray(keys, dtype=np.int64).reshape(-1, 3)


_NO_TRIPLES = _as_triples([])
_NO_TRIPLES.setflags(write=False)
_NO_FILING = Filing(None, _NO_TRIPLES[:, 0], _NO_TRIPLES[:, 0], {}, {}, _NO_TRIPLES)
_NO_DELTA = FrozenDelta(_NO_TRIPLES, _NO_TRIPLES)

_INVERSE = {UndoLog.INSERTED: UndoLog.INSERT_REMOVED,
            UndoLog.INSERT_REMOVED: UndoLog.INSERTED,
            UndoLog.TOMBSTONED: UndoLog.TOMBSTONE_REMOVED,
            UndoLog.TOMBSTONE_REMOVED: UndoLog.TOMBSTONED}

_SIDE = {UndoLog.INSERTED: (0, True), UndoLog.INSERT_REMOVED: (0, False),
         UndoLog.TOMBSTONED: (1, True), UndoLog.TOMBSTONE_REMOVED: (1, False)}
"""Which array an op changes (inserts 0, tombstones 1) and whether it adds."""


def _fold_changes(inserts: np.ndarray, tombstones: np.ndarray,
                  changes: List[Tuple[str, TripleKey]]
                  ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """The next version's arrays: ``inserts`` and ``tombstones`` with
    ``changes`` applied in order, and the rows appended to each.

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
    folded, appended = [], []
    for rows, side_added, side_removed in zip((inserts, tombstones), added, removed):
        if side_removed:
            rows = rows[~_isin_rows(rows.T, _as_triples(list(side_removed)).T)]
        appended.append(_as_triples(list(side_added)))
        folded.append(np.concatenate([rows, appended[-1]]) if side_added else rows)
    return folded[0], folded[1], (appended[0], appended[1])


def _file(prior: Filing, changed: np.ndarray, schema: EmergentSchema, spo,
          pending: Tuple[np.ndarray, np.ndarray], added: Tuple[np.ndarray, np.ndarray],
          tables_of: Dict[bytes, int], name: str, pool) -> Filing:
    """``prior`` with the ``changed`` subjects (ascending) filed again by
    ``schema``: each one's live triples are its base rows on the sorted
    ``spo`` projection less its tombstones, then its inserts, and its
    table is decided once per property set (``tables_of`` keeps them).
    ``pending`` are the version's inserts and tombstones, ``added`` the
    rows its fold appended: all a changed subject has when ``prior`` filed
    none of them.  Every array of ``prior`` loses the changed subjects by
    position and gains their new rows at binary-searched positions; a
    table no changed subject leaves or joins keeps its tail block."""
    kept = _unchanged(prior.subjects, changed)
    own_inserts, own_tombstones = added if kept.all() else (
        rows[sorted_member_mask(rows[:, 0], changed)] for rows in pending)
    written = np.union1d(own_inserts[:, 0], own_tombstones[:, 0])
    _, base = spo.fetch_runs(written)
    live = np.concatenate([base[~_isin_rows(base.T, own_tombstones.T)], own_inserts])
    # by subject, then predicate, rows in order within a (subject,
    # predicate) cell; a subject's distinct predicates are then an ascending
    # run, and equal property sets equal byte strings, matched once
    live = live[np.lexsort((live[:, 1], live[:, 0]))]
    pairs = run_starts(live[:, 0], live[:, 1])
    holders = run_starts(live[pairs, 0])
    filed = live[pairs[holders], 0]
    packed = live[pairs, 1].tobytes()
    bounds = (np.append(holders, pairs.size) * live.itemsize).tolist()
    tables = np.asarray([_table_of(schema, packed[start:stop], tables_of)
                         for start, stop in zip(bounds, bounds[1:])], dtype=np.int64)
    row_tables = tables[np.searchsorted(filed, live[:, 0])]
    in_column = np.zeros(live.shape[0], dtype=bool)
    left = set(prior.tables[~kept].tolist())
    tails = dict(prior.tails)
    for cs_id in left.union(tables.tolist()) - {-1}:
        table = schema.tables[cs_id]
        columns = column_properties(table)
        subjects = filed[tables == cs_id]
        data, stored = column_values(live, np.flatnonzero(row_tables == cs_id), columns, subjects)
        in_column[stored] = True
        old = tails.pop(cs_id, None)
        if old is not None:
            old_subjects = old.subject_column.data
            old_data = np.stack([old.column(p).data for p in columns])
            if cs_id in left:  # a changed subject's old row goes
                stay = _unchanged(old_subjects, changed)
                old_subjects, old_data = old_subjects[stay], old_data[:, stay]
            at = np.searchsorted(old_subjects, subjects)
            data = _spliced(old_data, at, data, axis=1)
            subjects = _spliced(old_subjects, at, subjects)
        if subjects.size:
            tails[cs_id] = _tail_of(table, subjects, dict(zip(columns, data)), name, pool)
    written_tables = np.full(written.size, -1, dtype=np.int64)
    written_tables[np.searchsorted(written, filed)] = tables
    subjects, tables_kept = ((prior.subjects, prior.tables) if kept.all() else
                             (prior.subjects[kept], prior.tables[kept]))
    at = np.searchsorted(subjects, written)
    bases = schema.membership.cs_of(changed)
    written_bases = bases[np.searchsorted(changed, written)]
    replaced = dict(prior.replaced)
    for cs_id in set(bases.tolist()) - {-1}:
        old = replaced.pop(cs_id, _NO_TRIPLES[:, 0])
        old, members = old[_unchanged(old, changed)], written[written_bases == cs_id]
        if old.size or members.size:
            replaced[cs_id] = _spliced(old, np.searchsorted(old, members), members)
    irregular, unheld = prior.irregular, live[~in_column]
    if irregular.size:
        irregular = irregular[_unchanged(irregular[:, 0], changed)]
    return Filing(schema, _spliced(subjects, at, written),
                  _spliced(tables_kept, at, written_tables), replaced, tails,
                  _spliced(irregular, np.searchsorted(irregular[:, 0], unheld[:, 0]), unheld))


def _spliced(old: np.ndarray, at: np.ndarray, new: np.ndarray, axis: int = 0) -> np.ndarray:
    """``old`` with ``new`` inserted along ``axis`` before its positions
    ``at`` (ascending): an append when they are all past its end."""
    if not at.size:
        return old
    if at[0] == old.shape[axis]:
        return np.concatenate([old, new], axis=axis)
    return np.insert(old, at, new, axis=axis)


def _unchanged(subjects: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """Which of the ascending ``subjects`` (each may repeat) are not among
    ``changed``: a run of binary searches per changed subject."""
    kept = np.ones(subjects.size, dtype=bool)
    lo, hi = np.searchsorted(subjects, changed), np.searchsorted(subjects, changed, side="right")
    held = lo < hi
    if held.any():
        kept[expand_ranges(lo[held], hi[held])[1]] = False
    return kept


def _table_of(schema: EmergentSchema, predicates: bytes, tables_of: Dict[bytes, int]) -> int:
    """The table of a property set (its ascending predicates' bytes)."""
    cs_id = tables_of.get(predicates)
    if cs_id is None:
        matched = match_characteristic_set(
            schema, frozenset(np.frombuffer(predicates, dtype=np.int64).tolist()))
        cs_id = tables_of[predicates] = -1 if matched is None else matched
    return cs_id


def _tail_of(table, subjects: np.ndarray, data: Dict[int, np.ndarray], name: str,
             pool) -> CSBlock:
    """The tail block of ``table`` over ``subjects`` and its column ``data``;
    its columns' segments are named under the version ``name``."""
    prefix = f"{name}.tail.cs{table.cs_id}"
    return CSBlock(cs_id=table.cs_id, label=table.label or f"cs{table.cs_id}",
                   subject_column=Column(f"{prefix}.subject", subjects, pool=pool),
                   property_columns={p: Column(f"{prefix}.p{p}", values, pool=pool)
                                     for p, values in data.items()},
                   head_rows=0)


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
