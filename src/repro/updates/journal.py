"""The update journal: the write path's durability hook.

Durability for the write path is *logical*: what gets persisted is the text
of every successful ``RDFStore.update()`` request, not binary diffs of the
delta store.  Replaying the texts in order from the snapshotted base state
reproduces the delta exactly — update application is deterministic, and
text-level records stay valid even though compaction re-maps literal OIDs
(the replayed updates simply re-derive their own, equally consistent, OID
assignment).

The :class:`UpdateJournal` keeps the two copies of that record stream:

* an **in-memory list** of the requests applied since the last compaction —
  this is what ``RDFStore.save()`` seeds a fresh write-ahead log with, so a
  snapshot taken with pending writes never drops them;
* an optional **attached write-ahead log** (see
  :mod:`repro.persist.wal`): when present, every recorded request is
  appended and fsynced to disk before ``update()`` returns, so the request
  survives a crash.

``RDFStore.update`` records here after a successful apply;
``RDFStore.compact`` clears the in-memory list once
:func:`repro.updates.compaction.compact_store` has folded the delta into
the base (the on-disk WAL keeps its records
until a checkpoint truncates it: replaying them against the *old* on-disk
snapshot still reproduces a query-equivalent state).  During WAL replay the
journal is put into replaying mode so re-applied requests are remembered in
memory but not appended to the log a second time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List


class UpdateJournal:
    """Texts of the update requests applied since the last compaction.

    Recording always happens under the store's writer mutex; the
    journal's own lock additionally keeps :meth:`texts` / :meth:`__len__`
    coherent for monitoring threads that inspect a live store.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._texts: List[str] = []
        self._wal = None
        self._replaying = False

    # -- recording -----------------------------------------------------------

    def record(self, text: str) -> None:
        """Remember one successfully applied update request.

        Appends to the attached WAL (fsynced) unless the journal is in
        replaying mode — a replayed request is already on disk.  The WAL
        append happens *before* the in-memory append: if the disk write
        fails, the journal must not remember a request the caller will see
        fail (and roll back), or a later ``save()`` would replay it.
        """
        with self._lock:
            if self._wal is not None and not self._replaying:
                self._wal.append(text)
            self._texts.append(text)

    def clear(self) -> None:
        """Forget the in-memory texts (called after compaction folds them
        into the base matrix; the attached WAL is *not* touched)."""
        with self._lock:
            self._texts.clear()

    def texts(self) -> List[str]:
        """The recorded request texts, oldest first."""
        with self._lock:
            return list(self._texts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._texts)

    # -- WAL attachment ------------------------------------------------------

    @property
    def wal(self):
        """The attached :class:`~repro.persist.wal.WriteAheadLog`, if any."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Attach (or detach, with ``None``) the on-disk log."""
        self._wal = wal

    @property
    def is_replaying(self) -> bool:
        return self._replaying

    @contextmanager
    def replaying(self) -> Iterator[None]:
        """Context manager suppressing WAL appends while records re-apply."""
        previous = self._replaying
        self._replaying = True
        try:
            yield
        finally:
            self._replaying = previous
