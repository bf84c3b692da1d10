"""Concurrent access to a store: MVCC snapshots, sessions, a threaded front end.

The base structures of the emergent-schema store are immutable by design
(writes accumulate in a delta overlay, and every other transition replaces
base objects instead of editing them), which makes them naturally readable
from many threads.  This package adds the remaining pieces:

* :class:`ReadSnapshot` / :class:`SnapshotRegistry` — MVCC read snapshots:
  a pin on the committed version record the writer published, so readers
  never wait on a writer and never observe half-applied updates;
* :class:`StoreSession` — per-client handles with sticky (repeatable-read)
  or auto-refreshing snapshots;
* :class:`StoreService` / :class:`QueryServer` — a thread-safe facade and a
  small threaded executor, the in-process equivalent of a query endpoint.

Writers serialize on the store's writer mutex (see
:class:`repro.core.RDFStore`).  See ``docs/concurrency.md`` for the full
design.
"""

from .service import QueryServer, StoreService
from .session import ReadSnapshot, SnapshotRegistry, StoreSession

__all__ = [
    "QueryServer",
    "ReadSnapshot",
    "SnapshotRegistry",
    "StoreService",
    "StoreSession",
]
