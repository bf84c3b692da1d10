"""Concurrent access to a store: MVCC snapshots and a threaded front end.

The base structures of the emergent-schema store are immutable by design
(writes accumulate in a delta overlay, and every other transition replaces
base objects instead of editing them), which makes them naturally readable
from many threads.  The store itself is the read/write API; this package
adds the remaining pieces:

* :class:`ReadSnapshot` / :class:`SnapshotRegistry` — MVCC read snapshots:
  a pin on the committed version record the writer published, so readers
  never wait on a writer and never observe half-applied updates; a held
  snapshot is a repeatable read;
* :class:`QueryServer` — a small threaded executor over one store, the
  in-process equivalent of a query endpoint, with the ``/metrics``,
  ``/stats`` and ``/queries`` routes.

Writers serialize on the store's writer mutex (see
:class:`repro.core.RDFStore`).  See ``docs/concurrency.md`` for the full
design.
"""

from .service import QueryServer
from .session import ReadSnapshot, SnapshotRegistry

__all__ = [
    "QueryServer",
    "ReadSnapshot",
    "SnapshotRegistry",
]
