"""The write path: SPARQL Update application, delta storage and compaction.

The paper's emergent-schema store is built bulk-first: load, discover,
cluster.  This package makes the result *writable* without rebuilding:

* :class:`DeltaStore` — dictionary-encoded inserted triples plus a
  tombstone set for deleted base triples;
* :class:`UpdateApplier` — executes parsed ``INSERT DATA`` / ``DELETE DATA``
  / ``DELETE WHERE`` requests against a store;
* :func:`compact_store` — merges the delta into the base storage,
  incrementally maintains the emergent schema (new subjects join a matching
  CS or the irregular table; emptied subjects leave), and restores the
  value-ordered literal OID invariant;
* :class:`UpdateJournal` — the durability hook: texts of the requests
  applied since the last compaction, optionally mirrored to an on-disk
  write-ahead log (:mod:`repro.persist.wal`) so acknowledged writes
  survive crashes and ``RDFStore.open`` can replay them;
* :class:`UndoLog` / :class:`FrozenDelta` — the concurrency primitives:
  per-request undo logs make request atomicity O(touched keys), and the
  frozen read half of each delta version is the immutable state every
  query — direct or through an MVCC snapshot — reads while the write half
  keeps mutating (see ``docs/updates.md`` and ``docs/concurrency.md``).

Queries between writes and compactions stay correct because every access
path in :mod:`repro.engine` merges ``base ∪ delta − tombstones`` (the
MergeScan layer); see ``docs/updates.md`` and ``docs/persistence.md``.
"""

from .apply import UpdateApplier, UpdateResult
from .compaction import CompactionReport, compact_store
from .delta import DeltaStore, FrozenDelta, UndoLog
from .journal import UpdateJournal

__all__ = [
    "CompactionReport",
    "DeltaStore",
    "FrozenDelta",
    "UndoLog",
    "UpdateApplier",
    "UpdateJournal",
    "UpdateResult",
    "compact_store",
]
