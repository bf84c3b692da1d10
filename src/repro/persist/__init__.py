"""Persistence: on-disk snapshots, the write-ahead log and lazy loading.

The paper's host system is a full database engine, so durability comes for
free there; this package supplies it for the reproduction.  Three pieces:

* **snapshots** (:mod:`repro.persist.snapshot`) — a versioned directory
  format serializing the dictionary, emergent schema, base triple matrix,
  clustered column matrices, per-column statistics, predicate counts and
  zone maps, all under a checksummed manifest (no permutation projection:
  those are sorts of the matrix, made when first read);
* **write-ahead log** (:mod:`repro.persist.wal`) — framed, CRC-protected
  records of the ``RDFStore.update()`` requests applied since the snapshot,
  replayed at open so acknowledged writes survive crashes;
* **lazy loading** — reopened columns register with the buffer pool and
  materialize from their array files on first scan, so
  ``RDFStore.open()`` is metadata-speed regardless of database size.

Entry points live on the store: ``RDFStore.save(path)``,
``RDFStore.open(path)`` and ``store.checkpoint()``.  See
``docs/persistence.md`` for the format layout and crash semantics.
"""

from .io import array_shape, read_array, write_array
from .snapshot import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_FILE,
    DictionaryFile,
    SnapshotInfo,
    SnapshotReader,
    write_snapshot,
)
from .wal import WriteAheadLog

__all__ = [
    "DictionaryFile",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "SnapshotInfo",
    "SnapshotReader",
    "WriteAheadLog",
    "array_shape",
    "read_array",
    "write_array",
    "write_snapshot",
]
