"""Structured event log: one JSON record per store lifecycle transition.

The :class:`EventLog` answers the operational question the metrics registry
cannot: not "how many queries ran" but "*which* query started at 12:03:07,
was it cancelled, and did a compaction run in between".  Every record is a
flat dict — ``seq`` (monotonic), ``ts`` (unix time), ``type`` and
type-specific fields — kept in a bounded in-memory ring and, optionally,
appended as one JSON line per event to a file with bounded rotation.

Event types emitted by the store and the query registry:

* ``query_start`` / ``query_finish`` / ``query_cancel`` / ``query_error`` —
  the query lifecycle (``query_finish`` carries ``status`` ``finished`` or
  ``cancelled``; ``query_cancel`` marks the *request*, emitted from the
  cancelling thread);
* ``update`` — a committed SPARQL Update (inserted/deleted counts);
* ``compaction`` / ``checkpoint`` — maintenance operations;
* ``wal_replay`` — records re-applied while opening a database.

File rotation keeps at most two files: when the active file exceeds
``max_bytes`` it is renamed to ``<path>.1`` (replacing any previous
rotation) and a fresh file is started, so disk use is bounded by
``2 * max_bytes`` regardless of uptime.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional

__all__ = ["EventLog"]


class EventLog:
    """Thread-safe bounded ring of structured events, optionally file-backed.

    Args:
        capacity: events kept in memory (oldest evicted first).
        path: when given, every event is also appended to this file as one
            JSON line (created on first emit; parent directory must exist).
        max_bytes: rotation threshold for the file sink — crossing it
            renames the file to ``<path>.1`` and starts a fresh one.
    """

    def __init__(self, capacity: int = 1024,
                 path: Optional[Path | str] = None,
                 max_bytes: int = 1 << 20) -> None:
        if capacity < 1:
            raise ValueError("event log capacity must be >= 1")
        if max_bytes < 1:
            raise ValueError("event log max_bytes must be >= 1")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._rotations = 0
        self._file = None
        self._file_bytes = 0

    # -- emission --------------------------------------------------------------

    def emit(self, type: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the full record (with seq and ts)."""
        with self._lock:
            self._seq += 1
            record: Dict[str, object] = {"seq": self._seq, "ts": time.time(),
                                         "type": type, **fields}
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(record)
            if self.path is not None:
                self._write_line_locked(record)
            return record

    def _write_line_locked(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        if self._file is None:
            self._file = open(self.path, "ab")
            self._file_bytes = self._file.tell()
        # rotate before the write that would cross the bound; a single event
        # larger than max_bytes still lands (in a file of its own)
        if self._file_bytes and self._file_bytes + len(data) > self.max_bytes:
            self._rotate_locked()
            self._file = open(self.path, "ab")
        self._file.write(data)
        self._file.flush()
        self._file_bytes += len(data)

    def _rotate_locked(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        rotated = self.path.with_name(self.path.name + ".1")
        try:
            self.path.replace(rotated)
        except FileNotFoundError:
            pass
        self._file_bytes = 0
        self._rotations += 1

    # -- inspection ------------------------------------------------------------

    def events(self, type: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Newest-first event records, optionally filtered by ``type``."""
        with self._lock:
            out = [dict(record) for record in reversed(self._ring)
                   if type is None or record["type"] == type]
        return out[:limit] if limit is not None else out

    def stats(self) -> Dict[str, int]:
        """Ring / sink accounting: emitted, buffered, dropped, rotations."""
        with self._lock:
            return {
                "emitted": self._seq,
                "buffered": len(self._ring),
                "dropped": self._dropped,
                "rotations": self._rotations,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop buffered events (the file sink, if any, is left untouched)."""
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def close(self) -> None:
        """Close the file sink (re-opened automatically on the next emit)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
