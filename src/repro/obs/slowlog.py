"""Slow-query ring buffer.

:class:`SlowQueryLog` keeps the most recent N queries that exceeded a
latency threshold — enough to answer "what was slow in the last hour"
without any external infrastructure.  Entries carry whitespace-normalized
query text (:func:`normalize_text`: single-line, and still a query that
parses), the plan scheme, latency, row count and a one-line digest of the
run when it was profiled.  ``ActiveQueryRegistry.finish`` gates every
successful run of a store into its log.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

__all__ = ["SlowQueryEntry", "SlowQueryLog", "normalize_text"]

_COMMENT = re.compile("|".join(
    [r'"[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*"', r"'[^']*(?:''[^']*)*'", r"<[^\x00-\x20<>\\]*>",
     r"(#.*)"]))
"""On one line: a string (SPARQL's ``"…"``, SQL's ``'…'``), an IRIREF, or —
the group — a ``#`` comment outside them, which runs to the end of the
line."""


def _drop_comment(match: re.Match) -> str:
    return " " if match.group(1) else match.group()


def normalize_text(text: str) -> str:
    """``text`` on one line, as the registry, the event log and the slow log
    record it: each ``#`` comment outside an IRI or a string dropped (joined
    lines would let it swallow the rest of the query), then runs of
    whitespace collapsed to one blank.  A comment-free text only has its
    whitespace collapsed.  Only lines holding a ``#`` are scanned, which
    keeps the per-query cost near the collapse alone."""
    if "#" in text:
        text = "\n".join([_COMMENT.sub(_drop_comment, line) if "#" in line else line
                          for line in text.split("\n")])
    return " ".join(text.split())


@dataclass
class SlowQueryEntry:
    """One slow query: what ran, how it ran, and how long it took."""

    text: str
    frontend: str
    scheme: str
    seconds: float
    rows: int
    timestamp: float = field(default_factory=time.time)
    trace_summary: str = ""

    def as_dict(self) -> dict:
        return {
            "text": self.text,
            "frontend": self.frontend,
            "scheme": self.scheme,
            "seconds": self.seconds,
            "rows": self.rows,
            "timestamp": self.timestamp,
            "trace_summary": self.trace_summary,
        }


class SlowQueryLog:
    """Threshold-gated ring buffer of recent slow queries (thread-safe)."""

    def __init__(self, threshold_seconds: float = 0.25, capacity: int = 128) -> None:
        if threshold_seconds < 0:
            raise ValueError("threshold must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_seconds = threshold_seconds
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: Deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._dropped = 0

    def record(self, text: str, frontend: str, scheme: str, seconds: float,
               rows: int, trace_summary: str = "") -> bool:
        """Record the query if it crossed the threshold; True if logged."""
        if seconds < self.threshold_seconds:
            return False
        entry = SlowQueryEntry(text=normalize_text(text), frontend=frontend,
                               scheme=scheme, seconds=seconds, rows=rows,
                               trace_summary=trace_summary)
        with self._lock:
            if len(self._entries) == self.capacity:
                self._dropped += 1
            self._entries.append(entry)
        return True

    def entries(self) -> List[SlowQueryEntry]:
        """Newest-first list of logged queries."""
        with self._lock:
            return list(reversed(self._entries))

    def dropped(self) -> int:
        """Entries evicted by the ring since creation (or last clear)."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dropped = 0
