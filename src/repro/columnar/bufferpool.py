"""A page-granular buffer-pool simulator.

The paper's Table I distinguishes *Cold* runs (OS page cache empty, every
page touched comes from disk) from *Hot* runs (everything cached).  To
reproduce the distinction in a hardware-independent way, every column in
this library is divided into fixed-size logical pages and every access goes
through a :class:`BufferPool`:

* a **miss** increments ``page_reads`` on the active :class:`CostTracker`
  and brings the page into an LRU-managed cache,
* a **hit** increments ``page_hits``.

``reset_cold()`` empties the cache (a cold run); ``warm(...)`` pre-loads the
pages a dataset occupies (a hot run).  Locality now has the same observable
consequence it has on real hardware: a query that touches a few contiguous
pages causes few misses, one that hops all over an index causes many.

The pool is shared by every structure of a store — including the frozen
delta views MVCC read snapshots scan from other threads — so its internal
state is guarded by a reentrant lock.  Page-level counters stay exact under
concurrency; the per-query *attribution* of counters (``execute_plan``'s
tracker diff) is best-effort when queries overlap, exactly like ``BUFFERS``
accounting in a real multi-user database.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Set, Tuple, Union

from .cost import CostTracker

DEFAULT_PAGE_SIZE = 1024
"""Number of column values per logical page (8 KiB of 8-byte OIDs)."""

VALUE_BYTES = 8
"""Bytes per column value (int64 OIDs), used for memory accounting."""


class BufferPool:
    """LRU cache of ``(segment_id, page_number)`` pages with cost accounting."""

    def __init__(self, capacity_pages: int = 1 << 20, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if capacity_pages <= 0:
            raise ValueError("buffer pool capacity must be positive")
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._lock = threading.RLock()
        self._pages: OrderedDict[tuple[str, int], None] = OrderedDict()
        self._segments: Dict[str, Set[int]] = {}
        """Segment id -> its cached pages: what a drop by prefix visits."""
        self.tracker = CostTracker()
        self.evictions = 0
        """Lifetime count of pages evicted by LRU capacity pressure."""
        self._lazy_registered: Dict[str, int] = {}
        self._lazy_materialized: Dict[str, int] = {}
        self.lazy_values_loaded = 0
        """Total column values materialized from disk by lazy segments."""

    # -- cache state ---------------------------------------------------------

    def reset_cold(self) -> None:
        """Empty the cache, simulating a cold start."""
        with self._lock:
            self._pages.clear()
            self._segments.clear()

    def warm(self, segment_id: str, num_values: int) -> None:
        """Pre-load every page of a segment (simulating a hot cache)."""
        with self._lock:
            for page in range(self.pages_for(num_values)):
                self._insert((segment_id, page))

    def cached_page_count(self) -> int:
        """Number of pages currently cached."""
        with self._lock:
            return len(self._pages)

    def contains(self, segment_id: str, page: int) -> bool:
        """Whether a specific page is cached (does not touch LRU order)."""
        with self._lock:
            return (segment_id, page) in self._pages

    def drop_segments(self, prefix: Union[str, Tuple[str, ...]]) -> int:
        """Evict every cached page of segments whose id starts with ``prefix``
        (or with one of a tuple of prefixes): one pass over the cached
        segments, then their pages.

        Used when a structure is rebuilt under new segment names (e.g. the
        delta store's per-version index): superseded pages would otherwise
        linger, counting toward capacity and skewing cold/hot accounting.
        """
        with self._lock:
            dropped = 0
            for segment_id in [key for key in self._segments if key.startswith(prefix)]:
                pages = self._segments.pop(segment_id)
                for page in pages:
                    del self._pages[(segment_id, page)]
                dropped += len(pages)
            return dropped

    def segments_cached(self, prefix: str) -> int:
        """Number of cached pages whose segment id starts with ``prefix``.

        Observability for snapshot-pinned delta versions: their index pages
        must stay resident until the last snapshot releases them.
        """
        with self._lock:
            return sum(len(pages) for segment_id, pages in self._segments.items()
                       if segment_id.startswith(prefix))

    def pages_for(self, num_values: int) -> int:
        """Number of pages needed to hold ``num_values`` values."""
        if num_values <= 0:
            return 0
        return (num_values + self.page_size - 1) // self.page_size

    # -- lazy-segment observability -------------------------------------------

    def register_lazy_segment(self, segment_id: str, num_values: int) -> None:
        """Announce an on-disk segment that will materialize on first scan.

        Registration is pure bookkeeping (no pages are touched); it lets
        :meth:`stats` report how much of a lazily opened database is still
        on disk versus materialized in memory.
        """
        with self._lock:
            self._lazy_registered[segment_id] = int(num_values)

    def retain_lazy_segments(self, segment_ids: Iterable[str]) -> None:
        """Forget every lazy segment but ``segment_ids``.

        Called when the physical structures are replaced (compaction,
        re-clustering, reload): a segment that no longer backs anything
        would make ``stats()`` report stale ``lazy_values_pending`` forever,
        while one that a kept structure still reads from disk — a block a
        compaction kept — stays pending until it loads.
        ``lazy_values_loaded`` is a lifetime counter and survives.
        """
        keep = set(segment_ids)
        with self._lock:
            for registry in (self._lazy_registered, self._lazy_materialized):
                for segment_id in [s for s in registry if s not in keep]:
                    del registry[segment_id]

    def note_materialized(self, segment_id: str, num_values: int) -> None:
        """Record that a lazy segment's values were loaded from disk.

        Deliberately *not* counted as ``page_reads``: the cold/hot cost
        simulation already charges page misses when the materialized values
        are scanned, and double-charging would skew Table-I-style
        comparisons between a freshly built and a reopened store.
        """
        with self._lock:
            if segment_id not in self._lazy_materialized:
                self._lazy_materialized[segment_id] = int(num_values)
                self.lazy_values_loaded += int(num_values)

    def stats(self) -> Dict[str, int]:
        """Memory accounting and eviction/lazy-loading counters.

        Returns a plain dictionary so callers (``RDFStore.explain``, the
        persistence benchmark, monitoring) can render it without importing
        pool internals.
        """
        with self._lock:
            return self._stats_locked()

    def snapshot_delta(self, mark: Dict[str, int]) -> Dict[str, int]:
        """Stats *since* ``mark`` (a dict previously returned by :meth:`stats`).

        The monotonic counters — ``evictions``, ``page_reads``,
        ``page_hits``, ``lazy_values_loaded`` — come back as deltas, so one
        query's buffer activity can be attributed instead of reporting
        process-lifetime numbers; everything else (capacities, cached pages,
        lazy-segment gauges) stays point-in-time.  Attribution is
        best-effort under concurrent queries, like ``BUFFERS`` accounting in
        any multi-user database.
        """
        current = self.stats()
        for key in ("evictions", "page_reads", "page_hits", "lazy_values_loaded"):
            current[key] = current[key] - mark.get(key, 0)
        return current

    def _stats_locked(self) -> Dict[str, int]:
        cached = len(self._pages)
        return {
            "capacity_pages": self.capacity_pages,
            "page_size": self.page_size,
            "cached_pages": cached,
            "resident_bytes": cached * self.page_size * VALUE_BYTES,
            "capacity_bytes": self.capacity_pages * self.page_size * VALUE_BYTES,
            "evictions": self.evictions,
            "page_reads": self.tracker.page_reads,
            "page_hits": self.tracker.page_hits,
            "lazy_segments_registered": len(self._lazy_registered),
            "lazy_segments_materialized": len(self._lazy_materialized),
            "lazy_values_pending": sum(
                count for segment, count in self._lazy_registered.items()
                if segment not in self._lazy_materialized),
            "lazy_values_loaded": self.lazy_values_loaded,
        }

    # -- access --------------------------------------------------------------

    def access_value(self, segment_id: str, index: int) -> bool:
        """Touch the page containing value ``index``; return True on a hit."""
        return self.access_page(segment_id, index // self.page_size)

    def access_page(self, segment_id: str, page: int) -> bool:
        """Touch one page; return True on a hit, False on a miss."""
        return not self.access_pages(segment_id, (page,))

    def access_range(self, segment_id: str, start: int, stop: int) -> int:
        """Touch every page overlapping value indexes ``[start, stop)``.

        Returns the number of misses.  ``stop`` is exclusive; an empty range
        touches nothing.
        """
        if stop <= start:
            return 0
        return self.access_pages(segment_id,
                                 range(start // self.page_size, (stop - 1) // self.page_size + 1))

    def access_pages(self, segment_id: str, pages: Iterable[int]) -> int:
        """Touch pages in the given order, each as :meth:`access_page` would,
        under one hold of the lock; return the number of misses."""
        misses = touched = 0
        cached = self._pages
        with self._lock:
            for page in pages:
                key = (segment_id, page)
                touched += 1
                if key in cached:
                    cached.move_to_end(key)
                else:
                    misses += 1
                    self._insert(key)
            self.tracker.page_hits += touched - misses
            self.tracker.page_reads += misses
        return misses

    # -- internals -----------------------------------------------------------

    def _insert(self, key: tuple[str, int]) -> None:
        self._pages[key] = None
        self._pages.move_to_end(key)
        self._segments.setdefault(key[0], set()).add(key[1])
        while len(self._pages) > self.capacity_pages:
            segment_id, page = self._pages.popitem(last=False)[0]
            pages = self._segments[segment_id]
            pages.discard(page)
            if not pages:
                del self._segments[segment_id]
            self.evictions += 1
