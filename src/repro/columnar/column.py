"""BAT-style integer columns with page-accounted access.

MonetDB stores every column as a BAT (Binary Association Table): a dense
array of values addressed by position.  :class:`Column` mirrors that — a
NumPy ``int64`` array plus metadata — and routes every read through an
optional :class:`~repro.columnar.bufferpool.BufferPool` so that the cost of
an access pattern (sequential vs random) is observable.

Missing values (SQL NULL, used for 0..1 properties in a characteristic set
table) are encoded as :data:`NULL_OID`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..errors import StorageError
from .bufferpool import BufferPool

NULL_OID = -1
"""Sentinel OID representing a missing (NULL) value in a column."""


class Column:
    """A named, optionally sorted, array of int64 values.

    Parameters
    ----------
    segment_id:
        Globally unique name used for buffer-pool page accounting.
    values:
        The column data; copied into a contiguous int64 array.
    sorted_ascending:
        Declare the column sorted; enables binary-search range selection.
        The declaration is validated.
    pool:
        Buffer pool used for page accounting.  ``None`` disables accounting
        (useful in unit tests of pure logic).

    A column may alternatively be created *lazy* (:meth:`Column.lazy`): it
    then holds only a loader callable and its known length, and the backing
    array is materialized — and validated — on the first access to
    :attr:`data`.  Every read path goes through the :attr:`data` property,
    so lazy columns behave identically to eager ones after the first touch.
    """

    def __init__(
        self,
        segment_id: str,
        values: Sequence[int] | np.ndarray,
        sorted_ascending: bool = False,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.segment_id = segment_id
        self.sorted_ascending = bool(sorted_ascending)
        self.pool = pool
        self.stats = None
        """This column's :class:`~repro.columnar.stats.ColumnStats` once
        :meth:`statistics` has computed them — or restored from a snapshot
        manifest, so the optimizer can price plans without materializing
        the column."""
        self._loader: Optional[Callable[[], np.ndarray]] = None
        self._length: Optional[int] = None
        self._notify_pool = False
        self._data: Optional[np.ndarray] = None
        self._set_data(values)

    @classmethod
    def lazy(
        cls,
        segment_id: str,
        loader: Callable[[], np.ndarray],
        length: int,
        sorted_ascending: bool = False,
        pool: Optional[BufferPool] = None,
        notify_pool: bool = True,
    ) -> "Column":
        """Create a column whose values load from ``loader`` on first access.

        ``length`` must be the exact number of values the loader will
        produce, so ``len()``, page counts and buffer-pool registration work
        before materialization.  When ``notify_pool`` is true the column
        registers itself with the pool's lazy-segment accounting (pass
        ``False`` when a containing structure accounts for the load itself,
        e.g. a triple table whose three columns share one matrix file).
        """
        column = cls.__new__(cls)
        column.segment_id = segment_id
        column.sorted_ascending = bool(sorted_ascending)
        column.pool = pool
        column.stats = None
        column._loader = loader
        column._length = int(length)
        column._notify_pool = bool(notify_pool)
        column._data = None
        if pool is not None and notify_pool:
            pool.register_lazy_segment(segment_id, int(length))
        return column

    # -- materialization ------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The backing int64 array, materializing a lazy column on demand."""
        if self._data is None:
            self._materialize()
        return self._data

    @data.setter
    def data(self, values) -> None:
        self._set_data(values)

    def _set_data(self, values) -> None:
        data = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
        if data.ndim != 1:
            raise StorageError(f"column {self.segment_id!r} must be one-dimensional")
        if self.sorted_ascending and data.shape[0] > 1:
            if not bool(np.all(data[:-1] <= data[1:])):
                raise StorageError(f"column {self.segment_id!r} declared sorted but is not")
        self._data = data

    def _materialize(self) -> None:
        if self._loader is None:
            raise StorageError(f"column {self.segment_id!r} has no data and no loader")
        loaded = np.asarray(self._loader(), dtype=np.int64)
        # validate the length *before* adopting the data: a failed guard
        # must leave the column unmaterialized, not silently serving a
        # wrong-length array on the next access
        if self._length is not None and loaded.shape[0] != self._length:
            raise StorageError(
                f"column {self.segment_id!r} loader produced {loaded.shape[0]} values, "
                f"expected {self._length}")
        self._set_data(loaded)
        if self.pool is not None and self._notify_pool:
            self.pool.note_materialized(self.segment_id, int(self._data.shape[0]))

    @property
    def is_materialized(self) -> bool:
        """Whether the backing array is resident (always true for eager columns)."""
        return self._data is not None

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        if self._data is None and self._length is not None:
            return self._length
        return int(self.data.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.segment_id!r}, n={len(self)}, sorted={self.sorted_ascending})"

    def attach_pool(self, pool: Optional[BufferPool]) -> None:
        """Attach (or detach) the buffer pool used for accounting."""
        self.pool = pool

    def page_count(self) -> int:
        """Number of logical pages the column occupies."""
        if self.pool is None:
            return 0
        return self.pool.pages_for(len(self))

    # -- accounting helpers ---------------------------------------------------

    def _touch_range(self, start: int, stop: int) -> None:
        if self.pool is not None:
            self.pool.access_range(self.segment_id, start, stop)
            self.pool.tracker.tuples_scanned += max(0, stop - start)

    def _touch_value(self, index: int) -> None:
        if self.pool is not None:
            self.pool.access_value(self.segment_id, index)
            self.pool.tracker.tuples_probed += 1

    def _touch_positions(self, positions: np.ndarray) -> None:
        if self.pool is None or positions.size == 0:
            return
        pages = np.unique(positions // self.pool.page_size)
        self.pool.access_pages(self.segment_id, pages.tolist())
        self.pool.tracker.tuples_probed += int(positions.size)

    # -- reads ---------------------------------------------------------------

    def get(self, index: int) -> int:
        """Positional point read (accounted as a probe)."""
        if not 0 <= index < len(self):
            raise StorageError(f"position {index} out of range for column {self.segment_id!r}")
        self._touch_value(index)
        return int(self.data[index])

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Positional range read ``[start, stop)`` (accounted as a scan)."""
        start = max(0, start)
        stop = min(len(self), stop)
        if stop <= start:
            return np.empty(0, dtype=np.int64)
        self._touch_range(start, stop)
        return self.data[start:stop]

    def gather(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Fetch values at arbitrary positions (accounted per touched page).

        This is the positional join primitive MonetDB calls *leftfetchjoin*;
        random positions touch many pages, sequential positions few — which
        is exactly the locality effect subject clustering is after.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size and (pos.min() < 0 or pos.max() >= len(self)):
            raise StorageError(f"gather positions out of range for column {self.segment_id!r}")
        self._touch_positions(pos)
        return self.data[pos]

    def scan_all(self) -> np.ndarray:
        """Full sequential scan of the column."""
        return self.slice(0, len(self))

    # -- selection -----------------------------------------------------------

    def select_equal(self, value: int) -> np.ndarray:
        """Return positions where the column equals ``value``."""
        if self.sorted_ascending:
            lo = int(np.searchsorted(self.data, value, side="left"))
            hi = int(np.searchsorted(self.data, value, side="right"))
            self._touch_range(lo, hi)
            if self.pool is not None:
                self.pool.tracker.tuples_probed += 2  # binary search probes
            return np.arange(lo, hi, dtype=np.int64)
        self._touch_range(0, len(self))
        return np.nonzero(self.data == value)[0].astype(np.int64)

    def select_range(
        self,
        low: Optional[int] = None,
        high: Optional[int] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Return positions where ``low <= value <= high`` (bounds optional).

        On a sorted column this is two binary searches plus a contiguous
        range; on an unsorted column it is a full scan.
        """
        if self.sorted_ascending:
            lo_idx = 0
            hi_idx = len(self)
            if low is not None:
                side = "left" if low_inclusive else "right"
                lo_idx = int(np.searchsorted(self.data, low, side=side))
            if high is not None:
                side = "right" if high_inclusive else "left"
                hi_idx = int(np.searchsorted(self.data, high, side=side))
            if hi_idx < lo_idx:
                hi_idx = lo_idx
            self._touch_range(lo_idx, hi_idx)
            if self.pool is not None:
                self.pool.tracker.tuples_probed += 2
            return np.arange(lo_idx, hi_idx, dtype=np.int64)
        self._touch_range(0, len(self))
        mask = np.ones(len(self), dtype=bool)
        if low is not None:
            mask &= self.data >= low if low_inclusive else self.data > low
        if high is not None:
            mask &= self.data <= high if high_inclusive else self.data < high
        return np.nonzero(mask)[0].astype(np.int64)

    def select_in(self, values: Iterable[int]) -> np.ndarray:
        """Return positions where the value is in ``values`` (full scan)."""
        wanted = np.asarray(sorted(set(int(v) for v in values)), dtype=np.int64)
        if wanted.size == 0:
            return np.empty(0, dtype=np.int64)
        self._touch_range(0, len(self))
        mask = np.isin(self.data, wanted)
        return np.nonzero(mask)[0].astype(np.int64)

    def not_null_positions(self) -> np.ndarray:
        """Return positions holding a non-NULL value (full scan)."""
        self._touch_range(0, len(self))
        return np.nonzero(self.data != NULL_OID)[0].astype(np.int64)

    # -- statistics ----------------------------------------------------------

    def statistics(self):
        """Summary :class:`~repro.columnar.stats.ColumnStats` of the column.

        Computed on the first request and remembered here, on the object
        they describe: every estimator, snapshot and save over this column
        shares the one pass (metadata op, no accounting).
        """
        if self.stats is None:
            from .stats import ColumnStats  # stats.py imports this module
            self.stats = ColumnStats.from_values(self.data)
        return self.stats

    def min_max(self, ignore_null: bool = True) -> tuple[int, int] | None:
        """Return ``(min, max)`` over the column, or ``None`` if empty."""
        data = self.data
        if ignore_null:
            data = data[data != NULL_OID]
        if data.size == 0:
            return None
        return int(data.min()), int(data.max())

    def null_count(self) -> int:
        """Number of NULL values in the column (no accounting: metadata op)."""
        return int(np.count_nonzero(self.data == NULL_OID))

    def distinct_count(self) -> int:
        """Number of distinct non-NULL values (no accounting: metadata op)."""
        data = self.data[self.data != NULL_OID]
        return int(np.unique(data).size)
