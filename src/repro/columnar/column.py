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

from typing import Callable, Optional, Sequence

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
        The column data; copied into a contiguous int64 array.  ``None``
        makes the column *lazy* (see ``loader``).
    sorted_ascending:
        Declare the column sorted; enables binary-search range selection.
        The declaration is validated.
    pool:
        Buffer pool used for page accounting.  ``None`` disables accounting
        (useful in unit tests of pure logic).
    loader, length:
        A lazy column holds only a loader callable and its known length —
        the exact number of values the loader will produce, so ``len()``
        and buffer-pool registration work before materialization.  The
        backing array is materialized — and validated — on the first access
        to :attr:`data`.  Every read path goes through the :attr:`data`
        property, so lazy columns behave identically to eager ones after
        the first touch.
    """

    def __init__(
        self,
        segment_id: str,
        values: Sequence[int] | np.ndarray | None = None,
        sorted_ascending: bool = False,
        pool: Optional[BufferPool] = None,
        *,
        loader: Optional[Callable[[], np.ndarray]] = None,
        length: Optional[int] = None,
    ) -> None:
        self.segment_id = segment_id
        self.sorted_ascending = bool(sorted_ascending)
        self.pool = pool
        self.stats = None
        """This column's :class:`~repro.columnar.stats.ColumnStats` once
        :meth:`statistics` has computed them — or restored from a snapshot
        manifest, so the estimator can annotate plans without
        materializing the column."""
        self._loader = loader
        self._length = length
        self._data: Optional[np.ndarray] = None
        if loader is None:
            self._set_data(values)
        elif pool is not None:
            pool.register_lazy_segment(segment_id, length)

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
        if self.pool is not None:
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

    # -- accounting helpers ---------------------------------------------------

    def _touch_range(self, start: int, stop: int) -> None:
        if self.pool is not None:
            self.pool.access_range(self.segment_id, start, stop)
            self.pool.tracker.tuples_scanned += max(0, stop - start)

    def _touch_positions(self, positions: np.ndarray) -> None:
        if self.pool is None or positions.size == 0:
            return
        # ascending distinct pages, as np.unique gives them, without a sort
        pages = np.flatnonzero(np.bincount(positions // self.pool.page_size))
        self.pool.access_pages(self.segment_id, pages.tolist())
        self.pool.tracker.tuples_probed += int(positions.size)

    # -- reads ---------------------------------------------------------------

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

    def null_count(self) -> int:
        """Number of NULL values in the column (no accounting: metadata op)."""
        return int(np.count_nonzero(self.data == NULL_OID))
