"""The basic triple table: three parallel columns in a chosen sort order.

MonetDB's RDF prototype keeps triples as BATs sorted in PSO order.  The
:class:`TripleTable` generalizes this to any permutation of
(S, P, O) in :data:`ORDERS`: the triples are sorted by the permutation's components and each
component is stored as a :class:`~repro.columnar.Column`.  Range scans on a
prefix of the sort order are binary searches followed by sequential reads —
the access path that exhaustive-indexing RDF stores rely on.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..columnar import BufferPool, Column
from ..engine.kernels import expand_ranges, pack_rows
from ..errors import StorageError
from ..obs import default_registry

ORDERS = ("spo", "pso", "pos", "osp")
"""The permutations of subject, predicate, object a store keeps: each bound
set of a triple pattern is a prefix of one of them (``ACCESS_PATHS``).  SOP
and OPS add no prefix these lack — ``(o, s)`` is OSP's and ``(p, o)`` is
POS's — so no read ever asked for them."""

_COMPONENT_INDEX = {"s": 0, "p": 1, "o": 2}

Rows = Union[np.ndarray, Callable[[], np.ndarray]]
"""What a table is made from: an ``(n, 3)`` S/P/O matrix in any row order, or
a callable producing one."""

_SORTS = default_registry().counter(
    "projection_sorts_total",
    "Triple tables sorted into their columns: one per table, at its first read "
    "(a projection nothing reads is never sorted).",
    labelnames=("order",))


def rows_matrix(rows: Rows) -> np.ndarray:
    """The matrix itself, shape-checked."""
    matrix = np.asarray(rows() if callable(rows) else rows, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1] != 3:
        raise StorageError("triple matrix must have shape (n, 3)")
    return matrix


class TripleTable:
    """Encoded triples stored column-wise, sorted by a component order.

    A table is made from its :data:`Rows` (``length`` says how many a
    callable will produce) and *is* its three
    :class:`~repro.columnar.Column`s, which the first read of anything but
    the length sorts out of the rows: once, under the table's own mutex, so
    a table nothing reads costs nothing — unless :meth:`merged` made it from
    a sorted predecessor, whose columns it then starts with.  The ``(n, 3)``
    form exists only in :meth:`raw` and during that sort.
    """

    def __init__(
        self,
        rows: Rows,
        order: str = "pso",
        pool: Optional[BufferPool] = None,
        name: str = "triples",
        *,
        length: Optional[int] = None,
    ) -> None:
        if order not in ORDERS:
            raise StorageError(f"unknown triple order {order!r}; expected one of {ORDERS}")
        self.order = order
        self.name = name
        self.pool = pool
        self._rows = rows
        self._length = len(rows) if length is None else int(length)
        self._columns: Optional[Dict[str, Column]] = None
        self._mutex = threading.Lock()

    @property
    def is_materialized(self) -> bool:
        """Whether the table has been sorted into its columns yet."""
        return self._columns is not None

    def _sorted(self) -> Dict[str, Column]:
        """The three columns, sorted out of the rows by the first caller."""
        if self._columns is None:
            with self._mutex:
                if self._columns is None:
                    self._columns = self._sort()
                    self._rows = None  # the columns are the table now
        return self._columns

    def _segment_id(self, component: str) -> str:
        return f"{self.name}.{self.order}.{component}"

    def _sort(self) -> Dict[str, Column]:
        matrix = rows_matrix(self._rows)
        if matrix.shape[0] != self._length:
            raise StorageError(
                f"table {self.name!r} was given {matrix.shape[0]} rows, "
                f"expected {self._length}")
        # np.lexsort sorts by the *last* key first, so feed components reversed.
        permutation = np.lexsort([matrix[:, _COMPONENT_INDEX[c]] for c in reversed(self.order)])
        columns = {
            component: Column(
                self._segment_id(component), matrix[:, index][permutation],
                sorted_ascending=self.order[0] == component, pool=self.pool)
            for component, index in _COMPONENT_INDEX.items()
        }
        _SORTS.inc(order=self.order)
        return columns

    def merged(self, rows: Rows, inserts: np.ndarray, tombstones: np.ndarray,
               *, length: int) -> "TripleTable":
        """The table over ``rows``, which are this table's rows minus
        ``tombstones`` plus ``inserts`` (``(n, 3)`` S/P/O arrays: each
        tombstone is one of this table's rows, no insert is).

        A sorted table hands the new one its columns merged: the tombstoned
        rows dropped by position and the lexsorted inserts put in place by
        binary search, which is the sort of ``rows`` (a triple set has no
        ties) for a few copies of the columns.  An unsorted table's successor
        sorts at its first read, like any table.
        """
        table = TripleTable(rows, order=self.order, pool=self.pool, name=self.name,
                            length=length)
        columns = self._columns
        if columns is not None:
            table._columns = self._merge_columns(columns, inserts, tombstones, length)
            table._rows = None
        return table

    def with_subjects_replaced(self, subjects: np.ndarray, rows: np.ndarray) -> "TripleTable":
        """The table with every row of ``subjects`` replaced by ``rows`` (an
        ``(n, 3)`` S/P/O array of those subjects only): :meth:`merged` from
        this one, so a sorted table hands on its columns and an unsorted one
        sorts nothing now."""
        with self._mutex:
            current = self._rows if self._columns is None else None
        current = self.raw() if current is None else rows_matrix(current)
        replaced = np.isin(current[:, 0], subjects)
        kept = np.vstack([current[~replaced], rows])
        return self.merged(kept, rows, current[replaced], length=kept.shape[0])

    def _merge_columns(self, columns: Dict[str, Column], inserts: np.ndarray,
                       tombstones: np.ndarray, length: int) -> Dict[str, Column]:
        data = {component: columns[component].data for component in "spo"}
        keys = pack_rows([data[component] for component in self.order])
        if tombstones.size:
            dropped = pack_rows([tombstones[:, _COMPONENT_INDEX[c]] for c in self.order])
            at = np.minimum(np.searchsorted(keys, dropped), max(keys.size - 1, 0))
            keep = np.ones(keys.size, dtype=bool)
            keep[at[keys[at] == dropped]] = False
            keys = keys[keep]
            data = {component: values[keep] for component, values in data.items()}
        if inserts.size:
            added = inserts[np.lexsort([inserts[:, _COMPONENT_INDEX[c]]
                                        for c in reversed(self.order)])]
            at = np.searchsorted(keys, pack_rows([added[:, _COMPONENT_INDEX[c]]
                                                  for c in self.order]))
            data = {component: np.insert(values, at, added[:, _COMPONENT_INDEX[component]])
                    for component, values in data.items()}
        if len(data["s"]) != length:
            raise StorageError(
                f"table {self.name!r} merged to {len(data['s'])} rows, expected {length}")
        return {component: Column(self._segment_id(component), values,
                                  sorted_ascending=self.order[0] == component, pool=self.pool)
                for component, values in data.items()}

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def column(self, component: str) -> Column:
        """Return the column for component ``'s'``, ``'p'`` or ``'o'``."""
        if component not in _COMPONENT_INDEX:
            raise StorageError(f"unknown component {component!r}")
        return self._sorted()[component]

    def raw(self) -> np.ndarray:
        """The table as a new ``(n, 3)`` S/P/O matrix in sort order (no accounting)."""
        columns = self._sorted()
        return np.column_stack([columns[c].data for c in "spo"])

    def warm(self) -> None:
        """Pre-load all pages of the table into the buffer pool (segment
        names and the length are known without sorting anything)."""
        if self.pool is None:
            return
        for component in "spo":
            self.pool.warm(self._segment_id(component), self._length)

    # -- access paths ---------------------------------------------------------

    def _prefix_range(self, *values: int) -> Tuple[int, int]:
        """Row range matching a prefix of the sort order (binary searches)."""
        lo, hi = 0, len(self)
        columns = self._sorted()
        for depth, value in enumerate(values):
            data = columns[self.order[depth]].data[lo:hi]
            lo_off = int(np.searchsorted(data, value, side="left"))
            hi_off = int(np.searchsorted(data, value, side="right"))
            lo, hi = lo + lo_off, lo + hi_off
            if self.pool is not None:
                self.pool.tracker.tuples_probed += 2
            if lo >= hi:
                return lo, lo
        return lo, hi

    def prefix_row_range(self, *values: int) -> Tuple[int, int]:
        """Public wrapper over the prefix binary search (no page reads yet)."""
        return self._prefix_range(*values)

    def narrowed_row_ranges(self, value: int,
                            intervals: Sequence[Tuple[Optional[int], Optional[int]]]
                            ) -> List[Tuple[int, int]]:
        """Row ranges of one first-component value, narrowed by inclusive
        OID intervals (ascending and disjoint, ``None`` = open) on the next
        sort component — subjects within a predicate on PSO, objects on POS:
        one non-empty ``[start, stop)`` per interval that matches a row, in
        row order.  Binary searches only, no page reads."""
        lo, hi = self._prefix_range(value)
        if hi <= lo:
            return []
        segment = self.column(self.order[1]).data[lo:hi]
        ranges = []
        for low, high in intervals:
            start = lo if low is None else lo + int(np.searchsorted(segment, low, side="left"))
            stop = hi if high is None else lo + int(np.searchsorted(segment, high, side="right"))
            if stop > start:
                ranges.append((start, stop))
        return ranges

    def scan_prefix(self, *values: int, fetch: str = "spo") -> np.ndarray:
        """Scan rows matching a prefix of the sort order.

        ``fetch`` selects which components to materialize; the returned array
        has one row per match and one column per requested component, in the
        requested order.  Page accounting covers only the fetched columns
        over the matched row range.
        """
        lo, hi = self._prefix_range(*values)
        return self.fetch_rows(lo, hi, fetch=fetch)

    def fetch_rows(self, lo: int, hi: int, fetch: str = "spo") -> np.ndarray:
        """Materialize components for the positional row range ``[lo, hi)``."""
        if hi <= lo:
            return np.empty((0, len(fetch)), dtype=np.int64)
        columns = self._sorted()
        return np.column_stack([columns[component].slice(lo, hi) for component in fetch])

    def fetch_ranges(self, ranges: Sequence[Tuple[int, int]], fetch: str = "spo") -> np.ndarray:
        """:meth:`fetch_rows` over several disjoint row ranges, in order."""
        if len(ranges) == 1:
            return self.fetch_rows(*ranges[0], fetch=fetch)
        return np.concatenate([self.fetch_rows(lo, hi, fetch=fetch) for lo, hi in ranges]
                              or [np.empty((0, len(fetch)), dtype=np.int64)])

    def fetch_runs(self, values: np.ndarray, fetch: str = "spo") -> Tuple[np.ndarray, np.ndarray]:
        """The rows whose first sort component is one of ``values``: each
        row's index into ``values`` and its ``fetch`` components, value by
        value, each value's run in row order (two binary searches a value)."""
        first = self.column(self.order[0]).data
        owner, rows = expand_ranges(np.searchsorted(first, values),
                                    np.searchsorted(first, values, side="right"))
        if self.pool is not None:
            self.pool.tracker.tuples_probed += 2 * int(np.size(values))
        columns = self._sorted()
        return owner, np.column_stack([columns[component].data[rows] for component in fetch])

    def contains(self, triples: np.ndarray) -> np.ndarray:
        """Which rows of the ``(n, 3)`` S/P/O ``triples`` the table holds:
        the run of each one's first sort component, then its other two
        components among those."""
        ordered = triples[:, [_COMPONENT_INDEX[component] for component in self.order]]
        owner, rows = self.fetch_runs(ordered[:, 0], fetch=self.order[1:])
        found = np.zeros(triples.shape[0], dtype=bool)
        found[owner[(rows == ordered[owner, 1:]).all(axis=1)]] = True
        return found
