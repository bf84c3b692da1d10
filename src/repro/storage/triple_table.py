"""The basic triple table: three parallel columns in a chosen sort order.

MonetDB's RDF prototype keeps triples as BATs sorted in PSO order.  The
:class:`TripleTable` generalizes this to any of the six permutations of
(S, P, O): the triples are sorted by the permutation's components and each
component is stored as a :class:`~repro.columnar.Column`.  Range scans on a
prefix of the sort order are binary searches followed by sequential reads —
the access path that exhaustive-indexing RDF stores rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..columnar import BufferPool, Column
from ..errors import StorageError
from ..model import EncodedTriple

ORDERS = ("spo", "sop", "pso", "pos", "osp", "ops")
"""The six permutations of subject, predicate, object."""

_COMPONENT_INDEX = {"s": 0, "p": 1, "o": 2}


class TripleTable:
    """Encoded triples stored column-wise, sorted by a component order.

    The table *is* its three :class:`~repro.columnar.Column`s; the
    ``(n, 3)`` form exists only in :meth:`raw` and while loading.  A table
    given a ``loader`` instead of ``triples`` is *lazy*: the loader must
    produce a ``(length, 3)`` matrix **already sorted** in ``order`` (the
    snapshot writer persists the sorted form, so no sort happens at load).
    The first touch of any component reads it once, fills all three
    columns and is reported to the buffer pool once under the table's
    segment name.
    """

    def __init__(
        self,
        triples: Optional[np.ndarray] = None,
        order: str = "pso",
        pool: Optional[BufferPool] = None,
        name: str = "triples",
        *,
        loader: Optional[Callable[[], np.ndarray]] = None,
        length: Optional[int] = None,
    ) -> None:
        if order not in ORDERS:
            raise StorageError(f"unknown triple order {order!r}; expected one of {ORDERS}")
        self.order = order
        self.name = name
        self.pool = pool
        self._loader = loader
        if loader is None:
            matrix = np.asarray(triples, dtype=np.int64)
            if matrix.ndim != 2 or matrix.shape[1] != 3:
                raise StorageError("triple matrix must have shape (n, 3)")
            # np.lexsort sorts by the *last* key first, so feed components reversed.
            permutation = np.lexsort([matrix[:, _COMPONENT_INDEX[c]] for c in reversed(order)])
            values = {c: matrix[:, i][permutation] for c, i in _COMPONENT_INDEX.items()}
            length = matrix.shape[0]
        else:
            values = dict.fromkeys("spo")
            if pool is not None:
                pool.register_lazy_segment(f"{name}.{order}", length * 3)
        self._columns: Dict[str, Column] = {
            component: Column(
                f"{name}.{order}.{component}", values[component],
                sorted_ascending=order[0] == component, pool=pool,
                loader=loader and (lambda c=component: self._load(c)),
                length=length,
                notify_pool=False,  # the shared matrix file is accounted once, in _load
            )
            for component in "spo"
        }

    def _load(self, component: str) -> np.ndarray:
        """First touch of a lazy table: read the sorted matrix once, fill the
        other two columns and hand ``component``'s values to its own."""
        matrix = np.asarray(self._loader(), dtype=np.int64).reshape(-1, 3)
        if matrix.shape[0] != len(self):
            raise StorageError(
                f"table {self.name!r} loader produced {matrix.shape[0]} rows, "
                f"expected {len(self)}")
        for other, index in _COMPONENT_INDEX.items():
            if other != component:
                self._columns[other].data = matrix[:, index].copy()
        if self.pool is not None:
            self.pool.note_materialized(f"{self.name}.{self.order}", int(matrix.size))
        return matrix[:, _COMPONENT_INDEX[component]].copy()

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns["s"])

    def column(self, component: str) -> Column:
        """Return the column for component ``'s'``, ``'p'`` or ``'o'``."""
        if component not in self._columns:
            raise StorageError(f"unknown component {component!r}")
        return self._columns[component]

    def raw(self) -> np.ndarray:
        """The table as a new ``(n, 3)`` S/P/O matrix in sort order (no accounting)."""
        return np.column_stack([self._columns[c].data for c in "spo"])

    def warm(self) -> None:
        """Pre-load all pages of the table into the buffer pool."""
        if self.pool is None:
            return
        for col in self._columns.values():
            self.pool.warm(col.segment_id, len(col))

    # -- access paths ---------------------------------------------------------

    def _prefix_range(self, *values: int) -> Tuple[int, int]:
        """Row range matching a prefix of the sort order (binary searches)."""
        lo, hi = 0, len(self)
        for depth, value in enumerate(values):
            data = self._columns[self.order[depth]].data[lo:hi]
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

    def narrowed_row_range(self, value: int, oid_range) -> Tuple[int, int]:
        """Row range of one first-component value, narrowed by an inclusive
        OID range (anything with ``low`` / ``high``, ``None`` = open) on the
        next sort component — subjects within a predicate on PSO, objects on
        POS.  Binary searches only, no page reads."""
        lo, hi = self._prefix_range(value)
        if hi <= lo:
            return lo, lo
        segment = self._columns[self.order[1]].data[lo:hi]
        start, stop = lo, hi
        if oid_range.low is not None:
            start = lo + int(np.searchsorted(segment, oid_range.low, side="left"))
        if oid_range.high is not None:
            stop = lo + int(np.searchsorted(segment, oid_range.high, side="right"))
        return start, max(start, stop)

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
        parts = []
        for component in fetch:
            parts.append(self._columns[component].slice(lo, hi))
        return np.column_stack(parts)

    def contains(self, triple: EncodedTriple) -> bool:
        """Exact triple membership test (three binary searches)."""
        ordered = triple.reordered(self.order)
        lo, hi = self._prefix_range(*ordered)
        return hi > lo

    # -- statistics ----------------------------------------------------------

    def predicate_counts(self) -> Dict[int, int]:
        """Triple count per predicate OID (metadata op, no accounting).

        Run lengths of the predicate column, so the table must be sorted on
        ``p`` first (PSO / POS).
        """
        if self.order[0] != "p":
            raise StorageError(
                f"predicate counts need a predicate-first table, not {self.order!r}")
        predicates = self._columns["p"].data
        starts = np.flatnonzero(np.diff(predicates, prepend=predicates[:1] - 1))
        counts = np.diff(starts, append=len(predicates))
        return dict(zip(predicates[starts].tolist(), counts.tolist()))
