"""Exhaustive-permutation index store (the MonetDB+HSP / RDF-3X baseline).

State-of-the-art triple stores such as RDF-3X and the MonetDB+HSP prototype
the paper measures keep the triple set in all six component orders, so any
triple pattern with any combination of bound components has a matching
clustered access path.  The paper's critique is that this "abundance of
access paths does not create any of the access locality that a relational
clustered index offers": answering a star pattern still requires one index
lookup join per additional property, each hopping all over the PSO index.

:class:`ExhaustiveIndexStore` reproduces that baseline with the four
orders whose prefixes cover every bound set (:data:`ORDERS`; the two others
would add no access path): :class:`~repro.storage.triple_table.TripleTable`
instances sharing one buffer pool, plus the access-path selection logic
(pick the permutation whose sort-order prefix covers the bound components
of a pattern).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..columnar import BufferPool
from ..errors import StorageError
from .triple_table import ORDERS, Rows, TripleTable, rows_matrix

ACCESS_PATHS = {
    "": "spo", "s": "spo", "sp": "spo", "spo": "spo",
    "p": "pso", "o": "osp", "so": "osp", "po": "pos",
}
"""The access-path decision: bound components of a triple pattern (a subset
of ``"spo"``, in that order) -> the projection whose sort-order prefix they
are.  Ranges inside one predicate are the other decision:
:meth:`ExhaustiveIndexStore.within_predicate`."""


class ExhaustiveIndexStore:
    """The ordered triple projections of :data:`ORDERS`, sharing a buffer pool.

    All four, always: each is a :class:`TripleTable` over the same ``rows``
    that sorts itself the first time a pattern reads it, so constructing the
    store costs nothing and an order no query asks for is never made.
    """

    def __init__(
        self,
        rows: Rows,
        pool: Optional[BufferPool] = None,
        name: str = "hsp",
        *,
        length: Optional[int] = None,
    ) -> None:
        self.name = name
        self.pool = pool
        self._rows = rows
        self._predicate_counts_cache: Optional[Dict[int, int]] = None
        self._distinct_cache: Dict[Tuple[int, str], int] = {}
        self.tables: Dict[str, TripleTable] = {
            order: TripleTable(rows, order=order, pool=pool, name=f"{name}.{order}",
                               length=length)
            for order in ORDERS
        }

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tables["spo"])

    def table(self, order: str) -> TripleTable:
        """Return the projection sorted in ``order``."""
        if order not in self.tables:
            raise StorageError(f"unknown triple order {order!r}; expected one of {ORDERS}")
        return self.tables[order]

    def within_predicate(self, component: str) -> TripleTable:
        """The projection that sorts subjects (``"s"``: PSO) or objects
        (``"o"``: POS) inside each predicate — where a per-subject probe or a
        :meth:`~TripleTable.narrowed_row_ranges` on that component runs."""
        return self.tables["pso" if component == "s" else "pos"]

    def warm(self) -> None:
        """Load every projection's pages into the buffer pool (hot state)."""
        for table in self.tables.values():
            table.warm()

    def materialized_orders(self) -> List[str]:
        """The orders some read has sorted so far, alphabetically."""
        return sorted(order for order, table in self.tables.items() if table.is_materialized)

    def merged(self, rows: np.ndarray, inserts: np.ndarray,
               tombstones: np.ndarray) -> "ExhaustiveIndexStore":
        """The store of ``rows`` — this store's rows minus ``tombstones``
        plus ``inserts`` — in which every projection sorted here is merged
        (:meth:`TripleTable.merged`) and every other one stays lazy."""
        store = ExhaustiveIndexStore(rows, pool=self.pool, name=self.name)
        for order, table in self.tables.items():
            if table.is_materialized:
                store.tables[order] = table.merged(rows, inserts, tombstones,
                                                   length=len(rows))
        return store

    # -- access-path selection -------------------------------------------------

    def best_order(self, bound: str) -> str:
        """The order whose prefix covers the bound components.

        ``bound`` is a subset of ``"spo"``, in that order, naming the bound
        components of a triple pattern (e.g. ``"p"`` for ``?s <p> ?o``,
        ``"po"`` for ``?s <p> "x"``): a lookup in :data:`ACCESS_PATHS`.
        """
        if bound not in ACCESS_PATHS:
            raise StorageError(f"bound components {bound!r} are not a subset of 'spo' in that order")
        return ACCESS_PATHS[bound]

    def _access_path(self, s: Optional[int], p: Optional[int],
                     o: Optional[int]) -> Tuple[TripleTable, List[int]]:
        """The projection serving a pattern and the pattern's bound values
        in that projection's sort order — always a prefix of it."""
        bound_map = {"s": s, "p": p, "o": o}
        bound = "".join(c for c in "spo" if bound_map[c] is not None)
        table = self.tables[ACCESS_PATHS[bound]]
        return table, [bound_map[c] for c in table.order[:len(bound)]]

    def scan_pattern(
        self,
        s: Optional[int] = None,
        p: Optional[int] = None,
        o: Optional[int] = None,
        fetch: str = "spo",
    ) -> np.ndarray:
        """Scan the best projection for a triple pattern with optional bounds.

        Returns an ``(n, len(fetch))`` array of the requested components for
        every matching triple.
        """
        table, prefix = self._access_path(s, p, o)
        return table.scan_prefix(*prefix, fetch=fetch)

    def count_pattern(self, s: Optional[int] = None, p: Optional[int] = None, o: Optional[int] = None) -> int:
        """Number of triples matching the pattern (uses binary search only)."""
        table, prefix = self._access_path(s, p, o)
        lo, hi = table.prefix_row_range(*prefix)
        return hi - lo

    def contains(self, triples: np.ndarray) -> np.ndarray:
        """Which rows of the ``(n, 3)`` S/P/O ``triples`` the store holds,
        through the SPO projection."""
        return self.tables["spo"].contains(triples)

    def predicate_counts(self) -> Dict[int, int]:
        """Triple counts per predicate (metadata, no accounting).

        Counted over the rows' predicate column, so no projection is sorted
        for them, and cached: the counts are immutable for the store's
        lifetime, and a snapshot reader pre-seeds the cache so optimizer
        statistics read no file either.
        """
        if self._predicate_counts_cache is None:
            counts = np.bincount(rows_matrix(self._rows)[:, 1])
            present = np.flatnonzero(counts)
            self._predicate_counts_cache = dict(zip(present.tolist(), counts[present].tolist()))
        return self._predicate_counts_cache

    def distinct_in_predicate(self, predicate_oid: int, component: str) -> int:
        """Distinct subjects (``"s"``) or objects (``"o"``) among one
        predicate's triples (metadata, remembered like the predicate counts)."""
        key = (predicate_oid, component)
        if key not in self._distinct_cache:
            table = self.within_predicate(component)
            lo, hi = table.prefix_row_range(predicate_oid)
            segment = table.column(component).data[lo:hi]
            # sorted within the predicate: count the value changes
            self._distinct_cache[key] = int(hi > lo) + int(
                np.count_nonzero(segment[1:] != segment[:-1]))
        return self._distinct_cache[key]

    def set_predicate_counts(self, counts: Dict[int, int]) -> None:
        """Pre-seed the predicate-count cache (snapshot restore path)."""
        self._predicate_counts_cache = {int(p): int(c) for p, c in counts.items()}
