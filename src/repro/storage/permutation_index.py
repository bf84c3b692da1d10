"""Exhaustive-permutation index store (the MonetDB+HSP / RDF-3X baseline).

State-of-the-art triple stores such as RDF-3X and the MonetDB+HSP prototype
the paper measures keep the triple set in *all six* component orders, so any
triple pattern with any combination of bound components has a matching
clustered access path.  The paper's critique is that this "abundance of
access paths does not create any of the access locality that a relational
clustered index offers": answering a star pattern still requires one index
lookup join per additional property, each hopping all over the PSO index.

:class:`ExhaustiveIndexStore` reproduces that baseline faithfully: six
:class:`~repro.storage.triple_table.TripleTable` instances sharing one
buffer pool, plus the access-path selection logic (pick the permutation
whose sort-order prefix covers the bound components of a pattern).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..columnar import BufferPool
from ..errors import StorageError
from ..model import EncodedTriple
from .triple_table import ORDERS, TripleTable


class ExhaustiveIndexStore:
    """Six ordered triple projections sharing a buffer pool."""

    def __init__(
        self,
        triples: Iterable[EncodedTriple] | np.ndarray,
        pool: Optional[BufferPool] = None,
        orders: Tuple[str, ...] = ORDERS,
        name: str = "hsp",
    ) -> None:
        matrix = triples if isinstance(triples, np.ndarray) else np.asarray(
            [(t.s, t.p, t.o) for t in triples], dtype=np.int64
        ).reshape(-1, 3)
        self.name = name
        self.pool = pool
        self._predicate_counts_cache: Optional[Dict[int, int]] = None
        self._distinct_cache: Dict[Tuple[int, str], int] = {}
        self.tables: Dict[str, TripleTable] = {}
        for order in orders:
            self.tables[order] = TripleTable(matrix, order=order, pool=pool, name=f"{name}.{order}")

    @classmethod
    def from_tables(
        cls,
        tables: Dict[str, TripleTable],
        pool: Optional[BufferPool] = None,
        name: str = "hsp",
    ) -> "ExhaustiveIndexStore":
        """Wrap prebuilt (typically lazily loading) projections into a store.

        Used by the snapshot reader: the six sorted projections already live
        on disk, so the store must not re-sort anything at open time.
        """
        if not tables:
            raise StorageError("an index store needs at least one projection")
        store = cls.__new__(cls)
        store.name = name
        store.pool = pool
        store._predicate_counts_cache = None
        store._distinct_cache = {}
        store.tables = dict(tables)
        return store

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        first = next(iter(self.tables.values()))
        return len(first)

    def table(self, order: str) -> TripleTable:
        """Return the projection sorted in ``order``."""
        if order not in self.tables:
            raise StorageError(f"store does not maintain order {order!r}")
        return self.tables[order]

    def attach_pool(self, pool: Optional[BufferPool]) -> None:
        """Attach a buffer pool to every projection."""
        self.pool = pool
        for table in self.tables.values():
            table.attach_pool(pool)

    def warm(self) -> None:
        """Load every projection's pages into the buffer pool (hot state)."""
        for table in self.tables.values():
            table.warm()

    # -- access-path selection -------------------------------------------------

    def best_order(self, bound: str) -> str:
        """Pick the maintained order whose prefix covers the bound components.

        ``bound`` is a subset of ``"spo"`` naming the bound components of a
        triple pattern (e.g. ``"p"`` for ``?s <p> ?o``, ``"po"`` for
        ``?s <p> "x"``).  Prefers orders that additionally sort the next
        unbound component usefully (longer matching prefix first).
        """
        bound_set = set(bound)
        best: Optional[str] = None
        best_prefix = -1
        for order in self.tables:
            prefix = 0
            for component in order:
                if component in bound_set:
                    prefix += 1
                else:
                    break
            if prefix == len(bound_set) and prefix > best_prefix:
                best = order
                best_prefix = prefix
        if best is None:
            # fall back to any maintained order; pattern needs a full scan
            best = next(iter(self.tables))
        return best

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
        bound_map = {"s": s, "p": p, "o": o}
        bound = "".join(c for c in "spo" if bound_map[c] is not None)
        order = self.best_order(bound)
        table = self.tables[order]
        prefix_values = [bound_map[c] for c in order if bound_map[c] is not None]
        # ensure the bound components really are a prefix of the chosen order
        usable = 0
        for component in order:
            if bound_map[component] is not None:
                usable += 1
            else:
                break
        if usable == len(prefix_values):
            return table.scan_prefix(*prefix_values, fetch=fetch)
        # no covering prefix: scan everything and filter
        rows = table.fetch_rows(0, len(table), fetch="spo")
        mask = np.ones(rows.shape[0], dtype=bool)
        for idx, component in enumerate("spo"):
            value = bound_map[component]
            if value is not None:
                mask &= rows[:, idx] == value
        selected = rows[mask]
        columns = {"s": 0, "p": 1, "o": 2}
        return selected[:, [columns[c] for c in fetch]]

    def count_pattern(self, s: Optional[int] = None, p: Optional[int] = None, o: Optional[int] = None) -> int:
        """Number of triples matching the pattern (uses binary search only)."""
        bound_map = {"s": s, "p": p, "o": o}
        bound = "".join(c for c in "spo" if bound_map[c] is not None)
        order = self.best_order(bound)
        table = self.tables[order]
        prefix_values = []
        for component in order:
            if bound_map[component] is not None:
                prefix_values.append(bound_map[component])
            else:
                break
        if len(prefix_values) == len(bound):
            lo, hi = table.prefix_row_range(*prefix_values)
            return hi - lo
        return int(self.scan_pattern(s=s, p=p, o=o, fetch="s").shape[0])

    def contains(self, triple: EncodedTriple) -> bool:
        """Exact membership check through the SPO projection."""
        order = self.best_order("spo")
        return self.tables[order].contains(triple)

    def object_lookup(self, subject: int, predicate: int) -> np.ndarray:
        """All object OIDs for (subject, predicate) — a PSO/SPO point probe."""
        return self.scan_pattern(s=subject, p=predicate, fetch="o")[:, 0]

    def predicate_counts(self) -> Dict[int, int]:
        """Triple counts per predicate (metadata, no accounting).

        Cached: the counts are immutable for the store's lifetime, and a
        snapshot reader can pre-seed the cache so optimizer statistics never
        force a lazy projection to materialize.
        """
        if self._predicate_counts_cache is None:
            self._predicate_counts_cache = self.table(self.best_order("p")).predicate_counts()
        return self._predicate_counts_cache

    def distinct_in_predicate(self, predicate_oid: int, component: str) -> Optional[int]:
        """Distinct subjects (``"s"``) or objects (``"o"``) among one
        predicate's triples (metadata, remembered like the predicate counts).

        ``None`` when the projection that sorts the component within the
        predicate (PSO / POS) is not maintained.
        """
        table = self.tables.get("pso" if component == "s" else "pos")
        if table is None:
            return None
        key = (predicate_oid, component)
        if key not in self._distinct_cache:
            lo, hi = table.prefix_row_range(predicate_oid)
            segment = table.column(component).data[lo:hi]
            # sorted within the predicate: count the value changes
            self._distinct_cache[key] = int(hi > lo) + int(
                np.count_nonzero(segment[1:] != segment[:-1]))
        return self._distinct_cache[key]

    def set_predicate_counts(self, counts: Dict[int, int]) -> None:
        """Pre-seed the predicate-count cache (snapshot restore path)."""
        self._predicate_counts_cache = {int(p): int(c) for p, c in counts.items()}
