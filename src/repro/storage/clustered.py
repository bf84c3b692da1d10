"""CS-clustered storage: the paper's self-organizing physical design.

After schema discovery, the triples of every characteristic set are stored
*CS-wise*: the member subjects are one ascending subject column and each
property of the CS is one column aligned with it (missing 0..1 values are
SQL NULLs).  A whole star pattern over one CS then reads a few aligned
column ranges instead of performing one self-join per property.

A block is a *head* and a *tail* (MonetDB's immutable column beside its
deltas).  Clustering builds every block as a head: subject-ascending,
sub-ordered on its sort key (:attr:`CSBlock.sorted_properties`) and
zone-mapped.  A compaction (:meth:`ClusteredStore.compacted`) keeps, in
head order, the head rows of the members no write touched, so the head
stays sorted and its zone maps and sorted prefixes stay valid; the rows
the writes filed become the block's tail, a second subject-ascending run
after the head with zones of its own.  A table the compaction did not
touch keeps its block object.  Sorted prefixes and the planner's zone-map
push-down describe head rows only.  ``cluster()`` folds every tail back
into a head.

Each run's subject column is ascending, not dense: clustering
(:func:`repro.storage.loader.plan_subject_clustering`) permutes the member
subjects' OIDs *among themselves*, so other terms' OIDs may lie between a
block's, and a subject's row is a binary search (:meth:`CSBlock.locate`),
not a subtraction.  Dense intervals — the paper's layout — are the ROADMAP
item "Dense subject OIDs" (item 5).

Triples that do not fit — subjects outside every CS, properties not in the
subject's CS, multi-valued (``0..n``) properties, and second/third values of
nominally single-valued properties in dirty data — stay behind in a basic
PSO triple table (the *irregular* store), exactly as Figure 3 of the paper
shows.  Queries consult both parts, so no data is ever lost by clustering.

While writes are pending, each written subject is a row of the tail block
its delta version filed it in (``updates/delta.py:Filing``): an all-tail
:class:`CSBlock` beside the table's block, read by the same scan code, its
columns filled by :func:`column_values` like a block's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..columnar import BufferPool, Column, NULL_OID, ZoneMap
from ..cs import EmergentSchema, Multiplicity
from ..errors import StorageError
from .triple_table import TripleTable


@dataclass
class CSBlock:
    """One characteristic set's physical block: subjects plus aligned columns.

    The rows are two runs, each subject-ascending: the *head*, rows
    ``[0, head_rows)``, which clustering sub-ordered and zone-mapped and a
    compaction keeps, and the *tail*, the rows after it, which compactions
    added since (the rows writes filed).  A block that clustering,
    re-discovery or a reload built is all head; a pending tail block is all
    tail.
    """

    cs_id: int
    label: str
    subject_column: Column
    property_columns: Dict[int, Column] = field(default_factory=dict)
    zone_maps: Dict[int, ZoneMap] = field(default_factory=dict)
    """Per column, zones of the head run then of the tail run."""
    sorted_properties: frozenset = frozenset()
    """Predicates whose column is non-decreasing over the head's non-NULL
    prefix — the result of sub-ordering the CS on that property at
    clustering time.  Range predicates on these columns can binary-search
    the head instead of scanning it."""
    head_rows: Optional[int] = None
    """Rows in the head run (``None`` when built: every row)."""
    _prefix_lengths: Dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)
    """Per sorted property looked up so far, :meth:`sorted_prefix_length`."""

    def __post_init__(self) -> None:
        if self.head_rows is None:
            self.head_rows = len(self.subject_column)

    def __len__(self) -> int:
        return len(self.subject_column)

    def has_property(self, predicate_oid: int) -> bool:
        return predicate_oid in self.property_columns

    def column(self, predicate_oid: int) -> Column:
        if predicate_oid not in self.property_columns:
            raise StorageError(f"CS block {self.cs_id} has no column for predicate {predicate_oid}")
        return self.property_columns[predicate_oid]

    def zone_map(self, predicate_oid: int) -> Optional[ZoneMap]:
        return self.zone_maps.get(predicate_oid)

    def sorted_prefix_length(self, predicate_oid: int) -> int:
        """How many leading head rows of a :attr:`sorted_properties` column
        are non-NULL (its NULLs trail the head): counted on first use and
        kept, never persisted, so a lazy column stays lazy until a range
        reads it."""
        length = self._prefix_lengths.get(predicate_oid)
        if length is None:
            values = self.column(predicate_oid).data
            length = self._prefix_lengths[predicate_oid] = _non_null_count(
                values if self.head_rows == len(values) else values[:self.head_rows])
        return length

    def locate(self, subject_oids: np.ndarray) -> np.ndarray:
        """Each subject OID's row position, ``-1`` where the block does not
        hold it: a vectorized binary search of each ascending run and an
        equality check."""
        subjects = self.subject_column.data
        head = self.head_rows
        if head == len(subjects):
            return _locate_in_run(subjects, subject_oids)
        positions = _locate_in_run(subjects[:head], subject_oids)
        tail = _locate_in_run(subjects[head:], subject_oids)
        return np.where(tail >= 0, tail + head, positions)

    def positions_of_subjects(self, subject_oids: np.ndarray) -> np.ndarray:
        """Row positions of the given subject OIDs (missing ones dropped)."""
        positions = self.locate(subject_oids)
        return positions[positions >= 0]


def _locate_in_run(subjects: np.ndarray, subject_oids: np.ndarray) -> np.ndarray:
    if len(subjects) == 0:
        return np.full(len(subject_oids), -1, dtype=np.int64)
    positions = np.searchsorted(subjects, subject_oids)
    return np.where(subjects.take(positions, mode="clip") == subject_oids, positions, -1)


def _non_null_count(values: np.ndarray) -> int:
    return int(np.count_nonzero(values != NULL_OID))


def _is_sorted_ignoring_nulls(values: np.ndarray) -> bool:
    """True when the non-NULL values form a non-decreasing prefix of the column."""
    valid = values != NULL_OID
    if not valid.any():
        return False
    last_valid = int(np.nonzero(valid)[0][-1])
    if not valid[: last_valid + 1].all():
        return False  # NULL holes in the middle break positional binary search
    prefix = values[: last_valid + 1]
    if prefix.size <= 1:
        return True
    return bool(np.all(prefix[:-1] <= prefix[1:]))


def column_properties(table) -> List[int]:
    """The properties a table's block holds a column for: all but ``MANY``."""
    return [p for p, spec in table.properties.items()
            if spec.multiplicity is not Multiplicity.MANY]


def column_values(matrix: np.ndarray, rows: np.ndarray, column_props: List[int],
                  subjects: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The column values of ``subjects`` (ascending) from their rows
    ``rows`` of ``matrix`` (row indexes in row order), one row of the
    ``(properties, subjects)`` result per ``column_props`` entry, and the
    rows the columns hold.

    The first value of a (property, subject) cell in row order fills the
    column.  Every other row — a later value of a nominally single-valued
    property, a ``MANY`` property, a property the table does not have — is
    left to the irregular table.
    """
    width = subjects.size
    props = np.asarray(column_props, dtype=np.int64)
    by_value = np.argsort(props)
    # the sorted properties, then a sentinel no predicate equals
    ordered = np.append(props[by_value], np.iinfo(np.int64).max)
    predicates = matrix[rows, 1]
    at = np.searchsorted(ordered, predicates)
    held = ordered[at] == predicates
    rows, slots = rows[held], by_value[at[held]]
    # one key per cell, ordered by (slot, position); ``first`` is each
    # cell's first row in row order
    cells, first = np.unique(slots * width + np.searchsorted(subjects, matrix[rows, 0]),
                             return_index=True)
    stored = rows[first]
    data = np.full((props.size, width), NULL_OID, dtype=np.int64)
    data.reshape(-1)[cells] = matrix[stored, 2]
    return data, stored


def _make_block(table, subjects: np.ndarray, data: Dict[int, np.ndarray], head_rows: int,
                same_head: Optional[CSBlock], pool: Optional[BufferPool], zone_size: int,
                name: str, sorted_properties: Optional[frozenset] = None) -> CSBlock:
    """A block of ``table`` over ``subjects`` and its column ``data``, the
    first ``head_rows`` rows its head.  Zone maps are built per run, but
    reused for the head from ``same_head``, a block with the same head
    rows; ``sorted_properties`` default to the columns sorted over the
    head."""
    prefix = f"{name}.cs{table.cs_id}"
    property_columns = {p: Column(segment_id=f"{prefix}.p{p}", values=values,
                                  sorted_ascending=False, pool=pool)
                        for p, values in data.items()}
    zone_maps = {}
    for p, column in property_columns.items():
        kept = same_head.zone_map(p) if same_head is not None else None
        zone_maps[p] = (ZoneMap.build(column.data, zone_size, head_rows) if kept is None else
                        ZoneMap([zone for zone in kept.zones if zone.end_row <= head_rows]
                                + ZoneMap.zones_of(column.data, zone_size, head_rows,
                                                   subjects.size),
                                zone_size, subjects.size))
    if sorted_properties is None:
        sorted_properties = frozenset(p for p, values in data.items()
                                      if _is_sorted_ignoring_nulls(values[:head_rows]))
    return CSBlock(
        cs_id=table.cs_id,
        label=table.label or f"cs{table.cs_id}",
        subject_column=Column(segment_id=f"{prefix}.subject", values=subjects,
                              sorted_ascending=head_rows == subjects.size, pool=pool),
        property_columns=property_columns,
        zone_maps=zone_maps,
        sorted_properties=sorted_properties,
        head_rows=head_rows,
    )


class ClusteredStore:
    """The full clustered physical design: CS blocks plus the irregular table."""

    def __init__(
        self,
        blocks: List[CSBlock],
        irregular: TripleTable,
        schema: EmergentSchema,
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.blocks = blocks
        self.irregular = irregular
        self.schema = schema
        self.pool = pool
        self._by_cs: Dict[int, CSBlock] = {block.cs_id: block for block in blocks}
        self.has_tails = any(block.head_rows < len(block) for block in blocks)
        """Whether a block has tail rows (a compaction added them)."""
        self._irregular_subjects: Optional[np.ndarray] = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        triple_matrix: np.ndarray,
        schema: EmergentSchema,
        pool: Optional[BufferPool] = None,
        zone_size: int = 1024,
        name: str = "clustered",
    ) -> "ClusteredStore":
        """Build the clustered store from an encoded triple matrix and schema:
        every block all head.

        Every aligned property column gets a zone map of ``zone_size`` rows
        per zone, and a star scan with a range on that column prunes by it.
        ``PlannerOptions.use_zone_maps`` switches only the planner's cross-FK
        push-down.
        """
        matrix = np.asarray(triple_matrix, dtype=np.int64).reshape(-1, 3)
        # group the rows by their subject's table (-1, no table, sorts first);
        # the stable sort keeps matrix row order inside each group
        row_cs = schema.membership.cs_of(matrix[:, 0])
        by_cs = np.argsort(row_cs, kind="stable")
        grouped_cs = row_cs[by_cs]
        in_block = np.zeros(matrix.shape[0], dtype=bool)
        blocks: List[CSBlock] = []
        for cs_id in sorted(schema.tables):
            lo, hi = np.searchsorted(grouped_cs, (cs_id, cs_id + 1))
            table = schema.tables[cs_id]
            subjects = schema.membership.members(cs_id)
            columns = column_properties(table)
            data, stored = column_values(matrix, by_cs[lo:hi], columns, subjects)
            blocks.append(_make_block(table, subjects, dict(zip(columns, data)), subjects.size,
                                      None, pool, zone_size, name))
            in_block[stored] = True
        irregular = TripleTable(matrix[~in_block], order="pso", pool=pool,
                                name=f"{name}.irregular")
        return cls(blocks=blocks, irregular=irregular, schema=schema, pool=pool)

    def compacted(self, schema: EmergentSchema, filing, zone_size: int = 1024,
                  name: str = "clustered") -> "ClusteredStore":
        """This store after a compaction that applied ``filing`` (a delta
        version's :class:`~repro.updates.delta.Filing`): ``schema`` is the
        maintained schema (same tables, same columns).

        A table no written subject was a member of, before or after, keeps
        its :class:`CSBlock` object.  Another keeps, in head order, the head
        rows of the members the filing did not replace — a subsequence of a
        sorted run, so its :attr:`~CSBlock.sorted_properties` still hold —
        and its tail is its other tail rows merged with the filing's tail
        block of the table, subject-ascending.  The irregular table trades
        the written subjects' triples for the filing's pending-irregular
        ones.
        """
        affected = set(filing.replaced).union(filing.tables.tolist())
        blocks: Dict[int, CSBlock] = {}
        for cs_id in schema.tables:
            block = self._by_cs[cs_id]
            if cs_id not in affected:
                blocks[cs_id] = block
                continue
            stay = ~np.isin(block.subject_column.data,
                            filing.replaced.get(cs_id, filing.subjects[:0]))
            kept = np.flatnonzero(stay[:block.head_rows])
            rest = block.head_rows + np.flatnonzero(stay[block.head_rows:])
            # the tail: the unwritten tail rows, then the filed ones
            filed = filing.tails.get(cs_id)
            runs = [(block, rest)] + ([] if filed is None else [(filed, slice(None))])
            tail = np.concatenate([run.subject_column.data[rows] for run, rows in runs])
            ascending = np.argsort(tail)
            blocks[cs_id] = _make_block(
                schema.tables[cs_id],
                np.concatenate([block.subject_column.data[kept], tail[ascending]]),
                {p: np.concatenate([block.column(p).data[kept], np.concatenate(
                    [run.column(p).data[rows] for run, rows in runs])[ascending]])
                 for p in block.property_columns},
                kept.size, block if kept.size == block.head_rows else None,
                self.pool, zone_size, name, block.sorted_properties)
        return ClusteredStore(
            blocks=[blocks[cs_id] for cs_id in sorted(blocks)],
            irregular=self.irregular.with_subjects_replaced(filing.subjects, filing.irregular),
            schema=schema, pool=self.pool)

    # -- access -------------------------------------------------------------------

    def block(self, cs_id: int) -> CSBlock:
        if cs_id not in self._by_cs:
            raise StorageError(f"no clustered block for CS {cs_id}")
        return self._by_cs[cs_id]

    def find_block(self, cs_id: Optional[int]) -> Optional[CSBlock]:
        """The block of one characteristic set, or ``None`` when it has none."""
        return self._by_cs.get(cs_id)

    def blocks_with_properties(self, predicate_oids: Iterable[int]) -> List[CSBlock]:
        """Blocks holding a column for every one of the given predicates.  A
        ``MANY`` property has no column (its triples are in the irregular
        table), so a star naming one gets no block."""
        wanted = list(predicate_oids)
        return [block for block in self.blocks
                if all(block.has_property(p) for p in wanted)]

    def irregular_subjects(self) -> np.ndarray:
        """The subjects of the irregular triples, ascending and distinct:
        computed on first use and kept (the table never changes)."""
        if self._irregular_subjects is None:
            self._irregular_subjects = (np.unique(self.irregular.column("s").data)
                                        if len(self.irregular) else np.empty(0, dtype=np.int64))
        return self._irregular_subjects

    def warm(self) -> None:
        """Pre-load every page of the clustered store (hot state)."""
        if self.pool is None:
            return
        for block in self.blocks:
            self.pool.warm(block.subject_column.segment_id, len(block.subject_column))
            for column in block.property_columns.values():
                self.pool.warm(column.segment_id, len(column))
        self.irregular.warm()

    # -- integrity / reconstruction ------------------------------------------------

    def reconstruct_triples(self) -> np.ndarray:
        """Rebuild the full (unordered) triple matrix from blocks + irregular.

        Used by equivalence tests: clustering must never lose or invent
        triples.
        """
        parts: List[np.ndarray] = []
        for block in self.blocks:
            subjects = block.subject_column.data
            for p, column in block.property_columns.items():
                mask = column.data != NULL_OID
                if not mask.any():
                    continue
                rows = np.column_stack([
                    subjects[mask],
                    np.full(int(mask.sum()), p, dtype=np.int64),
                    column.data[mask],
                ])
                parts.append(rows)
        if len(self.irregular):
            parts.append(self.irregular.raw())
        if not parts:
            return np.empty((0, 3), dtype=np.int64)
        return np.vstack(parts)

    def triple_count(self) -> int:
        """Total triples represented (blocks plus irregular)."""
        total = len(self.irregular)
        for block in self.blocks:
            for column in block.property_columns.values():
                total += len(column) - column.null_count()
        return total

    def regular_fraction(self) -> float:
        """Fraction of triples stored in aligned CS columns."""
        total = self.triple_count()
        if total == 0:
            return 0.0
        return (total - len(self.irregular)) / total
