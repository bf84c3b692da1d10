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
head order, the head rows of the members it did not touch, so the head
stays sorted and its zone maps and sorted prefixes stay valid; newcomers
and changed members become the block's tail, a second subject-ascending
run after the head with zones of its own.  A table the compaction did not
touch keeps its block object.  Sorted prefixes and the planner's
zone-map push-down describe head rows only.  ``cluster()`` folds every
tail back into a head.

Each run's subject column is ascending, not dense: clustering
(:func:`repro.storage.loader.plan_subject_clustering`) permutes the member
subjects' OIDs *among themselves*, so other terms' OIDs may lie between a
block's, and a subject's row is a binary search (:meth:`CSBlock.locate`),
not a subtraction.  Dense intervals — the paper's layout — are the ROADMAP
item "Dense subject OIDs" (item 4).

Triples that do not fit — subjects outside every CS, properties not in the
subject's CS, multi-valued (``0..n``) properties, and second/third values of
nominally single-valued properties in dirty data — stay behind in a basic
PSO triple table (the *irregular* store), exactly as Figure 3 of the paper
shows.  Queries consult both parts, so no data is ever lost by clustering.

While writes are pending, a brand-new subject whose property set files it
in a table is a row of that table's *pending tail block*
(:class:`PendingTails`): an all-tail :class:`CSBlock` of the pending rows
beside the table's block, read by the same scan code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..columnar import BufferPool, Column, NULL_OID, ZoneMap
from ..cs import EmergentSchema, Multiplicity, match_characteristic_set
from ..cs.detect import group_equal_runs, run_starts
from ..errors import StorageError
from .triple_table import TripleTable


@dataclass
class CSBlock:
    """One characteristic set's physical block: subjects plus aligned columns.

    The rows are two runs, each subject-ascending: the *head*, rows
    ``[0, head_rows)``, which clustering sub-ordered and zone-mapped and a
    compaction keeps, and the *tail*, the rows after it, which compactions
    added since (newcomers and changed members).  A block that clustering,
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


@dataclass(frozen=True)
class PendingTails:
    """The tail blocks of one delta version (:meth:`ClusteredStore.pending_tails`)."""

    blocks: Dict[int, CSBlock]
    """CS id -> the tail block beside that table's head block."""
    subjects: np.ndarray
    """Every tail row's subject, ascending."""


_NO_TAILS = PendingTails({}, np.empty(0, dtype=np.int64))


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


def _column_properties(table) -> List[int]:
    """The properties a table's block holds a column for: all but ``MANY``."""
    return [p for p, spec in table.properties.items()
            if spec.multiplicity is not Multiplicity.MANY]


def _column_values(matrix: np.ndarray, rows: np.ndarray, column_props: List[int],
                   subjects: np.ndarray) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """The column values of ``subjects`` (ascending) from their rows
    ``rows`` of ``matrix`` (row indexes in row order), and the rows the
    columns hold.

    The first value of a (property, subject) cell in row order fills the
    column.  Every other row — a later value of a nominally single-valued
    property, a ``MANY`` property, a property the table does not have — is
    left to the irregular table.
    """
    width = subjects.size
    rows = rows[np.isin(matrix[rows, 1], column_props)]
    positions = np.searchsorted(subjects, matrix[rows, 0])
    # one key per cell, ordered by (property, position); ``first`` is each
    # cell's first row in row order
    cells, first = np.unique(matrix[rows, 1] * width + positions, return_index=True)
    stored = rows[first]
    data: Dict[int, np.ndarray] = {}
    for p in column_props:
        lo, hi = np.searchsorted(cells, (p * width, (p + 1) * width))
        values = np.full(width, NULL_OID, dtype=np.int64)
        values[cells[lo:hi] - p * width] = matrix[stored[lo:hi], 2]
        data[p] = values
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
        self._tail_tables: Dict[frozenset, int] = {}

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
            data, stored = _column_values(matrix, by_cs[lo:hi], _column_properties(table),
                                          subjects)
            blocks.append(_make_block(table, subjects, data, subjects.size, None,
                                      pool, zone_size, name))
            in_block[stored] = True
        irregular = TripleTable(matrix[~in_block], order="pso", pool=pool,
                                name=f"{name}.irregular")
        return cls(blocks=blocks, irregular=irregular, schema=schema, pool=pool)

    def compacted(self, triple_matrix: np.ndarray, schema: EmergentSchema,
                  touched: np.ndarray, zone_size: int = 1024,
                  name: str = "clustered") -> "ClusteredStore":
        """This store after a compaction: ``triple_matrix`` is the merged
        base, ``schema`` the maintained schema (same tables, same columns)
        and ``touched`` the sorted subjects the delta inserted or deleted
        triples of.

        A table no touched subject is a member of, before or after, keeps
        its :class:`CSBlock` object.  Another keeps, in head order, the head
        rows of its untouched members — a subsequence of a sorted run, so
        its :attr:`~CSBlock.sorted_properties` still hold — and its other
        members (untouched tail rows, changed members, newcomers) are its
        tail, subject-ascending and built from their merged triples like a
        block.  The irregular table keeps the untouched subjects' triples
        and takes what the rebuilt tails do not hold.
        """
        matrix = np.asarray(triple_matrix, dtype=np.int64).reshape(-1, 3)
        # a touched subject's table before and after the compaction
        affected = set(np.concatenate([self.schema.membership.cs_of(touched),
                                       schema.membership.cs_of(touched)]).tolist())
        blocks: Dict[int, CSBlock] = {}
        heads: Dict[int, Tuple[CSBlock, np.ndarray, np.ndarray]] = {}
        for cs_id in schema.tables:
            block, members = self._by_cs[cs_id], schema.membership.members(cs_id)
            if cs_id not in affected:
                blocks[cs_id] = block
                continue
            head_subjects = block.subject_column.data[:block.head_rows]
            kept = np.flatnonzero(~np.isin(head_subjects, touched))
            heads[cs_id] = (block, kept,
                            np.setdiff1d(members, head_subjects[kept], assume_unique=True))
        # the subjects whose triples are filed again: the touched ones and
        # every tail member of a table that changed
        rebuilt = np.unique(np.concatenate([touched] + [tail for _b, _k, tail in heads.values()]))
        rows = np.flatnonzero(np.isin(matrix[:, 0], rebuilt))
        row_cs = schema.membership.cs_of(matrix[rows, 0])
        in_block = np.zeros(matrix.shape[0], dtype=bool)
        for cs_id, (head, kept, tail_subjects) in heads.items():
            table = schema.tables[cs_id]
            tail, stored = _column_values(matrix, rows[row_cs == cs_id],
                                          _column_properties(table), tail_subjects)
            in_block[stored] = True
            blocks[cs_id] = _make_block(
                table, np.concatenate([head.subject_column.data[kept], tail_subjects]),
                {p: np.concatenate([head.column(p).data[kept], values])
                 for p, values in tail.items()},
                kept.size, head if kept.size == head.head_rows else None,
                self.pool, zone_size, name, head.sorted_properties)
        return ClusteredStore(
            blocks=[blocks[cs_id] for cs_id in sorted(blocks)],
            irregular=self.irregular.with_subjects_replaced(rebuilt, matrix[rows[~in_block[rows]]]),
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

    def pending_tails(self, rows: np.ndarray, name: str) -> PendingTails:
        """The tail blocks of pending inserts ``rows``: an ``(n, 3)`` S/P/O
        array sorted by subject, then predicate, of subjects that have one
        pending value per predicate (which the delta knows).

        Such a subject is a tail row when it also has no base triple — no
        table, no irregular triple, hence no tombstone either — and
        :func:`match_characteristic_set` files its property set in a table
        whose block holds every one of its predicates as a column: then a
        compaction would make it a row of that block, and until then it is
        one of the tail's.  Admission runs once per distinct property set
        (:meth:`_tail_table`).  A tail is a :class:`CSBlock` with its head's
        columns and label, its rows subject-ordered and all tail rows
        (``head_rows`` 0); it has no zone maps and no sorted columns (a tail
        is one zone), and its column segments are named under ``name``.
        """
        if not rows.size:
            return _NO_TAILS
        starts = run_starts(rows[:, 0])
        subjects = rows[starts, 0]
        sizes = np.diff(np.append(starts, rows.shape[0]))
        # a subject's predicates are an ascending, distinct run, so equal
        # property sets are equal runs
        group, first = group_equal_runs(rows[:, 1], starts)
        tables = np.asarray([self._tail_table(rows[start:start + size, 1])
                             for start, size in zip(starts[first].tolist(), sizes[first].tolist())],
                            dtype=np.int64)[group]
        # no base triple: not a member, no irregular triple
        tables[self.schema.membership.cs_of(subjects) >= 0] = -1
        irregular = self.irregular_subjects()
        if irregular.size:
            at = np.searchsorted(irregular, subjects)
            tables[irregular.take(at, mode="clip") == subjects] = -1
        row_tables = np.repeat(tables, sizes)
        blocks = {cs_id: self._tail_block(self._by_cs[cs_id], subjects[tables == cs_id],
                                          rows[row_tables == cs_id], name)
                  for cs_id in np.unique(tables[tables >= 0]).tolist()}
        return PendingTails(blocks, subjects[tables >= 0])

    def _tail_table(self, predicates: np.ndarray) -> int:
        """The table whose tail holds a newcomer with these predicates, or
        ``-1``: decided once per property set and kept (the store's schema
        and blocks never change)."""
        props = frozenset(predicates.tolist())
        cs_id = self._tail_tables.get(props)
        if cs_id is None:
            block = self._by_cs.get(match_characteristic_set(self.schema, props))
            cs_id = self._tail_tables[props] = (
                block.cs_id if block is not None and all(map(block.has_property, props)) else -1)
        return cs_id

    def _tail_block(self, head: CSBlock, members: np.ndarray, rows: np.ndarray,
                    name: str) -> CSBlock:
        """The tail of ``head`` holding ``members`` (ascending), whose
        pending rows are ``rows``: one value per column cell, NULL where
        a member has none."""
        predicates = np.fromiter(head.property_columns, dtype=np.int64,
                                 count=len(head.property_columns))
        order = np.argsort(predicates)
        slots = order[np.searchsorted(predicates[order], rows[:, 1])]
        cells = np.full((predicates.size, members.size), NULL_OID, dtype=np.int64)
        cells[slots, np.searchsorted(members, rows[:, 0])] = rows[:, 2]
        prefix = f"{name}.cs{head.cs_id}"
        return CSBlock(
            cs_id=head.cs_id,
            label=head.label,
            subject_column=Column(f"{prefix}.subject", members, sorted_ascending=True,
                                  pool=self.pool),
            property_columns={int(p): Column(f"{prefix}.p{p}", values, pool=self.pool)
                              for p, values in zip(predicates.tolist(), cells)},
            head_rows=0,
        )

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
