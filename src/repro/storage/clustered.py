"""CS-clustered storage: the paper's self-organizing physical design.

After schema discovery, the triples of every characteristic set are stored
*CS-wise*: the member subjects form one contiguous stretch of subject OIDs
and each property of the CS is one aligned column over that stretch (missing
0..1 values are SQL NULLs).  A whole star pattern over one CS then reads a
few aligned column ranges instead of performing one self-join per property.

Triples that do not fit — subjects outside every CS, properties not in the
subject's CS, multi-valued (``0..n``) properties, and second/third values of
nominally single-valued properties in dirty data — stay behind in a basic
PSO triple table (the *irregular* store), exactly as Figure 3 of the paper
shows.  Queries consult both parts, so no data is ever lost by clustering.
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
    """One characteristic set's physical block: subjects plus aligned columns."""

    cs_id: int
    label: str
    subject_column: Column
    property_columns: Dict[int, Column] = field(default_factory=dict)
    zone_maps: Dict[int, ZoneMap] = field(default_factory=dict)
    sorted_properties: frozenset = frozenset()
    """Predicates whose column is non-decreasing over its non-NULL prefix —
    the result of sub-ordering the CS on that property at clustering time.
    Range predicates on these columns can binary-search instead of scanning."""

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

    def positions_of_subjects(self, subject_oids: np.ndarray) -> np.ndarray:
        """Row positions of the given subject OIDs (missing ones dropped).

        The subject column is sorted ascending, so this is a vectorized
        binary search.
        """
        subjects = self.subject_column.data
        positions = np.searchsorted(subjects, subject_oids)
        positions = np.clip(positions, 0, len(subjects) - 1) if len(subjects) else positions
        if len(subjects) == 0:
            return np.empty(0, dtype=np.int64)
        valid = subjects[positions] == subject_oids
        return positions[valid].astype(np.int64)


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
        """Build the clustered store from an encoded triple matrix and schema.

        Every aligned property column gets a zone map of ``zone_size`` rows
        per zone; whether a plan uses them is the planner's choice.
        """
        matrix = np.asarray(triple_matrix, dtype=np.int64).reshape(-1, 3)
        blocks: List[CSBlock] = []
        irregular_rows: List[np.ndarray] = []

        subject_cs = schema.subject_to_cs
        cs_rows: Dict[int, List[int]] = {cs_id: [] for cs_id in schema.tables}
        irregular_mask = np.zeros(matrix.shape[0], dtype=bool)

        for row_idx in range(matrix.shape[0]):
            s = int(matrix[row_idx, 0])
            p = int(matrix[row_idx, 1])
            cs_id = subject_cs.get(s)
            if cs_id is None:
                irregular_mask[row_idx] = True
                continue
            table = schema.tables[cs_id]
            spec = table.properties.get(p)
            if spec is None or spec.multiplicity is Multiplicity.MANY:
                irregular_mask[row_idx] = True
                continue
            cs_rows[cs_id].append(row_idx)

        for cs_id in sorted(cs_rows):
            table = schema.tables[cs_id]
            rows = cs_rows[cs_id]
            block, spilled = cls._build_block(matrix, rows, table, pool, zone_size, name)
            blocks.append(block)
            if spilled.size:
                irregular_rows.append(spilled)

        irregular_matrix = matrix[irregular_mask]
        if irregular_rows:
            irregular_matrix = np.vstack([irregular_matrix] + irregular_rows) if irregular_matrix.size \
                else np.vstack(irregular_rows)
        irregular = TripleTable(irregular_matrix, order="pso", pool=pool, name=f"{name}.irregular")
        return cls(blocks=blocks, irregular=irregular, schema=schema, pool=pool)

    @staticmethod
    def _build_block(
        matrix: np.ndarray,
        row_indexes: List[int],
        table,
        pool: Optional[BufferPool],
        zone_size: int,
        name: str,
    ) -> Tuple[CSBlock, np.ndarray]:
        """Build one CS block; returns the block and any spilled (extra) rows."""
        subjects = np.asarray(sorted(table.subjects), dtype=np.int64)
        position_of = {int(s): i for i, s in enumerate(subjects)}
        width = len(subjects)

        column_props = [p for p, spec in table.properties.items()
                        if spec.multiplicity is not Multiplicity.MANY]
        data: Dict[int, np.ndarray] = {
            p: np.full(width, NULL_OID, dtype=np.int64) for p in column_props
        }
        spilled: List[Tuple[int, int, int]] = []

        for row_idx in row_indexes:
            s, p, o = (int(v) for v in matrix[row_idx])
            position = position_of.get(s)
            if position is None:
                spilled.append((s, p, o))
                continue
            column = data.get(p)
            if column is None:
                spilled.append((s, p, o))
                continue
            if column[position] == NULL_OID:
                column[position] = o
            else:
                # second value of a nominally single-valued property: spill
                spilled.append((s, p, o))

        label = table.label or f"cs{table.cs_id}"
        subject_column = Column(
            segment_id=f"{name}.cs{table.cs_id}.subject",
            values=subjects,
            sorted_ascending=True,
            pool=pool,
        )
        property_columns = {
            p: Column(
                segment_id=f"{name}.cs{table.cs_id}.p{p}",
                values=values,
                sorted_ascending=False,
                pool=pool,
            )
            for p, values in data.items()
        }
        zone_maps = {p: ZoneMap.build(column.data, zone_size=zone_size)
                     for p, column in property_columns.items()}

        sorted_properties = frozenset(
            p for p, values in data.items() if _is_sorted_ignoring_nulls(values)
        )

        block = CSBlock(
            cs_id=table.cs_id,
            label=label,
            subject_column=subject_column,
            property_columns=property_columns,
            zone_maps=zone_maps,
            sorted_properties=sorted_properties,
        )
        spilled_matrix = np.asarray(spilled, dtype=np.int64).reshape(-1, 3) if spilled \
            else np.empty((0, 3), dtype=np.int64)
        return block, spilled_matrix

    # -- access -------------------------------------------------------------------

    def block(self, cs_id: int) -> CSBlock:
        if cs_id not in self._by_cs:
            raise StorageError(f"no clustered block for CS {cs_id}")
        return self._by_cs[cs_id]

    def find_block(self, cs_id: Optional[int]) -> Optional[CSBlock]:
        """The block of one characteristic set, or ``None`` when it has none."""
        return self._by_cs.get(cs_id)

    def block_of_subject(self, subject_oid: int) -> Optional[CSBlock]:
        return self.find_block(self.schema.subject_to_cs.get(subject_oid))

    def blocks_with_properties(self, predicate_oids: Iterable[int]) -> List[CSBlock]:
        """Blocks whose CS contains every one of the given predicates."""
        wanted = list(predicate_oids)
        return [block for block in self.blocks
                if all(block.has_property(p) or self._cs_has_many(block.cs_id, p) for p in wanted)
                and all(block.has_property(p) for p in wanted)]

    def _cs_has_many(self, cs_id: int, predicate_oid: int) -> bool:
        table = self.schema.tables.get(cs_id)
        if table is None:
            return False
        spec = table.properties.get(predicate_oid)
        return spec is not None and spec.multiplicity is Multiplicity.MANY

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
