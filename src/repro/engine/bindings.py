"""Binding tables: the tuple streams flowing between physical operators.

A :class:`BindingTable` is a small column-oriented relation: a mapping from
variable name to a NumPy array, all of equal length.  OID columns are
``int64``; computed value columns (aggregation inputs/outputs) are
``float64``.  Operators consume and produce binding tables — a stream of
them, one batch at a time —, mirroring how a column store passes BATs
between operators rather than row tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import ExecutionError


class BindingTable:
    """An ordered set of named columns of equal length."""

    def __init__(self, columns: Mapping[str, np.ndarray] | None = None) -> None:
        self.columns: Dict[str, np.ndarray] = {}
        if columns:
            for name, values in columns.items():
                self.columns[name] = np.asarray(values)
        self._validate()

    def _validate(self) -> None:
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"binding table columns have unequal lengths: {lengths}")
        self.num_rows: int = lengths.pop() if lengths else 0
        """Row count; fixed at construction (tables are never mutated)."""

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls, names: Iterable[str] = ()) -> "BindingTable":
        return cls({name: np.empty(0, dtype=np.int64) for name in names})

    def copy(self) -> "BindingTable":
        return BindingTable({name: values.copy() for name, values in self.columns.items()})

    # -- shape ------------------------------------------------------------------

    @property
    def variables(self) -> List[str]:
        return list(self.columns)

    def has(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ExecutionError(f"unknown binding variable {name!r}; have {sorted(self.columns)}")
        return self.columns[name]

    # -- transformations ----------------------------------------------------------

    def with_column(self, name: str, values: np.ndarray) -> "BindingTable":
        """Return a new table with an added/replaced column."""
        values = np.asarray(values)
        if self.columns and len(values) != self.num_rows:
            raise ExecutionError(
                f"column {name!r} has {len(values)} rows, table has {self.num_rows}")
        merged = dict(self.columns)
        merged[name] = values
        return BindingTable(merged)

    def select_rows(self, positions: np.ndarray) -> "BindingTable":
        """Return a new table keeping only the given row positions."""
        return BindingTable({name: values[positions] for name, values in self.columns.items()})

    def filter_mask(self, mask: np.ndarray) -> "BindingTable":
        """Return a new table keeping rows where ``mask`` is True."""
        return BindingTable({name: values[mask] for name, values in self.columns.items()})

    def project(self, names: Sequence[str]) -> "BindingTable":
        """Return a new table containing only the named columns (in order)."""
        return BindingTable({name: self.column(name) for name in names})

    def rename(self, mapping: Mapping[str, str]) -> "BindingTable":
        """Return a new table with columns renamed according to ``mapping``."""
        return BindingTable({mapping.get(name, name): values for name, values in self.columns.items()})

    def concat(self, other: "BindingTable") -> "BindingTable":
        """Vertical union of two tables with identical variables."""
        if not self.columns:
            return other.copy()
        if not other.columns:
            return self.copy()
        if set(self.columns) != set(other.columns):
            raise ExecutionError(
                f"cannot concatenate tables with different variables: "
                f"{sorted(self.columns)} vs {sorted(other.columns)}")
        return BindingTable({
            name: np.concatenate([self.columns[name], other.columns[name]])
            for name in self.columns
        })

    def distinct(self) -> "BindingTable":
        """Return a new table with duplicate rows removed (order not preserved)."""
        if not self.columns or self.num_rows == 0:
            return self.copy()
        names = sorted(self.columns)
        stacked = np.column_stack([np.asarray(self.columns[name], dtype=np.float64) for name in names])
        _, idx = np.unique(stacked, axis=0, return_index=True)
        return self.select_rows(np.sort(idx))

    def sort_permutation(self, keys: Sequence[tuple[str, bool]]) -> np.ndarray:
        """The row permutation that sorts this table by ``(column, descending)``
        keys, first key primary.  Exposed so a caller can sort *another*
        aligned table by this one's keys (ORDER BY re-ranks key columns when
        literal OIDs are temporarily out of value order)."""
        order = np.arange(self.num_rows)
        if self.num_rows == 0 or not keys:
            return order
        # apply keys from least to most significant for a stable lexsort-like result
        for name, descending in reversed(list(keys)):
            values = self.column(name)[order]
            if descending:
                # negate instead of reversing so that ties keep their prior order
                positions = np.argsort(-values.astype(np.float64), kind="stable")
            else:
                positions = np.argsort(values, kind="stable")
            order = order[positions]
        return order

    def sort_by(self, keys: Sequence[tuple[str, bool]]) -> "BindingTable":
        """Sort rows by ``(column, descending)`` keys, first key primary."""
        if self.num_rows == 0 or not keys:
            return self.copy()
        return self.select_rows(self.sort_permutation(keys))

    def head(self, limit: int) -> "BindingTable":
        """Return the first ``limit`` rows."""
        return self.select_rows(np.arange(min(limit, self.num_rows)))

    def slice(self, start: int, stop: int) -> "BindingTable":
        """Return rows ``[start, stop)`` as NumPy views (no copies)."""
        return BindingTable({name: values[start:stop] for name, values in self.columns.items()})

    def payload_bytes(self) -> int:
        """Bytes of binding data the table carries: rows times the per-row
        width of its columns (8-byte OIDs / float64 values) — the profiler's
        per-operator byte accounting."""
        return self.num_rows * sum(values.dtype.itemsize for values in self.columns.values())

    # -- output -------------------------------------------------------------------

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Iterate rows as dictionaries (materializes Python objects)."""
        names = self.variables
        for row in zip(*(self.columns[name].tolist() for name in names)):
            yield dict(zip(names, row))

    def to_set(self, names: Sequence[str] | None = None) -> set[tuple]:
        """Return rows as a set of tuples (for order-insensitive comparison)."""
        names = list(names) if names else self.variables
        return set(zip(*(self.column(name).tolist() for name in names)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BindingTable(vars={self.variables}, rows={self.num_rows})"


def cross_join(left: BindingTable, right: BindingTable) -> BindingTable:
    """Cartesian product of two binding tables with disjoint variables."""
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise ExecutionError(f"cross join requires disjoint variables; shared: {sorted(overlap)}")
    n_left, n_right = left.num_rows, right.num_rows
    left_idx = np.repeat(np.arange(n_left), n_right)
    right_idx = np.tile(np.arange(n_right), n_left)
    columns: Dict[str, np.ndarray] = {}
    for name, values in left.columns.items():
        columns[name] = values[left_idx]
    for name, values in right.columns.items():
        columns[name] = values[right_idx]
    return BindingTable(columns)


def joined_rows(build: BindingTable, probe: BindingTable,
                build_rows: np.ndarray, probe_rows: np.ndarray) -> BindingTable:
    """The join output of matching ``(build_row, probe_row)`` pairs: the
    build side's columns, then the probe side's others."""
    columns = {name: values[build_rows] for name, values in build.columns.items()}
    for name, values in probe.columns.items():
        if name not in columns:
            columns[name] = values[probe_rows]
    return BindingTable(columns)


def concat_tables(tables: Sequence[BindingTable]) -> BindingTable:
    """Single-pass vertical union of many tables with identical variables.

    Unlike chained :meth:`BindingTable.concat` this copies every column once,
    which keeps draining a size-1 batch stream linear instead of quadratic.
    """
    live = [table for table in tables if table.num_rows]
    if not live:
        return tables[0] if tables else BindingTable.empty()
    if len(live) == 1:
        return live[0]
    names = live[0].variables
    return BindingTable({
        name: np.concatenate([table.column(name) for table in live])
        for name in names
    })


def emit_batches(table: BindingTable, batch_size: int) -> Iterator[BindingTable]:
    """Yield a materialized table as a sequence of batch-sized slices.

    Blocking operators (scans, sorts, aggregates) compute their full output
    and stream it out through this.  At least one batch is always yielded —
    an empty result still gives one schema-complete empty batch, which
    downstream operators rely on to learn their input variables.
    """
    total = table.num_rows
    if total == 0:
        yield table.slice(0, 0)
    for start in range(0, total, batch_size):
        yield table.slice(start, min(total, start + batch_size))


def coalesce_batches(batches: Iterable[BindingTable], batch_size: int) -> Iterator[BindingTable]:
    """The rows of a batch stream, in stream order, regrouped into tables
    of at least ``batch_size`` rows (the last may hold fewer).

    The inverse of :func:`emit_batches`, for an operator whose work per
    input batch has a fixed part — RDFjoin evaluates its star once per
    table — behind a selective child that passes on under-full batches.
    At most ``ceil(rows / batch_size)`` tables come out of ``rows`` rows; a
    stream with no row still gives one schema-complete empty table.
    """
    pending: List[BindingTable] = []
    rows = 0
    emitted = False
    last: Optional[BindingTable] = None
    for last in batches:
        if last.num_rows:
            pending.append(last)
            rows += last.num_rows
        if rows >= batch_size:
            yield concat_tables(pending)
            pending, rows, emitted = [], 0, True
    if last is not None and (pending or not emitted):
        yield concat_tables(pending or [last])
