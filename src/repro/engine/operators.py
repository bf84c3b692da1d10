"""Classical physical operators: index scans, joins, filters, projection,
ordering, aggregation.

These operators implement the *Default* plan scheme of Table I: each triple
pattern of a SPARQL query becomes an index scan against the exhaustive
permutation store, and patterns sharing a subject are combined with
nested-loop index joins (one per additional property) or hash joins — the
exact shape the paper criticizes for its lack of locality.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from ..columnar import gather_columns
from ..errors import ExecutionError
from . import kernels
from .bindings import BindingTable, cross_join, emit_batches, joined_rows
from .context import ExecutionContext
from .expressions import AggregateSpec
from .mergescan import merge_pattern_rows, merged_subject_matches
from .plan import (NO_OIDS, OidRange, PatternTerm, PhysicalOperator, TriplePatternPlan,
                   is_bounded, run_tail)


class IndexScanOp(PhysicalOperator):
    """Scan one triple pattern against the exhaustive index store.

    Constant slots are pushed into the permutation prefix.  With the
    predicate bound, an OID range on the subject (from a zone-map-derived
    restriction) narrows PSO by binary search and one on the object (from a
    FILTER) is then a post-filter; an object range alone narrows POS.  Any
    other range is a post-filter.
    """

    def __init__(self, pattern: TriplePatternPlan,
                 object_range: Optional[OidRange] = None,
                 subject_range: Optional[OidRange] = None) -> None:
        self.pattern = pattern
        self.object_range = object_range
        self.subject_range = subject_range

    def describe(self) -> str:
        parts = [f"IndexScan[{self.pattern.describe()}]"]
        if is_bounded(self.object_range):
            parts.append(f"obj{self.object_range.describe()}")
        if is_bounded(self.subject_range):
            parts.append(f"subj{self.subject_range.describe()}")
        return " ".join(parts)

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        store = context.index_store
        s, p, o = self.pattern.subject, self.pattern.predicate, self.pattern.object

        # Fast paths: predicate bound plus a range on the subject (PSO prefix)
        # or, failing that, on the object (POS prefix), narrowed by binary
        # search; _bind() applies the object range as a post-filter either way.
        tail = run_tail(self.object_range, context.dictionary)
        table = None
        if not p.is_variable and s.is_variable and is_bounded(self.subject_range):
            # subjects are never literals: a subject range has no tail
            table, intervals = store.within_predicate("s"), self.subject_range.intervals()
        elif not p.is_variable and o.is_variable and is_bounded(self.object_range):
            table, intervals = store.within_predicate("o"), self.object_range.intervals(tail)
        if table is not None:
            ranges = table.narrowed_row_ranges(p.oid, intervals)
            rows = self._filter_constant_slots(table.fetch_ranges(ranges, fetch="spo"))
        else:
            rows = store.scan_pattern(
                s=None if s.is_variable else s.oid,
                p=None if p.is_variable else p.oid,
                o=None if o.is_variable else o.oid,
                fetch="spo",
            )
        delta = context.active_delta()
        if delta is not None:
            rows = merge_pattern_rows(
                delta, rows,
                s=None if s.is_variable else s.oid,
                p=None if p.is_variable else p.oid,
                o=None if o.is_variable else o.oid,
            )
        yield from emit_batches(self._bind(rows, tail), context.batch_size)

    def _filter_constant_slots(self, rows: np.ndarray) -> np.ndarray:
        """Re-apply constant S/O slots that a fast-path range scan did not cover."""
        if rows.size == 0:
            return rows
        mask = np.ones(rows.shape[0], dtype=bool)
        if not self.pattern.subject.is_variable:
            mask &= rows[:, 0] == self.pattern.subject.oid
        if not self.pattern.object.is_variable:
            mask &= rows[:, 2] == self.pattern.object.oid
        return rows[mask]

    def _bind(self, rows: np.ndarray, tail: np.ndarray) -> BindingTable:
        columns = {}
        slots = {"s": 0, "p": 1, "o": 2}
        for component, term in (("s", self.pattern.subject), ("p", self.pattern.predicate),
                                ("o", self.pattern.object)):
            if not term.is_variable:
                continue
            values = rows[:, slots[component]] if rows.size else np.empty(0, dtype=np.int64)
            if term.var in columns:
                # repeated variable (e.g. ``?x <p> ?x``): both occurrences
                # must bind the same OID
                keep = columns[term.var] == values
                rows = rows[keep]
                columns = {name: data[keep] for name, data in columns.items()}
            else:
                columns[term.var] = values
        table = BindingTable(columns)
        table = _apply_range(table, self.pattern.object, self.object_range, tail)
        # subjects are never literals: a subject range has no tail to match
        return _apply_range(table, self.pattern.subject, self.subject_range)


class NestedLoopIndexJoinOp(PhysicalOperator):
    """For every input binding, probe the index for one more pattern.

    Keyed on the subject (``key="s"``), this is the per-property join of the
    Default scheme: given the subjects produced so far, each additional
    property is fetched by probing the PSO index once per subject — "hitting
    the index all over the place".  The probes are vectorized but the *page
    accounting* reflects the scattered positions touched, which is what makes
    this operator slow in the cold, parse-order configuration.

    A variable predicate (``?s ?p ?o`` with ``?s`` bound by the plan so far,
    as in ``DELETE WHERE { ?s <p> <o> . ?s ?p ?o }``) probes SPO by subject
    prefix instead, so its cost follows the bound subjects, not the store.

    Keyed on the object (``key="o"``, predicate bound), it is Fig. 4(b)'s
    foreign-key hop: the child binds the referenced subjects, and each input
    row probes the POS slice of the linking predicate for the subjects that
    reference it — POS is a join index of every predicate, so the hop reads
    the pairs of its input and never the whole predicate.

    Either way a range filters the input where the child binds its variable
    (no probe is spent on a row it drops) and the matches where the probe
    binds it: the object range with its tail literals, the subject range
    (subjects are never literals, so it has no tail).  Output is input-major,
    so it is the same at every batch size.
    """

    is_join = True

    def __init__(self, child: PhysicalOperator, pattern: TriplePatternPlan,
                 object_range: Optional[OidRange] = None,
                 subject_range: Optional[OidRange] = None, key: str = "s") -> None:
        if key not in ("s", "o"):
            raise ExecutionError(f"NestedLoopIndexJoin keys on 's' or 'o', not {key!r}")
        if key == "s" and not pattern.subject.is_variable:
            raise ExecutionError("NestedLoopIndexJoin expects a variable subject")
        if key == "o" and (pattern.predicate.is_variable or not pattern.object.is_variable):
            raise ExecutionError(
                "an object-keyed NestedLoopIndexJoin expects a constant predicate "
                "and a variable object")
        self.child = child
        self.pattern = pattern
        self.object_range = object_range
        self.subject_range = subject_range
        self.key = key

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        text = f"NestedLoopIndexJoin[{self.pattern.describe()}]"
        if is_bounded(self.subject_range):
            text += f" subj{self.subject_range.describe()}"
        return text

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        predicate = self.pattern.predicate
        if predicate.is_variable:
            index = context.index_store.table("spo")
            prefix = (0, len(index))
        else:
            index = context.index_store.within_predicate(self.key)
            prefix = index.prefix_row_range(predicate.oid)
        tail = run_tail(self.object_range, context.dictionary)
        for batch in self.child.batches(context):
            yield self._probe(batch, context, index, prefix, tail)

    def _in_range(self, table: BindingTable, tail: np.ndarray) -> BindingTable:
        table = _apply_range(table, self.pattern.object, self.object_range, tail)
        return _apply_range(table, self.pattern.subject, self.subject_range)

    def _probe(self, input_table: BindingTable, context: ExecutionContext,
               index, prefix: tuple[int, int], tail: np.ndarray) -> BindingTable:
        pattern, key = self.pattern, self.key
        key_var = (pattern.subject if key == "s" else pattern.object).var
        if not input_table.has(key_var):
            raise ExecutionError(f"join variable ?{key_var} not produced by child operator")

        input_table = self._in_range(input_table, tail)
        keys = input_table.column(key_var)
        if keys.size == 0:
            return BindingTable.empty(
                list(dict.fromkeys([*input_table.variables, *pattern.variables()])))

        lo_row, hi_row = prefix
        key_column = index.column(key)

        # one probe per input row (vectorized, but accounted per probe)
        input_rows_arr, offsets = kernels.merge_join_indices(key_column.data[lo_row:hi_row], keys)
        context.tracker.tuples_probed += int(keys.size) * 2
        matched = offsets + lo_row

        # the slots the probe binds, one column each: (predicate,) object by
        # subject, subject by object
        if key == "o":
            fetch, terms = "s", (pattern.subject,)
        elif pattern.predicate.is_variable:
            fetch, terms = "po", (pattern.predicate, pattern.object)
        else:
            fetch, terms = "o", (pattern.object,)
        if matched.size:
            # page accounting: the probes hit the columns at scattered
            # positions (the key column's values are the probe's own)
            *found, _keys = gather_columns([*map(index.column, fetch), key_column], matched)
            found = np.column_stack(found)
        else:
            found = np.empty((0, len(fetch)), dtype=np.int64)

        delta = context.active_delta()
        if delta is not None:
            # drop tombstoned base matches, then probe the delta for every key
            if input_rows_arr.size:
                base_keys = keys[input_rows_arr]
                if pattern.predicate.is_variable:
                    dead = delta.tombstone_mask(np.column_stack([base_keys, found]))
                else:
                    ends = (base_keys, found[:, 0]) if key == "s" else (found[:, 0], base_keys)
                    dead = delta.pair_tombstone_mask(pattern.predicate.oid, *ends)
                input_rows_arr, found = input_rows_arr[~dead], found[~dead]
            delta_rows, delta_found = merged_subject_matches(
                delta, None if pattern.predicate.is_variable else pattern.predicate.oid,
                keys, fetch, key)
            if delta_rows.size:
                input_rows_arr = np.concatenate([input_rows_arr, delta_rows])
                found = np.concatenate([found, delta_found])
                # keep the output order independent of the batch size: group
                # base and delta matches per input row, in input-row order
                order = np.argsort(input_rows_arr, kind="stable")
                input_rows_arr, found = input_rows_arr[order], found[order]

        result = input_table.select_rows(input_rows_arr)
        keep = np.ones(result.num_rows, dtype=bool)
        for term, values in zip(terms, found.T):
            if not term.is_variable:
                keep &= values == term.oid
            elif result.has(term.var):
                keep &= result.column(term.var) == values
            else:
                result = result.with_column(term.var, values)
        if not keep.all():
            result = result.filter_mask(keep)
        return self._in_range(result, tail)


class HashJoinOp(PhysicalOperator):
    """Hash join of two sub-plans on their shared variables."""

    is_join = True

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 join_vars: Optional[Sequence[str]] = None) -> None:
        self.left = left
        self.right = right
        self.join_vars = list(join_vars) if join_vars is not None else None

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.left, self.right)

    def describe(self) -> str:
        on = ", ".join(self.join_vars) if self.join_vars else "<auto>"
        return f"HashJoin[on {on}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        # drain the left child as the build side, stream the right as probe;
        # the build side is keyed once, at the first probe batch
        build = self.left.execute(context)
        context.tracker.tuples_probed += build.num_rows
        join_vars = self.join_vars
        index: Optional[kernels.JoinIndex] = None
        for probe in self.right.batches(context):
            if join_vars is None:
                join_vars = sorted(set(build.variables) & set(probe.variables))
            context.tracker.tuples_probed += probe.num_rows
            if not join_vars:
                yield cross_join(probe, build)
                continue
            if index is None:
                index = kernels.JoinIndex([build.column(name) for name in join_vars],
                                          probe.num_rows)
            matches = index.probe([probe.column(name) for name in join_vars])
            yield joined_rows(build, probe, *matches)


class FilterNotEqualOp(PhysicalOperator):
    """Keep rows where an OID column differs from a constant OID."""

    def __init__(self, child: PhysicalOperator, var: str, oid: int) -> None:
        self.child = child
        self.var = var
        self.oid = int(oid)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"FilterNotEqual[?{self.var} != #{self.oid}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        for batch in self.child.batches(context):
            context.tracker.tuples_scanned += batch.num_rows
            yield batch.filter_mask(kernels.neq_mask(batch.column(self.var), self.oid))


class ProjectOp(PhysicalOperator):
    """Keep only the given columns, each under its output name."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[tuple[str, str]]) -> None:
        self.child = child
        self.columns = list(columns)
        """``(variable, output name)`` pairs; SPARQL outputs a variable
        under its own name, SQL under the select item's."""

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        rendered = (f"?{var}" if var == name else f"?{var} AS {name}" for var, name in self.columns)
        return f"Project[{', '.join(rendered)}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        for batch in self.child.batches(context):
            yield BindingTable({name: batch.column(var) for var, name in self.columns})


class DistinctOp(PhysicalOperator):
    """Remove duplicate rows (streaming, first occurrence wins).

    Dedup state spans batches, so duplicates straddling a batch boundary are
    still dropped exactly once.
    """

    def __init__(self, child: PhysicalOperator) -> None:
        self.child = child

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        distinct = kernels.StreamingDistinct()
        for table in self.child.batches(context):
            if table.num_rows and table.columns:
                keep = distinct.keep_indices(
                    [table.column(name) for name in sorted(table.columns)])
                table = table.select_rows(keep)
            yield table


class OrderByOp(PhysicalOperator):
    """Sort rows by one or more ``(column, descending)`` keys.

    Ordering normally runs on raw OIDs — the loader's value-ordered literal
    OIDs make OID order equal value order.  Literals appended by updates
    after the last value-ordering pass break that invariant until the next
    ``cluster()``, so a key column holding OIDs past the dictionary's
    value-order watermark is sorted by the dictionary's ranks
    (:meth:`~repro.model.TermDictionary.value_ranks`), which put each tail
    literal where that pass will.
    """

    def __init__(self, child: PhysicalOperator, keys: Sequence[tuple[str, bool]]) -> None:
        self.child = child
        self.keys = list(keys)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(f"?{name}{' desc' if desc else ''}" for name, desc in self.keys)
        return f"OrderBy[{rendered}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        table = self.child.execute(context)  # blocking: a sort needs all rows
        yield from emit_batches(self._sorted(table, context), context.batch_size)

    def _sorted(self, table: BindingTable, context: ExecutionContext) -> BindingTable:
        watermark = context.dictionary.value_order_watermark
        if len(context.dictionary) <= watermark:
            return table.sort_by(self.keys)
        sort_table = table
        for name, _descending in self.keys:
            if not sort_table.has(name):
                continue
            values = sort_table.column(name)
            if values.dtype.kind != "i" or not (values >= watermark).any():
                continue
            sort_table = sort_table.with_column(name, context.dictionary.value_ranks(values))
        if sort_table is table:
            return table.sort_by(self.keys)
        return table.select_rows(sort_table.sort_permutation(self.keys))


class LimitOp(PhysicalOperator):
    """Keep at most N rows."""

    def __init__(self, child: PhysicalOperator, limit: int) -> None:
        self.child = child
        self.limit = int(limit)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit[{self.limit}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        remaining = self.limit
        for table in self.child.batches(context):
            if table.num_rows > remaining:
                table = table.head(remaining)
            remaining -= table.num_rows
            yield table
            if remaining <= 0:
                # early termination: the child is no longer pulled; leaving
                # the loop closes its stream
                return


class AggregateOp(PhysicalOperator):
    """Group-by aggregation with numeric aggregate expressions."""

    def __init__(self, child: PhysicalOperator, group_vars: Sequence[str],
                 aggregates: Sequence[AggregateSpec]) -> None:
        self.child = child
        self.group_vars = list(group_vars)
        self.aggregates = list(aggregates)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        groups = ", ".join("?" + v for v in self.group_vars) or "<all>"
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Aggregate[by {groups}: {aggs}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        table = self.child.execute(context)  # blocking: aggregation needs all rows
        yield from emit_batches(self._aggregate(table, context), context.batch_size)

    def _aggregate(self, table: BindingTable, context: ExecutionContext) -> BindingTable:
        evaluated = {spec.alias: spec.expression.evaluate(table, context.dictionary)
                     for spec in self.aggregates}

        if not self.group_vars:
            columns = {alias: np.asarray([spec.compute(evaluated[alias])], dtype=np.float64)
                       for alias, spec in zip(evaluated, self.aggregates)}
            return BindingTable(columns)

        group_arrays = [table.column(name) for name in self.group_vars]
        representatives, group_ids = kernels.group_rows(group_arrays)
        out_columns: dict[str, np.ndarray] = {}
        for name, values in zip(self.group_vars, group_arrays):
            out_columns[name] = values[representatives].astype(np.int64, copy=False)
        for spec in self.aggregates:
            out_columns[spec.alias] = kernels.grouped_aggregate(
                spec.func, group_ids, representatives.size, evaluated[spec.alias])
        context.tracker.tuples_scanned += table.num_rows
        return BindingTable(out_columns)


class MaterializedOp(PhysicalOperator):
    """Wrap a pre-computed binding table as an operator (used in tests and
    by RDFjoin to feed candidate subjects)."""

    def __init__(self, table: BindingTable, label: str = "materialized") -> None:
        self.table = table
        self.label = label

    def describe(self) -> str:
        return f"Materialized[{self.label}: {self.table.num_rows} rows]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        yield from emit_batches(self.table, context.batch_size)


# -- helpers --------------------------------------------------------------------------


def _apply_range(table: BindingTable, term: PatternTerm, oid_range: Optional[OidRange],
                 tail: np.ndarray = NO_OIDS) -> BindingTable:
    if not is_bounded(oid_range) or not term.is_variable:
        return table
    if not table.has(term.var):
        return table
    values = table.column(term.var)
    return table.filter_mask(oid_range.mask(values, tail))
