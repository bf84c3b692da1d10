"""RDFscan and RDFjoin: the paper's star-pattern operators.

``RDFscan`` delivers the bindings of a whole star pattern (several
properties of one subject variable) in a single operator invocation.  Over
the CS-clustered store this is join-free: the properties of a characteristic
set are stored as aligned columns, so evaluating the star is a conjunction
of per-column predicates followed by a gather of the output columns.  What
no block holds — every subject of a parse-order store, the residual
subjects of a clustered one — is answered by one evaluator over each
property's subject-sorted ``(subject, object)`` pairs
(:func:`_star_from_pairs`): still one operator, but without the aligned
locality.

``RDFjoin`` is the variant that receives a stream of candidate subjects from
another operator (the paper relates it to the "Pivot Index Scan"): it
fetches the star's properties only for those subjects.  It coalesces its
child's under-full batches up to the batch size first, so a selective child
does not make it evaluate the star once per fragment.  Over the clustered
store each input row is then answered by position: one binary search per
star block finds the row of the input row's subject, and the star's columns
are gathered there — a positional fetch from the aligned columns, MonetDB's
*leftfetchjoin* — in input-row order, so a block-resident subject needs no
deduplication and no join back.  Only input rows whose subject is residual
(irregular or multi-valued, in the base or by a pending write) are answered
as a set: their distinct subjects are scanned, subjects ascending, and each
input row fans out over its subject's run of star rows
(:func:`_join_candidates`).

While a write is pending, each star block is followed by the tail block
the version filed for its table (``updates/delta.py:Filing``): every
written subject is a row of the tail of the table the admission rule picks
for its live triples, and its base row is not read.  Both operators read a
tail with the same block code as a block — RDFscan emits a block's rows,
then its tail's, then the residual subjects' rows; RDFjoin locates a
subject in a tail like in any block — so only a written subject with a
triple the columns cannot hold is residual.  Readers derive nothing from
the write.

Both operators understand zone maps: when a property carries a range
constraint and its column has a zone map, only the zones whose ``[min,max]``
interval intersects the constraint are read.  The helpers at the bottom
implement the cross-table push-down used for RDF-H Q3 (restrict one CS's
subject range from a date predicate, push the restriction through the
foreign key into the other CS via its zone map).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..columnar import NULL_OID, Column, gather_columns
from ..errors import ExecutionError
from ..storage.clustered import CSBlock
from ..storage.triple_table import TripleTable
from .bindings import BindingTable, coalesce_batches, emit_batches, joined_rows
from .context import ExecutionContext
from .kernels import expand_ranges, sorted_member_mask, unique_keys
from .mergescan import merge_property_pairs
from .plan import (NO_OIDS, HeadRange, OidRange, PhysicalOperator, StarPattern, StarProperty,
                   is_bounded, run_tail)


class _StarOperator(PhysicalOperator):
    """What RDFscan and RDFjoin share: one star, evaluated over whichever
    store the context offers."""

    star: StarPattern

    def _evaluator(self, context: ExecutionContext) -> "_ClusteredStarScan | _IndexMergeStarScan":
        """This run's evaluator of the star.

        Over the clustered store it also tells the run how many subjects no
        CS block could answer alone (irregular triples or pending writes on
        a star predicate) and so take the residual scan — the ``residual=``
        plan annotation; the index path has no such figure.
        """
        if context.has_clustered_store():
            clustered = _ClusteredStarScan(context, self.star)
            if context.run.enabled:
                context.run.residuals[self] = int(clustered.residual_subjects.size)
            return clustered
        return _IndexMergeStarScan(context, self.star)


class RDFScanOp(_StarOperator):
    """Evaluate a full star pattern in one operator."""

    def __init__(self, star: StarPattern) -> None:
        self.star = star

    def describe(self) -> str:
        return f"RDFscan[{self.star.describe()}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        yield from emit_batches(self._evaluator(context).scan(), context.batch_size)


class RDFJoinOp(_StarOperator):
    """Evaluate a star pattern for candidate subjects supplied by a child.

    The output is what a hash join with the star as build side gives —
    input-major, star rows in scan order within one input row, the star's
    columns first — so it is identical for every batch size.
    """

    is_join = True

    def __init__(self, child: PhysicalOperator, star: StarPattern) -> None:
        self.child = child
        self.star = star

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"RDFjoin[{self.star.describe()}]"

    def _batches(self, context: ExecutionContext) -> Iterator[BindingTable]:
        evaluator = self._evaluator(context)
        for input_table in coalesce_batches(self.child.batches(context), context.batch_size):
            if not input_table.has(self.star.subject_var):
                raise ExecutionError(
                    f"RDFjoin expects ?{self.star.subject_var} from its child operator")
            # one probe per input row, whatever the batch size
            context.tracker.tuples_probed += input_table.num_rows
            yield evaluator.join(input_table)


def _join_candidates(scan: Callable[[np.ndarray], BindingTable], star: StarPattern,
                     input_table: BindingTable) -> Tuple[BindingTable, np.ndarray, np.ndarray]:
    """The star's rows for the input's distinct subjects (``scan`` of
    them, sorted) and the ``(star_row, input_row)`` pairs joining them back.

    ``scan`` emits rows subjects ascending, so each input row's subject has
    one run of star rows, found by binary search, and the row fans out over
    it (:func:`~repro.engine.kernels.expand_ranges`).  Other shared
    variables filter the pairs by equality.  The pairs are input-major, star
    rows in scan order within one input row.
    """
    subjects = input_table.column(star.subject_var)
    candidates = unique_keys(subjects)
    star_table = scan(candidates) if candidates.size else BindingTable.empty(
        star.output_variables())
    star_subjects = star_table.column(star.subject_var)
    input_rows, star_rows = expand_ranges(np.searchsorted(star_subjects, subjects, side="left"),
                                          np.searchsorted(star_subjects, subjects, side="right"))
    shared = set(input_table.variables) & set(star_table.variables) - {star.subject_var}
    if shared:
        keep = np.logical_and.reduce([star_table.column(name)[star_rows]
                                      == input_table.column(name)[input_rows] for name in shared])
        star_rows, input_rows = star_rows[keep], input_rows[keep]
    return star_table, star_rows, input_rows


# -- clustered-store evaluation -----------------------------------------------------


class _ClusteredStarScan:
    """One operator run's evaluation of a star over the clustered store.

    What does not depend on the input rows is derived once per run — the CS
    blocks holding the star, the tail literals its ranges match, the
    properties a row is checked against, its residual subject set, each
    block's row ranges the star can match (:func:`_block_row_ranges`) and,
    on first need, the residual subjects' property pairs — so an RDFjoin
    pays it once, not once per input batch.
    """

    def __init__(self, context: ExecutionContext, star: StarPattern) -> None:
        self.context = context
        self.star = star
        self.store = store = context.require_clustered_store()
        self.delta = delta = context.active_delta()
        predicates = star.predicate_oids()
        self.tails = [run_tail(prop.oid_range, context.dictionary) for prop in star.properties]
        # Subjects with irregular triples on a star predicate (spilled
        # multi-values, dirty data, subjects of no CS at all) cannot be
        # answered from a block alone: they take the residual scan over base
        # ∪ delta − tombstones, so that neither clustering nor a pending write
        # ever changes query answers.  A written subject is where its delta
        # version filed it: its base row is replaced by a row of the table's
        # tail block, which follows the head in ``blocks``, and its triples
        # the columns cannot hold are pending-irregular.
        residual = _irregular_star_subjects(store.irregular, predicates)
        filing = None if delta is None else delta.filing
        if filing is not None:
            # written subjects with a triple on a star predicate no column holds
            pending = (filing.irregular[np.isin(filing.irregular[:, 1], predicates), 0]
                       if filing.irregular.size else NO_OIDS)
            if residual.size or pending.size:
                residual = unique_keys(np.concatenate(
                    [residual[~sorted_member_mask(residual, filing.subjects)], pending]))
        self.residual_subjects = residual
        # per block, its members a write replaced (probed as NULL_OID) and
        # what its rows are read without: a tail's, the residual subjects
        self.blocks: List[CSBlock] = []
        self.replaced: List[np.ndarray] = []
        self.hidden: List[np.ndarray] = []
        for head in store.blocks_with_properties(predicates):
            replaced = NO_OIDS if filing is None else filing.replaced.get(head.cs_id, NO_OIDS)
            self.blocks.append(head)
            self.replaced.append(replaced)
            self.hidden.append(np.union1d(residual, replaced) if replaced.size else residual)
            tail = None if filing is None else filing.tails.get(head.cs_id)
            if tail is not None:
                self.blocks.append(tail)
                self.replaced.append(NO_OIDS)
                self.hidden.append(residual)
        # what a row is checked against (constants, ranges with their tails,
        # required properties, FK ranges with this run's widening), and the
        # predicates whose values are output, in property order
        self.constrained = [
            (p, tail, None if p.fk_range is None else (p.fk_range, _head_widening(context, p.fk_range)))
            for p, tail in zip(star.properties, self.tails)
            if not p.object_term.is_variable or is_bounded(p.oid_range) or p.required or p.fk_range]
        self.outputs = list(dict.fromkeys(p.predicate_oid for p in star.properties
                                          if p.object_term.is_variable))
        # the push-down's subject range bounds head rows only
        self.head_subjects = (None if star.head_range is None else
                              (star.head_range, _head_widening(context, star.head_range)))
        self.row_ranges = [_block_row_ranges(block, star, self.constrained, self.head_subjects)
                           for block in self.blocks]
        self.restricted = [ranges != [(0, len(block))]
                           for block, ranges in zip(self.blocks, self.row_ranges)]
        self._residual_pairs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    def scan(self) -> BindingTable:
        """The star's bindings: block by block, then the residual subjects."""
        results: List[BindingTable] = []
        for index in range(len(self.blocks)):
            table = self._scan_block(index)
            if table.num_rows:
                results.append(table)
        if self.residual_subjects.size:
            residual = self._scan_residual(None)
            if residual.num_rows:
                results.append(residual)
        output_vars = self.star.output_variables()
        if not results:
            return BindingTable.empty(output_vars)
        merged = results[0]
        for table in results[1:]:
            merged = merged.concat(table)
        return merged.project(output_vars)

    def join(self, input_table: BindingTable) -> BindingTable:
        """The star joined onto RDFjoin's input (see :class:`RDFJoinOp`).

        A block-resident subject has at most one star row, so its input row
        is answered by position (:meth:`_probe`).  A residual subject may
        have several: those input rows alone take the residual scan of their
        distinct subjects and its fan-out (:func:`_join_candidates`), and
        their rows are merged back in input-row order.
        """
        star = self.star
        subjects = input_table.column(star.subject_var)
        residual = sorted_member_mask(subjects, self.residual_subjects)
        has_residual = bool(residual.any())
        # a residual subject is probed as NULL_OID, which no block holds
        rows, columns = self._probe(np.where(residual, NULL_OID, subjects)
                                    if has_residual else subjects)
        shared = [name for name in input_table.variables
                  if name in columns and name != star.subject_var]
        if shared:
            keep = np.logical_and.reduce([columns[name] == input_table.column(name)[rows]
                                          for name in shared])
            rows = rows[keep]
            columns = {name: values[keep] for name, values in columns.items()}
        if has_residual:
            residual_rows = np.flatnonzero(residual)
            star_table, star_rows, input_rows = _join_candidates(
                self._scan_residual, star, input_table.select_rows(residual_rows))
            merged = np.concatenate([rows, residual_rows[input_rows]])
            order = np.argsort(merged, kind="stable")
            rows = merged[order]
            columns = {name: np.concatenate([values, star_table.column(name)[star_rows]])[order]
                       for name, values in columns.items()}
        for name, values in input_table.columns.items():
            if name not in columns:
                columns[name] = values[rows]
        return BindingTable(columns)

    def _probe(self, subjects: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """The rows of ``subjects`` a star block answers, ascending, and the
        star's columns at them (see :meth:`_probe_block`).  A written
        subject's base row was replaced by its filed row, so a base block is
        probed without its replaced members; then a subject is in at most
        one block, and blocks never answer the same row twice."""
        parts = []
        for index, replaced in enumerate(self.replaced):
            rows, columns = self._probe_block(
                index, np.where(sorted_member_mask(subjects, replaced), NULL_OID, subjects)
                if replaced.size else subjects)
            if rows.size:
                parts.append((rows, columns))
        if len(parts) == 1:
            return parts[0]
        rows = np.concatenate([NO_OIDS] + [rows for rows, _columns in parts])
        order = np.argsort(rows)
        columns = {name: np.concatenate([NO_OIDS] + [part[name] for _rows, part in parts])[order]
                   for name in self.star.output_variables()}
        return rows[order], columns

    def _scan_block(self, index: int) -> BindingTable:
        """RDFscan over one block: its :attr:`row_ranges` read range by
        range, constrained columns first, less its :attr:`hidden` subjects."""
        block, star = self.blocks[index], self.star
        # evaluate constraints, reading only constrained columns first.  An
        # output column read here keeps its surviving rows' values (a take by
        # local position), so no column is read twice
        surviving: List[np.ndarray] = []
        kept: Dict[int, List[np.ndarray]] = {}
        for start, stop in self.row_ranges[index]:
            if stop <= start:
                continue
            mask, values = _constraint_mask(
                block, self.constrained, self.outputs, stop - start,
                lambda columns: [column.slice(start, stop) for column in columns])
            local = np.flatnonzero(mask)
            surviving.append(local + start)
            for predicate, column_values in values.items():
                kept.setdefault(predicate, []).append(column_values[local])
        positions = np.concatenate(surviving) if surviving else np.empty(0, dtype=np.int64)
        if positions.size == 0:
            return BindingTable.empty(star.output_variables())
        read = {predicate: np.concatenate(parts) for predicate, parts in kept.items()}
        subjects = block.subject_column.gather(positions)
        # residual and replaced subjects are answered elsewhere; drop them here
        hidden = self.hidden[index]
        if hidden.size:
            keep = np.flatnonzero(~np.isin(subjects, hidden, assume_unique=True))
            if keep.size < positions.size:
                positions, subjects = positions[keep], subjects[keep]
                read = {predicate: values[keep] for predicate, values in read.items()}
        return BindingTable(_bind_star(block, star, self.outputs, positions, read, subjects)[1])

    def _probe_block(self, index: int, subjects: np.ndarray
                     ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """RDFjoin over one block: which of the input rows' ``subjects`` it
        holds at a row inside its :attr:`row_ranges` that matches the star,
        ascending, and the star's columns there.

        Each subject's row is a binary search (:meth:`CSBlock.locate`); the
        constrained columns, then the output columns, are gathered at those
        positions in input-row order — a positional fetch, MonetDB's
        *leftfetchjoin* — so a subject repeated in the input is fetched once
        per row and needs no join back.
        """
        block, row_ranges = self.blocks[index], self.row_ranges[index]
        positions = block.locate(subjects)
        rows = np.flatnonzero(positions >= 0)
        positions = positions[rows]
        if self.restricted[index]:
            inside = _inside_ranges(positions, row_ranges)
            rows, positions = rows[inside], positions[inside]
        if rows.size == 0:
            return rows, {}
        mask, read = _constraint_mask(block, self.constrained, self.outputs, positions.size,
                                      lambda columns: gather_columns(columns, positions))
        if not mask.all():
            local = np.flatnonzero(mask)
            rows, positions = rows[local], positions[local]
            read = {predicate: values[local] for predicate, values in read.items()}
        kept, columns = _bind_star(block, self.star, self.outputs, positions, read,
                                   subjects[rows])
        return (rows if kept is None else rows[kept]), columns

    def _scan_residual(self, candidate_subjects: Optional[np.ndarray]) -> BindingTable:
        """Answer the star for the residual subjects (those of the sorted,
        distinct ``candidate_subjects`` if given), set-at-a-time, from their
        property pairs (:meth:`_gather_residual_pairs`) by
        :func:`_star_from_pairs`."""
        star = self.star
        subjects = self.residual_subjects
        if candidate_subjects is not None:
            subjects = np.intersect1d(subjects, candidate_subjects, assume_unique=True)
        if is_bounded(star.subject_range):
            # subjects are never literals: a subject range has no tail to match
            subjects = subjects[star.subject_range.mask(subjects)]
        if subjects.size == 0:
            return BindingTable.empty(star.output_variables())
        if self._residual_pairs is None:
            self._residual_pairs = self._gather_residual_pairs()
        # a residual subject has a live triple on a star predicate, so an
        # all-optional star (SQL columns under a pending write) has a row of
        # it, as after compaction
        return _star_from_pairs(self.context, star, self._residual_pairs, subjects)

    def _gather_residual_pairs(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per star property, the residual subjects' ``(subject, object)``
        pairs from block columns, the irregular table and the delta, minus
        tombstones, constrained like the property and subject-sorted."""
        store = self.store
        predicates = self.star.predicate_oids()
        block_rows = []
        for block in store.blocks:
            if any(block.has_property(p) for p in predicates):
                positions = block.positions_of_subjects(self.residual_subjects)
                if positions.size:
                    block_rows.append((block, positions, block.subject_column.gather(positions)))
        pairs = []
        for prop, tail in zip(self.star.properties, self.tails):
            predicate = prop.predicate_oid
            parts = [(members, block.column(predicate).gather(positions))
                     for block, positions, members in block_rows
                     if block.has_property(predicate)]
            # every irregular triple of a star predicate has a residual subject
            irregular = store.irregular.scan_prefix(predicate, fetch="so")
            parts.append((irregular[:, 0], irregular[:, 1]))
            base_subjects = np.concatenate([subjects for subjects, _objects in parts])
            base_objects = np.concatenate([objects for _subjects, objects in parts])
            present = base_objects != NULL_OID
            if not prop.object_term.is_variable:
                present &= base_objects == prop.object_term.oid
            pairs.append(_finish_pairs(self.delta, prop, tail, base_subjects[present],
                                       base_objects[present]))
        return pairs


def _bind_star(block: CSBlock, star: StarPattern, outputs: List[int], positions: np.ndarray,
               read: Dict[int, np.ndarray], subjects: np.ndarray
               ) -> Tuple[Optional[np.ndarray], Dict[str, np.ndarray]]:
    """The star's output columns at the block rows ``positions``, whose
    subjects are ``subjects``: the ``outputs`` predicates' values the
    constraints already gathered are in ``read``, the others are gathered
    here.  Which of the rows are kept (``None`` for all) once every
    repeated variable binds one OID, and their columns, in
    :meth:`StarPattern.output_variables` order."""
    unread = [predicate for predicate in outputs if predicate not in read]
    if unread:
        read = {**read, **dict(zip(unread, gather_columns([block.column(p) for p in unread],
                                                          positions)))}
    columns: Dict[str, np.ndarray] = {star.subject_var: subjects}
    kept: Optional[np.ndarray] = None
    for prop in star.properties:
        term = prop.object_term
        if not term.is_variable:
            continue
        values = read[prop.predicate_oid] if kept is None else read[prop.predicate_oid][kept]
        if term.var not in columns:
            columns[term.var] = values  # a required one's NULLs are masked above
            continue
        # repeated variable (e.g. ``?x <p> ?x`` or two properties sharing an
        # object variable): every occurrence must bind the same OID
        same = values == columns[term.var]
        if not prop.required:
            same |= values == NULL_OID
        if same.all():
            continue
        local = np.flatnonzero(same)
        columns = {name: values[local] for name, values in columns.items()}
        kept = local if kept is None else kept[local]
    return kept, columns


def _is_required(prop: StarProperty) -> bool:
    """Whether a subject without a value of ``prop`` has no row: a required
    property, and a constant one, which only its value matches (the block
    path's rule, :func:`_constraint_mask`)."""
    return prop.required or not prop.object_term.is_variable


def _block_row_ranges(block: CSBlock, star: StarPattern, constrained,
                      head_subjects) -> List[Tuple[int, int]]:
    """The sorted, disjoint row ranges of ``block`` that can hold a row of
    the star: narrowed by its subject range, in the head by the push-down's
    subject range (``head_subjects``: a :class:`HeadRange` with its run's
    widening) and by binary search of each ranged property's column the
    head is sub-ordered on, and by the zone maps of each ranged property
    and each FK range of the ``constrained`` properties.  None of it
    depends on candidate subjects."""
    n = len(block)
    if n == 0:
        return []
    head = block.head_rows
    tail_run = [(head, n)] if head < n else []
    row_ranges = [(0, n)]
    subjects = block.subject_column.data

    # subject-range restriction (a FILTER on the subject): both runs
    if is_bounded(star.subject_range):
        intervals = star.subject_range.intervals()
        row_ranges = _intersect_ranges(row_ranges, _rows_in(subjects[:head], intervals) + (
            _rows_in(subjects[head:], intervals, head) if tail_run else []))
    # the push-down's subject range: head rows only
    if head_subjects is not None and head:
        head_range, widening = head_subjects
        row_ranges = _intersect_ranges(
            row_ranges, _rows_in(subjects[:head], head_range.intervals(widening)) + tail_run)

    # the clustering sub-order: a range predicate on a column the head is
    # sorted on is a binary search over the head, independent of zone maps
    ranged = [(prop, prop.oid_range.intervals(tail)) for prop, tail, _fk in constrained
              if is_bounded(prop.oid_range)]
    for prop, intervals in ranged:
        if prop.predicate_oid not in block.sorted_properties:
            continue
        row_ranges = _intersect_ranges(
            row_ranges, _sorted_prefix_rows(block, prop.predicate_oid, intervals) + tail_run)
        if not row_ranges:
            return []

    # zone-map pruning: a ranged property reads only the zones its column's
    # zone map says can hold a value in range
    pruning = [(prop.predicate_oid, intervals) for prop, intervals in ranged]
    pruning += [(prop.predicate_oid, fk[0].intervals(fk[1])) for prop, _tail, fk in constrained
                if fk is not None]
    for predicate, intervals in pruning:
        zone_map = block.zone_map(predicate)
        if zone_map is None:
            continue
        row_ranges = _intersect_ranges(row_ranges, zone_map.candidate_row_ranges(intervals))
        if not row_ranges:
            return []
    # a head range and a tail range that meet are read as one
    merged = row_ranges[:1]
    for start, stop in row_ranges[1:]:
        if start == merged[-1][1]:
            merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def _inside_ranges(positions: np.ndarray, row_ranges: List[Tuple[int, int]]) -> np.ndarray:
    """Which ``positions`` lie in one of the sorted, disjoint half-open
    ``row_ranges``."""
    if not row_ranges:
        return np.zeros(positions.size, dtype=bool)
    bounds = np.asarray(row_ranges, dtype=np.int64)
    index = np.searchsorted(bounds[:, 0], positions, side="right") - 1
    return (index >= 0) & (positions < bounds[np.maximum(index, 0), 1])


def _constraint_mask(block: CSBlock, constrained, outputs: List[int], rows: int,
                     read: Callable[[List[Column]], List[np.ndarray]]
                     ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """Which of ``rows`` rows satisfy every constrained property — each with
    its range's tail literals and, if it has an FK range, that
    :class:`HeadRange` and its run's widening — the rows' values of the
    columns being what ``read`` fetches from them — and those values of the
    ``outputs`` predicates' columns it read."""
    mask = np.ones(rows, dtype=bool)
    values_read: Dict[int, np.ndarray] = {}
    columns = read([block.column(prop.predicate_oid) for prop, _tail, _fk in constrained])
    for (prop, tail, fk), values in zip(constrained, columns):
        if prop.predicate_oid in outputs:
            values_read[prop.predicate_oid] = values
        if prop.required:
            mask &= values != NULL_OID
        if not prop.object_term.is_variable:
            mask &= values == prop.object_term.oid
        if is_bounded(prop.oid_range):
            mask &= prop.oid_range.mask(values, tail)
        if fk is not None:
            mask &= fk[0].mask(values, fk[1])
    return mask, values_read


def _sorted_prefix_rows(block: CSBlock, predicate_oid: int, intervals) -> List[Tuple[int, int]]:
    """Row ranges of a head column sorted over its non-NULL prefix
    (:meth:`CSBlock.sorted_prefix_length`; trailing NULLs excluded) whose
    values lie in the ascending, disjoint inclusive OID ``intervals``:
    binary searches only."""
    return _rows_in(block.column(predicate_oid).data[:block.sorted_prefix_length(predicate_oid)],
                    intervals)


def _rows_in(values: np.ndarray, intervals, offset: int = 0) -> List[Tuple[int, int]]:
    """Row ranges (from row ``offset``) of the ascending ``values`` that lie
    in the ascending, disjoint inclusive OID ``intervals`` (``None`` an
    open side): binary searches only."""
    rows = []
    for low, high in intervals:
        lo = 0 if low is None else int(np.searchsorted(values, low, side="left"))
        hi = len(values) if high is None else int(np.searchsorted(values, high, side="right"))
        if hi > lo:
            rows.append((lo + offset, hi + offset))
    return rows


def _intersect_ranges(left: List[Tuple[int, int]],
                      right: List[Tuple[int, int]] | Tuple[int, int]) -> List[Tuple[int, int]]:
    if type(right) is tuple:  # one (start, stop) pair; a Term is a tuple subclass
        right = [right]
    out: List[Tuple[int, int]] = []
    for a_start, a_stop in left:
        for b_start, b_stop in right:
            start, stop = max(a_start, b_start), min(a_stop, b_stop)
            if stop > start:
                out.append((start, stop))
    out.sort()
    return out


# -- residual / irregular evaluation ---------------------------------------------------


def _irregular_star_subjects(irregular: TripleTable, predicates: List[int]) -> np.ndarray:
    """Subjects having at least one irregular triple with a star predicate."""
    if len(irregular) == 0:
        return np.empty(0, dtype=np.int64)
    parts = []
    for predicate in predicates:
        rows = irregular.scan_prefix(predicate, fetch="s")
        if rows.size:
            parts.append(rows[:, 0])
    if not parts:
        return np.empty(0, dtype=np.int64)
    return unique_keys(np.concatenate(parts))


# -- parse-order (index merge) evaluation ----------------------------------------------


class _IndexMergeStarScan:
    """One operator run's evaluation of a star over the parse-order indexes."""

    def __init__(self, context: ExecutionContext, star: StarPattern) -> None:
        self.context = context
        self.star = star
        self.tails = [run_tail(prop.oid_range, context.dictionary) for prop in star.properties]
        self._pairs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None

    def scan(self, candidate_subjects: Optional[np.ndarray] = None) -> BindingTable:
        """The star's rows (for the sorted, distinct ``candidate_subjects``
        if given) from each property's PSO/POS pairs, which read the whole
        predicate range less pushed-down object ranges — once per run, so
        an RDFjoin reads them for its first input batch only.

        The rows are those of the subjects that every required property has
        — of those that have any property when none is required (the SQL
        view under a pending write) — by :func:`_star_from_pairs`.
        """
        star = self.star
        if self._pairs is None:
            store = self.context.index_store
            self._pairs = [_property_pairs(self.context, store, prop, tail, star.subject_range)
                           for prop, tail in zip(star.properties, self.tails)]
        pairs = self._pairs
        required = [subjects for prop, (subjects, _objects) in zip(star.properties, pairs)
                    if _is_required(prop)]
        if any(subjects.size == 0 for subjects in required):
            return BindingTable.empty(star.output_variables())
        if required:
            seeds = unique_keys(min(required, key=len))
            for subjects in required:
                seeds = seeds[sorted_member_mask(seeds, subjects)]
        else:
            seeds = unique_keys(np.concatenate([NO_OIDS] + [subjects for subjects, _objects in pairs]))
        if candidate_subjects is not None:
            seeds = np.intersect1d(seeds, candidate_subjects, assume_unique=True)
        return _star_from_pairs(self.context, star, pairs, seeds)

    def join(self, input_table: BindingTable) -> BindingTable:
        """The star's rows for the input's distinct subjects, joined back
        onto the input (see :class:`RDFJoinOp`)."""
        star_table, star_rows, input_rows = _join_candidates(self.scan, self.star, input_table)
        return joined_rows(star_table, input_table, star_rows, input_rows)


def _property_pairs(context: ExecutionContext, store, prop: StarProperty, tail: np.ndarray,
                    subject_range: Optional[OidRange]) -> Tuple[np.ndarray, np.ndarray]:
    """Fetch the (subject, object) pairs of one property, sorted by subject."""
    if not prop.object_term.is_variable:
        rows = store.scan_pattern(p=prop.predicate_oid, o=prop.object_term.oid, fetch="so")
    elif is_bounded(prop.oid_range):
        table = store.within_predicate("o")
        rows = table.fetch_ranges(
            table.narrowed_row_ranges(prop.predicate_oid, prop.oid_range.intervals(tail)),
            fetch="so")
    else:
        rows = store.scan_pattern(p=prop.predicate_oid, fetch="so")
    return _finish_pairs(context.active_delta(), prop, tail, rows[:, 0], rows[:, 1],
                         subject_range)


def _finish_pairs(delta, prop: StarProperty, tail: np.ndarray, subjects: np.ndarray,
                  objects: np.ndarray, subject_range: Optional[OidRange] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge one property's base pairs with the delta, constrain (``tail``:
    the tail literals the property's range matches) and subject-sort them.

    The sort is stable, so within a subject base values stay ahead of delta
    values, each in scan order.
    """
    if delta is not None:
        constant = None if prop.object_term.is_variable else prop.object_term.oid
        subjects, objects = merge_property_pairs(delta, subjects, objects,
                                                 prop.predicate_oid, constant)
    if is_bounded(prop.oid_range):
        mask = prop.oid_range.mask(objects, tail)
        subjects, objects = subjects[mask], objects[mask]
    if is_bounded(subject_range):
        mask = subject_range.mask(subjects)  # subjects are never literals: no tail
        subjects, objects = subjects[mask], objects[mask]
    order = np.argsort(subjects, kind="stable")
    return subjects[order], objects[order]


def _star_from_pairs(context: ExecutionContext, star: StarPattern,
                     pairs: List[Tuple[np.ndarray, np.ndarray]], subjects: np.ndarray
                     ) -> BindingTable:
    """The star's rows of the sorted, distinct seed ``subjects`` from each
    property's subject-sorted ``(subject, object)`` pairs.

    The seeds fan out over each property in property order
    (:func:`_match_property`), so rows come out subjects ascending and,
    within a subject, as the product of its values in property order — the
    order every batch size and ``LIMIT`` rely on.  A repeated variable keeps
    a row whose values agree or whose optional value is missing, as the
    block scan does (:func:`_bind_star`).
    """
    table = BindingTable({star.subject_var: subjects})
    for prop, (prop_subjects, objects) in zip(star.properties, pairs):
        table, values = _match_property(context, table, star.subject_var, prop,
                                         prop_subjects, objects)
        if values is None:
            continue
        var = prop.object_term.var
        if table.has(var):
            table = table.filter_mask((values == table.column(var)) | (values == NULL_OID))
        else:
            table = table.with_column(var, values)
    return table


def _match_property(context: ExecutionContext, table: BindingTable, subject_var: str,
                    prop: StarProperty, subjects: np.ndarray, objects: np.ndarray
                    ) -> Tuple[BindingTable, Optional[np.ndarray]]:
    """Fan the bindings out over one property's subject-sorted pairs.

    Returns the expanded rows and, for a variable object, the object value
    aligned with each row; a row without a match is dropped when the
    property is required and otherwise kept once with ``NULL_OID``.
    """
    current = table.column(subject_var)
    lo = np.searchsorted(subjects, current, side="left")
    hi = np.searchsorted(subjects, current, side="right")
    context.tracker.tuples_probed += int(current.size)

    if _is_required(prop):
        row_indices, positions = expand_ranges(lo, hi)
    else:
        # rows without a match contribute one placeholder position -1
        empty = hi <= lo
        row_indices, positions = expand_ranges(np.where(empty, -1, lo),
                                               np.where(empty, 0, hi))

    result = table.select_rows(row_indices)
    if not prop.object_term.is_variable:
        return result, None
    if objects.size:
        return result, np.where(positions >= 0, objects[np.maximum(positions, 0)], NULL_OID)
    return result, np.full(positions.size, NULL_OID, dtype=np.int64)


# -- zone-map push-down helpers ----------------------------------------------------------


def _head_widening(context: ExecutionContext, head_range: HeadRange) -> np.ndarray:
    """The OIDs ``head_range`` lets through beside its interval in this run,
    sorted: its ``extra`` and, with a write pending, every written subject
    (``delta_subjects``) and, per foreign key of ``sources``, its values in
    the version's filed rows — its tail blocks' column and its
    pending-irregular triples (see :class:`~repro.engine.plan.HeadRange`)."""
    delta = context.active_delta()
    if delta is None or not (head_range.sources or head_range.delta_subjects):
        return head_range.extra
    filing = delta.filing
    parts = [head_range.extra]
    if head_range.delta_subjects:
        parts.append(filing.subjects)
    for fk in head_range.sources:
        parts += [tail.column(fk).data for tail in filing.tails.values() if tail.has_property(fk)]
        parts.append(filing.irregular[filing.irregular[:, 1] == fk, 2])
    widening = unique_keys(np.concatenate(parts))
    return widening[widening != NULL_OID]


def subject_range_for_property_range(block: CSBlock, predicate_oid: int, oid_range: OidRange,
                                     tail: np.ndarray = NO_OIDS) -> Optional[OidRange]:
    """Subject-OID bounds of the head rows whose property value is in range.

    Only meaningful when the head is sub-ordered on the property (which the
    clustering step arranges for the chosen sort key and records in
    :attr:`CSBlock.sorted_properties`): the property column is then
    non-decreasing over the head's non-NULL prefix, so the rows in each of the
    range's :meth:`~OidRange.intervals` (``tail``: the tail literals it
    matches) are contiguous, found by binary search, and the subjects of all
    of them lie between the first one's and the last one's.  Returns
    ``None`` when the column is not sorted that way.
    """
    if predicate_oid not in block.sorted_properties:
        return None
    rows = _sorted_prefix_rows(block, predicate_oid, oid_range.intervals(tail))
    if not rows:
        return OidRange(low=1, high=0)  # empty range: no subject can match
    subjects = block.subject_column.data
    return OidRange(low=int(subjects[rows[0][0]]), high=int(subjects[rows[-1][1] - 1]))


def fk_range_from_zonemap(block: CSBlock, constrained_predicate: int, oid_range: OidRange,
                          fk_predicate: int, tail: np.ndarray = NO_OIDS) -> Optional[OidRange]:
    """Bounds of a foreign-key column over the rows surviving a zone-map prune.

    Given a range constraint on one property (e.g. LINEITEM ``shipdate``;
    ``tail``: the tail literals it matches), use its zone map to find the
    candidate head row ranges and return the min/max of the foreign-key
    column (e.g. the referenced ORDERS subject OIDs) over those rows — the
    restriction that can be pushed into the other CS.  It describes what
    head rows reference only.
    """
    zone_map = block.zone_map(constrained_predicate)
    if zone_map is None or not block.has_property(fk_predicate):
        return None
    fk_zone_map = block.zone_map(fk_predicate)
    ranges = _intersect_ranges(zone_map.candidate_row_ranges(oid_range.intervals(tail)),
                               (0, block.head_rows))
    if not ranges:
        return OidRange(low=1, high=0)
    low: Optional[int] = None
    high: Optional[int] = None
    fk_values = block.column(fk_predicate).data
    for start, stop in ranges:
        if fk_zone_map is not None:
            bounds = fk_zone_map.value_bounds_for_rows(start, stop)
        else:
            chunk = fk_values[start:stop]
            chunk = chunk[chunk != NULL_OID]
            bounds = (int(chunk.min()), int(chunk.max())) if chunk.size else None
        if bounds is None:
            continue
        low = bounds[0] if low is None else min(low, bounds[0])
        high = bounds[1] if high is None else max(high, bounds[1])
    if low is None or high is None:
        return None
    return OidRange(low=low, high=high)
