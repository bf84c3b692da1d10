"""RDFscan and RDFjoin: the paper's star-pattern operators.

``RDFscan`` delivers the bindings of a whole star pattern (several
properties of one subject variable) in a single operator invocation.  Over
the CS-clustered store this is join-free: the properties of a characteristic
set are stored as aligned columns, so evaluating the star is a conjunction
of per-column predicates followed by a gather of the output columns.  Over
parse-order storage the operator falls back to a single merge pass across
the per-property PSO ranges — still one operator, but without the aligned
locality.

``RDFjoin`` is the variant that receives a stream of candidate subjects from
another operator (the paper relates it to the "Pivot Index Scan"): it
fetches the star's properties only for those subjects.  It coalesces its
child's under-full batches up to the batch size first, so a selective child
does not make it evaluate the star once per fragment; over the clustered
store it then probes the candidates' own row positions — a positional fetch
from the aligned columns, MonetDB's *leftfetchjoin* — rather than scanning
the row range that covers them, and joins the star rows back onto its input
by each candidate's code (its rank among the candidates), not by a hash join.

Both operators understand zone maps: when a property carries a range
constraint and its column has a zone map, only the zones whose ``[min,max]``
interval intersects the constraint are read.  The helpers at the bottom
implement the cross-table push-down used for RDF-H Q3 (restrict one CS's
subject range from a date predicate, push the restriction through the
foreign key into the other CS via its zone map).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..columnar import NULL_OID, Column
from ..errors import ExecutionError
from ..storage.clustered import CSBlock
from ..storage.triple_table import TripleTable
from .bindings import Batch, BindingTable, coalesce_batches, emit_batches, joined_rows
from .context import ExecutionContext
from .kernels import expand_ranges, unique_keys
from .mergescan import merge_property_pairs
from .plan import NO_OIDS, OidRange, PhysicalOperator, StarPattern, StarProperty


class _StarOperator(PhysicalOperator):
    """What RDFscan and RDFjoin share: one star, evaluated over whichever
    store the context offers."""

    star: StarPattern

    def _star_scan(self, context: ExecutionContext
                   ) -> Callable[[Optional[np.ndarray]], BindingTable]:
        """This run's evaluator of the star: given candidate subjects (or
        ``None`` for all), its bindings.

        Over the clustered store it also tells the run how many subjects no
        CS block could answer alone (irregular triples or pending writes on
        a star predicate) and so take the residual scan — the ``residual=``
        plan annotation; the index path has no such figure.
        """
        context.tracker.operator_invocations += 1
        if context.has_clustered_store():
            clustered = _ClusteredStarScan(context, self.star)
            if context.run.enabled:
                context.run.residuals[self] = int(clustered.residual_subjects.size)
            return clustered.scan
        return partial(_scan_index_merge, context, self.star, _property_tails(context, self.star))


class RDFScanOp(_StarOperator):
    """Evaluate a full star pattern in one operator."""

    def __init__(self, star: StarPattern) -> None:
        self.star = star

    def describe(self) -> str:
        return f"RDFscan[{self.star.describe()}]"

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        scan = self._star_scan(context)
        yield from emit_batches(scan(None), context.batch_size)


class RDFJoinOp(_StarOperator):
    """Evaluate a star pattern for candidate subjects supplied by a child."""

    def __init__(self, child: PhysicalOperator, star: StarPattern) -> None:
        self.child = child
        self.star = star

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        return f"RDFjoin[{self.star.describe()}]"

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        scan = self._star_scan(context)
        context.tracker.join_operations += 1
        subject_var = self.star.subject_var
        for input_table in coalesce_batches(self.child.batches(context), context.batch_size):
            if not input_table.has(subject_var):
                raise ExecutionError(f"RDFjoin expects ?{subject_var} from its child operator")
            candidates, input_codes = unique_keys(input_table.column(subject_var),
                                                  return_inverse=True)
            if candidates.size == 0:
                star_table = BindingTable.empty(self.star.output_variables())
            else:
                star_table = scan(candidates)
            context.tracker.tuples_probed += int(candidates.size)
            yield Batch(_join_back(star_table, input_table, subject_var,
                                   candidates, input_codes))


def _join_back(star_table: BindingTable, input_table: BindingTable, subject_var: str,
               candidates: np.ndarray, input_codes: np.ndarray) -> BindingTable:
    """The star's rows joined back onto RDFjoin's input by candidate code.

    ``input_codes`` gives each input row its candidate's index among the
    sorted ``candidates``; a star row's is found by ``searchsorted``.  The
    codes are dense in ``[0, k)``, so ``bincount`` / ``cumsum`` give each
    candidate its run of the star rows in code order and every input row
    takes its candidate's run: no key search, no span check.  Other shared
    variables filter the pairs by equality.  The output is what a hash join
    with the star as build side gives — input-major, star rows in scan order
    within one input row — so it is identical for every batch size.
    """
    star_codes = np.searchsorted(candidates, star_table.column(subject_var))
    counts = np.bincount(star_codes, minlength=candidates.size)
    starts = np.cumsum(counts) - counts
    lo = starts[input_codes]
    input_rows, positions = expand_ranges(lo, lo + counts[input_codes])
    star_rows = np.argsort(star_codes, kind="stable")[positions]
    shared = set(input_table.variables) & set(star_table.variables) - {subject_var}
    if shared:
        keep = np.logical_and.reduce([star_table.column(name)[star_rows]
                                      == input_table.column(name)[input_rows] for name in shared])
        star_rows, input_rows = star_rows[keep], input_rows[keep]
    return joined_rows(star_table, input_table, star_rows, input_rows)


def _property_tails(context: ExecutionContext, star: StarPattern) -> List[np.ndarray]:
    """Per star property, the tail literals its range matches: resolved
    once per operator run (see :meth:`OidRange.tail_oids`)."""
    return [NO_OIDS if prop.oid_range is None else prop.oid_range.tail_oids(context.dictionary)
            for prop in star.properties]


# -- clustered-store evaluation -----------------------------------------------------


class _ClusteredStarScan:
    """One operator run's evaluation of a star over the clustered store.

    What does not depend on the candidate subjects is derived once per run —
    the CS blocks holding the star, the tail literals its ranges match, its
    residual subject set and, on first need, the residual subjects' property
    pairs — so an RDFjoin pays it once, not once per input batch.
    """

    def __init__(self, context: ExecutionContext, star: StarPattern) -> None:
        self.context = context
        self.star = star
        self.store = store = context.require_clustered_store()
        self.delta = delta = context.active_delta()
        predicates = star.predicate_oids()
        self.blocks = store.blocks_with_properties(predicates)
        self.tails = _property_tails(context, star)
        # Subjects touched by irregular triples (spilled multi-values, dirty
        # data, subjects of no CS at all) or, MergeScan, by pending inserts or
        # tombstones on a star predicate cannot be answered from their base
        # block alone: they take the residual scan over base ∪ delta −
        # tombstones, so that neither clustering nor a pending write ever
        # changes query answers.  This covers brand-new subjects as well.
        residual = _irregular_star_subjects(store.irregular, predicates)
        if delta is not None:
            touched = delta.subjects_touching(predicates)
            if touched.size:
                residual = unique_keys(np.concatenate([residual, touched]))
        self.residual_subjects = residual
        self._residual_pairs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._optional_rows: Optional[np.ndarray] = None

    def scan(self, candidate_subjects: Optional[np.ndarray] = None) -> BindingTable:
        """The star's bindings: block by block, then the residual subjects.

        ``candidate_subjects``, when given, is sorted and duplicate-free.
        """
        results: List[BindingTable] = []
        for block in self.blocks:
            table = _scan_block(self.context, block, self.star, self.tails, candidate_subjects,
                                exclude_subjects=self.residual_subjects)
            if table.num_rows:
                results.append(table)
        if self.residual_subjects.size:
            residual = self._scan_residual(candidate_subjects)
            if residual.num_rows:
                results.append(residual)
        output_vars = self.star.output_variables()
        if not results:
            return BindingTable.empty(output_vars)
        merged = results[0]
        for table in results[1:]:
            merged = merged.concat(table)
        return merged.project(output_vars)

    def _scan_residual(self, candidate_subjects: Optional[np.ndarray]) -> BindingTable:
        """Answer the star for the residual subjects, set-at-a-time.

        Each property's ``(subject, object)`` pairs are merged into the
        running bindings exactly like the index path merges a property.
        Rows come out subjects ascending and, within a subject, as the
        product of its values in property order (per property: block value,
        irregular values, delta values) — the order every batch size and
        ``LIMIT`` rely on.
        """
        star = self.star
        subjects = self.residual_subjects
        if candidate_subjects is not None:
            subjects = np.intersect1d(subjects, candidate_subjects, assume_unique=True)
        if star.subject_range is not None and not star.subject_range.is_unbounded():
            # subjects are never literals: a subject range has no tail to match
            subjects = subjects[star.subject_range.mask(subjects)]
        if subjects.size == 0:
            return BindingTable.empty(star.output_variables())
        if self._residual_pairs is None:
            self._residual_pairs = self._gather_residual_pairs()
        if not any(prop.required for prop in star.properties):
            # every property optional (SQL columns under a pending write): a
            # subject without a single value makes a row only as long as the
            # compacted store would keep it in one of the star's blocks
            if self._optional_rows is None:
                self._optional_rows = self._optional_row_subjects()
            subjects = np.intersect1d(subjects, self._optional_rows, assume_unique=True)
            if subjects.size == 0:
                return BindingTable.empty(star.output_variables())
        table = BindingTable({star.subject_var: subjects})
        for prop, pairs in zip(star.properties, self._residual_pairs):
            table, values = _match_property(self.context, table, star.subject_var, prop, *pairs)
            if values is None:
                continue
            var = prop.object_term.var
            if table.has(var):
                # repeated variable: a real value must match the earlier binding,
                # a missing optional one keeps it (the block scan's NULL handling)
                table = table.filter_mask((values == table.column(var)) | (values == NULL_OID))
            else:
                table = table.with_column(var, values)
        return table

    def _optional_row_subjects(self) -> np.ndarray:
        """The residual subjects an all-optional star has rows for: those with
        a value of a star property, and the members of the star's blocks with
        a triple left (compaction drops a subject that has none)."""
        valued = unique_keys(np.concatenate(
            [NO_OIDS] + [subjects for subjects, _objects in self._residual_pairs]))
        rest = np.setdiff1d(self.residual_subjects, valued, assume_unique=True)
        if rest.size == 0 or self.delta is None:
            # with no pending write a residual subject has an irregular value
            return valued
        members = unique_keys(np.concatenate(
            [NO_OIDS] + [block.subject_column.gather(block.positions_of_subjects(rest))
                         for block in self.blocks]))
        return np.union1d(valued, members[_has_triples(self.context, self.delta, members)])

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


def _scan_block(context: ExecutionContext, block: CSBlock, star: StarPattern,
                tails: List[np.ndarray], candidate_subjects: Optional[np.ndarray],
                exclude_subjects: np.ndarray) -> BindingTable:
    n = len(block)
    if n == 0:
        return BindingTable.empty(star.output_variables())

    row_ranges: List[Tuple[int, int]] = [(0, n)]

    # subject-range restriction (zone-map push-down or FILTER on the subject)
    if star.subject_range is not None and not star.subject_range.is_unbounded():
        row_ranges = _intersect_ranges(row_ranges, [_subject_rows_for_range(block, star.subject_range)])

    # candidate subjects (RDFjoin): their own rows, ascending
    candidate_positions: Optional[np.ndarray] = None
    if candidate_subjects is not None:
        candidate_positions = block.positions_of_subjects(candidate_subjects)
        if candidate_positions.size == 0:
            return BindingTable.empty(star.output_variables())

    # the clustering sub-order: a range predicate on a sorted column is a
    # binary search over the block, independent of zone maps
    ranged = [(prop, prop.oid_range.intervals(tail)) for prop, tail in zip(star.properties, tails)
              if prop.oid_range is not None and not prop.oid_range.is_unbounded()]
    for prop, intervals in ranged:
        if prop.predicate_oid not in block.sorted_properties:
            continue
        row_ranges = _intersect_ranges(
            row_ranges, _sorted_prefix_rows(block.column(prop.predicate_oid).data, intervals))
        if not row_ranges:
            return BindingTable.empty(star.output_variables())

    # zone-map pruning: a ranged property reads only the zones its column's
    # zone map says can hold a value in range
    for prop, intervals in ranged:
        zone_map = block.zone_map(prop.predicate_oid)
        if zone_map is None:
            continue
        row_ranges = _intersect_ranges(row_ranges, zone_map.candidate_row_ranges(intervals))
        if not row_ranges:
            return BindingTable.empty(star.output_variables())

    # evaluate constraints, reading only constrained columns first: range by
    # range for a scan, at the candidates' positions inside the ranges for
    # RDFjoin (a positional fetch, MonetDB's leftfetchjoin).  An output
    # column read here keeps its surviving rows' values (a take by local
    # position), so no column is read twice
    constrained = [(p, tail) for p, tail in zip(star.properties, tails)
                   if not p.object_term.is_variable
                   or (p.oid_range is not None and not p.oid_range.is_unbounded())
                   or p.required]
    outputs = {p.predicate_oid for p in star.properties if p.object_term.is_variable}
    if candidate_positions is None:
        reads = [(start, _constraint_mask(block, constrained, outputs, stop - start,
                                          lambda column: column.slice(start, stop)))
                 for start, stop in row_ranges if stop > start]
    else:
        within = _positions_within(candidate_positions, row_ranges)
        reads = [(0, _constraint_mask(block, constrained, outputs, within.size,
                                      lambda column: column.gather(within)))]
    surviving: List[np.ndarray] = []
    kept: Dict[int, List[np.ndarray]] = {}
    for start, (mask, values) in reads:
        local = np.flatnonzero(mask)
        surviving.append(local + start)
        for predicate, column_values in values.items():
            kept.setdefault(predicate, []).append(column_values[local])
    positions = np.concatenate(surviving) if surviving else np.empty(0, dtype=np.int64)
    if candidate_positions is not None:
        positions = within[positions]
    if positions.size == 0:
        return BindingTable.empty(star.output_variables())
    read = {predicate: np.concatenate(parts) for predicate, parts in kept.items()}
    subjects = block.subject_column.gather(positions)
    columns: Dict[str, np.ndarray] = {star.subject_var: subjects}

    def take(keep: np.ndarray) -> int:
        """Keep the ``keep`` rows of everything aligned with ``positions``;
        how many are left."""
        nonlocal positions
        positions = positions[keep]
        for aligned in (columns, read):
            for name in aligned:
                aligned[name] = aligned[name][keep]
        return positions.size

    # residual subjects are answered elsewhere; drop them here to avoid duplicates
    if exclude_subjects.size and not take(~np.isin(subjects, exclude_subjects,
                                                   assume_unique=True)):
        return BindingTable.empty(star.output_variables())

    for prop in star.properties:
        term = prop.object_term
        if not term.is_variable:
            continue
        values = read.get(prop.predicate_oid)
        if values is None:
            values = block.column(prop.predicate_oid).gather(positions)
        if term.var not in columns:
            columns[term.var] = values  # a required one's NULLs are masked above
            continue
        # repeated variable (e.g. ``?x <p> ?x`` or two properties sharing an
        # object variable): every occurrence must bind the same OID
        keep = values == columns[term.var]
        if not prop.required:
            keep |= values == NULL_OID
        if not keep.all() and not take(keep):
            return BindingTable.empty(star.output_variables())
    return BindingTable(columns)


def _constraint_mask(block: CSBlock, constrained: List[Tuple[StarProperty, np.ndarray]],
                     outputs: Set[int], rows: int, read: Callable[[Column], np.ndarray]
                     ) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """Which of ``rows`` rows satisfy every constrained property (each with
    its range's tail literals), the rows' values of a column being what
    ``read`` fetches from it — and those values of the ``outputs``
    predicates' columns it read."""
    mask = np.ones(rows, dtype=bool)
    values_read: Dict[int, np.ndarray] = {}
    for prop, tail in constrained:
        values = read(block.column(prop.predicate_oid))
        if prop.predicate_oid in outputs:
            values_read[prop.predicate_oid] = values
        if prop.required:
            mask &= values != NULL_OID
        if not prop.object_term.is_variable:
            mask &= values == prop.object_term.oid
        if prop.oid_range is not None and not prop.oid_range.is_unbounded():
            mask &= prop.oid_range.mask(values, tail)
    return mask, values_read


def _sorted_prefix_rows(values: np.ndarray, intervals) -> List[Tuple[int, int]]:
    """Row ranges of a column sorted over its non-NULL prefix (trailing NULLs
    excluded) whose values lie in the ascending, disjoint inclusive OID
    ``intervals``: binary searches only."""
    prefix_length = int(np.count_nonzero(values != NULL_OID))
    prefix = values[:prefix_length]
    rows = []
    for low, high in intervals:
        lo = 0 if low is None else int(np.searchsorted(prefix, low, side="left"))
        hi = prefix_length if high is None else int(np.searchsorted(prefix, high, side="right"))
        if hi > lo:
            rows.append((lo, hi))
    return rows


def _positions_within(positions: np.ndarray, row_ranges: List[Tuple[int, int]]) -> np.ndarray:
    """The ascending ``positions`` inside any of the sorted, disjoint
    half-open ``row_ranges``."""
    bounds = np.asarray(row_ranges, dtype=np.int64).reshape(-1, 2)
    _, kept = expand_ranges(np.searchsorted(positions, bounds[:, 0]),
                            np.searchsorted(positions, bounds[:, 1]))
    return positions[kept]


def _subject_rows_for_range(block: CSBlock, subject_range: OidRange) -> Tuple[int, int]:
    subjects = block.subject_column.data
    lo = 0 if subject_range.low is None else int(np.searchsorted(subjects, subject_range.low, side="left"))
    hi = len(subjects) if subject_range.high is None else int(
        np.searchsorted(subjects, subject_range.high, side="right"))
    return lo, max(lo, hi)


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


def _has_triples(context: ExecutionContext, delta, subjects: np.ndarray) -> np.ndarray:
    """Which ``subjects`` have a triple in ``base ∪ delta − tombstones``: their
    base rows on SPO, less their tombstones, plus their inserts."""
    def count(sorted_subjects: np.ndarray) -> np.ndarray:
        return (np.searchsorted(sorted_subjects, subjects, side="right")
                - np.searchsorted(sorted_subjects, subjects, side="left"))

    base = context.index_store.table("spo").column("s").data
    return (count(base) - count(np.sort(delta.tombstone_matrix()[:, 0]))
            + count(np.sort(delta.matrix()[:, 0]))) > 0


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


def _scan_index_merge(context: ExecutionContext, star: StarPattern, tails: List[np.ndarray],
                      candidate_subjects: Optional[np.ndarray]) -> BindingTable:
    """Evaluate a star over the PSO/POS projections with one merge pass.

    Each property contributes a (subject, object) list sorted by subject;
    the lists are intersected pairwise.  This is RDFscan without clustered
    storage: a single operator, no repeated index probes, but it reads every
    property's full predicate range (minus pushed-down object ranges).
    """
    store = context.index_store
    output_vars = star.output_variables()

    property_data: List[Tuple[StarProperty, np.ndarray, np.ndarray]] = []
    for prop, tail in zip(star.properties, tails):
        subjects, objects = _property_pairs(context, store, prop, tail, star.subject_range)
        if prop.required and subjects.size == 0:
            return BindingTable.empty(output_vars)
        property_data.append((prop, subjects, objects))

    # start from the most selective required property
    property_data.sort(key=lambda item: item[1].size if item[0].required else np.iinfo(np.int64).max)

    if property_data and any(prop.required for prop, _s, _o in property_data):
        first_prop, first_subjects, first_objects = property_data[0]
        table = BindingTable({star.subject_var: first_subjects})
        if first_prop.object_term.is_variable:
            table = table.with_column(first_prop.object_term.var, first_objects)
        remaining = property_data[1:]
    else:
        # all-optional star (the SQL view during pending writes): any subject
        # with at least one of the properties is a row, so seed from the
        # union and left-merge every property — anchoring on one property
        # would drop the subjects that lack it
        union = unique_keys(np.concatenate([s for _p, s, _o in property_data])) \
            if property_data else np.empty(0, dtype=np.int64)
        table = BindingTable({star.subject_var: union})
        remaining = property_data

    if candidate_subjects is not None:
        mask = np.isin(table.column(star.subject_var), candidate_subjects)
        table = table.filter_mask(mask)

    for prop, subjects, objects in remaining:
        table = _merge_property(context, table, star.subject_var, prop, subjects, objects)
        if table.num_rows == 0 and prop.required:
            return BindingTable.empty(output_vars)

    for name in output_vars:
        if not table.has(name):
            table = table.with_column(name, np.full(table.num_rows, NULL_OID, dtype=np.int64))
    return table.project(output_vars)


def _property_pairs(context: ExecutionContext, store, prop: StarProperty, tail: np.ndarray,
                    subject_range: Optional[OidRange]) -> Tuple[np.ndarray, np.ndarray]:
    """Fetch the (subject, object) pairs of one property, sorted by subject."""
    if not prop.object_term.is_variable:
        rows = store.scan_pattern(p=prop.predicate_oid, o=prop.object_term.oid, fetch="so")
    elif prop.oid_range is not None and not prop.oid_range.is_unbounded():
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
    if prop.oid_range is not None and not prop.oid_range.is_unbounded():
        mask = prop.oid_range.mask(objects, tail)
        subjects, objects = subjects[mask], objects[mask]
    if subject_range is not None and not subject_range.is_unbounded():
        mask = subject_range.mask(subjects)  # subjects are never literals: no tail
        subjects, objects = subjects[mask], objects[mask]
    order = np.argsort(subjects, kind="stable")
    return subjects[order], objects[order]


def _merge_property(context: ExecutionContext, table: BindingTable, subject_var: str,
                    prop: StarProperty, subjects: np.ndarray, objects: np.ndarray) -> BindingTable:
    """Join the current bindings with one property's (subject, object) pairs."""
    result, values = _match_property(context, table, subject_var, prop, subjects, objects)
    if values is not None:
        var = prop.object_term.var
        if result.has(var):
            result = result.filter_mask(result.column(var) == values)
        else:
            result = result.with_column(var, values)
    return result


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

    if prop.required:
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


def subject_range_for_property_range(block: CSBlock, predicate_oid: int, oid_range: OidRange,
                                     tail: np.ndarray = NO_OIDS) -> Optional[OidRange]:
    """Subject-OID bounds of the block rows whose property value is in range.

    Only meaningful when the block is sub-ordered on the property (which the
    clustering step arranges for the chosen sort key and records in
    :attr:`CSBlock.sorted_properties`): the property column is then
    non-decreasing over its non-NULL prefix, so the rows in each of the
    range's :meth:`~OidRange.intervals` (``tail``: the tail literals it
    matches) are contiguous, found by binary search, and the subjects of all
    of them lie between the first one's and the last one's.  Returns
    ``None`` when the column is not sorted that way.
    """
    if predicate_oid not in block.sorted_properties:
        return None
    rows = _sorted_prefix_rows(block.column(predicate_oid).data, oid_range.intervals(tail))
    if not rows:
        return OidRange(low=1, high=0)  # empty range: no subject can match
    subjects = block.subject_column.data
    return OidRange(low=int(subjects[rows[0][0]]), high=int(subjects[rows[-1][1] - 1]))


def fk_range_from_zonemap(block: CSBlock, constrained_predicate: int, oid_range: OidRange,
                          fk_predicate: int, tail: np.ndarray = NO_OIDS) -> Optional[OidRange]:
    """Bounds of a foreign-key column over the rows surviving a zone-map prune.

    Given a range constraint on one property (e.g. LINEITEM ``shipdate``;
    ``tail``: the tail literals it matches), use its zone map to find the
    candidate row ranges and return the min/max of the foreign-key column
    (e.g. the referenced ORDERS subject OIDs) over those rows — the
    restriction that can be pushed into the other CS.
    """
    zone_map = block.zone_map(constrained_predicate)
    if zone_map is None or not block.has_property(fk_predicate):
        return None
    fk_zone_map = block.zone_map(fk_predicate)
    ranges = zone_map.candidate_row_ranges(oid_range.intervals(tail))
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
