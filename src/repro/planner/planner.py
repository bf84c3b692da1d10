"""The one planner: lowers a :class:`LogicalQuery` to a physical plan.

Both front ends end here.  Two plan schemes reproduce the two halves of
Table I:

* ``default`` — every star property becomes an index scan against the
  exhaustive permutation store; the properties of one star are combined
  with nested-loop index joins (one join per additional property), stars
  and loose patterns with hash joins;
* ``rdfscan`` — each star is handed to a single RDFscan; stars connected
  over a discovered foreign key become RDFjoins fed by the upstream star;
  stars are ordered by one rule, :meth:`Planner._order_stars`; a loose
  pattern whose subject is already bound (``?s ?p ?o``) is a nested-loop
  probe of SPO per subject.

``optimized`` is accepted as a third name and plans exactly like
``rdfscan``: the benchmark harness still names it.  Estimates never choose
a plan; every finished plan is *annotated* with estimated row counts by the
:class:`~repro.planner.QueryOptimizer`, so ``explain()`` shows estimated
vs. actual cardinalities after execution.

With a clustered store present, the stars' range predicates are pushed
*across* foreign keys using the CS blocks' zone maps, reproducing the
paper's cross-table date restriction on RDF-H Q3 — for either front end,
unless :attr:`PlannerOptions.use_zone_maps` turns it off (Table I's
ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..columnar import NULL_OID
from ..errors import PlanError
from ..engine import (
    AggregateOp,
    BindingTable,
    DistinctOp,
    ExecutionContext,
    HashJoinOp,
    HeadRange,
    IndexScanOp,
    LimitOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    OrderByOp,
    PatternTerm,
    PhysicalOperator,
    ProjectOp,
    RDFJoinOp,
    RDFScanOp,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
    fk_range_from_zonemap,
    subject_range_for_property_range,
)
from ..engine.operators import FilterNotEqualOp
from ..engine.plan import NO_OIDS, is_bounded
from .logical import LogicalQuery
from .optimizer import QueryOptimizer

DEFAULT_SCHEME = "default"
RDFSCAN_SCHEME = "rdfscan"
OPTIMIZED_SCHEME = "optimized"

_SCHEMES = (DEFAULT_SCHEME, RDFSCAN_SCHEME, OPTIMIZED_SCHEME)


@dataclass(frozen=True)
class PlannerOptions:
    """Plan-scheme configuration (one row of Table I).

    Attributes:
        scheme: ``default``, ``rdfscan`` or ``optimized`` (the same plans as
            ``rdfscan``).
        use_zone_maps: push range predicates across foreign keys through the
            CS blocks' zone maps (the cross-table restriction of RDF-H Q3).
            On by default; off is Table I's ablation.  It does not switch
            zone maps themselves: a star operator prunes by a ranged
            column's zone map whenever its block has one.
    """

    scheme: str = RDFSCAN_SCHEME
    use_zone_maps: bool = True

    def describe(self) -> str:
        return f"scheme={self.scheme} zonemaps={'yes' if self.use_zone_maps else 'no'}"


class Planner:
    """Translates :class:`LogicalQuery` forms into physical plans."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context
        self.optimizer = QueryOptimizer(context)

    # -- public entry point -----------------------------------------------------

    def plan(self, logical: LogicalQuery, options: PlannerOptions) -> PhysicalOperator:
        """Lower a logical query to an executable physical plan.

        Push-down, star order, star assembly, filters, solution modifiers,
        annotation — in that order, whichever front end the query came from.

        Returns:
            The root :class:`PhysicalOperator`, annotated with estimated
            row counts.

        Raises:
            PlanError: when the options name an unknown plan scheme.
        """
        if options.scheme not in _SCHEMES:
            raise PlanError(f"unknown plan scheme {options.scheme!r}")
        if logical.empty is not None:
            root = MaterializedOp(BindingTable.empty(logical.modifier_variables()),
                                  label=f"empty ({logical.empty})")
        else:
            root = self._join_patterns(logical, options)
        for var, oid in logical.not_equal:
            root = FilterNotEqualOp(root, var, oid)
        root = self._apply_solution_modifiers(root, logical)
        self.optimizer.annotate(root)
        return root

    def _join_patterns(self, logical: LogicalQuery, options: PlannerOptions) -> PhysicalOperator:
        stars, scheme = logical.stars, options.scheme
        # Stars are ordered by the query's own constants and FILTER ranges,
        # before zone maps derive any range.
        if scheme == DEFAULT_SCHEME:
            ordered = self._order_baseline(stars)
        else:
            ordered = self._order_stars(stars)
        if options.use_zone_maps and self.context.has_clustered_store():
            self._apply_zone_map_pushdown(stars)

        root: Optional[PhysicalOperator] = None
        planned_vars: set[str] = set()
        for star in ordered:
            if scheme == DEFAULT_SCHEME:
                root = self._hash_join(root, self._index_star(star), planned_vars,
                                       star.output_variables())
            elif root is None:
                root = RDFScanOp(star)
            elif star.subject_var in planned_vars:
                root = RDFJoinOp(root, star)
            else:
                root = self._connect_star(root, star, planned_vars)
            planned_vars.update(star.output_variables())
        for pattern, object_range in logical.loose:
            if (scheme != DEFAULT_SCHEME and pattern.subject.is_variable
                    and pattern.subject.var in planned_vars):
                # ?s ?p ?o with ?s bound: probe SPO per subject, not scan it all
                root = NestedLoopIndexJoinOp(root, pattern, object_range=object_range)
            else:
                root = self._hash_join(root, IndexScanOp(pattern, object_range=object_range),
                                       planned_vars, pattern.variables())
            planned_vars.update(pattern.variables())
        return root

    @staticmethod
    def _hash_join(root: Optional[PhysicalOperator], plan: PhysicalOperator,
                   planned_vars: set[str], plan_vars: List[str]) -> PhysicalOperator:
        """``plan`` hash-joined into the running plan on the variables they share."""
        if root is None:
            return plan
        return HashJoinOp(root, plan, join_vars=sorted(planned_vars & set(plan_vars)) or None)

    # -- RDFscan / RDFjoin schemes ------------------------------------------------------

    def _connect_star(self, root: PhysicalOperator, star: StarPattern,
                      planned_vars: set[str]) -> PhysicalOperator:
        """Join a star whose subject is not yet bound into the running plan.

        The Fig. 4(b) case: when the star references an already-planned star
        through one of its properties (``?s prop4 ?s2`` with ``?s2`` bound),
        each row of the plan so far probes that property's POS slice for the
        subjects referencing its ``?s2`` (a nested-loop index join keyed on
        the object), and the *rest* of the star is evaluated by RDFjoin over
        those candidates.  Otherwise the whole star is RDFscanned and
        hash-joined on the shared variables.
        """
        linking = next((prop for prop in star.properties
                        if prop.object_term.is_variable and prop.object_term.var in planned_vars),
                       None)
        remaining = [prop for prop in star.properties if prop is not linking]
        if linking is not None and remaining:
            joined = NestedLoopIndexJoinOp(root, _property_pattern(star, linking),
                                           object_range=linking.oid_range,
                                           subject_range=star.subject_range, key="o")
            rest = StarPattern(subject_var=star.subject_var, properties=remaining,
                               subject_range=star.subject_range, head_range=star.head_range)
            return RDFJoinOp(joined, rest)
        scan = RDFScanOp(star)
        return self._hash_join(root, scan, planned_vars, star.output_variables())

    def _order_stars(self, star_patterns: Dict[str, StarPattern]) -> List[StarPattern]:
        """The star order of the RDFscan plans: constrained stars first, then
        stars reachable from planned ones (see ``docs/optimizer.md`` §2)."""

        def constraint_score(star: StarPattern) -> int:
            # constrained stars first; among equally constrained ones prefer the
            # wider star so that narrow satellite stars become RDFjoins fed by it
            score = len(star.properties)
            for prop in star.properties:
                if not prop.object_term.is_variable:
                    score += 20
                if is_bounded(prop.oid_range):
                    score += 20
            if is_bounded(star.subject_range):
                score += 20
            return score

        remaining = dict(star_patterns)
        ordered: List[StarPattern] = []
        available_vars: set[str] = set()
        while remaining:
            # prefer a star whose subject is already bound (enables RDFjoin), then
            # any star connected to the plan so far, then the most constrained one
            def connectivity(star: StarPattern) -> int:
                if star.subject_var in available_vars:
                    return 0
                if available_vars & set(star.output_variables()):
                    return 1
                return 2 if available_vars else 1

            chosen = min(remaining.values(),
                         key=lambda s: (connectivity(s), -constraint_score(s), s.subject_var))
            ordered.append(chosen)
            available_vars.update(chosen.output_variables())
            del remaining[chosen.subject_var]
        return ordered

    def _apply_zone_map_pushdown(self, star_patterns: Dict[str, StarPattern]) -> None:
        """Derive subject ranges from sorted columns and push them across FKs.

        A derived range describes the head rows of the block it was derived
        from.  On a store that is all head rows — no tail, no pending write
        — it bounds every row, like the query's own ranges, and joins them.
        Otherwise a star's subject range is a :class:`HeadRange` that star
        operators apply to head rows only, widened by what non-head rows
        reference or are: the compacted tails now, a pending write's rows
        when a run opens (the plan serves every pending version of its
        generation).  Pushed into a foreign key that references the star, it
        also lets through every subject the star answers outside its heads,
        and bounds every row (``StarProperty.fk_range``).
        """
        if not any(is_bounded(star.subject_range) or any(is_bounded(prop.oid_range)
                                                          for prop in star.properties)
                   for star in star_patterns.values()):
            return
        store = self.context.clustered_store
        heads_only = store.has_tails or self.context.has_pending_delta()
        block_of_star: Dict[str, object] = {}
        for subject_var, star in star_patterns.items():
            blocks = store.blocks_with_properties(star.predicate_oids())
            # ranges derived from a block's rows are exact only when the block
            # holds every answer: no irregular triple carries a star predicate
            if len(blocks) == 1 and not _has_irregular(store, star):
                block_of_star[subject_var] = blocks[0]

        # the tail literals a range matches in head rows are among those the
        # dictionary holds now: head rows change only with the generation
        dictionary = self.context.dictionary

        def narrow(star: StarPattern, derived: HeadRange) -> None:
            if not heads_only:
                star.subject_range = derived.oid_range if star.subject_range is None \
                    else star.subject_range.intersect(derived.oid_range)
            else:
                star.head_range = derived if star.head_range is None \
                    else star.head_range.intersect(derived)

        # pass 1: subject ranges from range predicates over sub-ordered
        # columns.  A head range bounds the rows the sorted column's binary
        # search finds anyway: it matters only pushed into a foreign key
        referenced = {prop.object_term.var for star in star_patterns.values()
                      for prop in star.properties if prop.object_term.is_variable}
        for subject_var, star in star_patterns.items():
            block = block_of_star.get(subject_var)
            if block is None or (heads_only and subject_var not in referenced):
                continue
            for prop in star.properties:
                if not is_bounded(prop.oid_range):
                    continue
                derived = subject_range_for_property_range(
                    block, prop.predicate_oid, prop.oid_range, prop.oid_range.tail_oids(dictionary))
                if derived is not None:
                    narrow(star, HeadRange(derived))

        # pass 2: push ranges across foreign keys, in both directions
        for subject_var, star in star_patterns.items():
            block = block_of_star.get(subject_var)
            for prop in star.properties:
                if not prop.object_term.is_variable:
                    continue
                target = star_patterns.get(prop.object_term.var)
                if target is None or target is star:
                    continue
                # (a) the referenced star's subject range restricts this FK
                # column; with a head range, to the subjects the target can
                # answer: head ones in range, and every one no head holds
                if is_bounded(target.subject_range):
                    prop.oid_range = target.subject_range if prop.oid_range is None \
                        else prop.oid_range.intersect(target.subject_range)
                if target.head_range is not None:
                    prop.fk_range = target.head_range.widened(
                        _non_head_subjects(store, target), target.subject_range)
                # (b) a range predicate on this star, via zone maps, bounds the
                # FK values of its head rows; the target's head rows that
                # this star's other rows reference pass too
                if block is not None:
                    for other in star.properties:
                        if other is prop or not is_bounded(other.oid_range):
                            continue
                        fk_bounds = fk_range_from_zonemap(
                            block, other.predicate_oid, other.oid_range, prop.predicate_oid,
                            other.oid_range.tail_oids(dictionary))
                        if fk_bounds is not None:
                            narrow(target, HeadRange(
                                fk_bounds, _tail_values(block, prop.predicate_oid),
                                (prop.predicate_oid,)))

    # -- default scheme --------------------------------------------------------------------

    @staticmethod
    def _order_baseline(star_patterns: Dict[str, StarPattern]) -> List[StarPattern]:
        """Most selective property first within each star (constant, then
        range, then unconstrained), most constrained star first; ties keep
        query order."""

        def rank(prop: StarProperty) -> int:
            if not prop.object_term.is_variable:
                return 0
            return 1 if is_bounded(prop.oid_range) else 2

        for star in star_patterns.values():
            star.properties.sort(key=rank)
        return sorted(star_patterns.values(),
                      key=lambda star: -sum((3, 2, 0)[rank(prop)] for prop in star.properties))

    @staticmethod
    def _index_star(star: StarPattern) -> PhysicalOperator:
        """Index scan for the first property, nested-loop index joins for
        every further one — the plan shape of Fig. 4 (left side)."""
        first, *rest = star.properties
        root: PhysicalOperator = IndexScanOp(_property_pattern(star, first),
                                             object_range=first.oid_range,
                                             subject_range=star.subject_range)
        for prop in rest:
            root = NestedLoopIndexJoinOp(root, _property_pattern(star, prop),
                                         object_range=prop.oid_range)
        return root

    # -- solution modifiers ------------------------------------------------------------

    @staticmethod
    def _apply_solution_modifiers(root: PhysicalOperator, logical: LogicalQuery) -> PhysicalOperator:
        if logical.aggregates:
            root = AggregateOp(root, group_vars=logical.group_vars, aggregates=logical.aggregates)
        elif logical.distinct:
            root = DistinctOp(ProjectOp(root, [(var, var) for var, _name in logical.output]))
        if logical.order_by:
            root = OrderByOp(root, logical.order_by)
        if logical.limit is not None:
            root = LimitOp(root, logical.limit)
        if logical.output:
            root = ProjectOp(root, [(var, key) for (var, _name), key
                                    in zip(logical.output, logical.output_keys())])
        return root


def _non_head_subjects(store, star: StarPattern) -> np.ndarray:
    """The subjects of ``star`` no head row holds, as far as the store
    knows before a run: its blocks' tail rows and every irregular subject."""
    tails = [block.subject_column.data[block.head_rows:]
             for block in store.blocks_with_properties(star.predicate_oids())]
    return np.union1d(store.irregular_subjects(), np.concatenate([NO_OIDS] + tails))


def _tail_values(block, predicate_oid: int) -> np.ndarray:
    """The distinct values of one column in the block's tail rows."""
    values = np.unique(block.column(predicate_oid).data[block.head_rows:])
    return values[values != NULL_OID]


def _has_irregular(store, star: StarPattern) -> bool:
    """Whether an irregular triple carries one of the star's predicates
    (binary searches of the irregular table, no page read)."""
    irregular = store.irregular
    return bool(len(irregular)) and any(
        hi > lo for lo, hi in map(irregular.prefix_row_range, star.predicate_oids()))


def _property_pattern(star: StarPattern, prop: StarProperty) -> TriplePatternPlan:
    """One star property as a triple pattern: ``?subject <predicate> object``."""
    return TriplePatternPlan(PatternTerm.variable(star.subject_var),
                             PatternTerm.constant(prop.predicate_oid), prop.object_term)
