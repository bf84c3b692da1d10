"""SPARQL lowering: a parsed :class:`SelectQuery` to the planner's logical form.

Patterns sharing a subject variable are grouped into star patterns; FILTER
comparisons over literals are translated to OID ranges (the loader assigns
value-ordered literal OIDs) and attached to the star properties and
subjects they restrict.  Every constant the dictionary does not hold is
recorded on the logical query, so a cached plan knows when a write made it
stale.  No operator is built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..engine import (
    AggregateSpec,
    ExecutionContext,
    OidRange,
    PatternTerm,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
)
from ..model import Literal, Term
from ..planner import LogicalQuery, numeric_expression
from .ast import Comparison, SelectQuery, Variable


@dataclass
class _VarConstraint:
    """Accumulated FILTER constraints for one variable, in OID space."""

    equal_oid: Optional[int] = None
    not_equal_oids: List[int] = field(default_factory=list)
    oid_range: OidRange = field(default_factory=OidRange)
    unsatisfiable: bool = False

    def bounded_range(self) -> Optional[OidRange]:
        return None if self.oid_range.is_unbounded() else self.oid_range


def lower_select(query: SelectQuery, context: ExecutionContext) -> LogicalQuery:
    """Lower a parsed SELECT query to a :class:`LogicalQuery`."""
    logical = LogicalQuery(
        group_vars=list(query.group_by),
        aggregates=[AggregateSpec(func=aggregate.func,
                                  expression=numeric_expression(aggregate.expression.node, str),
                                  alias=aggregate.alias)
                    for aggregate in query.aggregates],
        distinct=query.distinct,
        order_by=[(condition.variable, condition.descending) for condition in query.order_by],
        limit=query.limit,
        output=[(name, name) for name in query.output_names()],
    )
    if not query.patterns:
        logical.empty = "no patterns"
        return logical

    def oid_of(term: Term) -> Optional[int]:
        oid = context.encoder.term_oid(term)
        if oid is None:
            logical.absent_terms.append(term)
        return oid

    constraints = _translate_filters(query, context, oid_of)
    if any(constraint.unsatisfiable for constraint in constraints.values()):
        logical.empty = "unsatisfiable filter"
        return logical
    for pattern in query.patterns:
        subject, predicate = pattern.subject, pattern.predicate
        in_star = isinstance(subject, Variable) and not isinstance(predicate, Variable)
        predicate_oid = oid_of(predicate) if in_star else None
        obj = _pattern_term(pattern.object, oid_of)
        loose_terms = () if in_star else (_pattern_term(subject, oid_of),
                                          _pattern_term(predicate, oid_of))
        if obj is None or None in loose_terms or (in_star and predicate_oid is None):
            logical.empty = "unknown term"  # a constant the data never mentions
            return logical
        constraint = constraints.get(obj.var) if obj.is_variable else None
        oid_range = constraint.bounded_range() if constraint is not None else None
        if not in_star:
            logical.loose.append((TriplePatternPlan(*loose_terms, obj), oid_range))
            continue
        if constraint is not None and constraint.equal_oid is not None:
            obj, oid_range = PatternTerm.constant(constraint.equal_oid), None
        star = logical.stars.get(subject.name)
        if star is None:
            subject_constraint = constraints.get(subject.name)
            star = logical.stars[subject.name] = StarPattern(
                subject_var=subject.name,
                subject_range=(subject_constraint.bounded_range()
                               if subject_constraint is not None else None))
        star.properties.append(StarProperty(predicate_oid=predicate_oid, object_term=obj,
                                            oid_range=oid_range))
    pattern_vars = set(query.all_variables())
    logical.not_equal = [(var, oid) for var, constraint in constraints.items()
                         if var in pattern_vars for oid in constraint.not_equal_oids]
    return logical


_OidOf = Callable[[Term], Optional[int]]
"""A term's OID, ``None`` (and recorded as absent) when the data lacks it."""


def _pattern_term(node, oid_of: _OidOf) -> Optional[PatternTerm]:
    if isinstance(node, Variable):
        return PatternTerm.variable(node.name)
    oid = oid_of(node)
    return None if oid is None else PatternTerm.constant(oid)


def _translate_filters(query: SelectQuery, context: ExecutionContext,
                       oid_of: _OidOf) -> Dict[str, _VarConstraint]:
    constraints: Dict[str, _VarConstraint] = {}
    for comparison in query.filters:
        _push_comparison(constraints.setdefault(comparison.variable, _VarConstraint()),
                         comparison, context, oid_of)
    return constraints


def _push_comparison(constraint: _VarConstraint, comparison: Comparison,
                     context: ExecutionContext, oid_of: _OidOf) -> None:
    value = comparison.value
    if comparison.op in ("=", "!="):
        oid = oid_of(value)
        if comparison.op == "=":
            if oid is None:
                constraint.unsatisfiable = True
            elif constraint.equal_oid is not None and constraint.equal_oid != oid:
                constraint.unsatisfiable = True
            else:
                constraint.equal_oid = oid
        elif oid is not None:
            constraint.not_equal_oids.append(oid)
        return
    if not isinstance(value, Literal):
        return  # range comparison over IRIs: not supported, ignored
    low: Optional[Literal] = None
    high: Optional[Literal] = None
    low_inclusive = high_inclusive = True
    if comparison.op in (">", ">="):
        low = value
        low_inclusive = comparison.op == ">="
    else:
        high = value
        high_inclusive = comparison.op == "<="
    bounds = context.encoder.literal_range(low, high, low_inclusive, high_inclusive)
    constraint.oid_range = constraint.oid_range.intersect(bounds)
