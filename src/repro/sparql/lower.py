"""SPARQL lowering: a parsed :class:`SelectQuery` to the planner's logical form.

The lowering writes the query's template: its triple patterns, with
variables by name and constants as they were parsed (terms, or the plan
cache's parameters), and its FILTER comparisons — ``=`` / ``!=`` as term
(in)equalities, the others as value ranges.
:meth:`~repro.planner.LogicalQuery.bind` then groups patterns sharing a
subject variable into star patterns and translates the comparisons to OID
ranges (the loader assigns value-ordered literal OIDs) attached to the star
properties and subjects they restrict.  No operator is built here.
"""

from __future__ import annotations

from ..engine import AggregateSpec, ExecutionContext, PatternTerm
from ..planner import LogicalQuery, numeric_expression, range_filter
from .ast import SelectQuery, Variable


def lower_select(query: SelectQuery, context: ExecutionContext) -> LogicalQuery:
    """Lower a parsed SELECT query to its :class:`LogicalQuery` template."""
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

    def node(item):
        return PatternTerm.variable(item.name) if isinstance(item, Variable) else item

    logical.patterns = [(node(pattern.subject), node(pattern.predicate), node(pattern.object), True)
                        for pattern in query.patterns]
    # a variable's != filters apply in the order its first comparison was written
    first = {}
    for comparison in query.filters:
        first.setdefault(comparison.variable, len(first))
        if comparison.op == "=":
            logical.equal_terms.append((comparison.variable, comparison.value))
        elif comparison.op == "!=":
            logical.not_equal_terms.append((comparison.variable, comparison.value))
        else:
            logical.ranges.append(range_filter(comparison.variable, comparison.op,
                                               comparison.value))
    logical.not_equal_terms.sort(key=lambda entry: first[entry[0]])
    return logical
