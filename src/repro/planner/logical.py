"""The front-end-neutral logical query both front ends lower to.

A :class:`LogicalQuery` is a conjunctive star query in OID space: names are
resolved, constants are OIDs, FILTER / WHERE comparisons are OID ranges on
the star properties they restrict.  The SPARQL lowering
(:mod:`repro.sparql.lower`) and the SQL lowering (:mod:`repro.sql.engine`)
each build one and construct no operators; :class:`~repro.planner.Planner`
turns it into a physical plan and is the only code that does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..engine import (
    AggregateSpec,
    BinaryOp,
    Expression,
    NumericConst,
    NumericVar,
    OidRange,
    StarPattern,
    TriplePatternPlan,
)
from ..model import Term


@dataclass
class LogicalQuery:
    """Stars, loose patterns, filters and solution modifiers of one query.

    A lowering hands the planner a fresh instance per call: zone-map
    push-down narrows the stars' ranges in place.
    """

    stars: Dict[str, StarPattern] = field(default_factory=dict)
    """Star patterns by subject variable, in query order."""
    loose: List[Tuple[TriplePatternPlan, Optional[OidRange]]] = field(default_factory=list)
    """Patterns outside every star (constant subject or variable
    predicate), each with the OID range on its object variable, if any."""
    not_equal: List[Tuple[str, int]] = field(default_factory=list)
    """``var != oid`` filters, applied above the joins."""
    group_vars: List[str] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    distinct: bool = False
    order_by: List[Tuple[str, bool]] = field(default_factory=list)
    """``(variable or aggregate alias, descending)`` keys."""
    limit: Optional[int] = None
    output: List[Tuple[str, str]] = field(default_factory=list)
    """``(variable or aggregate alias, result column name)`` in SELECT order."""
    empty: Optional[str] = None
    """Why the pattern block is statically empty (a constant absent from the
    data, an unsatisfiable filter), or ``None``.  The modifiers still apply:
    ``COUNT`` over nothing is one row."""
    absent_terms: List[Term] = field(default_factory=list)
    """Every constant the lowering looked up and did not find (a pattern
    constant, a SPARQL ``=`` / ``!=`` operand, a SQL ``!=`` operand).  The
    plan is valid while none of them exists: within one base generation the
    dictionary only grows, so :meth:`QueryEngine.prepare
    <repro.planner.QueryEngine.prepare>` re-plans a cached query once one
    of them appears."""

    def output_names(self) -> List[str]:
        """The result column names in SELECT order."""
        return [name for _var, name in self.output]

    def output_keys(self) -> List[str]:
        """The binding name of each result column: its output name, made
        unique with a ``#<position>`` suffix where select items share one
        (``SELECT a AS x, b AS x``), so every item keeps its own column."""
        return unique_names(self.output_names())

    def modifier_variables(self) -> List[str]:
        """Every variable the filters and modifiers read, so a plan for an
        ``empty`` query can bind them all."""
        names: List[str] = [var for var, _oid in self.not_equal]
        names.extend(self.group_vars)
        for aggregate in self.aggregates:
            names.extend(sorted(aggregate.expression.variables()))
        names.extend(var for var, _descending in self.order_by)
        names.extend(var for var, _name in self.output)
        return list(dict.fromkeys(names))


def unique_names(names: List[str]) -> List[str]:
    """``names`` with each repeat suffixed by its 1-based position."""
    seen: set = set()
    keys = []
    for position, name in enumerate(names, start=1):
        key = name if name not in seen else f"{name}#{position}"
        seen.add(key)
        keys.append(key)
    return keys


def numeric_expression(node: object, variable_of: Callable[[object], str]) -> Expression:
    """Build an engine expression from a front end's arithmetic tree.

    Both parsers produce nested ``(op, left, right)`` tuples over numbers
    and their own variable leaves (a SPARQL variable name, a SQL column
    reference); ``variable_of`` names the engine variable of a leaf.
    """
    if type(node) is tuple:  # an (op, left, right) node; a Term is a tuple subclass
        op, left, right = node
        return BinaryOp(op, numeric_expression(left, variable_of),
                        numeric_expression(right, variable_of))
    if isinstance(node, (int, float)):
        return NumericConst(float(node))
    return NumericVar(variable_of(node))
