"""The front-end-neutral logical query both front ends lower to.

A lowering (:mod:`repro.sparql.lower`, :mod:`repro.sql.engine`) resolves
names and emits a *template*: a :class:`LogicalQuery` whose patterns and
comparisons are still written in terms, each constant either a term or a
:class:`Param` — the text of one constant the plan cache lifted out of the
query text.  :meth:`LogicalQuery.bind` resolves the template's constants
against one version's dictionary and returns the conjunctive star query in
OID space the planner reads: constants are OIDs, FILTER / WHERE comparisons
are OID ranges on the star properties they restrict.  Neither step
constructs an operator; :class:`~repro.planner.Planner` turns the bound
query into a physical plan and is the only code that does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..engine import (
    AggregateSpec,
    BinaryOp,
    ExecutionContext,
    Expression,
    NumericConst,
    NumericVar,
    OidRange,
    PatternTerm,
    StarPattern,
    StarProperty,
    TriplePatternPlan,
)
from ..model import Literal, Term


class Param(NamedTuple):
    """A constant of the query text at lifted slot ``slot``: ``read`` turns
    that slot's text into the term the parser reads there."""

    slot: int
    read: Callable[[str], Term]


Const = Union[Term, Param, int]
"""A template's constant: a term, a parameter, or an OID already known (a
SQL column's predicate)."""

Node = Union[PatternTerm, Const]
"""A pattern position: a variable (its :class:`PatternTerm`, shared by every
binding), or a constant."""


@dataclass
class LogicalQuery:
    """Stars, loose patterns, filters and solution modifiers of one query.

    A template fills :attr:`patterns`, :attr:`ranges`, :attr:`equal_terms`
    and :attr:`not_equal_terms`; :meth:`bind` turns them into
    :attr:`stars`, :attr:`loose` and :attr:`not_equal` on a fresh instance
    per call, since zone-map push-down narrows the stars' ranges in place.
    """

    patterns: List[Tuple[Node, Node, Node, bool]] = field(default_factory=list)
    """Template: ``(subject, predicate, object, required)`` in query order."""
    ranges: List[Tuple[str, Optional[Const], Optional[Const], bool, bool]] = \
        field(default_factory=list)
    """Template: ``(variable, low, high, low_inclusive, high_inclusive)``
    value comparisons (:func:`range_filter`)."""
    equal_terms: List[Tuple[str, Const]] = field(default_factory=list)
    """Template: SPARQL ``?var = constant`` (the same term)."""
    not_equal_terms: List[Tuple[str, Const]] = field(default_factory=list)
    """Template: ``?var != constant`` (a different term)."""
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
    """Why the pattern block is statically empty (no pattern, a constant
    absent from the data, an unsatisfiable filter), or ``None``.  The
    modifiers still apply: ``COUNT`` over nothing is one row."""

    def slots(self) -> set:
        """The lifted slots the template's constants read."""
        constants = [node for pattern in self.patterns for node in pattern[:3]]
        for _var, low, high, _low_inclusive, _high_inclusive in self.ranges:
            constants += (low, high)
        constants += [const for _var, const in self.equal_terms + self.not_equal_terms]
        return {const.slot for const in constants if type(const) is Param}

    def bind(self, values: Sequence[str], context: ExecutionContext
             ) -> Tuple["LogicalQuery", bool]:
        """The query the template stands for with the lifted slots' texts
        ``values``, in the OID space of ``context``'s dictionary.

        A constant the dictionary lacks empties the pattern block — an
        unknown pattern term, a failed ``=`` — or drops a ``!=``; so do two
        different ``=`` constants on one variable and a range comparison
        with an IRI, which SPARQL does not order.  Returns the bound query
        and whether every constant looked up was present: a binding that
        found one absent is this version's answer only, since a write may
        add the constant within the generation.

        Raises:
            ParseError: when a value is no constant of its slot's kind (an
                empty IRI, a malformed SQL date).
        """
        bound = LogicalQuery(group_vars=self.group_vars, aggregates=self.aggregates,
                             distinct=self.distinct, order_by=self.order_by, limit=self.limit,
                             output=self.output, empty=self.empty)
        if self.empty is not None:
            return bound, True
        lookup = context.dictionary.lookup_term
        absent = []

        def term(const):
            return const.read(values[const.slot]) if type(const) is Param else const

        def oid_of(const) -> Optional[int]:
            if type(const) is int:
                return const
            oid = lookup(term(const))
            if oid is None:
                absent.append(const)
            return oid

        def pattern_term(node) -> Optional[PatternTerm]:
            if type(node) is PatternTerm:
                return node
            oid = oid_of(node)
            return None if oid is None else PatternTerm.constant(oid)

        equal: Dict[str, int] = {}
        for var, const in self.equal_terms:
            oid = oid_of(const)
            if oid is None or equal.setdefault(var, oid) != oid:
                bound.empty = "unsatisfiable filter"
                return bound, not absent
        ranges: Dict[str, OidRange] = {}
        for var, low, high, low_inclusive, high_inclusive in self.ranges:
            low = low if low is None else term(low)
            high = high if high is None else term(high)
            if not isinstance(high if low is None else low, Literal):
                bound.empty = "unsatisfiable filter"
                return bound, not absent
            ranges[var] = ranges.get(var, OidRange()).intersect(
                OidRange.of_values(context.dictionary, low, high, low_inclusive, high_inclusive))
        for subject, predicate, obj, required in self.patterns:
            in_star = type(subject) is PatternTerm and type(predicate) is not PatternTerm
            predicate_oid = oid_of(predicate) if in_star else None
            object_term = pattern_term(obj)
            loose_terms = () if in_star else (pattern_term(subject), pattern_term(predicate))
            if object_term is None or None in loose_terms or (in_star and predicate_oid is None):
                bound.empty = "unknown term"  # a constant the data never mentions
                return bound, False
            var = object_term.var
            oid_range = ranges.get(var) if var is not None else None
            if not in_star:
                bound.loose.append((TriplePatternPlan(*loose_terms, object_term), oid_range))
                continue
            if var in equal:
                object_term, oid_range = PatternTerm.constant(equal[var]), None
            star = bound.stars.get(subject.var)
            if star is None:
                star = bound.stars[subject.var] = StarPattern(
                    subject_var=subject.var, subject_range=ranges.get(subject.var))
            star.properties.append(StarProperty(predicate_oid=predicate_oid,
                                                object_term=object_term,
                                                oid_range=oid_range, required=required))
        if self.not_equal_terms:
            variables = {node.var for pattern in self.patterns for node in pattern[:3]
                         if type(node) is PatternTerm}
            for var, const in self.not_equal_terms:
                oid = oid_of(const) if var in variables else None
                if oid is not None:
                    bound.not_equal.append((var, oid))
        return bound, not absent

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


def range_filter(var: str, op: str, const: Const) -> tuple:
    """One comparison ``var op const`` (``<``, ``<=``, ``>``, ``>=``, and
    SQL's ``=``, a value equality) as a :attr:`LogicalQuery.ranges` entry."""
    return (var, const if op in ("=", ">", ">=") else None,
            const if op in ("=", "<", "<=") else None, op != ">", op != "<")


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
