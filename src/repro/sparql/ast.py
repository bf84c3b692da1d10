"""Abstract syntax tree of the supported SPARQL subset.

The subset covers what the paper's workload needs (and a bit more): basic
graph patterns, FILTER with comparison conjunctions, SELECT with variables
or aggregate expressions, DISTINCT, GROUP BY, ORDER BY and LIMIT.

The write path adds the SPARQL Update subset used by
:meth:`repro.core.RDFStore.update`: ``INSERT DATA``, ``DELETE DATA`` and
``DELETE WHERE`` statements, optionally chained with ``;`` into one
:class:`UpdateRequest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..model import Term, Triple


@dataclass(frozen=True)
class Variable:
    """A SPARQL variable, e.g. ``?price``."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"?{self.name}"


PatternNode = Union[Variable, Term]
"""A slot in a triple pattern: a variable or a concrete RDF term."""


@dataclass(frozen=True)
class TriplePattern:
    """One ``subject predicate object`` pattern inside a WHERE clause."""

    subject: PatternNode
    predicate: PatternNode
    object: PatternNode

    def variables(self) -> List[str]:
        out = []
        for node in (self.subject, self.predicate, self.object):
            if isinstance(node, Variable):
                out.append(node.name)
        return out


@dataclass(frozen=True)
class Comparison:
    """A FILTER comparison ``?var <op> constant`` (or ``constant <op> ?var``).

    ``op`` is one of ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
    """

    variable: str
    op: str
    value: Term

    _OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")


@dataclass(frozen=True)
class ArithmeticExpr:
    """Arithmetic over variables/constants inside an aggregate, e.g.
    ``?price * (1 - ?discount)``.  Represented as a nested structure of
    ``('op', left, right)`` tuples, variables (str) and numeric constants."""

    node: object

    def variables(self) -> List[str]:
        out: List[str] = []

        def walk(node: object) -> None:
            if isinstance(node, str):
                out.append(node)
            elif type(node) is tuple:  # an (op, left, right) node; a Term is a tuple subclass
                _op, left, right = node
                walk(left)
                walk(right)

        walk(self.node)
        return out


@dataclass(frozen=True)
class AggregateExpr:
    """``(FUNC(expression) AS ?alias)`` in the SELECT clause."""

    func: str
    expression: ArithmeticExpr
    alias: str


@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY key: a variable name plus direction."""

    variable: str
    descending: bool = False


@dataclass
class SelectQuery:
    """A parsed SELECT query."""

    select_variables: List[str] = field(default_factory=list)
    aggregates: List[AggregateExpr] = field(default_factory=list)
    patterns: List[TriplePattern] = field(default_factory=list)
    filters: List[Comparison] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    def all_variables(self) -> List[str]:
        seen: List[str] = []
        for pattern in self.patterns:
            for name in pattern.variables():
                if name not in seen:
                    seen.append(name)
        return seen

    def output_names(self) -> List[str]:
        """The result column names in SELECT order."""
        names = list(self.select_variables)
        names.extend(agg.alias for agg in self.aggregates)
        return names


# -- SPARQL Update ------------------------------------------------------------


@dataclass(frozen=True)
class InsertDataOp:
    """``INSERT DATA { ... }``: add a set of ground triples."""

    triples: Tuple[Triple, ...]


@dataclass(frozen=True)
class DeleteDataOp:
    """``DELETE DATA { ... }``: remove a set of ground triples."""

    triples: Tuple[Triple, ...]


@dataclass(frozen=True)
class DeleteWhereOp:
    """``DELETE WHERE { ... }``: remove every instantiation of the pattern.

    The pattern block doubles as the deletion template, exactly as in the
    SPARQL 1.1 Update shorthand; FILTERs are not part of the subset.
    """

    patterns: Tuple[TriplePattern, ...]

    def all_variables(self) -> List[str]:
        seen: List[str] = []
        for pattern in self.patterns:
            for name in pattern.variables():
                if name not in seen:
                    seen.append(name)
        return seen


UpdateOperation = Union[InsertDataOp, DeleteDataOp, DeleteWhereOp]
"""One statement of an update request."""


@dataclass
class UpdateRequest:
    """A parsed SPARQL Update request: one or more ``;``-chained statements."""

    operations: List[UpdateOperation] = field(default_factory=list)
