"""SPARQL front end: parser, lowering to the shared logical form, and a
SPARQL-only view of the query engine."""

from typing import Optional, Tuple

from ..engine import ExecutionContext, PhysicalOperator
from ..obs import NULL_ACTIVE_QUERY
from ..planner import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    Frontend,
    LogicalQuery,
    PlanCache,
    PlannerOptions,
    QueryEngine,
    QueryOptimizer,
    QueryResult,
)
from .ast import (
    AggregateExpr,
    ArithmeticExpr,
    Comparison,
    DeleteDataOp,
    DeleteWhereOp,
    InsertDataOp,
    OrderCondition,
    SelectQuery,
    TriplePattern,
    UpdateRequest,
    Variable,
)
from .lower import lower_select
from .parser import parse_sparql, parse_update

__all__ = [
    "AggregateExpr",
    "ArithmeticExpr",
    "Comparison",
    "DEFAULT_SCHEME",
    "DeleteDataOp",
    "DeleteWhereOp",
    "InsertDataOp",
    "OPTIMIZED_SCHEME",
    "OrderCondition",
    "PlanCache",
    "PlannerOptions",
    "QueryOptimizer",
    "QueryResult",
    "RDFSCAN_SCHEME",
    "SPARQL_FRONTEND",
    "SelectQuery",
    "SparqlEngine",
    "TriplePattern",
    "UpdateRequest",
    "Variable",
    "lower_select",
    "parse_sparql",
    "parse_update",
]

SPARQL_FRONTEND = Frontend("sparql", parse_sparql, lower_select)
"""Stateless, so every engine shares it."""


class SparqlEngine:
    """A :class:`~repro.planner.QueryEngine` that speaks only SPARQL — what
    code holding nothing but an :class:`ExecutionContext` constructs."""

    def __init__(self, context: ExecutionContext,
                 plan_cache: Optional[PlanCache] = None) -> None:
        self.context = context
        self.engine = QueryEngine(context, [SPARQL_FRONTEND], plan_cache)

    def prepare(self, text: str, options: Optional[PlannerOptions] = None
                ) -> Tuple[LogicalQuery, PhysicalOperator]:
        """Parse, lower and plan without executing (see :meth:`QueryEngine.prepare`)."""
        return self.engine.prepare("sparql", text, options)

    def query(self, text: str, options: Optional[PlannerOptions] = None,
              run=NULL_ACTIVE_QUERY) -> QueryResult:
        """Prepare and execute (see :meth:`QueryEngine.query`)."""
        return self.engine.query("sparql", text, options, run)
