"""SPARQL frontend: parser, CS-aware planner and a convenience engine."""

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..columnar import QueryCost
from ..engine import BindingTable, ExecutionContext, PhysicalOperator, execute_plan
from ..obs import NULL_ACTIVE_QUERY
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
from .optimizer import PlanCache, QueryOptimizer
from .parser import parse_sparql, parse_update
from .planner import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
    SparqlPlanner,
)

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
    "SelectQuery",
    "SparqlEngine",
    "SparqlPlanner",
    "TriplePattern",
    "UpdateRequest",
    "Variable",
    "parse_sparql",
    "parse_update",
]


@dataclass
class QueryResult:
    """Result of a SPARQL execution: bindings, cost and the plan used.

    ``plan`` may be shared between results when the plan cache is active
    (repeating a query reuses the cached plan object); a plan is an
    immutable template and records nothing about any execution.  What this
    execution observed is on ``run``, its :class:`repro.obs.ActiveQuery`
    (the shared no-op run for a bare-engine execution): per-operator actual
    rows, which ``plan.explain(run=result.run)`` renders, residual counts,
    prepare and execution time.  ``trace`` is the run's
    :class:`repro.obs.QueryTrace` when it was traced, otherwise ``None``.
    """

    bindings: BindingTable
    cost: QueryCost
    plan: PhysicalOperator
    columns: List[str]
    run: object = NULL_ACTIVE_QUERY

    @property
    def trace(self) -> Optional[object]:
        return self.run.trace

    def rows(self) -> List[tuple]:
        """OID/value rows in column order."""
        arrays = [self.bindings.column(name) for name in self.columns]
        return [tuple(array[i].item() for array in arrays) for i in range(self.bindings.num_rows)]

    def decoded_rows(self, context: ExecutionContext) -> List[tuple]:
        """Rows with OIDs decoded back to Python values (floats stay floats)."""
        out = []
        for row in self.rows():
            decoded = []
            for name, value in zip(self.columns, row):
                if isinstance(value, float):
                    decoded.append(value)
                else:
                    decoded.append(context.decoder.python_value(int(value)))
            out.append(tuple(decoded))
        return out

    def __len__(self) -> int:
        return self.bindings.num_rows


class SparqlEngine:
    """Parse, plan and execute SPARQL against an :class:`ExecutionContext`.

    An optional :class:`PlanCache` makes repeated queries skip parsing and
    planning: the cache key is the whitespace-normalized query text plus the
    planner options.  :class:`~repro.core.RDFStore` wires one cache through
    its engine and clears it when the data changes.
    """

    def __init__(self, context: ExecutionContext,
                 plan_cache: Optional[PlanCache] = None) -> None:
        self.context = context
        self.planner = SparqlPlanner(context)
        self.plan_cache = plan_cache

    def prepare(self, text: str, options: Optional[PlannerOptions] = None) -> Tuple[SelectQuery, PhysicalOperator]:
        """Parse and plan a query without executing it.

        Args:
            text: the SPARQL query text.
            options: plan scheme / optimizer configuration; ``None`` selects
                the default RDFscan/RDFjoin scheme.

        Returns:
            The parsed :class:`SelectQuery` and the physical plan root.
            Both may come from the plan cache when one is attached.

        Raises:
            ParseError: when the text is not in the supported subset.
            PlanError: when the options name an unknown plan scheme.
        """
        options = options or PlannerOptions()
        key = None
        if self.plan_cache is not None:
            key = PlanCache.make_key(text, options)
            cached = self.plan_cache.lookup(key)
            if cached is not None:
                return cached
        query = parse_sparql(text)
        plan = self.planner.plan(query, options)
        if self.plan_cache is not None and key is not None:
            self.plan_cache.insert(key, (query, plan))
        return query, plan

    def query(self, text: str, options: Optional[PlannerOptions] = None,
              run=NULL_ACTIVE_QUERY) -> QueryResult:
        """Parse, plan and execute a query.

        Args:
            text: the SPARQL query text.
            options: plan scheme / optimizer configuration (see
                :class:`PlannerOptions`).
            run: the execution's :class:`repro.obs.ActiveQuery`; the run
                accounts per-operator rows into it, honours its
                cooperative-cancellation flag, records spans into its trace
                if it has one, and the result carries it back.  The default
                runs unobserved.

        Returns:
            A :class:`QueryResult` with OID bindings, measured cost, the
            executed plan and the run.

        Raises:
            ParseError: when the text is not in the supported subset.
            PlanError: when the options name an unknown plan scheme.
            ExecutionError: when the plan requires a store that is not built.
            QueryCancelledError: when ``run`` was cancelled mid-run.
        """
        started = time.perf_counter()
        parsed, plan = self.prepare(text, options)
        context = self.context
        if run.enabled:
            run.prepare_seconds = time.perf_counter() - started
            context = context.with_run(run)
        bindings, cost = execute_plan(plan, context)
        return QueryResult(bindings=bindings, cost=cost, plan=plan,
                           columns=parsed.output_names(), run=run)

    def query_parsed(self, query: SelectQuery,
                     options: Optional[PlannerOptions] = None) -> QueryResult:
        """Plan and execute an already-parsed query, bypassing the plan cache.

        Used by the update subsystem (``DELETE WHERE`` evaluates its pattern
        block as a SELECT) and by callers that build
        :class:`SelectQuery` ASTs programmatically.
        """
        plan = self.planner.plan(query, options or PlannerOptions())
        bindings, cost = execute_plan(plan, self.context)
        return QueryResult(bindings=bindings, cost=cost, plan=plan, columns=query.output_names())
