"""The shared back half of both front ends: the logical star query, the
planner and its plan annotation, the plan cache and the engine
that prepares and runs queries (see ``docs/architecture.md`` §5)."""

from .engine import Frontend, QueryEngine, QueryResult
from .logical import LogicalQuery, numeric_expression, unique_names
from .optimizer import PlanCache, QueryOptimizer
from .planner import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    Planner,
    PlannerOptions,
)

__all__ = [
    "DEFAULT_SCHEME",
    "Frontend",
    "LogicalQuery",
    "OPTIMIZED_SCHEME",
    "PlanCache",
    "Planner",
    "PlannerOptions",
    "QueryEngine",
    "QueryOptimizer",
    "QueryResult",
    "RDFSCAN_SCHEME",
    "numeric_expression",
    "unique_names",
]
