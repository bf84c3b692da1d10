"""Plan execution with wall-clock and simulated cost measurement."""

from __future__ import annotations

import time
from typing import Tuple

from ..columnar import QueryCost
from .bindings import BindingTable
from .context import ExecutionContext
from .plan import PhysicalOperator


def execute_plan(plan: PhysicalOperator, context: ExecutionContext) -> Tuple[BindingTable, QueryCost]:
    """Execute a physical plan and return its result with cost accounting.

    The buffer-pool tracker is *not* reset, so repeated executions against a
    warm pool naturally show the cold/hot difference; the returned counters
    are the delta caused by this execution only.
    """
    run = context.run
    if run.enabled:
        run.attach_plan(plan)
    baseline = context.tracker.snapshot()
    started = time.perf_counter()
    result = plan.execute(context)
    elapsed = time.perf_counter() - started
    if run.enabled:
        run.executed(elapsed)
    counters = context.tracker.diff(baseline)
    simulated = context.cost_model.simulated_seconds(counters)
    return result, QueryCost(wall_seconds=elapsed, counters=counters, simulated_seconds=simulated)
