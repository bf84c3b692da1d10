"""The one query engine: prepare (cache → parse → lower → bind → plan) and run.

A front end contributes a parser and a lowering (:class:`Frontend`);
everything after the :class:`~repro.planner.LogicalQuery` template —
binding, planning, the plan cache, estimates, execution, the result — is
shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from ..columnar import QueryCost
from ..engine import BindingTable, ExecutionContext, PhysicalOperator, execute_plan
from ..errors import ParseError
from ..obs import NULL_ACTIVE_QUERY
from .logical import LogicalQuery
from .optimizer import PlanCache, PlanTemplate
from .planner import Planner, PlannerOptions


class Frontend(NamedTuple):
    """What a query language brings to the engine."""

    name: str
    """``sparql`` or ``sql``: the registry / metrics label and part of the
    plan-cache key."""
    parse: Callable[..., object]
    """Query text (and optionally the plan cache's lifted slots,
    :meth:`PlanCache.slots`) to the front end's AST, whose slotted
    constants are :class:`~repro.planner.Param` s; raises ``ParseError``."""
    template: Callable[[object, ExecutionContext], LogicalQuery]
    """AST to its :class:`LogicalQuery` template: name resolution, no
    constant looked up."""

    def lower(self, parsed: object, context: ExecutionContext) -> LogicalQuery:
        """AST to the logical form the planner reads: template, then bind."""
        return self.template(parsed, context).bind((), context)[0]


@dataclass
class QueryResult:
    """Result of a query execution: bindings, cost and the plan used.

    ``plan`` may be shared between results when the plan cache is active
    (repeating a query reuses the cached plan object); a plan is an
    immutable template and records nothing about any execution.  What this
    execution observed is on ``run``, its :class:`repro.obs.ActiveQuery`
    (the shared no-op run for a bare-engine execution): per-operator actual
    rows, which ``plan.explain(run=result.run)`` renders, residual counts,
    parse, plan and execution time.  ``trace`` is the run's
    :class:`repro.obs.QueryTrace` when it was profiled, otherwise ``None``.
    ``context`` is the execution context the query ran against: its
    dictionary is the one that decodes the bindings' OIDs, whatever the
    store has published since.  ``columns`` are the output names as the
    query wrote them, ``keys`` the binding name of each (they differ only
    where two select items share an output name).
    """

    bindings: BindingTable
    cost: QueryCost
    plan: PhysicalOperator
    columns: List[str]
    run: object = NULL_ACTIVE_QUERY
    context: Optional[ExecutionContext] = None
    keys: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if self.keys is None:
            self.keys = list(self.columns)

    @property
    def trace(self) -> Optional[object]:
        return self.run.trace

    def rows(self) -> List[tuple]:
        """OID/value rows in column order."""
        return self._zipped(
            [self.bindings.column(key).tolist() for key in self.keys])

    def decoded_rows(self, context: ExecutionContext) -> List[tuple]:
        """Rows with OIDs decoded back to Python values (floats stay floats).

        Decoded one column at a time: a computed ``float64`` column is
        already in value space, an OID column is one gather from the
        dictionary's value bridge.
        """
        columns = []
        for key in self.keys:
            values = self.bindings.column(key)
            columns.append(values.tolist() if values.dtype.kind == "f"
                           else context.dictionary.python_column(values))
        return self._zipped(columns)

    def _zipped(self, columns: List[list]) -> List[tuple]:
        if not columns:  # no output column: still one (empty) row per binding
            return [()] * self.bindings.num_rows
        return list(zip(*columns))

    def __len__(self) -> int:
        return self.bindings.num_rows


class QueryEngine:
    """Prepare and execute queries of any registered front end against one
    :class:`ExecutionContext`.

    An optional :class:`PlanCache` makes a query of a known shape skip
    parsing and lowering: its constants are bound into the cached template
    and the bound query planned, and a repeat of constants bound before
    skips that too.  :class:`~repro.core.RDFStore` has one engine
    per store version, all wired to its one cache; ``version`` — what a
    plan reads of the context's state: its base generation and whether
    writes are pending — is part of every key, so every version of one
    generation with pending writes shares its templates, and a pinned
    snapshot of an older generation can neither take nor leave one the
    current version would use.  A binding that found a constant absent is
    never reused: a write may add the constant.
    """

    def __init__(self, context: ExecutionContext, frontends: Iterable[Frontend],
                 plan_cache: Optional[PlanCache] = None,
                 version: Tuple[int, ...] = ()) -> None:
        self.context = context
        self.frontends = {frontend.name: frontend for frontend in frontends}
        self.plan_cache = plan_cache
        self.version = version

    @cached_property
    def planner(self) -> Planner:
        """Built by the first query that needs a plan: a version that only
        ever repeats cached bindings never plans."""
        return Planner(self.context)

    def prepare(self, frontend: str, text: str, options: Optional[PlannerOptions] = None,
                run=NULL_ACTIVE_QUERY) -> Tuple[LogicalQuery, PhysicalOperator]:
        """Parse, lower, bind and plan a query without executing it.

        Args:
            frontend: name of a registered front end.
            text: the query text.
            options: plan scheme configuration; ``None`` selects
                ``PlannerOptions()``, the same for every front end.
            run: the execution this is for, if any: it is told the parse
                time and the plan (lower + bind + plan) time, both zero when
                the text's constants were bound and planned before.

        Returns:
            The bound logical query and the physical plan root: planned
            afresh, unless the cache holds the plan of these constants.

        Raises:
            ParseError: when the text is not in the front end's subset.
            SchemaError: when SQL names an unknown table, column or join.
            PlanError: when the options name an unknown plan scheme.
        """
        front = self.frontends[frontend]
        options = options or PlannerOptions()
        cache = self.plan_cache
        values, slots = (), None
        if cache is not None:
            shape, values = PlanCache.make_key(frontend, text, options)
            shape = self.version + shape
            # the shape's first template names its structural slots; a
            # template of other values at them is filed under those values
            first = cache.peek(shape)
            key = shape
            if first is not None and first.sub_key(values) != first.sub:
                key = shape + first.sub_key(values)
            found = cache.lookup(key + (values,), key)
            if type(found) is tuple:
                return found  # these constants were bound and planned before
            if found is not None:
                if found.binding is not None and found.binding[0] == values:
                    return found.binding[1]
                started = time.perf_counter()
                try:
                    prepared, complete = self._bind(found.query, values, options)
                except ParseError:
                    pass  # a value its slot cannot hold: the parser says why
                else:
                    if run.enabled:
                        run.plan_seconds = time.perf_counter() - started
                    if complete:  # kept while there is room, and by its hits
                        cache.insert(key + (values,), prepared, recent=False)
                    return prepared
            slots = PlanCache.slots(text)
        started = time.perf_counter()
        parsed = front.parse(text, slots)
        planning = time.perf_counter()
        template = PlanTemplate(front.template(parsed, self.context), values)
        prepared, complete = self._bind(template.query, values, options)
        if run.enabled:
            run.parse_seconds = planning - started
            run.plan_seconds = time.perf_counter() - planning
        if cache is not None:
            template.binding = (values, prepared) if complete else None
            cache.insert(shape if first is None else shape + template.sub, template)
        return prepared

    def _bind(self, template: LogicalQuery, values: Tuple[str, ...], options: PlannerOptions
              ) -> Tuple[Tuple[LogicalQuery, PhysicalOperator], bool]:
        """Bind ``values`` into the template and plan the bound query; also
        whether every constant was present (:meth:`LogicalQuery.bind`)."""
        logical, complete = template.bind(values, self.context)
        return (logical, self.planner.plan(logical, options)), complete

    def query(self, frontend: str, text: str, options: Optional[PlannerOptions] = None,
              run=NULL_ACTIVE_QUERY) -> QueryResult:
        """Prepare and execute a query.

        Args:
            run: the execution's :class:`repro.obs.ActiveQuery`; the run
                accounts per-operator rows into it, honours its
                cooperative-cancellation flag, records spans into its trace
                if it has one, and the result carries it back.  The default
                runs unobserved.

        Returns:
            A :class:`QueryResult` with OID bindings, measured cost, the
            executed plan and the run.

        Raises:
            What :meth:`prepare` raises, and
            ExecutionError: when the plan requires a store that is not built.
            QueryCancelledError: when ``run`` was cancelled mid-run.
        """
        return self._execute(self.prepare(frontend, text, options, run), run)

    def query_parsed(self, frontend: str, parsed: object) -> QueryResult:
        """Plan and execute an already-parsed query, bypassing the plan cache.

        Used by the update subsystem (``DELETE WHERE`` evaluates its pattern
        block as a SELECT) and by callers that build ASTs programmatically.
        """
        logical = self.frontends[frontend].lower(parsed, self.context)
        return self._execute((logical, self.planner.plan(logical, PlannerOptions())),
                             NULL_ACTIVE_QUERY)

    def _execute(self, prepared: Tuple[LogicalQuery, PhysicalOperator], run) -> QueryResult:
        logical, plan = prepared
        context = self.context.with_run(run) if run.enabled else self.context
        bindings, cost = execute_plan(plan, context)
        return QueryResult(bindings=bindings, cost=cost, plan=plan,
                           columns=logical.output_names(), run=run,
                           context=self.context, keys=logical.output_keys())
