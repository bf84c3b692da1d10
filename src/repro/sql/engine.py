"""Execution of the SQL view: translate SQL ASTs onto the RDF engine.

Every table alias in the FROM clause becomes a star pattern over the
corresponding characteristic set; JOIN ... ON conditions over discovered
foreign keys become shared variables (evaluated as RDFjoin when the plan
order allows); WHERE predicates are translated to OID ranges exactly like
SPARQL FILTERs.  The SQL view therefore queries *the same* physical storage
as SPARQL — which is the point of Figure 1 of the paper.
"""

from __future__ import annotations

import time
from datetime import date
from typing import Dict, Iterator, List, Optional, Tuple

from ..cs import Multiplicity
from ..engine import (
    AggregateOp,
    AggregateSpec,
    Batch,
    BinaryOp,
    BindingTable,
    ExecutionContext,
    Expression,
    HashJoinOp,
    LimitOp,
    MaterializedOp,
    NumericConst,
    NumericVar,
    OidRange,
    OrderByOp,
    PatternTerm,
    PhysicalOperator,
    ProjectOp,
    RDFJoinOp,
    RDFScanOp,
    StarPattern,
    StarProperty,
    execute_plan,
)
from ..engine.operators import FilterNotEqualOp
from ..errors import SchemaError
from ..model import Literal
from ..obs import NULL_ACTIVE_QUERY
from ..model.terms import XSD_BOOLEAN, XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from ..sparql import QueryResult
from .catalog import Catalog, CatalogTable, ID_COLUMN
from .parser import ColumnRef, SelectItem, SqlConstant, SqlQuery, parse_sql


class SqlResult(QueryResult):
    """Result of a SQL execution over the emergent schema: the shape of a
    SPARQL result, with the SQL output names as ``columns``."""


class SqlEngine:
    """Parse, plan and execute SQL SELECTs over the emergent relational view."""

    def __init__(self, context: ExecutionContext, catalog: Catalog,
                 use_zone_maps: bool = True) -> None:
        self.context = context
        self.catalog = catalog
        self.use_zone_maps = use_zone_maps

    # -- public API -----------------------------------------------------------------

    def query(self, text: str, run=NULL_ACTIVE_QUERY) -> SqlResult:
        """Parse, plan and execute one SQL SELECT statement.

        Args:
            text: a SELECT over the catalog's emergent tables (joins over
                discovered foreign keys, WHERE comparisons, GROUP BY,
                ORDER BY, LIMIT).
            run: the execution's :class:`repro.obs.ActiveQuery` — row
                accounting, the cancellation flag, an optional trace; the
                default runs unobserved.

        Returns:
            A :class:`SqlResult` with the output columns, OID bindings,
            measured cost and the executed physical plan.

        Raises:
            ParseError: when the SQL text cannot be parsed.
            SchemaError: when the query references unknown tables, columns
                or joins without a discovered foreign key.
            QueryCancelledError: when ``run`` was cancelled mid-run.
        """
        started = time.perf_counter()
        parsed = parse_sql(text)
        plan, columns = self._plan(parsed)
        context = self.context
        if run.enabled:
            run.prepare_seconds = time.perf_counter() - started
            context = context.with_run(run)
        bindings, cost = execute_plan(plan, context)
        return SqlResult(columns=columns, bindings=bindings, cost=cost,
                         plan=plan, run=run)

    def explain(self, text: str) -> str:
        """Return the indented physical plan of a SQL statement (no run).

        Raises:
            ParseError: when the SQL text cannot be parsed.
            SchemaError: when the query references unknown tables/columns.
        """
        parsed = parse_sql(text)
        plan, _columns = self._plan(parsed)
        return plan.explain()

    # -- planning --------------------------------------------------------------------

    def _plan(self, query: SqlQuery) -> Tuple[PhysicalOperator, List[str]]:
        tables = self._resolve_tables(query)
        referenced = self._referenced_columns(query, tables)
        var_names, unsatisfiable = self._assign_variables(query, tables, referenced)

        output_columns = self._output_columns(query, tables, var_names)
        if unsatisfiable:
            return MaterializedOp(BindingTable.empty(output_columns),
                                  label="empty (unsatisfiable predicate)"), output_columns

        stars = self._build_stars(query, tables, referenced, var_names)
        root = self._combine_stars(query, stars, var_names)
        root = self._apply_not_equal_filters(query, root, var_names)
        root = self._apply_modifiers(query, root, tables, var_names, output_columns)
        return root, output_columns

    def _resolve_tables(self, query: SqlQuery) -> Dict[str, CatalogTable]:
        tables: Dict[str, CatalogTable] = {query.base_alias.lower(): self.catalog.table(query.base_table)}
        for join in query.joins:
            tables[join.alias.lower()] = self.catalog.table(join.table)
        return tables

    def _resolve_column(self, ref: ColumnRef, tables: Dict[str, CatalogTable]) -> Tuple[str, CatalogTable]:
        """Return (alias, table) owning a column reference."""
        if ref.table is not None:
            alias = ref.table.lower()
            if alias not in tables:
                raise SchemaError(f"unknown table alias {ref.table!r}")
            table = tables[alias]
            table.column(ref.column)  # raises if missing
            return alias, table
        owners = [(alias, table) for alias, table in tables.items() if table.has_column(ref.column)]
        if not owners:
            raise SchemaError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise SchemaError(f"ambiguous column {ref.column!r}; qualify it with a table alias")
        return owners[0]

    def _referenced_columns(self, query: SqlQuery, tables: Dict[str, CatalogTable]) -> Dict[str, set]:
        """alias -> set of column names used anywhere in the query."""
        referenced: Dict[str, set] = {alias: set() for alias in tables}

        def note(ref: ColumnRef) -> None:
            alias, _table = self._resolve_column(ref, tables)
            referenced[alias].add(ref.column.lower())

        if query.select_star:
            for alias, table in tables.items():
                referenced[alias].update(name.lower() for name in table.column_names())
        for item in query.select_items:
            if item.column is not None:
                note(item.column)
            if item.expression is not None:
                for ref in _expression_columns(item.expression):
                    note(ref)
        for predicate in query.predicates:
            note(predicate.column)
        for join in query.joins:
            note(join.left)
            note(join.right)
        for ref in query.group_by:
            note(ref)
        for item in query.order_by:
            if any(item.column.column == si.output_name() for si in query.select_items):
                continue  # ordering by an aggregate alias
            note(item.column)
        return referenced

    def _assign_variables(self, query: SqlQuery, tables: Dict[str, CatalogTable],
                          referenced: Dict[str, set]) -> Tuple[Dict[Tuple[str, str], str], bool]:
        """Assign one engine variable name per (alias, column); unify join columns."""
        var_names: Dict[Tuple[str, str], str] = {}
        for alias, columns in referenced.items():
            var_names[(alias, ID_COLUMN)] = f"{alias}__{ID_COLUMN}"
            for column in columns:
                var_names[(alias, column)] = f"{alias}__{column}"
        # unify join equality columns into a single variable
        for join in query.joins:
            left_alias, _ = self._resolve_column(join.left, tables)
            right_alias, _ = self._resolve_column(join.right, tables)
            left_key = (left_alias, join.left.column.lower())
            right_key = (right_alias, join.right.column.lower())
            unified = var_names[left_key]
            # prefer the subject variable when one side is the id column
            if join.right.column.lower() == ID_COLUMN:
                unified = var_names[right_key]
            elif join.left.column.lower() == ID_COLUMN:
                unified = var_names[left_key]
            var_names[left_key] = unified
            var_names[right_key] = unified
        return var_names, False

    def _build_stars(self, query: SqlQuery, tables: Dict[str, CatalogTable],
                     referenced: Dict[str, set],
                     var_names: Dict[Tuple[str, str], str]) -> Dict[str, StarPattern]:
        constraints = self._predicate_ranges(query, tables, var_names)
        stars: Dict[str, StarPattern] = {}
        for alias, table in tables.items():
            subject_var = var_names[(alias, ID_COLUMN)]
            properties: List[StarProperty] = []
            columns = set(referenced[alias]) - {ID_COLUMN}
            if not columns:
                columns = {self._anchor_column(table)}
            for column_name in sorted(columns):
                column = table.column(column_name)
                if column.predicate_oid is None:
                    continue
                var = var_names[(alias, column_name)]
                oid_range = constraints.get(var)
                term = PatternTerm.variable(var)
                spec = self.catalog.schema.tables[table.cs_id].properties.get(column.predicate_oid)
                required = spec is not None and spec.multiplicity is Multiplicity.EXACTLY_ONE
                # With pending writes the schema's multiplicity statistics are
                # stale (compaction refreshes them): a delete may have punched a
                # hole into a nominally 1..1 column.  Treat unpinned columns as
                # nullable so answers agree before and after compact().
                if self.context.has_pending_delta():
                    required = False
                # a WHERE predicate on the column implies the value must exist
                if oid_range is not None:
                    required = True
                properties.append(StarProperty(predicate_oid=column.predicate_oid, object_term=term,
                                               oid_range=oid_range, required=required))
            subject_range = constraints.get(subject_var)
            stars[alias] = StarPattern(subject_var=subject_var, properties=properties,
                                       subject_range=subject_range)
        if (self.use_zone_maps and self.context.has_clustered_store()
                and not self.context.has_pending_delta()):
            # zone-map-derived subject ranges describe base columns only; they
            # could exclude pending-delta rows, so push-down pauses until the
            # next compaction (mirrors the SPARQL planner's gate)
            self._push_ranges_across_joins(query, tables, var_names, stars)
        return stars

    def _anchor_column(self, table: CatalogTable) -> str:
        """Column used to enumerate a table's rows when none is referenced."""
        schema_table = self.catalog.schema.tables[table.cs_id]
        best: Optional[str] = None
        for column in table.columns:
            if column.predicate_oid is None:
                continue
            spec = schema_table.properties.get(column.predicate_oid)
            if spec is not None and spec.multiplicity is Multiplicity.EXACTLY_ONE:
                return column.name.lower()
            if best is None:
                best = column.name.lower()
        if best is None:
            raise SchemaError(f"table {table.name!r} has no usable columns")
        return best

    def _predicate_ranges(self, query: SqlQuery, tables: Dict[str, CatalogTable],
                          var_names: Dict[Tuple[str, str], str]) -> Dict[str, OidRange]:
        ranges: Dict[str, OidRange] = {}
        for predicate in query.predicates:
            if predicate.op == "!=":
                continue  # handled as a post-filter
            alias, _table = self._resolve_column(predicate.column, tables)
            var = var_names[(alias, predicate.column.column.lower())]
            literal = _constant_to_literal(predicate.constant)
            bounds = self._comparison_bounds(predicate.op, literal)
            if bounds is None:
                ranges[var] = OidRange(low=1, high=0)  # empty
                continue
            current = ranges.get(var, OidRange())
            ranges[var] = current.intersect(bounds)
        return ranges

    def _comparison_bounds(self, op: str, literal: Literal) -> Optional[OidRange]:
        encoder = self.context.encoder
        if op == "=":
            return encoder.literal_range(literal, literal, True, True)
        if op in (">", ">="):
            return encoder.literal_range(literal, None, op == ">=", True)
        if op in ("<", "<="):
            return encoder.literal_range(None, literal, True, op == "<=")
        return OidRange()

    def _push_ranges_across_joins(self, query: SqlQuery, tables: Dict[str, CatalogTable],
                                  var_names: Dict[Tuple[str, str], str],
                                  stars: Dict[str, StarPattern]) -> None:
        """Derive subject ranges from sub-ordered columns (zone-map push-down)."""
        from ..engine import subject_range_for_property_range

        store = self.context.clustered_store
        if store is None:
            return
        for alias, star in stars.items():
            table = tables[alias]
            try:
                block = store.block(table.cs_id)
            except Exception:  # noqa: BLE001 - block may not exist for tiny tables
                continue
            for prop in star.properties:
                if prop.oid_range is None or prop.oid_range.is_unbounded():
                    continue
                derived = subject_range_for_property_range(block, prop.predicate_oid, prop.oid_range)
                if derived is not None:
                    star.subject_range = derived if star.subject_range is None \
                        else star.subject_range.intersect(derived)

    def _combine_stars(self, query: SqlQuery, stars: Dict[str, StarPattern],
                       var_names: Dict[Tuple[str, str], str]) -> PhysicalOperator:
        ordered_aliases = [query.base_alias.lower()] + [join.alias.lower() for join in query.joins]
        # start from the most constrained star for a selective pipeline
        ordered_aliases.sort(key=lambda alias: -_star_constraint_score(stars[alias]))
        root: Optional[PhysicalOperator] = None
        planned_vars: set[str] = set()
        for alias in ordered_aliases:
            star = stars[alias]
            scan: PhysicalOperator
            if root is None:
                root = RDFScanOp(star, use_zone_maps=self.use_zone_maps)
            elif star.subject_var in planned_vars:
                root = RDFJoinOp(root, star, use_zone_maps=self.use_zone_maps)
            else:
                scan = RDFScanOp(star, use_zone_maps=self.use_zone_maps)
                shared = sorted(planned_vars & set(star.output_variables()))
                root = HashJoinOp(root, scan, join_vars=shared or None)
            planned_vars.update(star.output_variables())
        assert root is not None
        return root

    def _apply_not_equal_filters(self, query: SqlQuery, root: PhysicalOperator,
                                 var_names: Dict[Tuple[str, str], str]) -> PhysicalOperator:
        for predicate in query.predicates:
            if predicate.op != "!=":
                continue
            alias = predicate.column.table.lower() if predicate.column.table else None
            key = None
            for (a, c), var in var_names.items():
                if c == predicate.column.column.lower() and (alias is None or a == alias):
                    key = var
                    break
            if key is None:
                continue
            literal = _constant_to_literal(predicate.constant)
            oid = self.context.encoder.term_oid(literal)
            if oid is not None:
                root = FilterNotEqualOp(root, key, oid)
        return root

    def _output_columns(self, query: SqlQuery, tables: Dict[str, CatalogTable],
                        var_names: Dict[Tuple[str, str], str]) -> List[str]:
        if query.select_star:
            names = []
            for alias in [query.base_alias.lower()] + [j.alias.lower() for j in query.joins]:
                for column in tables[alias].columns:
                    names.append(var_names.get((alias, column.name.lower()), f"{alias}__{column.name.lower()}"))
            return names
        return [item.output_name() for item in query.select_items]

    def _apply_modifiers(self, query: SqlQuery, root: PhysicalOperator,
                         tables: Dict[str, CatalogTable],
                         var_names: Dict[Tuple[str, str], str],
                         output_columns: List[str]) -> PhysicalOperator:
        rename: Dict[str, str] = {}

        def var_of(ref: ColumnRef) -> str:
            alias, _table = self._resolve_column(ref, tables)
            return var_names[(alias, ref.column.lower())]

        if query.has_aggregates():
            group_vars = [var_of(ref) for ref in query.group_by]
            aggregates = []
            plain_items: List[Tuple[SelectItem, str]] = []
            for item in query.select_items:
                if item.aggregate:
                    aggregates.append(AggregateSpec(
                        func=item.aggregate,
                        expression=_expression_to_engine(item.expression, var_of),
                        alias=item.output_name(),
                    ))
                elif item.column is not None:
                    plain_items.append((item, var_of(item.column)))
            root = AggregateOp(root, group_vars=group_vars, aggregates=aggregates)
            for item, var in plain_items:
                rename[var] = item.output_name()
        else:
            for item in query.select_items:
                if item.column is not None:
                    rename[var_of(item.column)] = item.output_name()

        if rename:
            root = _RenameOp(root, rename)

        if query.order_by:
            keys = []
            for order in query.order_by:
                name = order.column.column
                if any(name == item.output_name() for item in query.select_items):
                    keys.append((name, order.descending))
                else:
                    keys.append((rename.get(var_of(order.column), var_of(order.column)), order.descending))
            root = OrderByOp(root, keys)
        if query.limit is not None:
            root = LimitOp(root, query.limit)
        if not query.select_star:
            root = ProjectOp(root, output_columns)
        return root


class _RenameOp(PhysicalOperator):
    """Rename binding columns to their SQL output names."""

    def __init__(self, child: PhysicalOperator, mapping: Dict[str, str]) -> None:
        self.child = child
        self.mapping = mapping

    def children(self):
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(f"{old}->{new}" for old, new in self.mapping.items())
        return f"Rename[{rendered}]"

    def _batches(self, context: ExecutionContext) -> Iterator[Batch]:
        context.tracker.operator_invocations += 1
        for batch in self.child.batches(context):
            yield Batch(batch.table.rename(self.mapping), batch.valid)


# -- helpers --------------------------------------------------------------------------------


def _star_constraint_score(star: StarPattern) -> int:
    score = len(star.properties)
    for prop in star.properties:
        if not prop.object_term.is_variable:
            score += 30
        if prop.oid_range is not None and not prop.oid_range.is_unbounded():
            score += 20
    if star.subject_range is not None and not star.subject_range.is_unbounded():
        score += 20
    return score


def _constant_to_literal(constant: SqlConstant) -> Literal:
    value = constant.value
    if constant.kind == "number":
        if isinstance(value, int):
            return Literal(str(value), datatype=XSD_INTEGER)
        return Literal(repr(float(value)), datatype=XSD_DECIMAL)
    if constant.kind == "date":
        assert isinstance(value, date)
        return Literal(value.isoformat(), datatype=XSD_DATE)
    if constant.kind == "boolean":
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    return Literal(str(value))


def _expression_columns(node: object) -> List[ColumnRef]:
    out: List[ColumnRef] = []

    def walk(item: object) -> None:
        if isinstance(item, ColumnRef):
            out.append(item)
        elif isinstance(item, tuple):
            _op, left, right = item
            walk(left)
            walk(right)

    walk(node)
    return out


def _expression_to_engine(node: object, var_of) -> Expression:
    if isinstance(node, ColumnRef):
        return NumericVar(var_of(node))
    if isinstance(node, (int, float)):
        return NumericConst(float(node))
    if isinstance(node, tuple):
        op, left, right = node
        return BinaryOp(op, _expression_to_engine(left, var_of), _expression_to_engine(right, var_of))
    raise SchemaError(f"unsupported expression node {node!r}")
