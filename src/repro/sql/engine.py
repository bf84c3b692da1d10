"""The SQL front end: resolve names, lower SQL ASTs to the logical star form.

Every table alias in the FROM clause becomes a star pattern over the
corresponding characteristic set — one ``?alias__id <column predicate>
?alias__column`` pattern per column the query reads; JOIN ... ON conditions
over discovered foreign keys become shared variables (evaluated as RDFjoin
when the plan order allows); WHERE predicates become value ranges exactly
like SPARQL FILTERs.  The result is a :class:`~repro.planner.LogicalQuery`
template, the same form SPARQL lowers to, so one bind, one planner, one
plan cache and one engine serve both — which is the point of Figure 1 of
the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..engine import AggregateSpec, ExecutionContext, PatternTerm
from ..errors import SchemaError
from ..planner import (
    Frontend,
    LogicalQuery,
    numeric_expression,
    range_filter,
    unique_names,
)
from .catalog import Catalog, CatalogTable, ID_COLUMN
from .parser import ColumnRef, SqlQuery, parse_sql


def sql_frontend(catalog: Catalog) -> Frontend:
    """The SQL front end over one catalog."""
    return Frontend("sql", parse_sql,
                    lambda query, context: _Lowering(query, context, catalog).logical_query())


class _Lowering:
    """Name resolution for one parsed statement, ending in its logical form."""

    def __init__(self, query: SqlQuery, context: ExecutionContext, catalog: Catalog) -> None:
        self.query = query
        self.context = context
        self.catalog = catalog
        self.tables = self._resolve_tables()
        self.referenced = self._referenced_columns()
        self.join_keys = [(self._column_key(join.left), self._column_key(join.right))
                          for join in query.joins]
        self.var_names = self._assign_variables()
        self.item_keys = unique_names([item.output_name() for item in query.select_items])
        """One binding name per select item: what an aggregate item is
        computed as (the planner names every output column the same way)."""

    def logical_query(self) -> LogicalQuery:
        query = self.query
        logical = LogicalQuery(limit=query.limit, output=self._output_columns())
        for predicate in query.predicates:
            var = self._var_of(predicate.column)
            if predicate.op == "!=":  # a filter above the joins
                logical.not_equal_terms.append((var, predicate.value))
            else:
                logical.ranges.append(range_filter(var, predicate.op, predicate.value))
        logical.patterns = self._patterns({entry[0] for entry in logical.ranges})
        logical.group_vars = [self._var_of(ref) for ref in query.group_by]
        logical.aggregates = [
            AggregateSpec(func=item.aggregate,
                          expression=numeric_expression(item.expression, self._var_of),
                          alias=key)
            for item, key in zip(query.select_items, self.item_keys) if item.aggregate]
        # an ORDER BY key names a select item (its alias, or the column it
        # outputs; the first one of that name) or any column of the FROM tables
        items = {}
        for item, key in zip(query.select_items, self.item_keys):
            items.setdefault(item.output_name(), (item, key))
        for order in query.order_by:
            item, key = items.get(order.column.column, (None, None))
            if item is None or not item.aggregate:
                key = self._var_of(item.column if item is not None else order.column)
            logical.order_by.append((key, order.descending))
        return logical

    def _resolve_tables(self) -> Dict[str, CatalogTable]:
        query = self.query
        tables = {query.base_alias.lower(): self.catalog.table(query.base_table)}
        for join in query.joins:
            tables[join.alias.lower()] = self.catalog.table(join.table)
        return tables

    def _resolve_column(self, ref: ColumnRef) -> Tuple[str, CatalogTable]:
        """Return (alias, table) owning a column reference."""
        tables = self.tables
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

    def _column_key(self, ref: ColumnRef) -> Tuple[str, str]:
        alias, _table = self._resolve_column(ref)
        return alias, ref.column.lower()

    def _var_of(self, ref: ColumnRef) -> str:
        """The engine variable a column reference is bound to."""
        return self.var_names[self._column_key(ref)]

    def _referenced_columns(self) -> Dict[str, set]:
        """alias -> set of column names used anywhere in the query."""
        query = self.query
        referenced: Dict[str, set] = {alias: set() for alias in self.tables}

        def note(ref: ColumnRef) -> None:
            alias, column = self._column_key(ref)
            referenced[alias].add(column)

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
                continue  # ordering by a select item's output name
            note(item.column)
        # a star is its property set (``type`` alone is every table's), so a
        # table named by no column but its id reads them all, as SELECT * does
        for alias, table in self.tables.items():
            if query.select_star or referenced[alias] <= {ID_COLUMN}:
                referenced[alias].update(name.lower() for name in table.column_names())
        return referenced

    def _assign_variables(self) -> Dict[Tuple[str, str], str]:
        """Assign one engine variable name per (alias, column); unify join columns."""
        var_names: Dict[Tuple[str, str], str] = {}
        for alias, columns in self.referenced.items():
            for column in columns | {ID_COLUMN}:
                var_names[(alias, column)] = f"{alias}__{column}"
        # unify join equality columns into a single variable, preferring the
        # subject variable when one side is the id column
        for left_key, right_key in self.join_keys:
            unified = var_names[right_key if right_key[1] == ID_COLUMN else left_key]
            var_names[left_key] = var_names[right_key] = unified
        return var_names

    def _patterns(self, ranged: set) -> list:
        """One ``(subject, predicate OID, object, required)`` pattern per
        column read, star by star."""
        join_columns = {key for keys in self.join_keys for key in keys}
        # With pending writes the schema's multiplicity statistics are stale
        # (compaction refreshes them): a delete may have punched a hole into a
        # nominally 1..1 column.  Treat unpinned columns as nullable so
        # answers agree before and after compact().
        pending = self.context.has_pending_delta()
        patterns = []
        for alias, table in self.tables.items():
            subject = PatternTerm.variable(self.var_names[(alias, ID_COLUMN)])
            for column_name in sorted(self.referenced[alias] - {ID_COLUMN}):
                column = table.column(column_name)
                var = self.var_names[(alias, column_name)]
                # a WHERE predicate implies the value exists, and an inner
                # join never matches NULL
                required = (var in ranged or (alias, column_name) in join_columns
                            or not (column.nullable or pending))
                patterns.append((subject, int(column.predicate_oid), PatternTerm.variable(var),
                                 required))
        return patterns

    def _output_columns(self) -> List[Tuple[str, str]]:
        """``(variable or aggregate alias, output name)`` per result column."""
        query = self.query
        if query.select_star:
            return [(var, var) for alias, table in self.tables.items()
                    for var in (self.var_names[(alias, column.name.lower())]
                                for column in table.columns)]
        return [(key if item.aggregate else self._var_of(item.column), item.output_name())
                for item, key in zip(query.select_items, self.item_keys)]


# -- helpers --------------------------------------------------------------------------------


def _expression_columns(node: object) -> List[ColumnRef]:
    out: List[ColumnRef] = []

    def walk(item: object) -> None:
        if isinstance(item, ColumnRef):
            out.append(item)
        elif type(item) is tuple:  # an (op, left, right) node; a Term is a tuple subclass
            _op, left, right = item
            walk(left)
            walk(right)

    walk(node)
    return out
