"""Relational catalog over the emergent schema.

The catalog is the bridge between the discovered characteristic sets and the
SQL world: every CS becomes a table whose columns are the CS's properties
(plus an implicit ``id`` column holding the subject), foreign keys carry
over, and schema summaries can be registered as additional *artificial
schemas* (reduced views) without copying any data — exactly the mechanism
the paper proposes for presenting reduced schemas to the SQL tool-chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cs import CharacteristicSet, EmergentSchema, Multiplicity, PropertyKind
from ..cs.summarize import SchemaSummary
from ..errors import SchemaError
from ..model import TermDictionary

_SQL_TYPES = {
    PropertyKind.IRI: "VARCHAR",
    PropertyKind.STRING: "VARCHAR",
    PropertyKind.INTEGER: "BIGINT",
    PropertyKind.DECIMAL: "DOUBLE",
    PropertyKind.BOOLEAN: "BOOLEAN",
    PropertyKind.DATE: "DATE",
    PropertyKind.DATETIME: "TIMESTAMP",
    PropertyKind.MIXED: "VARCHAR",
}

ID_COLUMN = "id"
"""Name of the implicit subject column of every emergent table."""


@dataclass(frozen=True)
class CatalogColumn:
    """One column of a catalog table."""

    name: str
    predicate_oid: Optional[int]
    sql_type: str
    nullable: bool
    references: Optional[str] = None
    """Name of the referenced table when this column is a foreign key."""

    def ddl(self) -> str:
        null = "" if not self.nullable else " NULL"
        ref = f" REFERENCES {self.references}({ID_COLUMN})" if self.references else ""
        return f"{self.name} {self.sql_type}{null}{ref}"


@dataclass
class CatalogTable:
    """One emergent table: name, columns and the backing CS."""

    name: str
    cs_id: int
    columns: List[CatalogColumn] = field(default_factory=list)
    row_count: int = 0

    def column(self, name: str) -> CatalogColumn:
        for column in self.columns:
            if column.name.lower() == name.lower():
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name.lower() == name.lower() for column in self.columns)

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def ddl(self) -> str:
        """``CREATE TABLE`` statement for this table (documentation aid)."""
        body = ",\n  ".join(column.ddl() for column in self.columns)
        return f"CREATE TABLE {self.name} (\n  {body}\n);"


class Catalog:
    """All emergent tables plus optional reduced (artificial) schemas."""

    def __init__(self, schema: EmergentSchema, dictionary: Optional[TermDictionary] = None) -> None:
        self.schema = schema
        self.dictionary = dictionary
        self.tables: Dict[str, CatalogTable] = {}
        self.reduced_schemas: Dict[str, List[str]] = {}
        self._cs_to_table: Dict[int, str] = {}
        self._build()

    def _build(self) -> None:
        for table in self.schema.tables_by_support():
            catalog_table = self._build_table(table)
            self.tables[catalog_table.name.lower()] = catalog_table
            self._cs_to_table[table.cs_id] = catalog_table.name

    def _build_table(self, table: CharacteristicSet) -> CatalogTable:
        name = table.label or f"cs{table.cs_id}"
        columns: List[CatalogColumn] = [
            CatalogColumn(name=ID_COLUMN, predicate_oid=None, sql_type="VARCHAR", nullable=False)
        ]
        for predicate_oid in sorted(table.properties):
            spec = table.properties[predicate_oid]
            column_name = spec.label or self._fallback_column_name(predicate_oid)
            references = None
            if spec.fk_target_cs is not None and spec.fk_target_cs in self.schema.tables:
                target = self.schema.tables[spec.fk_target_cs]
                references = target.label or f"cs{target.cs_id}"
            columns.append(CatalogColumn(
                name=column_name,
                predicate_oid=predicate_oid,
                sql_type=_SQL_TYPES[spec.kind],
                nullable=spec.multiplicity is not Multiplicity.EXACTLY_ONE,
                references=references,
            ))
        return CatalogTable(name=name, cs_id=table.cs_id, columns=columns, row_count=table.support)

    def _fallback_column_name(self, predicate_oid: int) -> str:
        if self.dictionary is not None:
            try:
                term = self.dictionary.decode(predicate_oid)
                local = getattr(term, "local_name", None)
                if callable(local):
                    return term.local_name()
            except Exception:  # noqa: BLE001 - naming is best-effort
                pass
        return f"p{predicate_oid}"

    # -- lookups ---------------------------------------------------------------

    def table(self, name: str) -> CatalogTable:
        key = name.lower()
        if key not in self.tables:
            raise SchemaError(f"unknown table {name!r}; known tables: {sorted(self.tables)}")
        return self.tables[key]

    def table_names(self, reduced_schema: Optional[str] = None) -> List[str]:
        if reduced_schema is None:
            return sorted(table.name for table in self.tables.values())
        key = reduced_schema.lower()
        if key not in self.reduced_schemas:
            raise SchemaError(f"unknown reduced schema {reduced_schema!r}")
        return list(self.reduced_schemas[key])

    # -- reduced schemas -----------------------------------------------------------

    def register_summary(self, name: str, summary: SchemaSummary) -> List[str]:
        """Expose a schema summary as a named artificial schema."""
        table_names = [self._cs_to_table[cs_id] for cs_id in summary.table_ids
                       if cs_id in self._cs_to_table]
        self.reduced_schemas[name.lower()] = table_names
        return table_names

    def reduced_schemas_state(self) -> Dict[str, List[str]]:
        """The registered reduced schemas as a JSON-ready mapping.

        Persisted in snapshot manifests: the catalog itself is rebuilt
        deterministically from the emergent schema at open time, but the
        reduced views were registered by the user and would otherwise be
        lost across a save/open cycle.
        """
        return {name: list(tables) for name, tables in self.reduced_schemas.items()}

    def restore_reduced_schemas(self, state: Dict[str, List[str]]) -> None:
        """Re-register reduced schemas captured by :meth:`reduced_schemas_state`.

        Table names that no longer exist in the rebuilt catalog are dropped
        silently — the reduced view is a projection of the live schema.
        """
        for name, tables in state.items():
            self.reduced_schemas[name.lower()] = [
                table for table in tables if table.lower() in self.tables]

    # -- documentation ---------------------------------------------------------------

    def ddl_script(self, reduced_schema: Optional[str] = None) -> str:
        """``CREATE TABLE`` statements for all (or a reduced set of) tables."""
        names = self.table_names(reduced_schema)
        return "\n\n".join(self.table(name).ddl() for name in names)

    def describe(self) -> List[str]:
        """Human-readable one-line-per-table catalog listing."""
        lines = []
        for name in self.table_names():
            table = self.table(name)
            fks = sum(1 for column in table.columns if column.references)
            lines.append(f"{table.name}({len(table.columns)} columns, {table.row_count} rows, {fks} FKs)")
        return lines
