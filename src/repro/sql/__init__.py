"""SQL front end: the relational catalog over the emergent schema, the
parser, and the lowering of SQL to the shared logical form."""

from .catalog import Catalog, CatalogColumn, CatalogTable, ID_COLUMN
from .engine import sql_frontend
from .parser import ColumnRef, SelectItem, SqlJoin, SqlPredicate, SqlQuery, parse_sql

__all__ = [
    "Catalog",
    "CatalogColumn",
    "CatalogTable",
    "ColumnRef",
    "ID_COLUMN",
    "SelectItem",
    "SqlJoin",
    "SqlPredicate",
    "SqlQuery",
    "parse_sql",
    "sql_frontend",
]
