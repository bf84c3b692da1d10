"""Quickstart: load RDF, discover the emergent schema, query it two ways.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import PlannerOptions, RDFStore

NTRIPLES = """
<http://ex/book/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Book> .
<http://ex/book/1> <http://ex/has_author> <http://ex/author/1> .
<http://ex/book/1> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book/1> <http://ex/isbn_no> "90-6196-456-1" .
<http://ex/book/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Book> .
<http://ex/book/2> <http://ex/has_author> <http://ex/author/2> .
<http://ex/book/2> <http://ex/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book/2> <http://ex/isbn_no> "90-6196-457-X" .
<http://ex/book/3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Book> .
<http://ex/book/3> <http://ex/has_author> <http://ex/author/1> .
<http://ex/book/3> <http://ex/in_year> "2001"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/book/3> <http://ex/isbn_no> "90-6196-458-8" .
<http://ex/author/1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/author/1> <http://ex/name> "Alice" .
<http://ex/author/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/author/2> <http://ex/name> "Bob" .
<http://ex/page/1> <http://ex/url> "index.php" .
"""

# The paper's motivating query: author and ISBN of books published in 1996.
SPARQL_QUERY = """
PREFIX ex: <http://ex/>
SELECT ?a ?n WHERE {
  ?b ex:has_author ?a .
  ?b ex:in_year "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
  ?b ex:isbn_no ?n .
}
"""

SQL_QUERY = "SELECT has_author, isbn_no FROM Book WHERE in_year = 1996"


def main() -> None:
    # 1. load + discover + cluster in one call (self-organizing ingestion)
    store = RDFStore.build(NTRIPLES)

    print("=== emergent schema (the SQL view of the RDF data) ===")
    for line in store.schema_summary():
        print(" ", line)
    print()
    print("=== generated DDL ===")
    print(store.require_catalog().ddl_script())
    print()

    # 2. the same question through SPARQL, with both plan schemes of Table I
    for scheme in ("default", "rdfscan"):
        result = store.sparql(SPARQL_QUERY, PlannerOptions(scheme=scheme))
        print(f"SPARQL [{scheme:>7}] -> {store.decode_rows(result)}  ({result.cost.describe()})")
    print()
    print("=== EXPLAIN ANALYZE (RDFscan plan, estimated vs. actual rows) ===")
    print(store.explain(SPARQL_QUERY, analyze=True))
    print()

    # 3. and through the emergent SQL view — same storage, same answers
    sql_result = store.sql(SQL_QUERY)
    print(f"SQL               -> {store.decode_rows(sql_result)}")
    print()
    print("=== physical organization ===")
    for key, value in store.storage_summary().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
