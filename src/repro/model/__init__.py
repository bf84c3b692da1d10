"""RDF data model: terms, triples, graphs and dictionary encoding."""

from .dictionary import TermDictionary, ValueBounds
from .graph import Graph
from .terms import (
    BNode,
    IRI,
    Literal,
    RDF_NS,
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_NS,
    Term,
    XSD,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    literal_from_python,
    term_sort_key,
)
from .triples import EncodedTriple, Triple

__all__ = [
    "BNode",
    "EncodedTriple",
    "Graph",
    "IRI",
    "Literal",
    "RDF_NS",
    "RDF_TYPE",
    "RDFS_LABEL",
    "RDFS_NS",
    "Term",
    "TermDictionary",
    "Triple",
    "ValueBounds",
    "XSD",
    "XSD_BOOLEAN",
    "XSD_DATE",
    "XSD_DATETIME",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_INTEGER",
    "XSD_STRING",
    "literal_from_python",
    "term_sort_key",
]
