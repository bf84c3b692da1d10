"""RDF I/O: N-Triples and Turtle-subset parsing and serialization."""

from pathlib import Path
from typing import Iterator, Union

from ..errors import ParseError
from ..model import Graph, Triple
from .ntriples import parse_ntriples, parse_term, serialize_ntriples
from .turtle import parse_turtle

__all__ = [
    "parse_ntriples",
    "parse_term",
    "parse_turtle",
    "parse_rdf",
    "load_graph",
    "serialize_ntriples",
]


def parse_rdf(text: str, syntax: str = "ntriples") -> Iterator[Triple]:
    """Parse RDF ``text`` in the given ``syntax`` (``ntriples`` or ``turtle``)."""
    if syntax in ("ntriples", "nt"):
        return parse_ntriples(text)
    if syntax in ("turtle", "ttl"):
        return parse_turtle(text)
    raise ParseError(f"unsupported RDF syntax: {syntax!r}")


def load_graph(source: Union[str, Path], syntax: str | None = None) -> Graph:
    """Load a :class:`~repro.model.Graph` from a file path or literal text.

    When ``source`` is a path to an existing file the syntax is inferred from
    the extension unless given; otherwise ``source`` is treated as document
    text (defaulting to N-Triples).
    """
    path = Path(source) if not isinstance(source, Path) else source
    try:
        is_file = path.is_file()
    except (OSError, ValueError):
        is_file = False
    if is_file:
        text = path.read_text(encoding="utf-8")
        if syntax is None:
            syntax = "turtle" if path.suffix in (".ttl", ".turtle") else "ntriples"
    else:
        text = str(source)
        if syntax is None:
            syntax = "ntriples"
    return Graph(parse_rdf(text, syntax=syntax))
