"""A Turtle-subset parser.

Turtle is the human-friendly RDF syntax.  This parser supports the subset
that covers hand-written test fixtures and generated data:

* ``@prefix`` / ``@base`` directives (and SPARQL-style ``PREFIX`` / ``BASE``)
  and prefixed names (``ex:book1``),
* the ``a`` keyword for ``rdf:type``,
* predicate lists with ``;`` and object lists with ``,``,
* plain, language-tagged, typed, integer, decimal and boolean literals,
* blank node labels (``_:b1``) — but not anonymous ``[...]`` nodes,
* ``#`` comments.

Anything outside this subset raises :class:`~repro.errors.ParseError`.  The
tokens, the terms and the ``subject predicateObjectList`` production are
:class:`repro.model.syntax.TokenStream`'s, shared with SPARQL; a document is
directives and ``.``-terminated statements over them.
"""

from __future__ import annotations

from typing import Iterator, List

from ..model import Triple
from ..model.syntax import TokenStream


def parse_turtle(text: str) -> Iterator[Triple]:
    """Parse a Turtle document (subset) and yield triples."""
    stream = TokenStream(text)
    triples: List[Triple] = []
    while stream.peek() is not None:
        if not stream.read_directive():
            triples.extend(stream.read_triples(Triple))
            stream.expect(".")
    return iter(triples)
