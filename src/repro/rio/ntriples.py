"""N-Triples parser and serializer.

N-Triples is the line-oriented RDF exchange syntax: one triple per line,
IRIs in angle brackets, literals in double quotes with optional ``@lang`` or
``^^<datatype>`` suffix, blank nodes as ``_:label``.  A line is one match of
the pattern of a grammar composed from :mod:`repro.model.syntax`'s term; a
line that does not match goes to :func:`_reject`, which finds where with the
prefix pattern of the same grammar.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NoReturn, TextIO, Union

from ..errors import ParseError
from ..model import Triple
from ..model.syntax import (
    ABSOLUTE_IRIREF,
    BLANK_NODE,
    TERM,
    WRITTEN_TERM,
    make_term,
    pattern,
    prefix_pattern,
)

_WS = r"[ \t]*"
_LINE = (r"\s*", [ABSOLUTE_IRIREF, BLANK_NODE], _WS, ABSOLUTE_IRIREF, _WS, TERM, _WS, r"\.",
         r"[^\S\r\n]*(?:#[^\r\n]*)?[\r\n]*")  # after the '.': blanks, a comment, the line end
_LINE_RE = re.compile(pattern(_LINE) + r"\Z")
_LINE_PREFIX_RE = re.compile(prefix_pattern(_LINE))
_WRITTEN_TERM_RE = re.compile(pattern(WRITTEN_TERM))


def parse_ntriples(source: Union[str, TextIO, Iterable[str]]) -> Iterator[Triple]:
    """Parse N-Triples from a string, open file or iterable of lines.

    Yields :class:`~repro.model.Triple` objects.  Comment lines (starting
    with ``#``) and blank lines are skipped.

    Raises
    ------
    ParseError
        On malformed input, with the 1-based line number and the column of
        the first character the grammar cannot accept.
    """
    # split strictly on '\n': literals may legally contain other Unicode
    # line-boundary characters, which str.splitlines() would break on
    lines = source.split("\n") if isinstance(source, str) else source
    match = _LINE_RE.match
    # N-Triples as written comes in subject runs over few predicates: the
    # subject of the previous line and every predicate seen are handed out
    # again instead of being rebuilt.  O(distinct predicates) is held; an
    # object is never kept.
    subject_key = subject = None
    predicates: dict = {}
    for lineno, line in enumerate(lines, start=1):
        found = match(line)
        if found is None:
            if line.lstrip()[:1] in ("", "#"):
                continue
            _reject(line, lineno)
        s_iri, s_label, p_iri, *obj = found.groups()
        if (s_iri, s_label) != subject_key:
            subject_key, subject = (s_iri, s_label), make_term(s_iri, s_label, None)
        predicate = predicates.get(p_iri)
        if predicate is None:
            predicate = predicates[p_iri] = make_term(p_iri, None, None)
        yield Triple(subject, predicate, make_term(*obj))


def _reject(line: str, lineno: int) -> NoReturn:
    """Raise the :class:`ParseError` of a line :data:`_LINE_RE` does not match,
    at the first character the grammar cannot accept.  Never returns: the
    pattern is the parser, this only finds where it stopped."""
    end = _LINE_PREFIX_RE.match(line).end()
    found = repr(line[end]) if end < len(line) else "end of line"
    raise ParseError(f"unexpected {found}", line=lineno, column=end + 1)


def parse_term(text: str, lineno: int = 1):
    """Read one ``Term.n3()`` back: the exact inverse, for any term.

    The persistence layer serializes the term dictionary one ``n3()`` line per
    OID; this is the matching reader.  It is not a reader of N-Triples from
    outside: an IRI, a label or a language tag that :func:`parse_ntriples`
    refuses but a caller-built term carried is read back as it was written.

    Raises
    ------
    ParseError
        When ``text`` is not all of one term's ``n3()``.
    """
    found = _WRITTEN_TERM_RE.fullmatch(text)
    if found is None:
        raise ParseError(f"not a term: {text!r}", line=lineno)
    return make_term(*found.groups())


# -- serialization -----------------------------------------------------------


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "".join(t.n3() + "\n" for t in triples)
