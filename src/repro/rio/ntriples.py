"""N-Triples parser and serializer.

N-Triples is the line-oriented RDF exchange syntax: one triple per line,
IRIs in angle brackets, literals in double quotes with optional ``@lang`` or
``^^<datatype>`` suffix, blank nodes as ``_:label``.  A line is one match of
a pattern composed from :mod:`repro.model.syntax`'s term grammar; a line
that does not match goes to :func:`_reject`, which only finds where.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, NoReturn, TextIO, Union

from ..errors import ParseError
from ..model import Triple
from ..model.syntax import (
    ABSOLUTE_IRIREF,
    BNODE_LABEL,
    IRI_BODY,
    LANGTAG,
    STRING_BODY,
    TERM,
    make_term,
)

_WS = r"[ \t]*"
_TAIL = r"[^\S\r\n]*(?:#[^\r\n]*)?[\r\n]*"  # after the '.': blanks, a comment, the line end
_LINE_RE = re.compile(rf"\s*(?:{ABSOLUTE_IRIREF}|_:({BNODE_LABEL})){_WS}{ABSOLUTE_IRIREF}{_WS}{TERM}"
                      rf"{_WS}\.{_TAIL}\Z")
_TERM_RE = re.compile(rf"\s*{TERM}\s*\Z")


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
    term = lru_cache(maxsize=None)(make_term)  # subjects, predicates and many objects repeat
    for lineno, line in enumerate(lines, start=1):
        found = match(line)
        if found is None:
            if line.lstrip()[:1] in ("", "#"):
                continue
            _reject(line, lineno, _LINE_PREFIX_RE)
        s_iri, s_label, p_iri, *obj = found.groups()
        try:
            triple = Triple(term(s_iri, s_label, None), term(p_iri, None, None), term(*obj))
        except ParseError as error:  # a \u escape that is no Unicode scalar value
            raise ParseError(error.message, line=lineno) from None
        yield triple


def parse_term(text: str, lineno: int = 1):
    """Parse a single N-Triples term (IRI, blank node or literal).

    The persistence layer serializes the term dictionary one ``Term.n3()``
    line per OID; this is the matching reader.  The whole string must be
    consumed by the term.

    Raises
    ------
    ParseError
        On malformed input or trailing characters.
    """
    found = _TERM_RE.match(text)
    if found is None:
        _reject(text, lineno, _TERM_PREFIX_RE)
    try:
        return make_term(*found.groups())
    except ParseError as error:
        raise ParseError(error.message, line=lineno) from None


# -- where text stops being N-Triples ----------------------------------------------


def _longest(*steps: str) -> str:
    """A pattern for ``steps`` in sequence in which only the first must match:
    its match ends where the sequence could not go on."""
    pattern = ""
    for step in reversed(steps[1:]):
        pattern = f"(?:{step}{pattern})?"
    return steps[0] + pattern


_HAT = r"\^"  # (an f-string expression may not hold a backslash before Python 3.12)


def _term_prefix(then: str, forms: str) -> str:
    """:func:`_longest` for one term (of the ``forms`` named by their first
    character) followed by ``then``."""
    iri = ("<", "(?!>)" + IRI_BODY, ">", then)
    suffix = f"(?:{_longest('@', LANGTAG, then)}|{_longest(_HAT, _HAT, *iri)}|{then})"
    by_first = {"<": _longest(*iri), "_": _longest("_", ":", BNODE_LABEL, then),
                '"': _longest('"', STRING_BODY, '"', suffix)}
    return "(?:" + "|".join(by_first[first] for first in forms) + ")?"


_LINE_PREFIX_RE = re.compile(r"\s*" + _term_prefix(_WS + _term_prefix(_WS + _term_prefix(
    _longest(_WS, r"\.", _TAIL), '<_"'), "<"), "<_"))
_TERM_PREFIX_RE = re.compile(r"\s*" + _term_prefix(r"\s*", '<_"'))


def _reject(text: str, lineno: int, prefix: "re.Pattern[str]") -> NoReturn:
    """Raise the :class:`ParseError` of text its pattern does not match, at the
    first character the grammar cannot accept.  Never returns: the pattern is
    the parser, this only finds where it stopped."""
    end = prefix.match(text).end()
    found = repr(text[end]) if end < len(text) else "end of line"
    raise ParseError(f"unexpected {found}", line=lineno, column=end + 1)


# -- serialization -----------------------------------------------------------


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "".join(t.n3() + "\n" for t in triples)
