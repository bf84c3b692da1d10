"""The lexical grammar of RDF terms: the inverse of :meth:`Term.n3`.

Every reader of term text composes the fragments below — an N-Triples line
and the dictionary file's term (:mod:`repro.rio.ntriples`), Turtle
(:mod:`repro.rio.turtle`) and SPARQL / SPARQL Update
(:mod:`repro.sparql.parser`) — so a term form is added here, once: its
fragment, its place in :func:`_term_grammar` and its token in
:data:`TOKEN_RE`, its case in :func:`make_term` / :meth:`TokenStream.term_of`.

The fragments follow the W3C productions (N-Triples §3, Turtle §6.5)
restricted to the supported subset: no ``\\u`` escapes inside IRIs, no
``%``/``\\`` escapes in prefixed names and no ``.`` in a prefix, no single-
or triple-quoted strings, no doubles, no anonymous ``[...]`` nodes.  Each is
an unrolled loop over disjoint character classes, so the regex engine never
has a choice to backtrack over: what a pattern accepts does not depend on
match order, and a token is found in one pass over its text.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ParseError
from .terms import BNode, IRI, Literal, RDF_TYPE, Term, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER

# -- fragments -------------------------------------------------------------------

IRI_BODY = r"[^\x00-\x20<>\\]*"
"""IRIREF between its angle brackets (the printable ``"{}|^``` W3C excludes
stay in: crawled data has them and every reader always took them)."""
_HEX4 = "[0-9A-Fa-f]{4}"
ESCAPE = (r'\\(?:[tbnrf"\'\\]'
          rf"|u(?![Dd][89A-Fa-f]){_HEX4}|U(?:0000(?![Dd][89A-Fa-f])|000[1-9A-Fa-f]|0010){_HEX4})")
"""ECHAR | UCHAR naming a Unicode scalar value (no surrogate, none past U+10FFFF)."""
STRING_BODY = rf'[^"\\\n\r]*(?:{ESCAPE}[^"\\\n\r]*)*'
"""STRING_LITERAL_QUOTE between its quotes."""
BNODE_LABEL = r"\w[\w-]*(?:\.+[\w-]+)*"
"""BLANK_NODE_LABEL after ``_:`` — dots inside, never last."""
LANGTAG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
"""LANGTAG after ``@``."""
PNAME = r"(?:[^\W\d_][\w-]*)?:(?:[\w:][\w:-]*(?:\.+[\w:-]+)*)?"
"""PNAME_NS | PNAME_LN — a trailing ``.`` is the statement's, not the name's."""

# -- grammars ---------------------------------------------------------------------
# A grammar is a pattern fragment, a tuple of grammars in sequence, or a list of
# alternatives that differ in their first character ("" is the empty one).  It is
# stated once and compiled twice: pattern() reads, prefix_pattern() locates.


def _term_grammar(iri_body: str, label: str, langtag: str) -> list:
    """``<iri> | _:label | "string"(@langtag | ^^<iri>)?`` — five groups,
    :func:`make_term`'s arguments."""
    iriref = ("<", f"({iri_body})", ">")
    return [iriref, ("_", ":", f"({label})"),
            ('"', f"({STRING_BODY})", '"', [("@", f"({langtag})"), (r"\^", r"\^", *iriref), ""])]


TERM = _term_grammar("(?!>)" + IRI_BODY, BNODE_LABEL, LANGTAG)
"""One N-Triples term.  Nothing resolves a relative IRI there: never ``<>``."""
ABSOLUTE_IRIREF, BLANK_NODE, _ = TERM
WRITTEN_TERM = _term_grammar(".+", ".+", ".+")
"""All of one :meth:`Term.n3`, whatever the term.  ``n3()`` escapes the string
and nothing else, so an IRI, a label and a language tag are what stands
between the delimiters: this reads the store's own dictionary file back, not
RDF text from outside."""


def pattern(grammar) -> str:
    """The pattern of all of ``grammar``: the reader."""
    if isinstance(grammar, str):
        return grammar
    if isinstance(grammar, list):
        return "(?:" + "|".join(pattern(choice) for choice in grammar) + ")"
    return "".join(pattern(step) for step in grammar)


def prefix_pattern(grammar, then: str = "") -> str:
    """The pattern of ``grammar`` (and on into ``then``) with only the first
    step of a sequence required.  Where that step can match nothing it always
    matches, and its match ends at the first character :func:`pattern` of the
    same grammar cannot accept."""
    if isinstance(grammar, str):
        return grammar + then
    if isinstance(grammar, list):
        return "(?:" + "|".join(prefix_pattern(choice, then) for choice in grammar) + ")"
    for step in reversed(grammar[1:]):
        then = f"(?:{prefix_pattern(step, then)})?"
    return prefix_pattern(grammar[0], then)


TOKEN_RE = re.compile(
    rf"""
    (?P<SKIP>\s+|\#[^\n]*)
  | (?P<IRIREF><{IRI_BODY}>)
  | (?P<STRING>"{STRING_BODY}")
  | (?P<BNODE>_:{BNODE_LABEL})
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>[+-]?\d+(?:\.\d+)?)
  | (?P<PNAME>{PNAME})
  | (?P<KEYWORD>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<DTSEP>\^\^)
  | (?P<LANG>@{LANGTAG})
  | (?P<OP><=|>=|!=|&&|\|\||[=<>])
  | (?P<PUNCT>[{{}}().;,*/+-])
  | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)
"""The tokens of Turtle and SPARQL (a superset of either language's)."""

_ESCAPE_RE = re.compile(ESCAPE + r"|\\")
_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


# -- text -> term -----------------------------------------------------------------


def _unescape_one(match: "re.Match[str]") -> str:
    escape = match.group()
    if len(escape) == 1:  # a backslash that starts no ESCAPE
        raise ParseError(f"invalid escape sequence at offset {match.start()}")
    return _ECHARS[escape[1]] if len(escape) == 2 else chr(int(escape[2:], 16))


def unescape(text: str) -> str:
    """Reverse :func:`~repro.model.terms.escape_literal`: ECHAR and UCHAR.

    Raises :class:`ParseError` for a dangling or unknown escape and for a
    ``\\u`` / ``\\U`` that is not a Unicode scalar value.
    """
    return _ESCAPE_RE.sub(_unescape_one, text) if "\\" in text else text


def make_term(iri: Optional[str], label: Optional[str], string: Optional[str],
              language: Optional[str] = None, datatype: Optional[str] = None) -> Term:
    """The term a :data:`TERM` match stands for (exactly one of the first
    three groups is set; ``language`` / ``datatype`` qualify ``string``)."""
    if iri is not None:
        return IRI(iri)
    if label is not None:
        return BNode(label)
    return Literal(unescape(string), datatype, language)


def resolve_iri(base: str, iriref: str) -> str:
    """The IRI an IRIREF token (``<…>``) names under a base IRI."""
    body = iriref[1:-1]
    return base + body if base and not _SCHEME_RE.match(body) else body


def number_literal(text: str) -> Literal:
    """The literal a NUMBER token stands for: an integer, or a decimal."""
    return Literal(text, datatype=XSD_DECIMAL if "." in text else XSD_INTEGER)


# -- token streams ------------------------------------------------------------------


class Token(NamedTuple):
    """One :data:`TOKEN_RE` match: the group that matched, its text, its offset."""

    kind: str
    text: str
    position: int


def position_of(text: str, offset: int) -> Tuple[int, int]:
    """1-based ``(line, column)`` of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> List[Token]:
    """The tokens of ``text``, blanks and comments dropped."""
    tokens: List[Token] = []
    for match in TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {match.group()!r}",
                             *position_of(text, match.start()))
        if kind != "SKIP":
            tokens.append(Token(kind, match.group(), match.start()))
    return tokens


class TokenStream:
    """A cursor over :func:`tokenize` output plus the productions Turtle and
    SPARQL share: prefix / base declarations, one term, and
    ``subject predicateObjectList``."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.prefixes: Dict[str, str] = {}
        self.base = ""

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        """A :class:`ParseError` located at ``token`` (default: the next one)."""
        token = token or self.peek()
        offset = token.position if token is not None else len(self.text)
        return ParseError(message, *position_of(self.text, offset))

    def peek(self) -> Optional[Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self, kind: Optional[str] = None) -> Token:
        """Consume a token, of ``kind`` when given."""
        if self.index >= len(self.tokens):
            raise self.error("unexpected end of input")
        token = self.tokens[self.index]
        if kind is not None and token.kind != kind:
            raise self.error(f"expected {kind}, found {token.text!r}")
        self.index += 1
        return token

    def accept(self, text: str) -> bool:
        """Consume the punctuation or operator ``text`` if it is next."""
        token = self.peek()
        if token is not None and token.kind in ("PUNCT", "OP") and token.text == text:
            self.index += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(f"expected {text!r}")

    # -- shared productions --------------------------------------------------------

    def read_directive(self) -> bool:
        """Consume ``@prefix name: <iri> .`` / ``@base <iri> .`` or their
        SPARQL spellings (``PREFIX`` / ``BASE``, no ``.``) if one is next."""
        token = self.peek()
        if token is None or token.kind not in ("LANG", "KEYWORD"):
            return False
        turtle_style = token.kind == "LANG"
        name = token.text[1:] if turtle_style else token.text.lower()
        if name not in ("prefix", "base"):
            return False
        self.index += 1
        if name == "prefix":
            pname = self.next("PNAME")
            prefix, _, local = pname.text.partition(":")
            if local:
                raise self.error("a prefix declaration expects 'name:' followed by an IRI", pname)
            self.prefixes[prefix] = resolve_iri(self.base, self.next("IRIREF").text)
        else:
            self.base = resolve_iri(self.base, self.next("IRIREF").text)
        if turtle_style:
            self.expect(".")
        return True

    def read_term(self, position: str) -> Term:
        """One RDF term in ``position`` (``subject`` / ``predicate`` / ``object``)."""
        token = self.next()
        try:
            return self.term_of(token, position)
        except ParseError as error:
            raise self.error(error.message, token) from None

    def term_of(self, token: Token, position: str) -> Term:
        """The term starting at ``token`` (subclasses add their own forms)."""
        kind, text = token.kind, token.text
        if kind in ("IRIREF", "PNAME"):
            return IRI(self._iri_of(token))
        if kind == "BNODE" and position != "predicate":
            return BNode(text[2:])
        if kind == "KEYWORD" and text == "a" and position == "predicate":
            return IRI(RDF_TYPE)
        if position == "object":
            if kind == "STRING":
                return self._literal(unescape(text[1:-1]))
            if kind == "NUMBER":
                return number_literal(text)
            if kind == "KEYWORD" and text in ("true", "false"):
                return Literal(text, datatype=XSD_BOOLEAN)
        raise ParseError(f"unexpected {text!r} in {position} position")

    def _iri_of(self, token: Token) -> str:
        if token.kind == "IRIREF":
            iri = resolve_iri(self.base, token.text)
        else:
            prefix, _, local = token.text.partition(":")
            if prefix not in self.prefixes:
                raise ParseError(f"undefined prefix {prefix!r}")
            iri = self.prefixes[prefix] + local
        if not iri:
            raise ParseError("empty IRI")
        return iri

    def _literal(self, lexical: str) -> Literal:
        """A quoted string's literal, with the ``@lang`` / ``^^datatype`` after it."""
        token = self.peek()
        if token is None or token.kind not in ("LANG", "DTSEP"):
            return Literal(lexical)
        self.index += 1
        if token.kind == "LANG":
            return Literal(lexical, language=token.text[1:])
        datatype = self.next()
        if datatype.kind not in ("IRIREF", "PNAME"):
            raise ParseError("expected a datatype IRI after '^^'")
        return Literal(lexical, datatype=self._iri_of(datatype))

    def read_triples(self, make) -> list:
        """``subject predicateObjectList``, up to (not including) the ``.``
        that may follow: one ``make(s, p, o)`` per object."""
        triples = []
        subject = self.read_term("subject")
        while True:
            predicate = self.read_term("predicate")
            triples.append(make(subject, predicate, self.read_term("object")))
            while self.accept(","):
                triples.append(make(subject, predicate, self.read_term("object")))
            if not self.accept(";"):
                return triples
            while self.accept(";"):
                pass
            token = self.peek()
            if token is None or (token.kind == "PUNCT" and token.text in ".}"):
                return triples
