"""RDF term model: IRIs, literals and blank nodes.

The term classes are small immutable value objects, kind-tagged tuples (see
:class:`Term`).  They deliberately keep the surface close to the RDF 1.1
abstract syntax: a *term* is an IRI, a literal (with optional datatype IRI or
language tag) or a blank node.  The library encodes terms to integer OIDs
for storage (see :mod:`repro.model.dictionary`); these classes are the
user-facing, decoded representation.
"""

from __future__ import annotations

import re
from datetime import date, datetime
from operator import itemgetter
from typing import Union

# Well known namespaces -----------------------------------------------------

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
RDF_TYPE = RDF_NS + "type"
RDFS_LABEL = RDFS_NS + "label"


class Term(tuple):
    """Abstract base class for RDF terms.

    A term is a kind-tagged tuple: :class:`IRI` is ``(0, value)``,
    :class:`BNode` ``(1, label)`` and :class:`Literal` ``(2, lexical,
    datatype, language)``.  Hashing and equality are the tuple's own, run in
    C, so the term → OID probe every loaded triple pays three times (and
    every ``Graph``, ``set(triples)`` and parser cache lookup) calls no
    Python code.  The tag keeps ``IRI("a")``, ``BNode("a")`` and
    ``Literal("a")`` apart.  The tuple is the representation; a term's
    fields are read by the attribute names each class defines.

    Order is :func:`term_sort_key`'s, all four comparisons derived from its
    ``<``: two terms the key ties (``"a"@en`` and ``"a"@fr``) are neither
    ``<`` nor ``>`` each other, and both ``<=`` and ``>=``.
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples serialization of this term."""
        raise NotImplementedError

    @property
    def is_iri(self) -> bool:
        return isinstance(self, IRI)

    @property
    def is_literal(self) -> bool:
        return isinstance(self, Literal)

    @property
    def is_bnode(self) -> bool:
        return isinstance(self, BNode)

    def __getnewargs__(self) -> tuple:
        # copy, deepcopy and pickle rebuild a term from its constructor's
        # arguments, not from the tagged tuple
        return self[1:]

    def __lt__(self, other: object) -> bool:
        if isinstance(other, Term):
            return term_sort_key(self) < term_sort_key(other)
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Term):
            return not term_sort_key(other) < term_sort_key(self)
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Term):
            return term_sort_key(other) < term_sort_key(self)
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, Term):
            return not term_sort_key(self) < term_sort_key(other)
        return NotImplemented


class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://example.org/book/1")``."""

    __slots__ = ()

    value = property(itemgetter(1), doc="The IRI string.")

    def __new__(cls, value: str) -> "IRI":
        if not value:
            raise ValueError("IRI value must be a non-empty string")
        return tuple.__new__(cls, (0, value))

    def n3(self) -> str:
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Return the part of the IRI after the last ``#`` or ``/``.

        Useful for generating human readable labels from IRIs, as the schema
        labeling pass does.
        """
        value = self.value
        for sep in ("#", "/", ":"):
            idx = value.rfind(sep)
            if 0 <= idx < len(value) - 1:
                return value[idx + 1:]
        return value

    def namespace(self) -> str:
        """Return the IRI up to and including the last ``#`` or ``/``."""
        value = self.value
        for sep in ("#", "/"):
            idx = value.rfind(sep)
            if idx >= 0:
                return value[: idx + 1]
        return value

    def __repr__(self) -> str:
        return f"IRI(value={self.value!r})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


class BNode(Term):
    """A blank node with a document-scoped label."""

    __slots__ = ()

    label = property(itemgetter(1), doc="The label, without ``_:``.")

    def __new__(cls, label: str) -> "BNode":
        if not label:
            raise ValueError("BNode label must be a non-empty string")
        return tuple.__new__(cls, (1, label))

    def n3(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"BNode(label={self.label!r})"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"_:{self.label}"


class Literal(Term):
    """An RDF literal: lexical form plus optional datatype or language tag."""

    __slots__ = ()

    lexical = property(itemgetter(1), doc="The lexical form.")
    datatype = property(itemgetter(2), doc="The datatype IRI string, or ``None``.")
    language = property(itemgetter(3), doc="The language tag, or ``None``.")

    def __new__(cls, lexical: str, datatype: str | None = None,
                language: str | None = None) -> "Literal":
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        return tuple.__new__(cls, (2, lexical, datatype, language))

    def n3(self) -> str:
        escaped = escape_literal(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    # -- typed value access --------------------------------------------------

    def effective_datatype(self) -> str:
        """Return the datatype IRI, defaulting to ``xsd:string``."""
        if self.language:
            return XSD_STRING
        return self.datatype or XSD_STRING

    def to_python(self) -> Union[str, int, float, bool, date, datetime]:
        """Convert the literal to the closest native Python value.

        Falls back to the lexical form when the datatype is unknown or the
        lexical form does not parse under the declared datatype (real-world
        RDF is dirty; we never raise here).
        """
        dt = self.effective_datatype()
        text = self.lexical
        try:
            if dt == XSD_INTEGER or dt.endswith(("#int", "#long", "#short", "#byte",
                                                 "#nonNegativeInteger", "#positiveInteger")):
                return int(text)
            if dt in (XSD_DECIMAL, XSD_DOUBLE) or dt.endswith("#float"):
                return float(text)
            if dt == XSD_BOOLEAN:
                return text.strip().lower() in ("true", "1")
            if dt == XSD_DATE:
                return date.fromisoformat(text)
            if dt == XSD_DATETIME:
                return datetime.fromisoformat(text.replace("Z", "+00:00"))
        except (ValueError, TypeError):
            return text
        return text

    def __repr__(self) -> str:
        return (f"Literal(lexical={self.lexical!r}, datatype={self.datatype!r}, "
                f"language={self.language!r})")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.lexical

    def sort_key(self) -> tuple:
        """Return a key ordering literals by value within their value class.

        Numeric literals order numerically, dates chronologically, everything
        else lexicographically.  The class rank keeps heterogeneous literals
        comparable, which matters for assigning value-ordered object OIDs.
        """
        value = self.to_python()
        if isinstance(value, bool):
            return (0, int(value), self.lexical)
        if isinstance(value, (int, float)):
            return (1, float(value), self.lexical)
        if isinstance(value, datetime):
            return (2, value.isoformat(), self.lexical)
        if isinstance(value, date):
            return (2, value.isoformat(), self.lexical)
        return (3, self.lexical, self.lexical)


# -- helpers -----------------------------------------------------------------


_ESCAPE_OF = {
    **{chr(code): f"\\u{code:04X}" for code in [*range(0x20), 0x7F, 0x85, 0x2028, 0x2029]},
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
"""Every character :func:`escape_literal` rewrites, with its escape: ``\\uXXXX``
for control characters and the Unicode line / paragraph separators, save the
five with a short escape."""

_ESCAPED = re.compile("[" + re.escape("".join(_ESCAPE_OF)) + "]")


def _escape_match(match: "re.Match[str]") -> str:
    return _ESCAPE_OF[match.group()]


def escape_literal(text: str) -> str:
    """Escape a literal lexical form for N-Triples output.

    Control characters (and the Unicode line/paragraph separators, which some
    line splitters treat as newlines) are emitted as ``\\uXXXX`` escapes so
    the serialized form always stays on one physical line.  One compiled
    character class finds them; text without one is returned as it is.
    """
    if _ESCAPED.search(text) is None:
        return text
    return _ESCAPED.sub(_escape_match, text)


def term_sort_key(term: Term) -> tuple:
    """Total order over heterogeneous terms: IRIs < BNodes < Literals.

    Used when assigning OIDs so that the dictionary order is deterministic.
    """
    if isinstance(term, IRI):
        return (0, term.value, "", "")
    if isinstance(term, BNode):
        return (1, term.label, "", "")
    if isinstance(term, Literal):
        key = term.sort_key()
        return (2, key[0], key[1], key[2])
    raise TypeError(f"not an RDF term: {term!r}")


def literal_from_python(value: Union[str, int, float, bool, date, datetime]) -> Literal:
    """Build a typed :class:`Literal` from a native Python value."""
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD_DOUBLE)
    if isinstance(value, datetime):
        return Literal(value.isoformat(), datatype=XSD_DATETIME)
    if isinstance(value, date):
        return Literal(value.isoformat(), datatype=XSD_DATE)
    return Literal(str(value))
