"""Triple value objects, both decoded (:class:`Triple`) and OID-encoded
(:class:`EncodedTriple`).

The decoded form holds :class:`~repro.model.terms.Term` instances and is what
parsers produce and users see.  The encoded form is three integers (subject
OID, predicate OID, object OID) and is what storage, clustering and the query
engine operate on.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .terms import IRI, BNode, Literal, Term


class Triple(tuple):
    """A decoded RDF triple ``(subject, predicate, object)``.

    The subject must be an IRI or blank node, the predicate an IRI, and the
    object any term — mirroring the RDF abstract syntax.  Like a term it is
    a tuple, hashed and compared in C; unpacking gives its three terms.
    """

    __slots__ = ()

    subject = property(itemgetter(0), doc="The subject, an IRI or BNode.")
    predicate = property(itemgetter(1), doc="The predicate IRI.")
    object = property(itemgetter(2), doc="The object term.")

    def __new__(cls, subject: Term, predicate: IRI, object: Term) -> "Triple":
        if not isinstance(subject, (IRI, BNode)):
            raise TypeError(f"triple subject must be an IRI or BNode, got {type(subject).__name__}")
        if not isinstance(predicate, IRI):
            raise TypeError(f"triple predicate must be an IRI, got {type(predicate).__name__}")
        if not isinstance(object, (IRI, BNode, Literal)):
            raise TypeError(f"triple object must be a term, got {type(object).__name__}")
        return tuple.__new__(cls, (subject, predicate, object))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def n3(self) -> str:
        """Return the N-Triples line (without trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __repr__(self) -> str:
        return f"Triple(subject={self.subject!r}, predicate={self.predicate!r}, object={self.object!r})"


class EncodedTriple(NamedTuple):
    """A dictionary-encoded triple of integer OIDs."""

    s: int
    p: int
    o: int

    def reordered(self, order: str) -> tuple[int, int, int]:
        """Return the components permuted according to ``order``.

        ``order`` is a permutation string such as ``"pso"`` or ``"pos"``.
        """
        mapping = {"s": self.s, "p": self.p, "o": self.o}
        return tuple(mapping[c] for c in order)  # type: ignore[return-value]

