"""Triple value objects, both decoded (:class:`Triple`) and OID-encoded
(:class:`EncodedTriple`).

The decoded form holds :class:`~repro.model.terms.Term` instances and is what
parsers produce and users see.  The encoded form is three integers (subject
OID, predicate OID, object OID) and is what storage, clustering and the query
engine operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .terms import IRI, BNode, Literal, Term


@dataclass(frozen=True, slots=True)
class Triple:
    """A decoded RDF triple ``(subject, predicate, object)``.

    The subject must be an IRI or blank node, the predicate an IRI, and the
    object any term — mirroring the RDF abstract syntax.
    """

    subject: Term
    predicate: IRI
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (IRI, BNode)):
            raise TypeError(f"triple subject must be an IRI or BNode, got {type(self.subject).__name__}")
        if not isinstance(self.predicate, IRI):
            raise TypeError(f"triple predicate must be an IRI, got {type(self.predicate).__name__}")
        if not isinstance(self.object, (IRI, BNode, Literal)):
            raise TypeError(f"triple object must be a term, got {type(self.object).__name__}")

    def n3(self) -> str:
        """Return the N-Triples line (without trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __iter__(self) -> Iterator[Term]:
        yield self.subject
        yield self.predicate
        yield self.object


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

