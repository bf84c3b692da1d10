"""Dictionary encoding of RDF terms to integer OIDs.

RDF stores keep triples as integers.  The :class:`TermDictionary` maps each
distinct term to a dense OID and back.  Two aspects matter for this paper's
reproduction:

* **OID assignment order matters.**  The paper observes that the (arbitrary)
  parse-order OIDs given to subjects cause non-locality; subject clustering
  later *re-assigns* subject OIDs grouped by characteristic set.  The
  dictionary therefore supports bulk re-mapping of OIDs
  (:meth:`TermDictionary.remap`).
* **Value-ordered literal OIDs.**  The paper proposes ordering literal object
  OIDs "in a way that is meaningful to SPARQL value comparison semantics" so
  range predicates can be evaluated on OIDs directly.
  :meth:`TermDictionary.reassign_value_ordered_literals` implements that.
* **The literal order index.**  The dictionary owns the one index that maps
  a value range to literal OIDs (:meth:`TermDictionary.literal_value_range`):
  a *head* — the literal OIDs below the value-order watermark, ascending,
  which by the invariant above already *is* value order, so it is never
  sorted and stores no keys — plus a small value-sorted *tail* of the
  literals appended since.  Lookups bisect with a key function that decodes
  only the O(log n) probed terms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import DictionaryError
from ..obs import default_registry
from .terms import Literal, Term, term_sort_key
from .triples import EncodedTriple, Triple

_HEAD_BUILDS = default_registry().counter(
    "literal_index_full_builds_total",
    "Full passes over a dictionary to build its literal order index "
    "(store build, compaction and open only; never per update, snapshot or query).")

_NO_OIDS = np.empty(0, dtype=np.int64)


class TermDictionary:
    """Bidirectional mapping between RDF terms and dense integer OIDs.

    OIDs are assigned in order of first appearance (parse order), starting
    at 0.  The mapping is stable until :meth:`remap` or
    :meth:`reassign_value_ordered_literals` is called.
    """

    def __init__(self) -> None:
        self._term_to_oid: Dict[Term, int] = {}
        self._oid_to_term: List[Term] = []
        self._value_order_watermark = 0
        self._literal_head: np.ndarray = _NO_OIDS
        """Literal OIDs below the watermark, ascending — which is value
        order.  Immutable once published (clones share it)."""
        self._literal_tail: Tuple[int, List[Tuple[tuple, int]]] = (0, [])
        """``(covered, entries)``: one ``(sort key, OID)`` entry, sorted, per
        literal with watermark <= OID < covered.  The tail is small, so unlike
        the head it keeps its keys.  One tuple so lock-free readers see both
        halves of a writer's replacement at once; a published list is never
        mutated."""
        self._numeric: Dict[int, float] = {}
        """OID -> numeric value, filled by :meth:`numeric_value`.  An OID
        keeps its term until :meth:`remap` (which drops this), so every
        context over the dictionary aggregates through one warm cache."""

    @property
    def value_order_watermark(self) -> int:
        """OIDs below this bound were covered by the last value-ordering pass.

        Literal OIDs ``< watermark`` are value-ordered among themselves;
        literals appended later (by the write path) sit at the end of the OID
        space in arrival order and must be range-checked individually until
        the next :meth:`reassign_value_ordered_literals` (run at load time
        and by ``RDFStore.compact``).
        """
        return self._value_order_watermark

    # -- encoding ------------------------------------------------------------

    def encode_term(self, term: Term) -> int:
        """Return the OID for ``term``, assigning a fresh one if unseen."""
        oid = self._term_to_oid.get(term)
        if oid is None:
            oid = len(self._oid_to_term)
            self._term_to_oid[term] = oid
            self._oid_to_term.append(term)
        return oid

    def lookup_term(self, term: Term) -> int | None:
        """Return the OID for ``term`` or ``None`` if it has never been seen."""
        return self._term_to_oid.get(term)

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        """Encode a decoded triple into integer OIDs."""
        return EncodedTriple(
            self.encode_term(triple.subject),
            self.encode_term(triple.predicate),
            self.encode_term(triple.object),
        )

    def encode_triples(self, triples: Iterable[Triple]) -> Iterator[EncodedTriple]:
        """Encode a stream of triples lazily."""
        for triple in triples:
            yield self.encode_triple(triple)

    # -- decoding ------------------------------------------------------------

    def decode(self, oid: int) -> Term:
        """Return the term for ``oid``.

        Raises
        ------
        DictionaryError
            If the OID is out of range.
        """
        if 0 <= oid < len(self._oid_to_term):
            return self._oid_to_term[oid]
        raise DictionaryError(f"unknown OID {oid} (dictionary holds {len(self._oid_to_term)} terms)")

    def numeric_value(self, oid: int) -> float:
        """Numeric value behind an OID (NaN for non-numeric or unknown terms)."""
        cached = self._numeric.get(oid)
        if cached is not None:
            return cached
        value = float("nan")
        if oid >= 0:
            term = self.decode(oid)
            if isinstance(term, Literal):
                python_value = term.to_python()
                if isinstance(python_value, bool):
                    value = 1.0 if python_value else 0.0
                elif isinstance(python_value, (int, float)):
                    value = float(python_value)
        self._numeric[oid] = value
        return value

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """Decode an encoded triple back to terms."""
        subject = self.decode(encoded.s)
        predicate = self.decode(encoded.p)
        obj = self.decode(encoded.o)
        return Triple(subject, predicate, obj)  # type: ignore[arg-type]

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._oid_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_oid

    def terms(self) -> Iterator[Term]:
        """Iterate over terms in OID order."""
        return iter(self._oid_to_term)

    def items(self) -> Iterator[tuple[Term, int]]:
        """Iterate over ``(term, oid)`` pairs in OID order."""
        for oid, term in enumerate(self._oid_to_term):
            yield term, oid

    # -- copying -------------------------------------------------------------

    def clone(self) -> "TermDictionary":
        """An independent copy sharing the (immutable) term objects.

        Used by the store's copy-on-write path: before compaction or
        re-clustering re-maps OIDs in place, the live store switches to a
        clone so MVCC read snapshots keep decoding through the original.
        """
        twin = TermDictionary()
        twin._term_to_oid = dict(self._term_to_oid)
        twin._oid_to_term = list(self._oid_to_term)
        twin._value_order_watermark = self._value_order_watermark
        twin._literal_head = self._literal_head
        twin._literal_tail = self._literal_tail
        return twin

    # -- persistence ---------------------------------------------------------

    @classmethod
    def restore(cls, terms: Iterable[Term], value_order_watermark: int = 0) -> "TermDictionary":
        """Rebuild a dictionary from terms listed in OID order.

        Used by the snapshot reader: the persisted term file lists one term
        per OID, so re-enumerating it reproduces the exact OID assignment
        (including the value-ordered literal permutation) without re-running
        any ordering pass.

        Raises
        ------
        DictionaryError
            If the term list contains duplicates (the file is corrupt: a
            dictionary is a bijection).
        """
        dictionary = cls()
        for oid, term in enumerate(terms):
            if term in dictionary._term_to_oid:
                raise DictionaryError(
                    f"duplicate term at OID {oid}: {term!r} already has OID "
                    f"{dictionary._term_to_oid[term]}")
            dictionary._term_to_oid[term] = oid
            dictionary._oid_to_term.append(term)
        if not 0 <= value_order_watermark <= len(dictionary._oid_to_term):
            raise DictionaryError(
                f"value-order watermark {value_order_watermark} out of range for "
                f"{len(dictionary._oid_to_term)} terms")
        dictionary._set_value_order(int(value_order_watermark))
        return dictionary

    # -- re-mapping ----------------------------------------------------------

    def remap(self, mapping: Dict[int, int]) -> None:
        """Permute OIDs according to ``mapping`` (old OID -> new OID).

        The mapping must be a bijection over the full OID range.  OIDs absent
        from the mapping keep their value; the result must still be a
        permutation, otherwise :class:`DictionaryError` is raised.

        This is how subject clustering re-labels subject OIDs: after CS
        detection, subjects of the same CS receive a contiguous OID range.
        """
        size = len(self._oid_to_term)
        new_to_old: List[int | None] = [None] * size
        for old in range(size):
            new = mapping.get(old, old)
            if not 0 <= new < size:
                raise DictionaryError(f"remap target {new} out of range 0..{size - 1}")
            if new_to_old[new] is not None:
                raise DictionaryError(f"remap is not a bijection: new OID {new} assigned twice")
            new_to_old[new] = old
        old_terms = self._oid_to_term
        new_terms: List[Term] = [old_terms[old] for old in new_to_old]  # type: ignore[index]
        self._oid_to_term = new_terms
        self._term_to_oid = {term: oid for oid, term in enumerate(new_terms)}
        self._numeric = {}
        if any(old != new and isinstance(old_terms[old], Literal)
               for old, new in mapping.items()):
            # a moved literal voids "OID order is value order"; only
            # reassign_value_ordered_literals re-establishes it
            self._set_value_order(0)

    def reassign_value_ordered_literals(self) -> Dict[int, int]:
        """Reassign literal OIDs so that OID order matches value order.

        Only literal OIDs are permuted (they trade positions among
        themselves); IRI and BNode OIDs are untouched.  Returns the applied
        mapping (old OID -> new OID) so that stored triples can be rewritten
        by the caller.
        """
        literal_oids = [oid for oid, term in enumerate(self._oid_to_term) if isinstance(term, Literal)]
        ranked = sorted(literal_oids, key=lambda oid: term_sort_key(self._oid_to_term[oid]))
        mapping = {old: new for old, new in zip(ranked, literal_oids)}
        identity = all(old == new for old, new in mapping.items())
        if not identity:
            self.remap(mapping)
        self._set_value_order(len(self._oid_to_term), literal_oids)
        return mapping

    # -- the literal order index ------------------------------------------------

    def _set_value_order(self, watermark: int,
                         literal_oids: Optional[List[int]] = None) -> None:
        """Move the watermark and rebuild the head for it (the one full pass)."""
        if literal_oids is None:
            terms = self._oid_to_term
            literal_oids = [oid for oid in range(watermark) if isinstance(terms[oid], Literal)]
        self._value_order_watermark = watermark
        self._literal_head = np.asarray(literal_oids, dtype=np.int64)
        self._literal_tail = (watermark, [])
        if watermark:
            _HEAD_BUILDS.inc()

    def _literal_key(self, oid: int) -> tuple:
        return term_sort_key(self._oid_to_term[oid])

    def _tail_through(self, size: int) -> List[Tuple[tuple, int]]:
        """The value-sorted tail covering OIDs ``[watermark, size)``.

        Only ``_oid_to_term[covered:size]`` is inspected; each new literal
        is bisected into a copy of the existing tail.  Pure: the result is
        stored by the writer (:meth:`index_appended_literals`) and merely
        used by a reader that finds terms appended since.
        """
        covered, tail = self._literal_tail
        terms = self._oid_to_term
        fresh = [(term_sort_key(terms[oid]), oid) for oid in range(covered, size)
                 if isinstance(terms[oid], Literal)]
        if not fresh:
            return tail
        tail = list(tail)
        for entry in fresh:
            # a fresh OID exceeds every OID in the tail, so ties on the key
            # stay in OID order, as one stable sort by key would leave them
            insort(tail, entry)
        return tail

    def index_appended_literals(self) -> None:
        """Fold literals appended since the last call into the sorted tail.

        The write side calls this under the store's writer lock after each
        update, so readers normally find nothing left to fold.
        """
        size = len(self._oid_to_term)
        if self._literal_tail[0] < size:
            self._literal_tail = (size, self._tail_through(size))

    def literal_value_range(
        self,
        low: Optional[Literal],
        high: Optional[Literal],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Tuple[np.ndarray, List[int]]:
        """Literal OIDs whose value lies between ``low`` and ``high``.

        Returns ``(head_run, tail_oids)``: the in-range slice of the
        value-ordered head — a view of ascending OIDs, so its first and last
        element bound one OID interval — and the in-range literals of the
        tail, which sit outside that interval in OID space.  ``None`` leaves
        a side unbounded.
        """
        low_key = None if low is None else term_sort_key(low)
        high_key = None if high is None else term_sort_key(high)

        def in_range(entries, key):
            lo, hi = 0, len(entries)
            if low_key is not None:
                lo = (bisect_left if low_inclusive else bisect_right)(entries, low_key, key=key)
            if high_key is not None:
                hi = (bisect_right if high_inclusive else bisect_left)(
                    entries, high_key, lo, key=key)
            return entries[lo:hi]

        tail = self._tail_through(len(self._oid_to_term))
        return (in_range(self._literal_head, self._literal_key),
                [oid for _key, oid in in_range(tail, itemgetter(0))])
