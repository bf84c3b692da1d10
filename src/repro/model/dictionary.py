"""Dictionary encoding of RDF terms to integer OIDs.

RDF stores keep triples as integers.  The :class:`TermDictionary` maps each
distinct term to a dense OID and back.  Two aspects matter for this paper's
reproduction:

* **OID assignment order matters.**  The paper observes that the (arbitrary)
  parse-order OIDs given to subjects cause non-locality; subject clustering
  later *re-assigns* subject OIDs grouped by characteristic set.  The
  dictionary therefore supports bulk re-mapping of OIDs
  (:meth:`TermDictionary.remap`), which returns a new dictionary: an OID
  never changes its term in a dictionary someone holds, only appends grow it.
* **Value-ordered literal OIDs.**  The paper proposes ordering literal object
  OIDs "in a way that is meaningful to SPARQL value comparison semantics" so
  range predicates can be evaluated on OIDs directly.
  :meth:`TermDictionary.reassign_value_ordered_literals` implements that.
* **The literal order index.**  The dictionary owns the one index that maps
  a value range (:class:`ValueBounds`) to literal OIDs: a *head* — the
  literal OIDs below the value-order watermark, ascending, which by the
  invariant above already *is* value order, so it is never sorted — plus a
  value-sorted *tail* of the literals appended since.  A
  write appends to the tail and a compaction leaves it where it is (no OID
  moves); only a new value-ordering pass, at load and clustering, folds it
  into the head.  A plan asks the head for its OID interval
  (:meth:`TermDictionary.literal_value_range`), which no write moves; a run
  asks the tail for its matches (:meth:`TermDictionary.literal_tail_range`),
  which every write may extend.  Both bisect sort keys: the tail keeps one
  per entry, the head a list of them made by its first range lookup.  The
  same bisection of the head places each tail literal when a value-ordering
  pass merges the tail in, and ranks it for ORDER BY until then
  (:meth:`TermDictionary.value_ranks`), so a literal sorts by one rule.
* **The value bridge.**  The engine runs on OIDs and leaves OID space in two
  places only: arithmetic / aggregation needs the number behind an OID, the
  final result the Python value.  The dictionary answers both one *column*
  at a time (:meth:`TermDictionary.numeric_column`,
  :meth:`TermDictionary.python_column`) from two OID-indexed arrays whose
  slots are computed the first time a column touches them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import DictionaryError
from ..obs import default_registry
from .terms import Literal, Term, term_sort_key
from .triples import EncodedTriple, Triple

_HEAD_BUILDS = default_registry().counter(
    "literal_index_full_builds_total",
    "Times a dictionary's literal order index was set anew: store build, "
    "clustering and open only; never per update, compaction, snapshot or query.")

_MATERIALIZED = default_registry().counter(
    "dictionary_values_materialized_total",
    "Value-bridge slots computed: one per distinct OID the first time a query "
    "aggregates over or decodes it (a cold bridge, after build, cluster() or "
    "open(), warming); nothing on the warm path.")

_NO_OIDS = np.empty(0, dtype=np.int64)
_NAN = float("nan")


class ValueBounds(NamedTuple):
    """A literal value range as ``term_sort_key`` bounds; ``None`` leaves a
    side open."""

    low: Optional[tuple] = None
    high: Optional[tuple] = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    @classmethod
    def of(cls, low: Optional[Literal], high: Optional[Literal],
           low_inclusive: bool = True, high_inclusive: bool = True) -> "ValueBounds":
        """The bounds of a comparison with ``low`` / ``high``.  A side left
        open stops at the other bound's value class (``Literal.sort_key``'s
        rank: boolean, numeric, date, other): SPARQL compares values of one
        class only, and a comparison across classes is an error, which
        filters the row out — ``?v > 3`` holds for no string and no date."""
        low_key = None if low is None else term_sort_key(low)
        high_key = None if high is None else term_sort_key(high)
        if low_key is None and high_key is not None:
            low_key, low_inclusive = high_key[:2], True  # below every key of the class
        elif high_key is None and low_key is not None:
            high_key, high_inclusive = (low_key[0], low_key[1] + 1), False  # the next class
        return cls(low_key, high_key, low_inclusive, high_inclusive)

    def intersect(self, other: "ValueBounds") -> "ValueBounds":
        """The values both ranges admit: the higher low and the lower high
        bound, exclusive where either side excludes a shared key."""
        low, low_inclusive = _tighter(self.low, self.low_inclusive,
                                      other.low, other.low_inclusive, higher=True)
        high, high_inclusive = _tighter(self.high, self.high_inclusive,
                                        other.high, other.high_inclusive, higher=False)
        return ValueBounds(low, high, low_inclusive, high_inclusive)

    def span(self, entries, key=None) -> slice:
        """The run of ``entries`` (sorted, by ``key`` when given) inside the
        bounds."""
        lo, hi = 0, len(entries)
        if self.low is not None:
            lo = (bisect_left if self.low_inclusive else bisect_right)(
                entries, self.low, key=key)
        if self.high is not None:
            hi = (bisect_right if self.high_inclusive else bisect_left)(
                entries, self.high, lo, key=key)
        return slice(lo, hi)


def _tighter(key, inclusive, other_key, other_inclusive, higher: bool):
    """The tighter of two bounds on one side of a range."""
    if key is None:
        return other_key, other_inclusive
    if other_key is None or key == other_key:
        return key, inclusive and (other_key is None or other_inclusive)
    return (key, inclusive) if (key > other_key) == higher else (other_key, other_inclusive)


class _ValueBridge(NamedTuple):
    """Three equally long OID-indexed arrays (marks first: growth copies
    them in this order)."""

    filled: np.ndarray   # bool: the slot's two values have been stored
    numeric: np.ndarray  # float64
    python: np.ndarray   # object

    @classmethod
    def of_capacity(cls, capacity: int) -> "_ValueBridge":
        return cls(np.zeros(capacity, dtype=bool), np.empty(capacity, dtype=np.float64),
                   np.empty(capacity, dtype=object))

    def grown_for(self, size: int) -> "_ValueBridge":
        """A copy with room for ``size`` terms and an eighth to spare, so a
        run of appends pays for one copy, not one per query that reads a
        fresh term.  Marks are copied before values (see
        :meth:`TermDictionary.numeric_column`)."""
        grown = self.of_capacity(size + (size >> 3) + 8)
        for fresh, published in zip(grown, self):
            fresh[:len(published)] = published
        return grown


class TermDictionary:
    """Bidirectional mapping between RDF terms and dense integer OIDs.

    OIDs are assigned in order of first appearance (parse order), starting
    at 0.  The mapping never changes: :meth:`remap` and
    :meth:`reassign_value_ordered_literals` return a new dictionary.
    """

    def __init__(self) -> None:
        self._term_to_oid: Dict[Term, int] = {}
        self._oid_to_term: List[Term] = []
        self._value_order_watermark = 0
        self._literal_head: np.ndarray = _NO_OIDS
        """Literal OIDs below the watermark, ascending — which is value
        order.  Immutable once published (a remapped dictionary that moved no
        literal shares it)."""
        self._head_keys: Optional[List[tuple]] = None
        """The head's sort keys, in head order, when the value-ordering pass
        that sorted them kept them; ``None`` after ``open()``, where a value
        range makes only the keys it probes (:meth:`literal_value_range`).
        Shared wherever the head is."""
        self._probed_keys: Dict[int, tuple] = {}
        """Head OID -> sort key of each head literal a value range probed
        while ``_head_keys`` is ``None``: a bisection probes the same pivots
        first every time, so later ranges make few keys.  Shared wherever
        the head is; racing readers store equal keys."""
        self._literal_tail: Tuple[int, List[Tuple[tuple, int]]] = (0, [])
        """``(covered, entries)``: one ``(sort key, OID)`` entry, sorted, per
        literal with watermark <= OID < covered.  The tail is small, so unlike
        the head it keeps its keys.  One tuple so lock-free readers see both
        halves of a writer's replacement at once; a published list is never
        mutated."""
        self._bridge = _ValueBridge.of_capacity(0)
        """The value bridge (see :meth:`numeric_column`).  An OID keeps its
        term for the dictionary's lifetime (:meth:`remap` makes a new one,
        with a cold bridge), so every context over the dictionary aggregates
        and decodes through one warm bridge.  One
        tuple so a lock-free reader takes all three arrays of one
        generation at once."""

    @property
    def value_order_watermark(self) -> int:
        """OIDs below this bound were covered by the last value-ordering pass.

        Literal OIDs ``< watermark`` are value-ordered among themselves;
        literals appended later (by the write path) sit at the end of the OID
        space in arrival order — in the pending delta and, once compacted,
        in base columns too — and must be range-checked individually until
        the next :meth:`reassign_value_ordered_literals` (run by
        ``RDFStore.load`` and ``RDFStore.cluster``).
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

    def encode_triples(self, triples: Iterable[Triple]) -> np.ndarray:
        """The ``(n, 3)`` OID matrix of ``triples``, in the order given.

        The bulk form of :meth:`encode_triple`: same OIDs, assigned in the
        same order of first appearance, appended to one flat buffer with no
        object made per triple.  A reader that hands out one subject object
        for a run of lines (:func:`repro.rio.parse_ntriples`) pays for one
        probe per run.
        """
        term_to_oid, terms = self._term_to_oid, self._oid_to_term
        get = term_to_oid.get
        flat = array("q")
        extend = flat.extend
        last_subject, s = None, -1
        # a Triple is a tuple: unpacking reads its terms faster than the
        # three attribute descriptors
        for subject, predicate, obj in triples:
            if subject is not last_subject:
                last_subject = subject
                s = get(subject)
                if s is None:
                    s = term_to_oid[subject] = len(terms)
                    terms.append(subject)
            p = get(predicate)
            if p is None:
                p = term_to_oid[predicate] = len(terms)
                terms.append(predicate)
            o = get(obj)
            if o is None:
                o = term_to_oid[obj] = len(terms)
                terms.append(obj)
            extend((s, p, o))
        return np.array(flat, dtype=np.int64).reshape(-1, 3)

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

    # -- the value bridge ------------------------------------------------------

    def numeric_column(self, oids: np.ndarray) -> np.ndarray:
        """The number behind each OID of a column, as one ``float64`` gather.

        A numeric literal gives its value, a boolean literal 1.0 / 0.0;
        every other term, a negative OID (``NULL_OID``: an absent 0..1
        binding) and a literal whose integer value exceeds the ``float64``
        range give NaN.

        The bridge is two OID-indexed arrays, this one and the ``object``
        array behind :meth:`python_column`, plus one ``bool`` mark per
        slot.  A slot is computed for the *distinct* OIDs a column touches,
        the first time one is touched — one ``to_python()`` per term, ever —
        so building, compacting and opening a dictionary compute nothing,
        and the cost follows what queries read.  The dictionary
        :meth:`remap` returns starts with empty arrays (an OID may name
        another term there); terms appended by updates extend them, keeping
        the filled slots.

        Readers run lock-free beside each other and beside the appending
        writer, on this discipline: a published array is only ever written
        slot by slot with the one value its term has, a slot's values are
        stored before its mark, and growth copies the marks before the
        values.  A reader can therefore at worst recompute a slot another
        thread is filling — storing the same value — and never finds a mark
        over an empty slot.

        Raises
        ------
        DictionaryError
            If an OID is past the end of the dictionary.
        """
        return self._bridge_column(oids, "numeric", _NAN)

    def python_column(self, oids: np.ndarray) -> list:
        """The decoded Python value of each OID of a column.

        ``Literal.to_python()`` for a literal, ``str(term)`` for an IRI or
        a blank node, ``None`` for a negative OID.  Same bridge, same fill
        and same errors as :meth:`numeric_column`.
        """
        return self._bridge_column(oids, "python", None).tolist()

    def _bridge_column(self, oids: np.ndarray, which: str, null) -> np.ndarray:
        oids = np.asarray(oids, dtype=np.int64)
        live = oids >= 0
        if live.all():
            return getattr(self._warm_bridge(oids), which)[oids]
        oids = oids[live]
        values = getattr(self._warm_bridge(oids), which)
        out = np.full(len(live), null, dtype=values.dtype)
        out[live] = values[oids]
        return out

    def _warm_bridge(self, oids: np.ndarray) -> _ValueBridge:
        """The bridge, with the slot of every (non-negative) OID filled."""
        bridge = self._bridge
        if not oids.size:
            return bridge
        size = len(self._oid_to_term)
        highest = int(oids.max())
        if highest >= size:
            self.decode(int(oids[oids >= size][0]))  # raises, naming the OID
        if highest >= len(bridge.filled):
            bridge = self._bridge = bridge.grown_for(size)
        marks = bridge.filled[oids]
        if not marks.all():
            cold = np.unique(oids[~marks])
            self._fill_bridge(bridge, cold)
            bridge.filled[cold] = True  # after the values: a marked slot is never empty
            _MATERIALIZED.inc(cold.size)
        return bridge

    def _fill_bridge(self, bridge: _ValueBridge, oids: np.ndarray) -> None:
        numeric, python, terms = bridge.numeric, bridge.python, self._oid_to_term
        for oid in oids.tolist():
            term = terms[oid]
            number = _NAN
            if isinstance(term, Literal):
                value = term.to_python()
                if isinstance(value, (int, float)):  # bool is an int: 1.0 / 0.0
                    try:
                        number = float(value)
                    except OverflowError:  # an integer beyond float64
                        pass
            else:
                value = str(term)
            numeric[oid] = number
            python[oid] = value

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
        dictionary.index_appended_literals()  # a checkpoint keeps its tail
        return dictionary

    # -- re-mapping ----------------------------------------------------------

    def remap(self, old, new) -> "TermDictionary":
        """This dictionary with OIDs permuted: the term at ``old[i]`` moves
        to ``new[i]``.

        ``old`` and ``new`` are aligned integer sequences; an OID absent
        from ``old`` keeps its term.  The result must be a permutation of
        the full OID range, otherwise :class:`DictionaryError` is raised.

        This is how subject clustering re-labels subject OIDs: after CS
        detection, subjects of the same CS receive a contiguous OID range.
        The receiver is left as it was — whoever holds it keeps decoding
        through it — and the returned dictionary has two tables of its own,
        copies in which only the terms that move are stored again.
        """
        size = len(self._oid_to_term)
        old = np.asarray(old, dtype=np.int64).reshape(-1)
        new = np.asarray(new, dtype=np.int64).reshape(-1)
        if old.shape != new.shape:
            raise DictionaryError(f"remap pairs {old.size} OIDs with {new.size} targets")
        for name, oids in (("source", old), ("target", new)):
            outside = oids[(oids < 0) | (oids >= size)]
            if outside.size:
                raise DictionaryError(
                    f"remap {name} {int(outside[0])} out of range 0..{size - 1}")
        identity = np.arange(size, dtype=np.int64)
        target = identity.copy()
        target[old] = new
        twice = np.flatnonzero(np.bincount(target, minlength=size) > 1)
        if twice.size:
            raise DictionaryError(
                f"remap is not a bijection: new OID {int(twice[0])} assigned twice")
        moved = np.flatnonzero(target != identity)
        terms = self._oid_to_term
        moved_terms = [terms[oid] for oid in moved.tolist()]
        remapped = TermDictionary()
        remapped._oid_to_term = list(terms)
        remapped._term_to_oid = dict(self._term_to_oid)
        for oid, term in zip(target[moved].tolist(), moved_terms):
            remapped._oid_to_term[oid] = term
            remapped._term_to_oid[term] = oid
        # the literal order index carries over unless a literal moved: that
        # voids "OID order is value order" (watermark 0, as built) until
        # reassign_value_ordered_literals re-establishes it
        if not any(isinstance(term, Literal) for term in moved_terms):
            remapped._value_order_watermark = self._value_order_watermark
            remapped._literal_head = self._literal_head
            remapped._head_keys = self._head_keys
            remapped._probed_keys = self._probed_keys
            remapped._literal_tail = self._literal_tail
        return remapped

    def reassign_value_ordered_literals(self) -> Tuple["TermDictionary", np.ndarray, np.ndarray]:
        """This dictionary with literal OIDs reassigned so that OID order
        matches value order.

        Only literal OIDs are permuted (they trade positions among
        themselves); IRI and BNode OIDs are untouched.  Returns the new
        dictionary and the applied permutation as aligned ``(old, new)`` OID
        arrays (see :meth:`remap`) so that stored triples can be rewritten
        by the caller.  ``old`` equals ``new`` when nothing moved; then no
        remap ran, and the new dictionary shares this one's tables and value
        bridge — an OID names the same term in both, and a term appended
        through either is appended to both.

        A merge, not a sort: the head is in value order already and the tail
        is kept sorted, so each tail literal is bisected into the head —
        O(tail · log head) key computations.  On a tie the head literal comes
        first (every tail OID is larger), so the result is the one stable
        sort by key over all literals would give.  A dictionary that was
        never value-ordered has an empty head: its literals are all tail,
        sorted once and merged into nothing.
        """
        head = self._literal_head
        tail = self._tail_through(len(self._oid_to_term))
        places = self._head_places(tail)
        tail_oids = np.fromiter(map(itemgetter(1), tail), dtype=np.int64, count=len(tail))
        old = np.insert(head, places, tail_oids)
        new = np.concatenate([head, np.sort(tail_oids)])
        if np.array_equal(old, new):
            ordered = TermDictionary()
            ordered._oid_to_term, ordered._term_to_oid = self._oid_to_term, self._term_to_oid
            ordered._bridge = self._bridge
        else:
            ordered = self.remap(old, new)
        if not head.size:
            keys = [key for key, _oid in tail]  # this pass sorted the whole new head
        else:
            keys = None if tail else self._head_keys
        ordered._set_value_order(len(ordered), new, keys)
        return ordered, old, new

    # -- the literal order index ------------------------------------------------

    def _set_value_order(self, watermark: int, literal_oids: Optional[np.ndarray] = None,
                         keys: Optional[List[tuple]] = None) -> None:
        """Move the watermark and set the head for it (and its sort keys,
        when known); without ``literal_oids`` the head is rebuilt (the one
        full pass)."""
        if literal_oids is None:
            terms = self._oid_to_term
            literal_oids = [oid for oid in range(watermark) if isinstance(terms[oid], Literal)]
        self._value_order_watermark = watermark
        self._literal_head = np.asarray(literal_oids, dtype=np.int64)
        self._head_keys = keys
        self._probed_keys = {}
        self._literal_tail = (watermark, [])
        if watermark:
            _HEAD_BUILDS.inc()

    def _literal_key(self, oid: int) -> tuple:
        return term_sort_key(self._oid_to_term[oid])

    def _tail_through(self, size: int) -> List[Tuple[tuple, int]]:
        """The value-sorted tail covering OIDs ``[watermark, size)``.

        Only ``_oid_to_term[covered:size]`` is inspected; the new literals
        are sorted into a copy of the existing tail.  Pure: the result is
        stored by the writer (:meth:`index_appended_literals`) and merely
        used by a reader that finds terms appended since.
        """
        covered, tail = self._literal_tail
        terms = self._oid_to_term
        fresh = [(term_sort_key(terms[oid]), oid) for oid in range(covered, size)
                 if isinstance(terms[oid], Literal)]
        if not fresh:
            return tail
        # stable sorts and inserts by key alone, so ties stay in OID order: a
        # fresh OID exceeds every OID in the tail
        fresh.sort(key=itemgetter(0))
        if not tail:
            return fresh
        tail = list(tail)
        for entry in fresh:
            insort(tail, entry, key=itemgetter(0))
        return tail

    def index_appended_literals(self) -> None:
        """Fold literals appended since the last call into the sorted tail.

        The write side calls this under the store's writer mutex after each
        update, so readers normally find nothing left to fold.
        """
        size = len(self._oid_to_term)
        if self._literal_tail[0] < size:
            self._literal_tail = (size, self._tail_through(size))

    def literal_value_range(self, bounds: ValueBounds) -> np.ndarray:
        """The head literals whose value lies within ``bounds``: a view of
        ascending OIDs, so its first and last element bound one OID interval.
        Fixed for the dictionary's lifetime, since appends only grow the
        tail — what a plan may keep.  Bisects the head's sort keys when the
        value-ordering pass left them; otherwise (an opened store) bisects
        the head itself, making the key of each literal it probes only — so
        the first range after ``open()`` costs O(log head) keys, not
        O(head), and keeping them (:meth:`_probed_key`) keeps later ranges
        cheap."""
        return self._literal_head[bounds.span(*self._head_order())]

    def value_ranks(self, oids: np.ndarray) -> np.ndarray:
        """Float sort keys that order ``oids`` as the next value-ordering
        pass will: an OID below the watermark, and any non-literal, keeps
        its own value (OID order *is* value order in the head); each
        distinct tail literal lands just after the head literal it follows
        (:meth:`_head_places`, the merge's rule), in value order among the
        tail literals there and ties in OID order.  Only the tail OIDs
        ``oids`` holds are de-duplicated and only its tail literals decoded."""
        watermark, terms = self._value_order_watermark, self._oid_to_term
        ranks = oids.astype(np.float64)
        in_tail = oids >= watermark
        distinct, inverse = np.unique(oids[in_tail], return_inverse=True)
        tail = sorted((term_sort_key(terms[oid]), oid)
                      for oid in distinct.tolist()
                      if isinstance(terms[oid], Literal))
        if tail:
            head = self._literal_head
            # what a literal that follows no head literal follows: the OID
            # before the first head literal, or with no head the first tail one
            first = head[0] if head.size else next(
                oid for oid in range(watermark, len(terms)) if isinstance(terms[oid], Literal))
            follows = np.concatenate([[first - 1], head])
            places = self._head_places(tail)
            tail_ranks = distinct.astype(np.float64)
            tail_ranks[np.searchsorted(distinct, [oid for _key, oid in tail])] = (
                follows[places] + np.arange(1, len(tail) + 1) / (len(tail) + 1))
            ranks[in_tail] = tail_ranks[inverse]
        return ranks

    def _head_order(self) -> Tuple[Sequence, Optional[Callable]]:
        """The head as ``bisect`` takes it: its sort keys when the
        value-ordering pass kept them, else its OIDs keyed by
        :meth:`_probed_key`."""
        if self._head_keys is None:
            return self._literal_head, self._probed_key
        return self._head_keys, None

    def _head_places(self, tail: List[Tuple[tuple, int]]) -> List[int]:
        """Where each ``(sort key, OID)`` of ``tail``, ascending, goes in
        the head: the number of head literals that sort at or before it
        (the head wins a tie)."""
        entries, key = self._head_order()
        size = len(entries)
        places, lo = [], 0
        for probe, _oid in tail:
            if lo == size:
                break  # past the head: the rest go at its end
            lo = bisect_right(entries, probe, lo, key=key)
            places.append(lo)
        places += [size] * (len(tail) - len(places))
        return places

    def _probed_key(self, oid: int) -> tuple:
        """A head literal's sort key, made on its first probe and kept."""
        key = self._probed_keys.get(oid)
        if key is None:
            key = self._probed_keys[oid] = self._literal_key(oid)
        return key

    def literal_tail_range(self, bounds: ValueBounds) -> np.ndarray:
        """The tail literals whose value lies within ``bounds``, as a sorted
        ``int64`` array: the part of a value range outside its head interval,
        which every write may extend — what a run resolves, once.  Costs a
        bisect of an empty list while nothing was appended since the last
        value-ordering pass."""
        tail = self._tail_through(len(self._oid_to_term))
        entries = tail[bounds.span(tail, itemgetter(0))]
        if not entries:
            return _NO_OIDS
        return np.sort(np.fromiter(map(itemgetter(1), entries), dtype=np.int64,
                                   count=len(entries)))

