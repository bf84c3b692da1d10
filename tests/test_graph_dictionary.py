"""Unit and property tests for triples, graphs and the OID dictionary."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DictionaryError
from repro.model import BNode, Graph, IRI, Literal, TermDictionary, Triple
from repro.model.terms import RDF_TYPE

from _oracles import sorted_literal_oids

EX = "http://example.org/"


def _triple(i: int) -> Triple:
    return Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p{i % 3}"), Literal(f"value {i}"))


class TestTriple:
    def test_valid_triple(self):
        t = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("o"))
        assert t.subject == IRI(EX + "s")

    def test_literal_subject_rejected(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), IRI(EX + "p"), Literal("o"))

    def test_bnode_predicate_rejected(self):
        with pytest.raises(TypeError):
            Triple(IRI(EX + "s"), BNode("b"), Literal("o"))

    def test_n3_line(self):
        t = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("o"))
        assert t.n3() == f'<{EX}s> <{EX}p> "o" .'

    def test_iteration(self):
        t = _triple(1)
        assert list(t) == [t.subject, t.predicate, t.object]


class TestGraph:
    def test_add_and_len(self):
        g = Graph()
        assert g.add(_triple(1)) is True
        assert g.add(_triple(1)) is False
        assert len(g) == 1

    def test_discard(self):
        g = Graph([_triple(1)])
        assert g.discard(_triple(1)) is True
        assert g.discard(_triple(1)) is False
        assert len(g) == 0

    def test_match_by_subject(self):
        g = Graph([_triple(i) for i in range(10)])
        matches = list(g.match(subject=IRI(f"{EX}s3")))
        assert len(matches) == 1

    def test_match_by_predicate(self):
        g = Graph([_triple(i) for i in range(9)])
        assert len(list(g.match(predicate=IRI(f"{EX}p0")))) == 3

    def test_match_wildcard_all(self):
        g = Graph([_triple(i) for i in range(5)])
        assert len(list(g.match())) == 5

    def test_properties_of_is_characteristic_set(self):
        s = IRI(EX + "book")
        g = Graph([
            Triple(s, IRI(EX + "title"), Literal("t")),
            Triple(s, IRI(EX + "author"), Literal("a")),
            Triple(s, IRI(EX + "author"), Literal("b")),
        ])
        assert g.properties_of(s) == {IRI(EX + "title"), IRI(EX + "author")}

    def test_value_and_values(self):
        s = IRI(EX + "book")
        g = Graph([Triple(s, IRI(EX + "author"), Literal("a")),
                   Triple(s, IRI(EX + "author"), Literal("b"))])
        assert g.value(s, IRI(EX + "author")) in (Literal("a"), Literal("b"))
        assert len(g.values(s, IRI(EX + "author"))) == 2
        assert g.value(s, IRI(EX + "missing")) is None

    def test_type_of(self):
        s = IRI(EX + "x")
        g = Graph([Triple(s, IRI(RDF_TYPE), IRI(EX + "Book"))])
        assert g.type_of(s) == IRI(EX + "Book")

    def test_union(self):
        g1 = Graph([_triple(1)])
        g2 = Graph([_triple(2)])
        assert len(g1 | g2) == 2

    def test_predicate_frequencies(self):
        g = Graph([_triple(i) for i in range(6)])
        freqs = g.predicate_frequencies()
        assert sum(freqs.values()) == 6

    def test_literal_ratio(self):
        g = Graph([_triple(1), Triple(IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b"))])
        assert g.literal_ratio() == pytest.approx(0.5)
        assert Graph().literal_ratio() == 0.0

    def test_describe(self):
        s = IRI(EX + "book")
        g = Graph([Triple(s, IRI(EX + "title"), Literal("t"))])
        assert g.describe(s) == {IRI(EX + "title"): [Literal("t")]}


class TestTermDictionary:
    def test_encode_assigns_sequential_oids(self):
        d = TermDictionary()
        assert d.encode_term(IRI(EX + "a")) == 0
        assert d.encode_term(IRI(EX + "b")) == 1
        assert d.encode_term(IRI(EX + "a")) == 0

    def test_decode_round_trip(self):
        d = TermDictionary()
        terms = [IRI(EX + "a"), BNode("b"), Literal("lit"), Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")]
        oids = [d.encode_term(t) for t in terms]
        assert [d.decode(o) for o in oids] == terms

    def test_decode_unknown_oid_raises(self):
        d = TermDictionary()
        with pytest.raises(DictionaryError):
            d.decode(3)

    def test_encode_triple(self):
        d = TermDictionary()
        encoded = d.encode_triple(_triple(1))
        assert d.decode_triple(encoded) == _triple(1)

    def test_lookup_term_missing(self):
        d = TermDictionary()
        assert d.lookup_term(IRI(EX + "a")) is None

    def test_contains_and_len(self):
        d = TermDictionary()
        d.encode_term(IRI(EX + "a"))
        assert IRI(EX + "a") in d
        assert len(d) == 1

    def test_remap_swaps_oids(self):
        d = TermDictionary()
        a = d.encode_term(IRI(EX + "a"))
        b = d.encode_term(IRI(EX + "b"))
        swapped = d.remap([a, b], [b, a])
        assert swapped.decode(a) == IRI(EX + "b")
        assert swapped.decode(b) == IRI(EX + "a")
        assert swapped.lookup_term(IRI(EX + "a")) == b
        assert d.decode(a) == IRI(EX + "a")  # the receiver is left as it was

    def test_remap_rejects_non_bijection(self):
        d = TermDictionary()
        d.encode_term(IRI(EX + "a"))
        d.encode_term(IRI(EX + "b"))
        with pytest.raises(DictionaryError):
            d.remap([0], [1])  # both 0 and 1 would map to 1

    def test_remap_rejects_out_of_range(self):
        d = TermDictionary()
        d.encode_term(IRI(EX + "a"))
        with pytest.raises(DictionaryError):
            d.remap([0], [5])

    def test_value_ordered_literals(self):
        d = TermDictionary()
        d.encode_term(IRI(EX + "s"))
        big = d.encode_term(Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer"))
        small = d.encode_term(Literal("2", datatype="http://www.w3.org/2001/XMLSchema#integer"))
        d, _old, _new = d.reassign_value_ordered_literals()
        new_small = d.lookup_term(Literal("2", datatype="http://www.w3.org/2001/XMLSchema#integer"))
        new_big = d.lookup_term(Literal("30", datatype="http://www.w3.org/2001/XMLSchema#integer"))
        assert new_small < new_big
        # the IRI keeps its OID
        assert d.lookup_term(IRI(EX + "s")) == 0

    def test_items_in_oid_order(self):
        d = TermDictionary()
        d.encode_term(IRI(EX + "a"))
        d.encode_term(IRI(EX + "b"))
        assert [oid for _term, oid in d.items()] == [0, 1]


# -- property-based tests --------------------------------------------------------------


_term_strategy = st.one_of(
    st.integers(min_value=0, max_value=50).map(lambda i: IRI(f"{EX}iri/{i}")),
    st.integers(min_value=0, max_value=20).map(lambda i: BNode(f"b{i}")),
    st.integers(min_value=-100, max_value=100).map(
        lambda i: Literal(str(i), datatype="http://www.w3.org/2001/XMLSchema#integer")),
    st.text(min_size=0, max_size=8).map(Literal),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(_term_strategy, max_size=60))
def test_dictionary_round_trip_property(terms):
    d = TermDictionary()
    oids = [d.encode_term(t) for t in terms]
    assert [d.decode(o) for o in oids] == terms
    # idempotent encoding
    assert [d.encode_term(t) for t in terms] == oids


@settings(max_examples=30, deadline=None)
@given(st.lists(_term_strategy, min_size=1, max_size=60))
def test_value_ordering_is_permutation_property(terms):
    d = TermDictionary()
    for t in terms:
        d.encode_term(t)
    size_before = len(d)
    d, _old, _new = d.reassign_value_ordered_literals()
    assert len(d) == size_before
    # every term still resolves, and OIDs are still a dense range
    oids = sorted(oid for _t, oid in d.items())
    assert oids == list(range(size_before))
    by_value = sorted_literal_oids(d)
    assert by_value == sorted(by_value)
