"""Unit tests for the RDF term model."""

import copy
import pickle
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bench import DblpConfig, DirtyConfig, generate_dblp, generate_dirty
from repro.model import BNode, IRI, Literal, TermDictionary, Triple, literal_from_python, term_sort_key
from repro.model.syntax import unescape
from repro.model.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    escape_literal,
)
from repro.rio import parse_ntriples, serialize_ntriples

from test_observability import python_calls


class TestIRI:
    def test_n3_wraps_in_angle_brackets(self):
        assert IRI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_empty_iri_rejected(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_local_name_after_slash(self):
        assert IRI("http://example.org/vocab/name").local_name() == "name"

    def test_local_name_after_hash(self):
        assert IRI("http://example.org/vocab#age").local_name() == "age"

    def test_namespace(self):
        assert IRI("http://example.org/vocab#age").namespace() == "http://example.org/vocab#"

    def test_equality_and_hash(self):
        assert IRI("http://a") == IRI("http://a")
        assert hash(IRI("http://a")) == hash(IRI("http://a"))
        assert IRI("http://a") != IRI("http://b")

    def test_ordering(self):
        assert IRI("http://a") < IRI("http://b")

    def test_is_flags(self):
        term = IRI("http://a")
        assert term.is_iri and not term.is_literal and not term.is_bnode


class TestBNode:
    def test_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            BNode("")

    def test_ordering(self):
        assert BNode("a") < BNode("b")


class TestLiteral:
    def test_plain_literal_n3(self):
        assert Literal("hello").n3() == '"hello"'

    def test_language_literal_n3(self):
        assert Literal("hallo", language="de").n3() == '"hallo"@de'

    def test_typed_literal_n3(self):
        assert Literal("5", datatype=XSD_INTEGER).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_string_datatype_suppressed_in_n3(self):
        assert Literal("x", datatype=XSD_STRING).n3() == '"x"'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD_INTEGER, language="en")

    def test_to_python_integer(self):
        assert Literal("42", datatype=XSD_INTEGER).to_python() == 42

    def test_to_python_decimal(self):
        assert Literal("3.5", datatype=XSD_DECIMAL).to_python() == pytest.approx(3.5)

    def test_to_python_boolean(self):
        assert Literal("true", datatype=XSD_BOOLEAN).to_python() is True
        assert Literal("false", datatype=XSD_BOOLEAN).to_python() is False

    def test_to_python_date(self):
        assert Literal("1995-03-15", datatype=XSD_DATE).to_python() == date(1995, 3, 15)

    def test_to_python_datetime(self):
        value = Literal("1995-03-15T10:30:00", datatype=XSD_DATETIME).to_python()
        assert isinstance(value, datetime)

    def test_to_python_malformed_falls_back_to_text(self):
        assert Literal("not-a-number", datatype=XSD_INTEGER).to_python() == "not-a-number"

    def test_effective_datatype_defaults_to_string(self):
        assert Literal("x").effective_datatype() == XSD_STRING

    def test_numeric_sort_order(self):
        values = [Literal(str(v), datatype=XSD_INTEGER) for v in (10, 2, 33)]
        assert sorted(values) == [values[1], values[0], values[2]]

    def test_date_sort_order(self):
        early = Literal("1994-01-01", datatype=XSD_DATE)
        late = Literal("1995-01-01", datatype=XSD_DATE)
        assert early < late

    def test_numbers_sort_before_strings(self):
        assert Literal("5", datatype=XSD_INTEGER) < Literal("abc")


class TestEscaping:
    def test_escape_specials(self):
        assert escape_literal('a"b\nc\\d') == 'a\\"b\\nc\\\\d'

    def test_unescape_round_trip(self):
        original = 'tab\tnewline\nquote"backslash\\'
        assert unescape(escape_literal(original)) == original

    def test_unescape_unicode(self):
        assert unescape("\\u00e9") == "é"

    @given(st.text(max_size=200))
    def test_escape_unescape_round_trip_property(self, text):
        assert unescape(escape_literal(text)) == text


class TestTermSortKey:
    def test_iris_before_bnodes_before_literals(self):
        iri_key = term_sort_key(IRI("http://z"))
        bnode_key = term_sort_key(BNode("a"))
        literal_key = term_sort_key(Literal("a"))
        assert iri_key < bnode_key < literal_key

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            term_sort_key("not a term")


class TestLiteralFromPython:
    @pytest.mark.parametrize("value, datatype", [
        (5, XSD_INTEGER),
        (2.5, "http://www.w3.org/2001/XMLSchema#double"),
        (True, XSD_BOOLEAN),
        (date(2020, 1, 1), XSD_DATE),
    ])
    def test_datatypes(self, value, datatype):
        literal = literal_from_python(value)
        assert literal.datatype == datatype

    def test_round_trip_values(self):
        assert literal_from_python(7).to_python() == 7
        assert literal_from_python(False).to_python() is False
        assert literal_from_python(date(1999, 12, 31)).to_python() == date(1999, 12, 31)

    def test_string_stays_plain(self):
        assert literal_from_python("hello").datatype is None


# -- the tagged-tuple contract ----------------------------------------------------

# a small alphabet, so that equal texts and sort-key ties are drawn often
_TEXT = st.text(alphabet="ab1é\n", min_size=1, max_size=3)
_DATATYPES = st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, XSD_DATE,
                              "http://example.org/datatype"])

iris = st.builds(IRI, _TEXT)
bnodes = st.builds(BNode, _TEXT)
literals = st.one_of(
    st.builds(Literal, st.text(alphabet="ab1", max_size=3)),
    st.builds(Literal, _TEXT, language=st.sampled_from(["en", "fr", "de-CH"])),
    st.builds(Literal, _TEXT, datatype=_DATATYPES),
    st.builds(lambda n: Literal(str(n), datatype=XSD_INTEGER), st.integers(-3, 3)),
    st.builds(lambda d: Literal(d.isoformat(), datatype=XSD_DATE),
              st.dates(date(1999, 12, 30), date(2000, 1, 2))),
)
terms = st.one_of(iris, bnodes, literals)
triples = st.builds(Triple, st.one_of(iris, bnodes), iris, terms)


@st.composite
def term_pairs(draw):
    """Two terms; half the time, when the first is a literal, the second is
    one of its lexical twins, which ``term_sort_key`` often ties with it."""
    first = draw(terms)
    if isinstance(first, Literal) and draw(st.booleans()):
        lexical = st.just(first.lexical)
        return first, draw(st.one_of(
            st.builds(Literal, lexical),
            st.builds(Literal, lexical, language=st.sampled_from(["en", "fr"])),
            st.builds(Literal, lexical, datatype=_DATATYPES)))
    return first, draw(terms)


class TestTaggedTupleContract:
    """Terms and triples are tuples, hashed and compared in C: the value
    semantics callers rely on, pinned."""

    def test_kinds_sharing_one_text_are_pairwise_unequal(self):
        iri, bnode, literal = IRI("a"), BNode("a"), Literal("a")
        assert iri != bnode and bnode != literal and iri != literal
        assert len({hash(iri), hash(bnode), hash(literal)}) == 3
        kind_of = {iri: "iri", bnode: "bnode", literal: "literal"}
        assert len(kind_of) == 3
        assert [kind_of[IRI("a")], kind_of[BNode("a")], kind_of[Literal("a")]] == [
            "iri", "bnode", "literal"]

    def test_a_plain_literal_is_not_its_xsd_string_twin(self):
        plain, typed = Literal("a"), Literal("a", datatype=XSD_STRING)
        assert plain != typed and len({plain, typed}) == 2
        dictionary = TermDictionary()
        assert dictionary.encode_term(plain) != dictionary.encode_term(typed)

    @given(term_pairs())
    def test_the_four_comparisons_agree_with_term_sort_key(self, pair):
        a, b = pair
        key_a, key_b = term_sort_key(a), term_sort_key(b)
        assert (a < b) == (key_a < key_b)
        assert (a > b) == (key_b < key_a)
        assert (a <= b) == (not key_b < key_a)
        assert (a >= b) == (not key_a < key_b)
        assert (a < b) == (b > a) and (a <= b) == (b >= a)

    @pytest.mark.parametrize("a, b", [
        (Literal("a", language="en"), Literal("a", language="fr")),
        (Literal("a"), Literal("a", datatype=XSD_STRING)),
    ])
    def test_terms_the_key_ties_are_neither_above_nor_below_each_other(self, a, b):
        assert term_sort_key(a) == term_sort_key(b) and a != b
        assert not a < b and not a > b and not b < a and not b > a
        assert a <= b and a >= b and b <= a and b >= a

    @given(st.one_of(terms, triples))
    def test_copy_deepcopy_and_pickle_round_trip(self, value):
        twins = [copy.copy(value), copy.deepcopy(value)]
        twins += [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == value and type(twin) is type(value)
            assert hash(twin) == hash(value)

    def test_keyword_construction(self):
        assert IRI(value="http://a") == IRI("http://a")
        assert BNode(label="b") == BNode("b")
        assert Literal(lexical="5", datatype=XSD_INTEGER) == Literal("5", XSD_INTEGER)
        assert Literal("x", language="en").language == "en"
        triple = Triple(subject=IRI("http://s"), predicate=IRI("http://p"), object=Literal("o"))
        assert (triple.subject, triple.predicate, triple.object) == (
            IRI("http://s"), IRI("http://p"), Literal("o"))

    def test_repr_names_every_field(self):
        assert repr(IRI("http://a")) == "IRI(value='http://a')"
        assert repr(BNode("b")) == "BNode(label='b')"
        assert repr(Literal("x", language="en")) == "Literal(lexical='x', datatype=None, language='en')"
        assert repr(Triple(IRI("http://s"), IRI("http://p"), Literal("5", XSD_INTEGER))) == (
            "Triple(subject=IRI(value='http://s'), predicate=IRI(value='http://p'), "
            f"object=Literal(lexical='5', datatype='{XSD_INTEGER}', language=None))")
        assert str(IRI("http://a")) == "http://a" and str(BNode("b")) == "_:b"
        assert str(Literal("x", language="en")) == f"{Literal('x')}" == "x"

    @given(st.one_of(terms, triples))
    def test_repr_evaluates_back_to_an_equal_value(self, value):
        names = {"IRI": IRI, "BNode": BNode, "Literal": Literal, "Triple": Triple}
        assert eval(repr(value), names) == value

    @pytest.mark.parametrize("build, error", [
        (lambda: IRI(""), ValueError),
        (lambda: BNode(""), ValueError),
        (lambda: Literal("x", datatype=XSD_INTEGER, language="en"), ValueError),
        (lambda: IRI(), TypeError),
        (lambda: IRI("http://a", "http://b"), TypeError),
        (lambda: Literal(), TypeError),
        (lambda: Literal("x", colour="red"), TypeError),
        (lambda: Triple(Literal("x"), IRI("http://p"), Literal("o")), TypeError),
        (lambda: Triple(IRI("http://s"), BNode("p"), Literal("o")), TypeError),
        (lambda: Triple(IRI("http://s"), IRI("http://p"), "o"), TypeError),
        (lambda: Triple(IRI("http://s"), IRI("http://p")), TypeError),
        # a bare tuple that looks like a tagged term is not a term
        (lambda: Triple((0, "http://s"), IRI("http://p"), Literal("o")), TypeError),
    ])
    def test_every_constructor_error_is_raised(self, build, error):
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize("term, field", [
        (IRI("http://a"), "value"), (BNode("b"), "label"), (Literal("x"), "datatype"),
    ])
    def test_fields_are_read_only(self, term, field):
        with pytest.raises(AttributeError):
            setattr(term, field, "y")

    @given(st.lists(terms, min_size=1, max_size=6))
    def test_a_term_in_an_object_array_slot_stays_a_scalar(self, drawn):
        column = np.empty(len(drawn), dtype=object)
        for position, term in enumerate(drawn):
            column[position] = term
        assert column.shape == (len(drawn),)
        assert all(type(cell) is type(term) and cell == term
                   for cell, term in zip(column.tolist(), drawn))
        assert column[np.arange(len(drawn))[::-1]].tolist() == drawn[::-1]


class TestBuildCallGuard:
    """What the build's first two stages run in Python is counted, not timed
    (``sys.setprofile``, as ``TestOverheadGuard`` counts a query's)."""

    ENCODE_CEILING = 2
    """Python calls ``TermDictionary.encode_triples`` makes, the counting
    lambda included, whatever the number of triples: 2.  Every term probe
    hashes and compares a tuple in C; a Python-level ``__hash__`` or
    ``__eq__`` on a term would add calls per triple."""
    PARSE_PER_LINE_CEILING = 5.1
    """Python calls ``parse_ntriples`` makes per line of the DBLP + dirty
    text below: 5.09 — the generator step, ``make_term`` and ``__new__`` for
    the object, ``__new__`` for the triple, ``unescape`` for a literal, and
    two more per subject run."""

    def test_encode_triples_makes_a_constant_number_of_python_calls(self):
        calls = {}
        for papers in (40, 400):
            drawn = generate_dblp(DblpConfig(papers=papers, seed=papers))
            dictionary = TermDictionary()
            calls[len(drawn)] = python_calls(lambda: dictionary.encode_triples(drawn))
            assert len(dictionary) > papers
        assert len(set(calls.values())) == 1, calls
        assert max(calls.values()) <= self.ENCODE_CEILING, calls

    def test_parse_ntriples_stays_under_its_per_line_ceiling(self):
        data = generate_dblp(DblpConfig(papers=200)) + generate_dirty(
            DirtyConfig(subjects_per_class=20)).triples
        text = serialize_ntriples(data)
        parsed = []
        per_line = python_calls(lambda: parsed.extend(parse_ntriples(text))) / len(data)
        assert parsed == data
        assert per_line <= self.PARSE_PER_LINE_CEILING, per_line
