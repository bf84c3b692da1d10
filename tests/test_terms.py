"""Unit tests for the RDF term model."""

from datetime import date, datetime

import pytest
from hypothesis import given, strategies as st

from repro.model import BNode, IRI, Literal, literal_from_python, term_sort_key
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
