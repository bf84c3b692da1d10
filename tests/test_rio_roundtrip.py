"""Round-trip and edge-case tests for the RDF I/O layer.

The write path makes parser correctness load-bearing: every ``INSERT DATA``
travels through literal escaping rules, and stores are re-serialized for
oracle rebuilds.  These tests pin down N-Triples escape handling, unicode
literals and Turtle prefixed-name corner cases beyond the basic suite in
``test_rio.py``.
"""

from __future__ import annotations

import pytest

from _oracles import per_character_escape
from repro import RDFStore
from repro.errors import ParseError
from repro.model import BNode, IRI, Literal, Triple, terms
from repro.model.terms import (
    XSD_DATE,
    XSD_INTEGER,
    escape_literal,
)
from repro.model.syntax import unescape
from repro.persist.snapshot import DICTIONARY_FILE
from repro.rio import parse_ntriples, parse_turtle, serialize_ntriples

S = IRI("http://example.org/s")
P = IRI("http://example.org/p")


ESCAPE_LEXICALS = [
    'line1\nline2',
    'tab\there',
    'quote "inside" quote',
    'back\\slash',
    'carriage\rreturn',
    'mixed \\n literal backslash-n',
    'trailing backslash \\',
    '\x01control\x1f',
    'del\x7fchar',
]
UNICODE_LEXICALS = [
    "déjà vu",
    "日本語のテキスト",
    "emoji \U0001F600 and astral \U0001D11E",
    "combining e\u0301 accent",
    "rtl שלום",
]
TYPED_AND_TAGGED = [
    Triple(S, P, Literal("42", datatype=XSD_INTEGER)),
    Triple(S, P, Literal("1994-01-31", datatype=XSD_DATE)),
    Triple(S, P, Literal("hello", language="en-GB")),
    Triple(BNode("b1"), P, BNode("b2")),
]


def annotations(lexical):
    return (Literal(lexical), Literal(lexical, language="und"),
            Literal(lexical, datatype="http://example.org/dt"))


def corpus_triples():
    """Every triple this module round-trips (also read by the reference
    scanner in ``test_syntax.py``)."""
    literals = [annotated for lexical in ESCAPE_LEXICALS + UNICODE_LEXICALS + ["ab\x85c\u2028d\u2029"]
                for annotated in annotations(lexical)]
    return ([Triple(S, P, literal) for literal in literals] + TYPED_AND_TAGGED
            + [Triple(IRI("http://example.org/café/ünïcode"), P, Literal("x"))])


def roundtrip(triples):
    return list(parse_ntriples(serialize_ntriples(triples)))


class TestNTriplesEscapes:
    @pytest.mark.parametrize("lexical", ESCAPE_LEXICALS)
    def test_escape_roundtrip(self, lexical):
        triple = Triple(S, P, Literal(lexical))
        (parsed,) = roundtrip([triple])
        assert parsed.object.lexical == lexical

    def test_escaped_form_is_single_line(self):
        # NEL and the unicode line/paragraph separators must not break lines
        tricky = "ab c d"
        line = Triple(S, P, Literal(tricky)).n3()
        assert "\n" not in line and "\r" not in line
        (parsed,) = parse_ntriples(line)
        assert parsed.object.lexical == tricky

    def test_unescape_u_and_U_forms(self):
        assert unescape("snow\\u2603man") == "snow☃man"
        assert unescape("clef\\U0001D11Eclef") == "clef\U0001D11Eclef"

    def test_escape_unescape_inverse(self):
        text = 'all of it: "quotes", \\, \n, \t, ☃, \U0001F600'
        assert unescape(escape_literal(text)) == text


class TestNTriplesUnicode:
    @pytest.mark.parametrize("lexical", UNICODE_LEXICALS)
    def test_unicode_literal_roundtrip(self, lexical):
        for annotated in annotations(lexical):
            (parsed,) = roundtrip([Triple(S, P, annotated)])
            assert parsed.object == annotated

    def test_unicode_iri_roundtrip(self):
        subject = IRI("http://example.org/café/ünïcode")
        (parsed,) = roundtrip([Triple(subject, P, Literal("x"))])
        assert parsed.subject == subject

    def test_typed_and_tagged_roundtrip(self):
        assert roundtrip(TYPED_AND_TAGGED) == TYPED_AND_TAGGED


def test_dictionary_file_bytes_equal_the_per_character_escape(tmp_path, monkeypatch):
    """``dictionary.nt`` written with the compiled escape is byte for byte
    what the character-at-a-time loop wrote (every code point below U+2100
    and the line / paragraph separators ride along in one literal)."""
    sweep = "".join(map(chr, [*range(0x2100), 0x2028, 0x2029, 0xFEFF]))
    triples = corpus_triples() + [Triple(S, P, literal) for literal in annotations(sweep)]
    for lexical in ESCAPE_LEXICALS + UNICODE_LEXICALS + [sweep]:
        assert escape_literal(lexical) == per_character_escape(lexical)
    store = RDFStore.build(triples, cluster=False)
    store.save(tmp_path / "compiled")
    monkeypatch.setattr(terms, "escape_literal", per_character_escape)
    store.save(tmp_path / "loop")
    (compiled,) = (tmp_path / "compiled").rglob(DICTIONARY_FILE)
    (loop,) = (tmp_path / "loop").rglob(DICTIONARY_FILE)
    assert compiled.read_bytes() == loop.read_bytes()


class TestTurtlePrefixedNames:
    def test_local_name_with_dots_and_dashes(self):
        doc = """
        @prefix ex: <http://example.org/> .
        ex:a-b.c ex:p-q ex:v1.2 .
        """
        (triple,) = parse_turtle(doc)
        assert triple.subject == IRI("http://example.org/a-b.c")
        assert triple.predicate == IRI("http://example.org/p-q")
        assert triple.object == IRI("http://example.org/v1.2")

    def test_trailing_dot_terminates_statement_not_name(self):
        doc = "@prefix ex: <http://example.org/> .\nex:s ex:p ex:o.\n"
        (triple,) = parse_turtle(doc)
        assert triple.object == IRI("http://example.org/o")

    def test_empty_prefix(self):
        doc = "@prefix : <http://example.org/> .\n:s :p :o .\n"
        (triple,) = parse_turtle(doc)
        assert triple.subject == IRI("http://example.org/s")

    def test_colon_in_local_part_is_preserved(self):
        # the first ':' splits prefix from local name; later ones belong to it
        doc = "@prefix ex: <http://example.org/> .\nex:a:b ex:p ex:o .\n"
        (triple,) = parse_turtle(doc)
        assert triple.subject == IRI("http://example.org/a:b")

    def test_prefixed_datatype(self):
        doc = """
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        @prefix ex: <http://example.org/> .
        ex:s ex:p "7"^^xsd:integer .
        """
        (triple,) = parse_turtle(doc)
        assert triple.object == Literal("7", datatype=XSD_INTEGER)

    def test_a_keyword_only_as_predicate(self):
        doc = """
        @prefix ex: <http://example.org/> .
        ex:a a ex:Letter .
        """
        (triple,) = parse_turtle(doc)
        assert triple.subject == IRI("http://example.org/a")
        assert triple.predicate.value.endswith("#type")

    def test_undefined_prefix_raises(self):
        with pytest.raises(ParseError):
            list(parse_turtle("nope:s nope:p nope:o ."))

    def test_predicate_object_lists_roundtrip_through_ntriples(self):
        doc = """
        @prefix ex: <http://example.org/> .
        ex:s ex:p ex:o1 , ex:o2 ;
             ex:q "v\\"w" , "x" .
        """
        turtle_triples = list(parse_turtle(doc))
        assert len(turtle_triples) == 4
        assert roundtrip(turtle_triples) == turtle_triples
