"""Tests for the N-Triples and Turtle parsers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.model import BNode, Graph, IRI, Literal, Triple
from repro.model.terms import RDF_TYPE, XSD_INTEGER
from repro.rio import load_graph, parse_ntriples, parse_rdf, parse_turtle, serialize_ntriples

EX = "http://example.org/"


class TestNTriplesParsing:
    def test_simple_triple(self):
        [t] = parse_ntriples(f'<{EX}s> <{EX}p> <{EX}o> .')
        assert t == Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))

    def test_plain_literal(self):
        [t] = parse_ntriples(f'<{EX}s> <{EX}p> "hello world" .')
        assert t.object == Literal("hello world")

    def test_typed_literal(self):
        [t] = parse_ntriples(f'<{EX}s> <{EX}p> "5"^^<{XSD_INTEGER}> .')
        assert t.object == Literal("5", datatype=XSD_INTEGER)

    def test_language_literal(self):
        [t] = parse_ntriples(f'<{EX}s> <{EX}p> "bonjour"@fr .')
        assert t.object == Literal("bonjour", language="fr")

    def test_blank_nodes(self):
        [t] = parse_ntriples(f'_:a <{EX}p> _:b .')
        assert t.subject == BNode("a")
        assert t.object == BNode("b")

    def test_escaped_literal(self):
        [t] = parse_ntriples(f'<{EX}s> <{EX}p> "line1\\nline2\\t\\"x\\"" .')
        assert t.object.lexical == 'line1\nline2\t"x"'

    def test_comments_and_blank_lines_skipped(self):
        text = f"# comment\n\n<{EX}s> <{EX}p> <{EX}o> .\n"
        assert len(list(parse_ntriples(text))) == 1

    def test_multiple_lines(self):
        text = "\n".join(f'<{EX}s{i}> <{EX}p> "v{i}" .' for i in range(20))
        assert len(list(parse_ntriples(text))) == 20

    @pytest.mark.parametrize("bad", [
        f'<{EX}s> <{EX}p> .',
        f'<{EX}s> <{EX}p> "unterminated .',
        f'"literal" <{EX}p> <{EX}o> .',
        f'<{EX}s> <{EX}p> <{EX}o>',
        f'<{EX}s <{EX}p> <{EX}o> .',
        f'<{EX}s> <{EX}p> <{EX}o> . extra',
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ParseError):
            list(parse_ntriples(bad))

    def test_error_reports_line_number(self):
        text = f'<{EX}s> <{EX}p> "ok" .\nbroken line\n'
        with pytest.raises(ParseError) as excinfo:
            list(parse_ntriples(text))
        assert excinfo.value.line == 2


class TestNTriplesTermReuse:
    """``parse_ntriples`` hands out one object per subject run and per
    distinct predicate; it keeps nothing else."""

    def test_holds_one_term_per_distinct_predicate_and_no_object(self):
        lines = [f'<{EX}s{i}> <{EX}p{i % 5}> "the same object" .' for i in range(400)]
        parser = parse_ntriples(iter(lines))  # an iterator: the input is not a local either
        triples = [next(parser) for _ in lines]
        held = {name: len(value) for name, value in parser.gi_frame.f_locals.items()
                if hasattr(value, "__len__") and not isinstance(value, str)}
        assert held["predicates"] == 5
        assert max(held.values()) <= 5, held  # a subject per line, an object per line: none kept
        assert len({id(t.predicate) for t in triples}) == 5
        assert len({id(t.object) for t in triples}) == 400  # equal objects, never interned

    def test_reuse_never_changes_a_value(self):
        from _oracles import scan_ntriples_line

        lines = [
            f'<{EX}a> <{EX}p> <{EX}b> .',
            f'<{EX}a> <{EX}q> "1" .',            # the subject run continues
            f'<{EX}b> <{EX}p> <{EX}a> .',        # the previous object is now the subject
            f'<{EX}a> <{EX}p> <{EX}c> .',        # interleaved: back to the first subject
            f'_:a <{EX}p> "x" .',                # a blank node whose label is an IRI's tail
            f'_:a <{EX}q> _:a .',
            f'<a> <{EX}p> "x" .',                # an IRI spelt like that label
            f'_:{EX[-4:-1]} <{EX}p> <{EX}p> .',  # a predicate IRI as object
            f'<{EX}p> <{EX}p> <{EX}p> .',        # ... and as subject
        ]
        parsed = list(parse_ntriples("\n".join(lines)))
        assert parsed == [scan_ntriples_line(line) for line in lines]
        assert [type(t.subject) for t in parsed] == [IRI, IRI, IRI, IRI, BNode, BNode, IRI, BNode, IRI]
        assert parsed[0].subject is parsed[1].subject and parsed[4].subject is parsed[5].subject
        assert parsed[0].predicate is parsed[2].predicate is parsed[8].predicate


class TestNTriplesSerialization:
    def test_round_trip(self):
        triples = [
            Triple(IRI(EX + "s"), IRI(EX + "p"), Literal('say "hi"\n')),
            Triple(BNode("x"), IRI(EX + "p"), Literal("5", datatype=XSD_INTEGER)),
            Triple(IRI(EX + "s"), IRI(EX + "q"), Literal("bonjour", language="fr")),
        ]
        text = serialize_ntriples(triples)
        assert list(parse_ntriples(text)) == triples

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 20),
            st.integers(0, 5),
            st.one_of(st.text(max_size=20), st.integers(-1000, 1000)),
        ), max_size=30))
    def test_round_trip_property(self, rows):
        triples = []
        for s, p, o in rows:
            obj = Literal(str(o), datatype=XSD_INTEGER) if isinstance(o, int) else Literal(o)
            triples.append(Triple(IRI(f"{EX}s{s}"), IRI(f"{EX}p{p}"), obj))
        assert list(parse_ntriples(serialize_ntriples(triples))) == triples


class TestTurtleParsing:
    def test_prefixed_names_and_a_keyword(self):
        text = f"""
        @prefix ex: <{EX}> .
        ex:book1 a ex:Book ;
            ex:title "The title" ;
            ex:year 1996 .
        """
        triples = list(parse_turtle(text))
        assert Triple(IRI(EX + "book1"), IRI(RDF_TYPE), IRI(EX + "Book")) in triples
        assert Triple(IRI(EX + "book1"), IRI(EX + "title"), Literal("The title")) in triples
        assert any(t.object.lexical == "1996" for t in triples if isinstance(t.object, Literal)
                   and t.predicate == IRI(EX + "year"))

    def test_object_lists(self):
        text = f'@prefix ex: <{EX}> .\nex:b ex:author ex:a1, ex:a2 .'
        triples = list(parse_turtle(text))
        assert len(triples) == 2

    def test_decimal_and_boolean_literals(self):
        text = f'@prefix ex: <{EX}> .\nex:x ex:price 3.25 ; ex:flag true .'
        triples = {t.predicate.local_name(): t.object for t in parse_turtle(text)}
        assert triples["price"].to_python() == pytest.approx(3.25)
        assert triples["flag"].to_python() is True

    def test_typed_and_language_literals(self):
        text = (f'@prefix ex: <{EX}> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
                f'ex:x ex:d "2001-01-01"^^xsd:date ; ex:l "hoi"@nl .')
        objects = [t.object for t in parse_turtle(text)]
        assert Literal("2001-01-01", datatype="http://www.w3.org/2001/XMLSchema#date") in objects
        assert Literal("hoi", language="nl") in objects

    def test_comments(self):
        text = f'@prefix ex: <{EX}> . # a comment\nex:a ex:p ex:b . # trailing'
        assert len(list(parse_turtle(text))) == 1

    def test_undefined_prefix_raises(self):
        with pytest.raises(ParseError):
            list(parse_turtle("foo:a foo:b foo:c ."))

    def test_unterminated_statement_raises(self):
        with pytest.raises(ParseError):
            list(parse_turtle(f'@prefix ex: <{EX}> .\nex:a ex:b ex:c'))

    def test_blank_nodes(self):
        text = f'@prefix ex: <{EX}> .\n_:x ex:p _:y .'
        [t] = list(parse_turtle(text))
        assert t.subject == BNode("x") and t.object == BNode("y")


class TestHighLevelHelpers:
    def test_parse_rdf_dispatch(self):
        nt = f'<{EX}s> <{EX}p> "v" .'
        ttl = f'@prefix ex: <{EX}> .\nex:s ex:p "v" .'
        assert list(parse_rdf(nt, "ntriples")) == list(parse_rdf(ttl, "turtle"))

    def test_parse_rdf_unknown_syntax(self):
        with pytest.raises(ParseError):
            parse_rdf("", syntax="rdfxml")

    def test_load_graph_from_text(self):
        graph = load_graph(f'<{EX}s> <{EX}p> "v" .')
        assert isinstance(graph, Graph)
        assert len(graph) == 1

    def test_load_graph_from_file(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(f'<{EX}s> <{EX}p> "v" .\n', encoding="utf-8")
        assert len(load_graph(path)) == 1

    def test_load_graph_turtle_extension(self, tmp_path):
        path = tmp_path / "data.ttl"
        path.write_text(f'@prefix ex: <{EX}> .\nex:s ex:p "v" .\n', encoding="utf-8")
        assert len(load_graph(path)) == 1
