"""One term grammar behind four readers (``repro.model.syntax``).

* **Reference scanner** — the N-Triples reader against the character scanner
  it replaced (``_oracles.scan_ntriples_line``) on the round-trip corpus, on
  every generator's output and on hypothesis-drawn lines: equal triples, and
  a ``ParseError`` on the same lines.  Where the two differ on purpose the
  line is in ``DECISIONS`` below, with what each of them does.
* **Round trip** — any term ``n3()`` can write is read back to an equal term
  by an N-Triples line, a Turtle document, an ``INSERT DATA`` block and
  ``parse_term``.
* **Hostile text** — every reader gives a result or a located
  ``ParseError``: never another exception, never a malformed term, and never
  more than one pass over the text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from _datasets import book_triples, tiny_tpch
from _oracles import scan_ntriples_line
from repro.bench import DblpConfig, DirtyConfig, generate_dblp, generate_dirty, tpch_to_triples
from repro.errors import ParseError
from repro.model import BNode, IRI, Literal, Triple
from repro.model.terms import XSD_BOOLEAN, XSD_DATE, XSD_DECIMAL, XSD_INTEGER
from repro.rio import parse_ntriples, parse_term, parse_turtle, serialize_ntriples
from repro.rio.ntriples import _LINE_PREFIX_RE
from repro.sparql import parse_sparql, parse_update
from test_rio_roundtrip import corpus_triples

EX = "http://example.org/"
S, P = f"<{EX}s>", f"<{EX}p>"


def scanned(line: str):
    """What the reference scanner makes of one line: a triple, ``None`` for a
    blank or comment line, or the ``ParseError`` / other exception type."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        return scan_ntriples_line(stripped)
    except Exception as error:  # the scanner let ValueError / OverflowError out
        return type(error)


def read(line: str):
    try:
        return next(iter(parse_ntriples(line)), None)
    except ParseError:
        return ParseError


# -- the reference scanner ---------------------------------------------------------------


@pytest.mark.parametrize("triples", [
    pytest.param(corpus_triples(), id="roundtrip-corpus"),
    pytest.param(book_triples(), id="book"),
    pytest.param(generate_dblp(DblpConfig(papers=120, conferences=8, authors=40)), id="dblp"),
    pytest.param(generate_dirty(DirtyConfig(classes=4, subjects_per_class=30,
                                            chaotic_subjects=20)).triples, id="dirty"),
    pytest.param(list(tpch_to_triples(tiny_tpch())), id="rdfh"),
])
def test_reader_equals_the_reference_scanner_on_generated_data(triples):
    text = serialize_ntriples(triples)
    assert list(parse_ntriples(text)) == triples
    assert [scanned(line) for line in text.split("\n") if line] == triples
    # the locator is the same grammar: it runs to the end of every line the reader takes
    assert all(_LINE_PREFIX_RE.match(line).end() == len(line) for line in text.split("\n"))
    assert [parse_term(term.n3()) for triple in triples for term in triple] == \
        [term for triple in triples for term in triple]


# pieces both readers treat alike: well-formed terms, and malformed ones whose
# fate no listed decision changes
AGREED_PIECES = [
    S, P, f"<{EX}o>", "<relative>", f"<{EX}caf\u00e9#frag?q=1>", "_:b1", "_:b-2", "_:a.b",
    '"x"', '""', '"a\\nb\\t\\"q\\"\\\\"', '"\\u00e9\\U0001F600"', '"tab\there"', '"x"@en', '"x"@en-GB',
    f'"5"^^<{XSD_INTEGER}>', '"\u65e5\u672c"', "<>", f"<{EX}unterminated", '"unterminated', '"x"@', '"x"^^',
    '"x"^^"y"', "_:", "bare", "?v", "5", ".", "<", '"', "\\",
]


def mostly(first: int, last: int):
    """A piece that is usually a term fit for the position, sometimes any piece."""
    return st.one_of(st.sampled_from(AGREED_PIECES[first:last]), st.sampled_from(AGREED_PIECES))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(mostly(0, 8), mostly(0, 5), mostly(0, 17)), st.lists(st.sampled_from(AGREED_PIECES), max_size=1),
       st.lists(st.sampled_from([" ", "\t", "  "]), min_size=4, max_size=4),
       st.sampled_from([" .", " . ", "\t.", "", " . x", " . .", " .\r"]),
       st.sampled_from(["", " ", "\t "]))
def test_reader_equals_the_reference_scanner_on_drawn_lines(terms, extra, gaps, end, lead):
    pieces = list(terms) + extra
    line = lead + "".join(piece + gap for piece, gap in zip(pieces, gaps)).rstrip(" \t") + end
    expected = scanned(line)
    assert read(line) == (ParseError if isinstance(expected, type) else expected)


# (line, what the reference scanner did, what the reader does); ``Triple`` = accepted
DECISIONS = [
    # accepted before, rejected now: blanks, '<' and '\\' inside an IRI ...
    (f"<{EX}a b> {P} {S} .", Triple, ParseError),
    (f"{S} {P} <{EX}a<b> .", Triple, ParseError),
    (f"{S} {P} <{EX}\\u0041> .", Triple, ParseError),     # was read as a literal backslash
    # ... labels BLANK_NODE_LABEL excludes, tags LANGTAG excludes ...
    (f"_:a/b {P} {S} .", Triple, ParseError),
    (f"{S} {P} _:-a .", Triple, ParseError),
    (f'{S} {P} "x"@en-- .', Triple, ParseError),
    (f'{S} {P} "x"@12 .', Triple, ParseError),
    (f'{S} {P} "x"@\u00e9 .', Triple, ParseError),
    # ... and what STRING_LITERAL_QUOTE excludes: unknown escapes (the backslash
    # was dropped), a raw carriage return, a surrogate code point
    (f'{S} {P} "a\\qb" .', Triple, ParseError),
    (f'{S} {P} "cr\rx" .', Triple, ParseError),
    (f'{S} {P} "\\uD800" .', Triple, ParseError),
    # rejected before, accepted now: no blank needed between terms, a comment may follow
    (f"{S}{P}{S}.", ParseError, Triple),
    (f'_:b{P}"x"@en.', ParseError, Triple),
    (f"{S} {P} _:b.", ParseError, Triple),                # the '.' was read into the label
    (f"{S} {P} {S} . # why", ParseError, Triple),
    # another exception before, a ParseError now
    (f'{S} {P} "\\uZZZZ" .', ValueError, ParseError),
    (f'{S} {P} "\\UFFFFFFFF" .', OverflowError, ParseError),
]


@pytest.mark.parametrize("line, before, now", DECISIONS)
def test_listed_decisions(line, before, now):
    old, new = scanned(line), read(line)
    assert (old if isinstance(old, type) else type(old)) is before
    assert (new if isinstance(new, type) else type(new)) is now


def test_escapes_the_scanner_misread():
    # \b \f \' are ECHARs; the scanner dropped the backslash and kept the letter
    line = f'{S} {P} "\\b\\f\\\'" .'
    assert scanned(line).object == Literal("bf'")
    assert read(line).object == Literal("\b\f'")


@pytest.mark.parametrize("accepted, rest", [
    (f"<{EX}a", f" b> {P} {S} ."),        # the blank inside an IRI
    (f'{S} {P} "a', '\\qb" .'),            # the backslash of an unknown escape
    (f'{S} {P} "x"@', " ."),              # where a language tag had to start
    (f'{S} {P} "ab', '\\uD800" .'),         # the backslash of an escape that names a surrogate ...
    (f'{S} {P} "', '\\UFFFFFFFF" .'),       # ... or nothing in Unicode
    (f'{S} {P} "x"^', f"<{XSD_INTEGER}> ."),
    ("_", f"x {P} {S} ."),
    (f"{S} {P} {S}", ""),                 # the missing '.'
    (f"{S} {P} {S} . ", "extra"),
    ("", "broken line"),
])
def test_error_is_at_the_first_unacceptable_character(accepted, rest):
    with pytest.raises(ParseError) as raised:
        list(parse_ntriples("# a comment\n" + accepted + rest))
    assert (raised.value.line, raised.value.column) == (2, len(accepted) + 1)


# -- n3() and back, through all four readers ---------------------------------------------

IRI_CHARS = st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="<> \\")
LABEL_CHARS = st.characters(whitelist_categories=("Ll", "Lu", "Lo", "Nd"), whitelist_characters="_")
IRIS = st.text(IRI_CHARS, max_size=12).map(lambda tail: IRI(EX + tail))
BNODES = st.builds(lambda head, body, tail: BNode(head + (body + tail if tail else "")),  # no final '.'
                   st.text(LABEL_CHARS, min_size=1, max_size=1),
                   st.text(st.one_of(LABEL_CHARS, st.sampled_from(".-")), max_size=6),
                   st.text(LABEL_CHARS, max_size=1))
LEXICALS = st.one_of(st.text(max_size=20),
                     st.text(st.sampled_from('\\"\n\r\t\b\f\'\x00\x7f\x85\u2028\u2029 u.@^<>'), max_size=12))
LANGUAGES = st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True)
LITERALS = st.one_of(
    st.builds(Literal, LEXICALS),
    st.builds(lambda lexical, language: Literal(lexical, language=language), LEXICALS, LANGUAGES),
    # n3() writes an explicit xsd:string as a plain literal, so it is not drawn
    st.builds(lambda lexical, datatype: Literal(lexical, datatype=datatype.value), LEXICALS, IRIS),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(IRIS, BNODES, LITERALS))
def test_every_reader_reads_back_what_n3_writes(term):
    text = term.n3()
    line = f"{S} {P} {text} ."
    assert parse_term(text) == term
    assert [t.object for t in parse_ntriples(line)] == [term]
    assert [t.object for t in parse_turtle(line)] == [term]
    (operation,) = parse_update(f"INSERT DATA {{ {line} }}").operations
    assert [t.object for t in operation.triples] == [term]
    if not isinstance(term, Literal):  # and as a subject
        assert [t.subject for t in parse_ntriples(f"{text} {P} {text} .")] == [term]
        assert [t.subject for t in parse_turtle(f"{text} {P} {text} .")] == [term]


ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.builds(IRI, ONE_LINE), st.builds(BNode, ONE_LINE),
    st.builds(lambda lexical, language: Literal(lexical, language=language), LEXICALS, ONE_LINE),
    st.builds(lambda lexical, datatype: Literal(lexical, datatype=datatype), LEXICALS, ONE_LINE)))
def test_parse_term_is_the_inverse_of_n3_whatever_the_term(term):
    # the dictionary file holds what the API built, not only what a reader of RDF text accepts
    assert parse_term(term.n3()) == term


def test_parse_term_decisions():
    # read now, refused by the scanner: the term's own characters after its first delimiter
    assert parse_term("<a>b>") == IRI("a>b")
    assert parse_term('"x"@en_US') == Literal("x", language="en_US")
    assert parse_term("_:a b") == BNode("a b")
    # refused now, read by the scanner (which stripped them): blanks around the term
    for text in (" <a>", "<a> ", '"x"\n'):
        with pytest.raises(ParseError):
            parse_term(text)


def test_abbreviated_forms_read_alike_in_turtle_and_sparql():
    prologue = f"ex: <{EX}> {{}}\n{{}}prefix xsd: <http://www.w3.org/2001/XMLSchema#> {{}}\n"
    body = ('ex:s ex:p ex:o. ex:s ex:v1.2 5. ex:s a ex:C ; ex:q 2.50 , true , "d" ^^ xsd:date , '
            '"x" @en , "y"@de-1996 , ex:\u00e9 , ex:a:b , _:b.')
    turtle = list(parse_turtle("@prefix " + prologue.format(".", "@", ".") + body))
    (operation,) = parse_update("PREFIX " + prologue.format("", "", "")
                                + f"INSERT DATA {{ {body} }}").operations
    assert turtle == list(operation.triples)
    assert [t.object for t in turtle] == [
        IRI(EX + "o"), Literal("5", datatype=XSD_INTEGER), IRI(EX + "C"),
        Literal("2.50", datatype=XSD_DECIMAL), Literal("true", datatype=XSD_BOOLEAN),
        Literal("d", datatype=XSD_DATE), Literal("x", language="en"),
        Literal("y", language="de-1996"), IRI(EX + "\u00e9"), IRI(EX + "a:b"), BNode("b")]


def test_base_resolves_relative_iris_in_turtle_and_sparql():
    expected = [Triple(IRI("http://b/s"), IRI("http://b/p"), IRI("ftp://other/o"))]
    assert list(parse_turtle("@base <http://b/> .\n<s> <p> <ftp://other/o> .")) == expected
    (operation,) = parse_update("BASE <http://b/> INSERT DATA { <s> <p> <ftp://other/o> }").operations
    assert list(operation.triples) == expected
    assert list(parse_turtle("@base <http://b/> .\n<> <p> <o> ."))[0].subject == IRI("http://b/")


@pytest.mark.parametrize("statement", [
    "ex:s ex:p TRUE",    # booleans are lower case
    "ex:s ex:p ex:-o",   # PN_LOCAL does not start with '-'
    "ex:s ex:p e.x:o",   # the supported subset has no '.' in a prefix
    "true ex:p ex:o",    # a literal is an object only (was a TypeError in Turtle)
    '"s" ex:p ex:o',
    "ex:s _:b ex:o",
    "ex:s 5 ex:o",
    "ex:s a",            # was an IndexError in Turtle
])
def test_statements_now_rejected_by_turtle_and_sparql_alike(statement):
    with pytest.raises(ParseError):
        list(parse_turtle(f"@prefix ex: <{EX}> .\n{statement} ."))
    with pytest.raises(ParseError):
        parse_update(f"PREFIX ex: <{EX}> INSERT DATA {{ {statement} }}")


@pytest.mark.parametrize("document", [
    "@prefix ex: <http://e/>\nex:s ex:p ex:o .",    # '@prefix' ends in '.', as Turtle §6.5 says ...
    "PREFIX ex: <http://e/> .\nex:s ex:p ex:o .",   # ... and 'PREFIX' does not
    "@base <http://e/>\n<s> <p> <o> .",
])
def test_turtle_directives_now_rejected(document):
    with pytest.raises(ParseError):
        list(parse_turtle(document))


# -- hostile text ------------------------------------------------------------------------

READERS = {
    "ntriples": lambda text: list(parse_ntriples(text)),
    "term": parse_term,
    "turtle": lambda text: list(parse_turtle(text)),
    "select": lambda text: parse_sparql("PREFIX ex: <http://e/> SELECT * WHERE { " + text + " }"),
    "update": lambda text: parse_update("PREFIX ex: <http://e/> INSERT DATA { " + text + " }"),
}
LISTED_MALFORMED = ["<>", '"dangling \\', '"\\uZZZZ"', '"\\UFFFFFFFF"', '"x"@']
TOKEN_ALPHABET = AGREED_PIECES + LISTED_MALFORMED + [
    "ex:s", "ex:o.", "ex:", ":", "nope:x", "a", "true", "TRUE", "5.", "-2.5", ".5", "1e5", "@en", "@prefix",
    "@base", "PREFIX", "BASE", "^^", "^", "@", ";", ",", "{", "}", "(", ")", "[", "]", "<=", "&&", "||", "!",
    "#c", "'x'", '"""x"""', "_:b.", "\n", "\r", " ", "\t", "\x00", "\x0b", "\u00e9", "\U0001F600", "FILTER",
    "INSERT", "DATA", "SELECT", "WHERE", "*",
]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("text", LISTED_MALFORMED)
def test_listed_malformed_terms_are_located_parse_errors(reader, text):
    if reader != "term":
        text = f"{S} {P} {text} ."
    with pytest.raises(ParseError) as raised:
        READERS[reader](text)
    assert raised.value.line == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(TOKEN_ALPHABET), st.text(max_size=3)), max_size=12),
       st.sampled_from(["", " "]))
def test_readers_answer_or_raise_parse_error(pieces, gap):
    text = gap.join(pieces)
    for reader in READERS.values():
        try:
            reader(text)
        except ParseError as error:
            assert error.line is None or error.line >= 1


@pytest.mark.parametrize("unit", [
    "a.", "a", "<a", "_:a.", ":a.", "5.", "@a-", "?", "^", '"\\t', f"{S} {P} {S} . # \r", f"{S} {P} _:a.a",
])
def test_no_reader_rescans_hostile_text(unit):
    # a pattern that backtracked over these would take minutes, not milliseconds
    text = unit * 20000
    for reader in READERS.values():
        try:
            reader(text)
        except ParseError:
            pass
