"""Plans keyed by query shape: a text binds its constants into a cached template.

Covered here:

* the lift — what :meth:`PlanCache.make_key` takes out of a text, and which
  slots stay structural (predicates, ``PREFIX`` IRIs, ``LIMIT``);
* counted guards — texts of one shape with distinct constants make one
  miss and parse once; a repeated text returns the same plan object; a
  different predicate IRI is a template of its own; one-off constants
  never evict a template;
* the template oracle (hypothesis) — every text answered through the cache,
  by direct and by snapshot reads, answers what a fresh, uncached plan of
  the same text answers, with an equal ``explain()``: constants present,
  absent, absent and then added by a pending write, literals in the tail,
  ``=`` / ``!=`` operands, both front ends;
* a one-sided range stops at its bound's value class, and a range
  comparison with an IRI matches nothing.
"""

from __future__ import annotations

import re
import sys
import threading
from contextlib import nullcontext

import pytest

from _datasets import EX, book_triples, build_book_store, small_graph_config
from repro import RDFStore
from repro.model import IRI, Literal, Triple
from repro.model.terms import XSD_DATE, XSD_INTEGER
from repro.planner import Frontend, PlanCache, PlannerOptions, QueryEngine
from repro.sparql import SPARQL_FRONTEND
from repro.sql import sql_frontend

YEAR = f"<{EX}in_year>"
AUTHOR = f"<{EX}has_author>"
ISBN = f"<{EX}isbn_no>"

SHAPES = [
    ("sparql", f"SELECT ?b ?y WHERE {{ ?b {AUTHOR} <{EX}author/§> . ?b {YEAR} ?y . }}"),
    ("sparql", f"SELECT ?y ?i WHERE {{ <{EX}book/§> {YEAR} ?y . <{EX}book/§> {ISBN} ?i . }}"),
    ("sparql", f'SELECT ?b WHERE {{ ?b {ISBN} ?i . FILTER(?i = "isbn-§") }}'),
    ("sparql", f'SELECT ?b ?i WHERE {{ ?b {ISBN} ?i . FILTER(?i != "isbn-§") }}'),
    ("sparql", f"SELECT ?b ?y WHERE {{ ?b {YEAR} ?y . FILTER(?y >= § && ?y < §) }}"),
    ("sparql", f'SELECT ?b WHERE {{ ?b {YEAR} ?y . FILTER(?y > "§"^^<{XSD_INTEGER}>) }}'),
    ("sql", "SELECT id, in_year FROM Book WHERE in_year >= § AND in_year < §"),
    ("sql", "SELECT id FROM Book WHERE isbn_no = 'isbn-§'"),
    ("sql", "SELECT id, isbn_no FROM Book WHERE isbn_no <> 'isbn-§'"),
]
"""``(front end, text with one ``§`` per constant)``."""


def _text(shape: int, constants) -> tuple:
    frontend, text = SHAPES[shape]
    for constant in constants:
        text = text.replace("§", str(constant), 1)
    return frontend, text


def _counting(frontend: Frontend, calls: list) -> Frontend:
    def parse(text, slots=None):
        calls.append(text)
        return frontend.parse(text, slots)
    return frontend._replace(parse=parse)


# -- the lift -----------------------------------------------------------------------------


def test_the_lift_takes_constants_and_keeps_comments():
    options = PlannerOptions()
    text = ('PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p "a b"@en . # note\n'
            '?s <http://ex/q> ?o . FILTER(?o > -5 && ?o < 2.5) } LIMIT 10')
    (frontend, shape, count, key_options), values = PlanCache.make_key("sparql", text, options)
    assert values == ('<http://ex/>', '"a b"', '<http://ex/q>', '-5', '2.5', '10')
    assert (frontend, count, key_options) == ("sparql", 6, options)
    assert "# note\n" in shape and "@en" in shape and '"a b"' not in shape
    # a number inside a name is no constant
    assert PlanCache.make_key("sparql", "SELECT ?x1 WHERE { ?x1 ex:p2 _:b3 . }",
                              options)[1] == ()
    # slots are the lifted constants' offsets, for the parser
    slots = PlanCache.slots(text)
    assert [text[start:end] for start, (_slot, end) in slots.items()] == list(values)
    assert [slot for slot, _end in slots.values()] == list(range(6))


def test_an_iri_and_a_string_never_share_a_slot():
    options = PlannerOptions()
    iri = PlanCache.make_key("sparql", "SELECT ?s WHERE { ?s ?p <a> . }", options)[0]
    string = PlanCache.make_key("sparql", 'SELECT ?s WHERE { ?s ?p "a" . }', options)[0]
    sql_string = PlanCache.make_key("sparql", "SELECT ?s WHERE { ?s ?p 'a' . }", options)[0]
    assert len({iri, string, sql_string}) == 3


# -- counted guards -------------------------------------------------------------------------


@pytest.mark.parametrize("shape, constants", [
    (0, [(i,) for i in range(5)]),
    (2, [(f"{i:04d}",) for i in range(8)]),
    (4, [(1990 + i, 1995 + i) for i in range(6)]),
    (6, [(1990 + i, 1993 + i) for i in range(6)]),
    (7, [(f"{i:04d}",) for i in range(8)]),
], ids=["iri object", "sparql =", "numbers", "sql range", "sql ="])
def test_one_shape_parses_once(shape, constants):
    """N texts of one shape with distinct constants: 1 miss, N - 1 hits, one
    parse, one template plus the plans of the other N - 1 bindings; each
    answers what a fresh plan of its text answers, and a repeat of any of
    them returns its plan object."""
    store = build_book_store()
    context = store.context()
    parsed = []
    frontends = [_counting(SPARQL_FRONTEND, parsed),
                 _counting(sql_frontend(store.require_catalog()), parsed)]
    cache = PlanCache()
    engine = QueryEngine(context, frontends, cache)
    fresh = QueryEngine(context, [SPARQL_FRONTEND, sql_frontend(store.require_catalog())])
    plans = []
    for values in constants:
        frontend, text = _text(shape, values)
        result = engine.query(frontend, text)
        expected = fresh.query(frontend, text)
        assert sorted(result.rows()) == sorted(expected.rows()), text
        assert result.plan.explain() == expected.plan.explain(), text
        plans.append(result.plan)
    stats = cache.stats()
    assert (stats["lifetime_misses"], stats["lifetime_hits"]) == (1, len(constants) - 1)
    assert len(parsed) == 1 and stats["size"] == len(constants)
    assert len({id(plan) for plan in plans}) == len(plans)  # every binding planned anew
    for values, plan in zip(constants, plans):
        assert engine.query(*_text(shape, values)).plan is plan
    assert len(parsed) == 1


def test_one_off_constants_never_evict_a_template():
    """A binding's plan joins a full cache as its least recently used entry,
    so a stream of new constants leaves the template they bind into."""
    store = build_book_store()
    cache = PlanCache(capacity=3)
    engine = QueryEngine(store.context(), [SPARQL_FRONTEND], cache)
    for i in range(12):
        engine.query(*_text(2, (f"{i:04d}",)))
    stats = cache.stats()
    assert (stats["lifetime_misses"], stats["lifetime_hits"], stats["size"]) == (1, 11, 3)


def test_a_structural_slot_keys_a_template_of_its_own():
    """A predicate IRI picks tables, a LIMIT count shapes the plan: texts
    that differ there are templates of their own, filed under one shape."""
    store = build_book_store()
    texts = [f"SELECT ?b ?o WHERE {{ ?b <{EX}{p}> ?o . }} LIMIT {n}"
             for p in ("in_year", "isbn_no") for n in (3, 7)]
    for text in texts + texts:
        rows = store.decode_rows(store.sparql(text))
        assert len(rows) == int(text.rsplit(" ", 1)[1]), text
    stats = store.plan_cache_stats()
    assert (stats["size"], stats["lifetime_misses"], stats["lifetime_hits"]) == (4, 4, 4)


def test_a_repeat_after_an_absent_constant_sees_the_write_that_adds_it():
    """A binding that found a constant absent is never reused: the write
    that adds the constant is seen by the next send of the same text."""
    store = build_book_store()
    text = f'SELECT ?b WHERE {{ ?b {ISBN} "isbn-new" . }}'
    store.update(f'INSERT DATA {{ <{EX}book/0> <{EX}note> "x" . }}')  # the pending key
    assert store.sparql(text).rows() == []
    store.update(f'INSERT DATA {{ <{EX}book/new> {ISBN} "isbn-new" . }}')
    assert store.decode_rows(store.sparql(text)) == [(f"{EX}book/new",)]
    assert store.plan_cache_stats()["lifetime_hits"] == 1


def test_concurrent_bindings_of_one_template_keep_their_own_constants():
    """Readers on more threads than cores bind different constants into one
    cached template and repeat them: each answer is its own constant's row
    (a template's last binding is one value, replaced whole)."""
    store = build_book_store()
    text = f'SELECT ?b WHERE {{ ?b {ISBN} "isbn-§" . }}'
    errors = []

    def reader(offset: int) -> None:
        try:
            for i in range(60):
                book = (offset + i // 2) % 30
                rows = store.decode_rows(store.sparql(text.replace("§", f"{book:04d}")))
                if rows != [(f"{EX}book/{book}",)]:
                    errors.append((book, rows))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    store.sparql(text.replace("§", "0000"))  # the template, made before the race
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(7 * n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.plan_cache_stats()["lifetime_misses"] == 1


# -- the template oracle ---------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_AUTHOR = st.integers(0, 7)  # authors 0-4 exist; 5-7 are absent until a write
_BOOK = st.integers(0, 33)
_ISBN = st.sampled_from(["0003", "0017", "0029", "new1", "new2"])
_YEAR = st.integers(1985, 2012)  # the data holds 1990-2004; writes add later years

_CONSTANTS = [
    st.tuples(_AUTHOR),
    _BOOK.map(lambda book: (book, book)),
    st.tuples(_ISBN),
    st.tuples(_ISBN),
    st.tuples(_YEAR, _YEAR),
    st.tuples(_YEAR),
    st.tuples(_YEAR, _YEAR),
    st.tuples(_ISBN),
    st.tuples(_ISBN),
]

_QUERY = st.integers(0, len(SHAPES) - 1).flatmap(
    lambda shape: _CONSTANTS[shape].map(lambda constants: ("query", shape, constants)))
_WRITE = st.tuples(st.just("write"), st.integers(30, 33), st.integers(5, 7),
                   st.integers(2005, 2012), st.sampled_from(["new1", "new2"]))


def _insert(book: int, author: int, year: int, isbn: str) -> str:
    return (f"INSERT DATA {{ <{EX}book/{book}> a <{EX}Book> ; {AUTHOR} <{EX}author/{author}> ; "
            f'{YEAR} "{year}"^^<{XSD_INTEGER}> ; {ISBN} "isbn-{isbn}" . }}')


def _estimates_dropped(plan_text: str) -> str:
    return re.sub(r"est=\d+", "est=?", plan_text)


@pytest.mark.parametrize("read", ["direct", "snapshot"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(steps=st.lists(st.one_of(_QUERY, _QUERY, _WRITE), min_size=1, max_size=14))
def test_a_bound_template_answers_as_a_fresh_plan(read, steps):
    """Every text through the cache answers what a fresh, uncached plan of
    the same text answers on the same version, with an equal ``explain()``
    — byte for byte when the text was bound, estimates aside when it
    repeated an earlier binding (a reused plan keeps its estimates)."""
    store = RDFStore.build(book_triples(), config=small_graph_config())
    for step in steps:
        if step[0] == "write":
            store.update(_insert(*step[1:]))
            continue
        frontend, text = _text(step[1], step[2])
        with store.snapshot() if read == "snapshot" else nullcontext(store) as reader:
            context = reader.context() if read == "direct" else reader.context
            result = getattr(reader, frontend)(text)
            fresh = QueryEngine(context, [SPARQL_FRONTEND, sql_frontend(reader.catalog)])
            expected = fresh.query(frontend, text)
            assert sorted(result.rows()) == sorted(expected.rows()), text
            reused = result.run.parse_seconds == result.run.plan_seconds == 0.0
            if reused:
                assert (_estimates_dropped(result.plan.explain())
                        == _estimates_dropped(expected.plan.explain())), text
            else:
                assert result.plan.explain() == expected.plan.explain(), text


# -- value classes and IRIs in ranges -------------------------------------------------------


def _mixed_store() -> RDFStore:
    values = [Literal("1", datatype=XSD_INTEGER), Literal("5", datatype=XSD_INTEGER),
              Literal("abc"), Literal("2000-01-01", datatype=XSD_DATE),
              Literal("true", datatype="http://www.w3.org/2001/XMLSchema#boolean")]
    triples = []
    for i, value in enumerate(values, start=1):
        triples.append(Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}v"), value))
        triples.append(Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}k"), Literal(f"k{i}")))
    return RDFStore.build(triples, config=small_graph_config())


RANGES = [
    ("sparql", f"SELECT ?s WHERE {{ ?s <{EX}v> ?v . FILTER(?v > 3) }}", ["s2"]),
    ("sparql", f'SELECT ?s WHERE {{ ?s <{EX}v> ?v . FILTER(?v < "2001-01-01"^^<{XSD_DATE}>) }}',
     ["s4"]),
    ("sparql", f'SELECT ?s WHERE {{ ?s <{EX}v> ?v . FILTER(?v >= "a") }}', ["s3"]),
    ("sql", "SELECT id FROM {table} WHERE v > 3", ["s2"]),
    ("sql", "SELECT id FROM {table} WHERE v < DATE '2001-01-01'", ["s4"]),
]


def _subjects(store, frontend: str, text: str) -> list:
    if frontend == "sql":
        text = text.format(table=store.require_catalog().table_names()[0])
    rows = store.decode_rows(getattr(store, frontend)(text))
    return sorted(row[0].rsplit("/", 1)[1] for row in rows)


def test_a_one_sided_range_stops_at_its_value_class(tmp_path):
    """``?v > 3`` holds for no string, date or boolean: a comparison across
    value classes is an error in SPARQL, which filters the row out.  Clean,
    with a pending write (a tail string ``"zzz"`` and a tail number), after
    compaction and reopened, through both front ends."""
    store = _mixed_store()
    expected = {text: subjects for _frontend, text, subjects in RANGES}

    def check(state: str) -> None:
        for frontend, text, _subjects_of in RANGES:
            assert _subjects(store, frontend, text) == expected[text], (state, text)

    check("clean")
    store.update(f'INSERT DATA {{ <{EX}s9> <{EX}v> "zzz" ; <{EX}k> "k9" . '
                 f'<{EX}s8> <{EX}v> 7 ; <{EX}k> "k8" . }}')
    for text in (RANGES[0][1], RANGES[3][1]):
        expected[text] = ["s2", "s8"]
    expected[RANGES[2][1]] = ["s3", "s9"]  # a string, the one class "zzz" compares in
    check("pending")
    store.compact()
    check("compacted")
    store.save(tmp_path / "db")
    store = RDFStore.open(tmp_path / "db")
    check("reopened")


def test_a_range_comparison_with_an_iri_matches_nothing():
    """SPARQL orders no IRI: ``?a > <iri>`` fails for every row."""
    store = build_book_store()
    text = f"SELECT ?b ?a WHERE {{ ?b {AUTHOR} ?a . FILTER(?a > <{EX}author/3>) }}"
    assert store.sparql(text).rows() == []
    assert "unsatisfiable filter" in store.sparql_plan(text).explain()
