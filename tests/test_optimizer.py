"""Tests for the estimator, result equivalence across plan schemes, plan
annotation and the plan cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DEFAULT_SCHEME,
    IRI,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
    RDFStore,
    StoreConfig,
)
from repro.bench import DirtyConfig, generate_dirty
from repro.columnar import CardinalityEstimator
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.engine import PatternTerm, StarPattern, StarProperty
from repro.errors import PlanError
from repro.sparql import PlanCache
from repro.storage import ExhaustiveIndexStore

EX = "http://example.org/"
DBLP_VOC = "http://example.org/dblp/schema/"

ALL_SCHEMES = (DEFAULT_SCHEME, RDFSCAN_SCHEME, OPTIMIZED_SCHEME)


def _small_config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


@pytest.fixture(scope="module")
def dirty_store():
    """A clustered store over deliberately messy data (noise + chaos)."""
    dataset = generate_dirty(DirtyConfig(classes=3, subjects_per_class=40,
                                         chaotic_subjects=10))
    return RDFStore.build(dataset.triples, config=_small_config())


def assert_schemes_equivalent(store, query: str, use_zone_maps: bool = False):
    """All plan schemes must agree on results."""
    option_sets = [PlannerOptions(scheme=scheme, use_zone_maps=use_zone_maps)
                   for scheme in ALL_SCHEMES]
    results = [sorted(store.sparql(query, options).rows()) for options in option_sets]
    reference = results[0]
    assert reference, f"reference scheme returned no rows for {query!r}"
    for options, rows in zip(option_sets[1:], results[1:]):
        assert rows == reference, f"{options.describe()} diverged on {query!r}"


class TestJoinOrderEquivalence:
    def test_book_star_join(self, book_store):
        assert_schemes_equivalent(book_store, f"""
            SELECT ?b ?a ?y WHERE {{
              ?b <{EX}has_author> ?a .
              ?b <{EX}in_year> ?y .
              ?a <{EX}name> ?n .
            }}""")

    def test_book_range_filter(self, book_store):
        assert_schemes_equivalent(book_store, f"""
            SELECT ?b ?y WHERE {{
              ?b <{EX}in_year> ?y .
              ?b <{EX}isbn_no> ?i .
              FILTER (?y >= "1995"^^<http://www.w3.org/2001/XMLSchema#integer>)
            }}""", use_zone_maps=True)

    def test_dblp_star_fk_hop(self, dblp_store):
        assert_schemes_equivalent(dblp_store, f"""
            SELECT ?p ?t ?cn WHERE {{
              ?p <{DBLP_VOC}creator> ?a .
              ?p <{DBLP_VOC}title> ?t .
              ?p <{DBLP_VOC}partOf> ?c .
              ?c <{DBLP_VOC}title> ?cn .
              ?a <{DBLP_VOC}name> ?n .
            }}""")

    def test_dblp_constant_object(self, dblp_store):
        assert_schemes_equivalent(dblp_store, f"""
            SELECT ?p ?t WHERE {{
              ?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{DBLP_VOC}Inproceedings> .
              ?p <{DBLP_VOC}title> ?t .
            }}""")

    def test_dirty_data_equivalence(self, dirty_store):
        voc = "http://example.org/crawl/vocab/"
        assert_schemes_equivalent(dirty_store, f"""
            SELECT ?s ?v WHERE {{
              ?s <{voc}c0_p0> ?v .
              ?s <{voc}c0_p1> ?w .
            }}""")

    def test_unknown_scheme_rejected(self, book_store):
        with pytest.raises(PlanError):
            book_store.sparql("SELECT ?s WHERE { ?s ?p ?o . }",
                              PlannerOptions(scheme="bogus"))


class TestCardinalityEstimator:
    @pytest.fixture()
    def estimator(self, book_store) -> CardinalityEstimator:
        context = book_store.context()
        return CardinalityEstimator(schema=context.schema,
                                    index_store=context.index_store,
                                    clustered_store=context.clustered_store)

    def test_pattern_count_exact_with_index(self, book_store, estimator):
        predicate = book_store.dictionary.lookup_term(IRI(f"{EX}has_author"))
        exact = book_store.index_store.count_pattern(p=predicate)
        assert estimator.pattern_cardinality(p=predicate) == pytest.approx(exact)

    def test_constant_object_pattern_exact(self, book_store, estimator):
        predicate = book_store.dictionary.lookup_term(IRI(f"{EX}has_author"))
        author = book_store.dictionary.lookup_term(IRI(f"{EX}author/0"))
        exact = book_store.index_store.count_pattern(p=predicate, o=author)
        assert estimator.pattern_cardinality(p=predicate, o=author) == pytest.approx(exact)

    def test_star_estimate_within_bounds(self, book_store, estimator):
        d = book_store.dictionary
        star = StarPattern(subject_var="b", properties=[
            StarProperty(predicate_oid=d.lookup_term(IRI(f"{EX}has_author")),
                         object_term=PatternTerm.variable("a")),
            StarProperty(predicate_oid=d.lookup_term(IRI(f"{EX}in_year")),
                         object_term=PatternTerm.variable("y")),
        ])
        subjects = estimator.star_subject_cardinality(star)
        rows = estimator.star_cardinality(star)
        assert 0.0 < subjects <= estimator.total_subjects()
        assert rows >= subjects * 0.99  # fan-out never shrinks the star
        # every book has both properties: the estimate must be close to 30
        assert subjects == pytest.approx(30, rel=0.35)

    def test_distinct_counts_bounded(self, book_store, estimator):
        predicate = book_store.dictionary.lookup_term(IRI(f"{EX}has_author"))
        total = estimator.predicate_count(predicate)
        assert 1.0 <= estimator.distinct_subjects(predicate) <= total

    def test_join_cardinality_formula(self):
        assert CardinalityEstimator.join_cardinality(10, 20, 10, 5) == pytest.approx(20.0)
        assert CardinalityEstimator.join_cardinality(0, 20, 1, 1) == 0.0

    def test_degrades_without_any_source(self, book_store):
        """Only the index store is required: without schema, clustered store
        and delta a star falls back to its most selective exact pattern."""
        bare = CardinalityEstimator(book_store.index_store)
        d = book_store.dictionary
        author = d.lookup_term(IRI(f"{EX}has_author"))
        isbn = d.lookup_term(IRI(f"{EX}isbn_no"))
        star = StarPattern(subject_var="b", properties=[
            StarProperty(predicate_oid=author, object_term=PatternTerm.variable("a")),
            StarProperty(predicate_oid=isbn, object_term=PatternTerm.variable("i")),
        ])
        counts = book_store.index_store.predicate_counts()
        assert bare.star_cardinality(star) == min(counts[author], counts[isbn])
        assert bare.total_subjects() == bare.total_triples() == book_store.triple_count()
        assert bare.distinct_subjects(isbn) == counts[isbn]  # one ISBN per book
        assert bare.pattern_cardinality(p=10 ** 9) == 0.0

        empty = CardinalityEstimator(ExhaustiveIndexStore(np.empty((0, 3), dtype=np.int64)))
        assert empty.pattern_cardinality(p=42) == 0.0
        assert empty.total_triples() == 0.0


class TestJoinOrdering:
    def test_plans_are_annotated(self, book_store):
        plan = book_store.sparql_plan(
            f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}",
            PlannerOptions(scheme=OPTIMIZED_SCHEME))
        assert plan.estimated_rows is not None

        def all_annotated(op):
            return op.estimated_rows is not None and all(
                all_annotated(child) for child in op.children())
        assert all_annotated(plan)

    def test_actual_rows_recorded_after_execution(self, book_store):
        result = book_store.sparql(f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}")
        assert result.run.actual(result.plan) == len(result)
        assert f"actual={len(result)}" in result.plan.explain(run=result.run).splitlines()[0]
        # the plan is a template: without a run it shows estimates only
        assert "actual=" not in result.plan.explain()

    def test_explain_shows_estimates_and_actuals(self, book_store):
        query = f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . }}"
        text = book_store.explain(query, PlannerOptions(scheme=OPTIMIZED_SCHEME))
        assert "est=" in text and "scheme=optimized" in text
        analyzed = book_store.explain(query, PlannerOptions(scheme=OPTIMIZED_SCHEME),
                                      analyze=True)
        assert "actual=" in analyzed


class TestPlanCache:
    def test_lru_mechanics(self):
        cache = PlanCache(capacity=2)
        cache.insert(("a",), 1)
        cache.insert(("b",), 2)
        assert cache.lookup(("a",)) == 1
        cache.insert(("c",), 3)  # evicts ("b",), the least recently used
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == 1
        assert cache.stats()["lifetime_evictions"] == 1
        cache.clear()  # drops the entries, not the counters
        assert len(cache) == 0 and cache.lookup(("a",)) is None
        assert cache.stats() == {"size": 0, "capacity": 2, "lifetime_hits": 2,
                                 "lifetime_misses": 2, "lifetime_evictions": 1}

    def test_zero_capacity_disables_caching(self):
        cache = PlanCache(capacity=0)
        cache.insert(("a",), 1)
        assert cache.lookup(("a",)) is None

    def test_key_normalizes_whitespace(self):
        options = PlannerOptions()
        key1 = PlanCache.make_key("sparql", "SELECT ?s WHERE { ?s ?p ?o . }", options)
        key2 = PlanCache.make_key("sparql", "SELECT ?s\n  WHERE {\n ?s ?p ?o . }", options)
        assert key1 == key2
        other = PlanCache.make_key("sparql", "SELECT ?s WHERE { ?s ?p ?o . }",
                                   PlannerOptions(scheme=DEFAULT_SCHEME))
        assert other != key1
        assert PlanCache.make_key("sql", "SELECT ?s WHERE { ?s ?p ?o . }", options) != key1

    def test_key_preserves_whitespace_inside_literals(self):
        options = PlannerOptions()
        single = PlanCache.make_key("sparql", 'SELECT ?s WHERE { ?s <p> "a b" . }', options)
        double = PlanCache.make_key("sparql", 'SELECT ?s WHERE { ?s <p> "a  b" . }', options)
        assert single != double  # whitespace inside a literal is data
        single = PlanCache.make_key("sql", "SELECT id FROM T WHERE name = 'a b'", options)
        double = PlanCache.make_key("sql", "SELECT id FROM T  WHERE name = 'a  b'", options)
        assert single != double  # ... in SQL's quoting too

    def test_distinct_literals_not_conflated_by_cache(self):
        from repro import Literal, Triple
        s1, s2 = IRI(f"{EX}s1"), IRI(f"{EX}s2")
        pred = IRI(f"{EX}tag")
        store = RDFStore()
        store.load([Triple(s1, pred, Literal("a b")), Triple(s2, pred, Literal("a  b")),
                    Triple(s1, IRI(f"{EX}x"), Literal("1")), Triple(s2, IRI(f"{EX}x"), Literal("1"))])
        store.discover_schema()
        store.build_indexes()
        r1 = store.decode_rows(store.sparql(f'SELECT ?s WHERE {{ ?s <{EX}tag> "a b" . }}'))
        r2 = store.decode_rows(store.sparql(f'SELECT ?s WHERE {{ ?s <{EX}tag> "a  b" . }}'))
        assert r1 == [(f"{EX}s1",)]
        assert r2 == [(f"{EX}s2",)]

    def test_comments_not_conflated_by_cache(self):
        """The line break that ends a ``#`` comment decides what the comment
        swallows: two texts that differ only there are two queries."""
        from repro import Triple
        a, b = IRI(f"{EX}a"), IRI(f"{EX}b")
        triples = [Triple(a, IRI("http://ex/p"), IRI(f"{EX}o")),
                   Triple(b, IRI("http://ex/p"), IRI(f"{EX}o")),
                   Triple(a, IRI("http://ex/q"), IRI(f"{EX}x"))]
        both = "SELECT ?s WHERE { ?s <http://ex/p> ?o . # c\n ?s <http://ex/q> ?x . }"
        swallowed = "SELECT ?s WHERE { ?s <http://ex/p> ?o . # c ?s <http://ex/q> ?x .\n }"
        options = PlannerOptions()
        assert (PlanCache.make_key("sparql", both, options)
                != PlanCache.make_key("sparql", swallowed, options))

        def answers(store, text):
            return sorted(store.decode_rows(store.sparql(text)))

        fresh = {text: answers(RDFStore.build(triples), text) for text in (both, swallowed)}
        assert fresh == {both: [(f"{EX}a",)], swallowed: [(f"{EX}a",), (f"{EX}b",)]}
        for order in ((both, swallowed), (swallowed, both)):
            store = RDFStore.build(triples)
            for text in order:
                assert answers(store, text) == fresh[text], order

    def test_store_cache_hits_and_plan_identity(self):
        store = RDFStore.build(_book_triples(), config=_small_config())
        query = f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}"
        first = store.sparql(query)
        assert store.plan_cache_stats()["lifetime_misses"] == 1
        second = store.sparql("  " + query.replace("WHERE", "\nWHERE"))
        assert store.plan_cache_stats()["lifetime_hits"] == 1
        assert first.plan is second.plan  # parse + plan were skipped entirely
        assert sorted(first.rows()) == sorted(second.rows())

    def test_different_options_planned_separately(self):
        store = RDFStore.build(_book_triples(), config=_small_config())
        query = f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}"
        store.sparql(query, PlannerOptions(scheme=DEFAULT_SCHEME))
        store.sparql(query, PlannerOptions(scheme=OPTIMIZED_SCHEME))
        stats = store.plan_cache_stats()
        assert stats["size"] == 2 and stats["lifetime_hits"] == 0

    def test_invalidation_on_reload_and_recluster(self):
        store = RDFStore.build(_book_triples(), config=_small_config())
        query = f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}"
        plan = store.sparql(query).plan
        assert store.sparql(query).plan is plan
        generation_before = store.generation
        store.cluster()  # a physical rebuild moves the version pair, clears nothing
        assert store.generation > generation_before
        assert store.plan_cache_stats() == {
            "size": 1, "capacity": 128, "lifetime_hits": 1,
            "lifetime_misses": 1, "lifetime_evictions": 0}
        result = store.sparql(query)  # replans against the new context
        assert result.plan is not plan
        assert store.plan_cache_stats()["lifetime_misses"] == 2
        assert len(result) == 30

    def test_cache_disabled_by_config(self):
        config = _small_config()
        config.plan_cache_size = 0
        store = RDFStore.build(_book_triples(), config=config)
        query = f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}"
        first = store.sparql(query)
        second = store.sparql(query)
        assert first.plan is not second.plan


def _book_triples():
    """The shared book graph, without the irregular web-page subjects."""
    from _datasets import book_triples

    return book_triples(with_irregular=False)
