"""End-to-end tests of the RDFStore facade."""

import dataclasses
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from _datasets import book_triples, small_graph_config
from repro import PlannerOptions, RDFStore, StoreConfig
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.cs.summarize import SchemaSummary
from repro.errors import SchemaError, StorageError
from repro.model import IRI, Literal, Triple
from repro.model.terms import RDF_TYPE, XSD_INTEGER
from repro.rio import serialize_ntriples

EX = "http://example.org/"

NT_SAMPLE = "\n".join(
    [f'<{EX}b{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Book> .\n'
     f'<{EX}b{i}> <{EX}year> "{1990 + i}"^^<{XSD_INTEGER}> .\n'
     f'<{EX}b{i}> <{EX}title> "Book {i}" .' for i in range(12)]
)


class TestBuildPipeline:
    def test_build_from_ntriples_text(self):
        store = RDFStore.build(NT_SAMPLE)
        assert store.triple_count() == 36
        assert store.is_clustered
        assert store.schema is not None
        assert store.clustered_store is not None

    def test_build_without_clustering(self):
        store = RDFStore.build(NT_SAMPLE, cluster=False)
        assert not store.is_clustered
        assert store.clustered_store is None
        assert store.index_store is not None

    def test_staged_pipeline(self):
        store = RDFStore()
        assert store.load(NT_SAMPLE) == 36
        with pytest.raises(StorageError):
            store.require_schema()
        store.discover_schema()
        plan = store.cluster()
        assert plan is not None
        assert store.sparql(f"SELECT ?t WHERE {{ ?b <{EX}title> ?t . }}").bindings.num_rows == 12

    def test_discover_before_load_raises(self):
        with pytest.raises(StorageError):
            RDFStore().discover_schema()

    def test_duplicate_triples_dropped(self):
        triples = [Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("x"))] * 3
        store = RDFStore()
        assert store.load(triples) == 1

    def test_a_second_load_keeps_no_term_of_the_replaced_data(self, tmp_path):
        """A load replaces the triples, so it replaces the dictionary too: the
        term count is the loaded data's, in memory and after a round trip."""
        first = [Triple(IRI(f"{EX}old{i}"), IRI(EX + "p"), Literal(f"old value {i}"))
                 for i in range(5)]
        second = [Triple(IRI(f"{EX}new{i}"), IRI(EX + "q"), Literal(f"new value {i}"))
                  for i in range(3)]
        store = RDFStore()
        store.load(first)
        assert len(store.dictionary) == 11
        with store.snapshot() as pinned:  # reads the data as of before the reload
            old_dictionary = store.dictionary
            assert store.load(second) == 3
            assert store.dictionary is not old_dictionary
            assert len(old_dictionary) == 11, "the pinned dictionary was written to"
            query = "SELECT ?o WHERE { ?s ?p ?o . }"
            assert sorted(row[0] for row in pinned.decode_rows(pinned.sparql(query))) == [
                f"old value {i}" for i in range(5)]
        assert len(store.dictionary) == 7
        assert store.storage_summary()["terms"] == 7
        assert store.dictionary.lookup_term(IRI(EX + "old0")) is None
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert len(reopened.dictionary) == 7 and reopened.triple_count() == 3
        (dictionary_file,) = (tmp_path / "db").glob("*/dictionary.nt")
        assert len(dictionary_file.read_text(encoding="utf-8").splitlines()) == 7

    def test_a_load_that_fails_leaves_the_store_as_it_was(self):
        from repro.errors import ParseError

        store = RDFStore()
        store.load(NT_SAMPLE)
        terms = len(store.dictionary)
        with pytest.raises(ParseError):
            store.load(NT_SAMPLE + f"\n<{EX}s> <{EX}p> oops .")
        assert store.triple_count() == 36 and len(store.dictionary) == terms

    def test_sort_key_names_resolution(self):
        store = RDFStore()
        store.load(NT_SAMPLE)
        store.discover_schema(DiscoveryConfig(generalization=GeneralizationConfig(min_support=3)))
        plan = store.cluster(sort_key_names={"Book": f"{EX}year"})
        year_oid = store.dictionary.lookup_term(IRI(EX + "year"))
        assert year_oid in plan.sort_keys.values()
        block = store.clustered_store.blocks[0]
        assert year_oid in block.sorted_properties


class TestStoreBehaviour:
    def test_storage_summary_keys(self, book_store):
        summary = book_store.storage_summary()
        assert summary["clustered"] is True
        assert summary["tables"] >= 2
        assert 0.9 <= summary["triple_coverage"] <= 1.0
        assert "regular_fraction" in summary

    def test_schema_summary_lines(self, book_store):
        lines = book_store.schema_summary()
        assert any("Book" in line for line in lines)
        assert any("coverage" in line for line in lines)

    def test_cold_and_warm_control(self, book_store):
        book_store.reset_cold()
        assert book_store.pool.cached_page_count() == 0
        book_store.warm()
        assert book_store.pool.cached_page_count() > 0

    def test_cold_hot_costs_differ(self, book_store):
        query = f"PREFIX ex: <{EX}> SELECT ?n WHERE {{ ?b ex:isbn_no ?n . ?b ex:in_year ?y . }}"
        book_store.reset_cold()
        cold = book_store.sparql(query).cost
        book_store.warm()
        hot = book_store.sparql(query).cost
        assert cold.counters["page_reads"] > hot.counters["page_reads"]
        assert cold.simulated_seconds > hot.simulated_seconds

    def test_decode_rows(self, book_store):
        result = book_store.sparql(
            f"PREFIX ex: <{EX}> SELECT ?n WHERE {{ <{EX}book/1> ex:isbn_no ?n . }}")
        assert book_store.decode_rows(result) == [("isbn-0001",)]

    def test_config_disables_zone_maps(self):
        """Every aligned column gets its zone map and a star scan prunes by
        it; the switch that is left is per query, ``PlannerOptions.use_zone_maps``,
        and it turns off only the planner's push-down of a range into a
        subject range."""
        store = RDFStore.build(NT_SAMPLE)
        for block in store.clustered_store.blocks:
            assert set(block.zone_maps) == set(block.property_columns)
        query = (f'SELECT ?b WHERE {{ ?b <{EX}year> ?y . ?b <{EX}title> ?t . '
                 f'FILTER(?y >= "1995"^^<{XSD_INTEGER}>) }}')
        plans, rows = {}, {}
        for use in (False, True):
            options = PlannerOptions(scheme="rdfscan", use_zone_maps=use)
            plans[use] = store.explain(query, options)
            rows[use] = sorted(store.decode_rows(store.sparql(query, options)))
        assert "subj[" in plans[True] and "subj[" not in plans[False]
        assert rows[True] == rows[False] and len(rows[True]) == 7

    def test_dblp_store_fixture_summary(self, dblp_store):
        summary = dblp_store.storage_summary()
        assert summary["foreign_keys"] >= 2
        assert summary["triple_coverage"] > 0.85


class TestRdfhStore:
    def test_schema_has_three_tables(self, rdfh_store):
        labels = {t.label for t in rdfh_store.require_schema().tables.values()}
        assert {"Customer", "Order", "Lineitem"} <= labels

    def test_foreign_keys_follow_tpch(self, rdfh_store):
        schema = rdfh_store.require_schema()
        by_label = {t.label: cs_id for cs_id, t in schema.tables.items()}
        fk_pairs = {(fk.source_cs, fk.target_cs) for fk in schema.foreign_keys}
        assert (by_label["Lineitem"], by_label["Order"]) in fk_pairs
        assert (by_label["Order"], by_label["Customer"]) in fk_pairs

    def test_sub_ordering_applied(self, rdfh_store):
        from repro.bench.rdfh import P_L_SHIPDATE, P_O_ORDERDATE
        schema = rdfh_store.require_schema()
        store = rdfh_store.clustered_store
        shipdate = rdfh_store.dictionary.lookup_term(IRI(P_L_SHIPDATE))
        orderdate = rdfh_store.dictionary.lookup_term(IRI(P_O_ORDERDATE))
        lineitem_block = next(b for b in store.blocks if b.has_property(shipdate))
        order_block = next(b for b in store.blocks if b.has_property(orderdate))
        assert shipdate in lineitem_block.sorted_properties
        assert orderdate in order_block.sorted_properties

    def test_q6_matches_reference(self, rdfh_store, tpch_tiny):
        from repro.bench import iter_reference_q6, q6_sparql
        for scheme in ("default", "rdfscan"):
            for zone_maps in (False, True):
                result = rdfh_store.sparql(q6_sparql(), PlannerOptions(scheme=scheme,
                                                                       use_zone_maps=zone_maps))
                assert result.bindings.column("revenue")[0] == pytest.approx(
                    iter_reference_q6(tpch_tiny), rel=1e-9)

    def test_q3_matches_reference(self, rdfh_store, tpch_tiny):
        from repro.bench import iter_reference_q3, q3_sparql
        reference = iter_reference_q3(tpch_tiny)
        for scheme in ("default", "rdfscan"):
            result = rdfh_store.sparql(q3_sparql(), PlannerOptions(scheme=scheme, use_zone_maps=True))
            rows = rdfh_store.decode_rows(result)
            assert len(rows) == min(10, len(reference))
            if reference:
                assert rows[0][3] == pytest.approx(reference[0][1], rel=1e-9)
                assert rows[0][1] == reference[0][2]

    def test_q1_runs(self, rdfh_store):
        from repro.bench import q1_sparql
        result = rdfh_store.sparql(q1_sparql())
        assert 1 <= len(result) <= 6  # at most |returnflag| x |linestatus| groups


# -- the transition matrix ---------------------------------------------------------
#
# Every way a store changes what readers see, each with no snapshot open and
# with one pinned across it.  The (generation, delta version) pair is the only
# invalidation: it moves exactly when an answer could differ, a cached plan
# lives and dies with the pair in its key, and nothing is cleared.  A
# transition replaces base objects and never edits them, so a context taken
# before it — pinned or not — still describes the state it was taken from.

BOOKS_BY_YEAR = f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . ?b <{EX}isbn_no> ?i . }}"


def _book(n: int) -> list:
    book = IRI(f"{EX}book/x{n}")
    return [Triple(book, IRI(RDF_TYPE), IRI(f"{EX}Book")),
            Triple(book, IRI(f"{EX}has_author"), IRI(f"{EX}author/1")),
            Triple(book, IRI(f"{EX}in_year"), Literal("2001", datatype=XSD_INTEGER)),
            Triple(book, IRI(f"{EX}isbn_no"), Literal(f"isbn-x{n}"))]


def _insert(triples) -> str:
    return f"INSERT DATA {{ {serialize_ntriples(triples)} }}"


def _register_core(store: RDFStore) -> list:
    cs_ids = [table.cs_id for table in store.schema.tables_by_support()][:1]
    return store.catalog.register_summary(
        "core", SchemaSummary(table_ids=cs_ids, foreign_keys=[]))


def _base_facts(context) -> tuple:
    """What a context's dictionary decodes and its schema's table supports
    and coverage."""
    schema = context.schema
    return (list(context.dictionary.terms()),
            {cs_id: table.support for cs_id, table in schema.tables.items()},
            dataclasses.astuple(schema.coverage))


def _rows(reader, text: str) -> list:
    return sorted(reader.decode_rows(reader.sparql(text)))


def _update(t) -> None:
    t.store.update(_insert(_book(2)))
    t.live += _book(2)


def _noop_update(t) -> None:
    assert not t.store.update(_insert(t.live[:1])).changed


def _rolled_back_update(t) -> None:
    def disk_full(text):
        raise OSError("injected failure at journal.record")

    t.monkeypatch.setattr(t.store.journal, "record", disk_full)
    with pytest.raises(OSError, match="injected"):
        t.store.update(_insert(_book(2)))
    t.monkeypatch.undo()
    assert t.store.delta.insert_count() == len(t.live) - len(book_triples())


def _load(t) -> None:
    t.live[:] = book_triples(books=20)
    t.store.load(t.live)


class _Transition(NamedTuple):
    name: str
    run: Callable
    pending: bool = False
    """Whether it starts from a store with an uncompacted write."""
    moves_pair: bool = True
    replans: bool = True
    """Whether a repeated text misses once after it: a new base generation,
    or the first write after a clean state.  A write on top of pending
    writes keeps every plan."""
    keeps_reduced: bool = True
    keeps_clustering: bool = True
    """Whether the store is still clustered after it: only a transition
    that replaces the triples or the schema drops the clustering."""


TRANSITIONS = [
    _Transition("update", _update),
    _Transition("update-noop", _noop_update, moves_pair=False, replans=False),
    _Transition("update-rolled-back", _rolled_back_update, pending=True, replans=False),
    _Transition("compact", lambda t: t.store.compact(), pending=True),
    _Transition("checkpoint", lambda t: t.store.checkpoint(), pending=True),
    _Transition("cluster-other-sort-key",
                lambda t: t.store.cluster(sort_key_names={"Book": f"{EX}isbn_no"})),
    _Transition("build_indexes", lambda t: t.store.build_indexes(), pending=True),
    _Transition("discover_schema", lambda t: t.store.discover_schema(), keeps_reduced=False,
                keeps_clustering=False),
    _Transition("load", _load, keeps_reduced=False, keeps_clustering=False),
    _Transition("save", lambda t: t.store.save(t.path / "again"), pending=True,
                moves_pair=False, replans=False),
]


@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
@pytest.mark.parametrize("transition", TRANSITIONS, ids=lambda transition: transition.name)
def test_transition_matrix(transition, pinned, tmp_path, monkeypatch):
    store = RDFStore.build(book_triples(), config=small_graph_config(),
                           sort_key_names={"Book": f"{EX}in_year"})
    t = SimpleNamespace(store=store, path=tmp_path, monkeypatch=monkeypatch,
                        live=list(book_triples()), core=_register_core(store))
    store.save(tmp_path / "db")  # attached: writes reach a WAL, checkpoint has a target
    if transition.pending:
        store.update(_insert(_book(1)))
        t.live += _book(1)
    with (store.snapshot() if pinned else nullcontext()) as snapshot:
        plan = store.sparql(BOOKS_BY_YEAR).plan
        if pinned:
            pinned_rows = _rows(snapshot, BOOKS_BY_YEAR)
            assert snapshot.sparql(BOOKS_BY_YEAR).plan is plan  # one version, one plan
        pair = (store.generation, store.delta.version)
        hits = store.plan_cache_stats()["lifetime_hits"]
        context = store.context()
        facts = _base_facts(context)

        transition.run(t)

        terms, supports, coverage = facts
        assert [context.dictionary.decode(oid) for oid in range(len(terms))] == terms
        assert _base_facts(context)[1:] == (supports, coverage)

        assert ((store.generation, store.delta.version) != pair) == transition.moves_pair
        after = store.sparql(BOOKS_BY_YEAR)
        if transition.replans:
            assert after.plan is not plan  # a miss: its key names what the plan reads
        else:
            assert after.plan is plan
            assert store.plan_cache_stats()["lifetime_hits"] == hits + 1
        if transition.name == "update":
            # within the generation every later write keeps the plan
            store.update(_insert(_book(3)))
            t.live += _book(3)
            assert store.sparql(BOOKS_BY_YEAR).plan is after.plan
            after = store.sparql(BOOKS_BY_YEAR)
        oracle = RDFStore.build(t.live, config=small_graph_config())
        assert sorted(store.decode_rows(after)) == _rows(oracle, BOOKS_BY_YEAR)
        assert len(after) == sum(1 for triple in t.live
                                 if triple.predicate == IRI(f"{EX}isbn_no"))
        if pinned:
            # the pinned version answers as before and still hits its own plan:
            # whatever happened since cleared nothing
            again = snapshot.sparql(BOOKS_BY_YEAR)
            assert again.plan is plan
            assert sorted(snapshot.decode_rows(again)) == pinned_rows
        assert store.is_clustered == transition.keeps_clustering
        if transition.keeps_reduced:
            assert store.catalog.table_names("core") == t.core
        elif store.catalog is not None:
            with pytest.raises(SchemaError, match="unknown reduced schema"):
                store.catalog.table_names("core")
