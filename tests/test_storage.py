"""Tests for triple tables, the exhaustive index store, clustering and the
clustered store."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _datasets import (
    build_rdfh_parseorder_store,
    build_rdfh_store,
    person_address_triples,
    small_graph_config,
)
from _oracles import per_row_clustered_build
from repro import RDFStore
from repro.bench import q1_sparql, q3_sparql, q6_sparql, star_fk_hop_sparql
from repro.sparql import (
    DEFAULT_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
    parse_sparql,
)
from repro.sparql.ast import Variable
from repro.bench import DirtyConfig, generate_dirty
from repro.bench.queries import star_lookup_sparql
from repro.columnar import BufferPool, NULL_OID
from repro.cs import (
    CharacteristicSet,
    DiscoveryConfig,
    EmergentSchema,
    GeneralizationConfig,
    Membership,
    Multiplicity,
    PropertySpec,
    discover_schema,
)
from repro.cs.detect import detection_from_triples
from repro.errors import StorageError
from repro.model import EncodedTriple, Graph, IRI, Literal, TermDictionary, Triple
from repro.model.terms import XSD_INTEGER
from repro.persist import write_snapshot
from repro.storage import (
    ACCESS_PATHS,
    ClusteredStore,
    ExhaustiveIndexStore,
    ORDERS,
    TripleTable,
    cluster_subjects,
    encode_graph,
    plan_subject_clustering,
    value_order_literals,
)

EX = "http://example.org/"


def _encoded(rows):
    return [EncodedTriple(*row) for row in rows]


SAMPLE = _encoded([
    (0, 10, 20), (0, 11, 21), (1, 10, 22), (1, 11, 21), (2, 10, 20), (2, 12, 23),
])


class TestTripleTable:
    def test_sorted_by_order(self):
        table = TripleTable(SAMPLE, order="pso")
        raw = table.raw()
        keys = list(zip(raw[:, 1], raw[:, 0], raw[:, 2]))
        assert keys == sorted(keys)

    def test_invalid_order_rejected(self):
        with pytest.raises(StorageError):
            TripleTable(SAMPLE, order="xyz")

    def test_scan_prefix_by_predicate(self):
        table = TripleTable(SAMPLE, order="pso")
        rows = table.scan_prefix(10, fetch="so")
        assert rows.shape == (3, 2)
        assert set(rows[:, 0].tolist()) == {0, 1, 2}

    def test_scan_prefix_two_levels(self):
        table = TripleTable(SAMPLE, order="pso")
        rows = table.scan_prefix(11, 1, fetch="o")
        assert rows[:, 0].tolist() == [21]

    def test_lookup_and_contains(self):
        table = TripleTable(SAMPLE, order="spo")
        lo, hi = table.prefix_row_range(0)
        assert hi - lo == 2
        assert table.contains(np.asarray([[0, 10, 20], [0, 10, 999]])).tolist() == [True, False]

    def test_subject_property_sets(self):
        """The raw input of characteristic-set detection, computed where
        detection computes it, over a table's rows."""
        detection = detection_from_triples(TripleTable(SAMPLE).raw())
        properties = {subject: detection.exact_sets[index].properties
                      for subject, index in zip(detection.subjects.tolist(),
                                                detection.exact_index.tolist())}
        assert properties[0] == frozenset({10, 11})
        assert properties[2] == frozenset({10, 12})

    def test_subject_property_multiplicities(self):
        rows = _encoded([(0, 10, 1), (0, 10, 2), (0, 11, 3)])
        detection = detection_from_triples(TripleTable(rows).raw())
        assert detection.subjects[detection.pair_subject].tolist() == [0, 0]
        assert dict(zip(detection.pair_predicate.tolist(),
                        detection.pair_count.tolist())) == {10: 2, 11: 1}

    def test_empty_table(self):
        table = TripleTable(np.empty((0, 3), dtype=np.int64))
        assert len(table) == 0
        assert table.scan_prefix(5).shape == (0, 3)

    def test_page_accounting_on_scan(self):
        pool = BufferPool(page_size=2)
        table = TripleTable(SAMPLE, order="pso", pool=pool)
        table.scan_prefix(10, fetch="so")
        assert pool.tracker.page_reads > 0


    def test_deduplicate(self):
        """RDF graphs are sets: exact duplicates are dropped where triples are
        encoded, so no table ever holds one twice."""
        s, p, o = (IRI(EX + name) for name in "spo")
        _dictionary, matrix = encode_graph([Triple(s, p, o), Triple(s, p, o), Triple(o, p, s)])
        assert len(TripleTable(matrix)) == 2


class TestExhaustiveIndexStore:
    @pytest.fixture()
    def store(self):
        return ExhaustiveIndexStore(np.asarray([[t.s, t.p, t.o] for t in SAMPLE]))

    def test_maintains_all_orders(self, store):
        assert set(store.tables) == set(ORDERS)
        assert len(store) == len(SAMPLE)

    def test_best_order_selection(self, store):
        # the one access-path table: every bound set names the order whose
        # prefix it is, the same on every store however it came to be
        assert ACCESS_PATHS == {"": "spo", "s": "spo", "p": "pso", "o": "osp",
                                "sp": "spo", "so": "osp", "po": "pos", "spo": "spo"}
        for bound, order in ACCESS_PATHS.items():
            assert store.best_order(bound) == order
            assert set(order[:len(bound)]) == set(bound)
        with pytest.raises(StorageError):
            store.best_order("ps")

    def test_scan_pattern_matches_naive(self, store):
        expected = {(t.s, t.o) for t in SAMPLE if t.p == 10}
        rows = store.scan_pattern(p=10, fetch="so")
        assert {tuple(r) for r in rows.tolist()} == expected

    def test_scan_pattern_subject_and_predicate(self, store):
        rows = store.scan_pattern(s=1, p=11, fetch="o")
        assert rows[:, 0].tolist() == [21]

    def test_scan_pattern_object_only(self, store):
        rows = store.scan_pattern(o=21, fetch="s")
        assert sorted(rows[:, 0].tolist()) == [0, 1]

    def test_scan_pattern_subject_and_object_reads_osp(self, store):
        """``(s, o)`` bound is the ``(o, s)`` prefix of OSP: no SOP needed."""
        expected = sorted(t.p for t in SAMPLE if t.s == 0 and t.o == 20)
        assert store.scan_pattern(s=0, o=20, fetch="p")[:, 0].tolist() == expected
        assert store.count_pattern(s=1, o=21) == 1
        assert store.materialized_orders() == ["osp"]

    def test_count_pattern(self, store):
        assert store.count_pattern(p=10) == 3
        assert store.count_pattern(p=10, o=20) == 2
        assert store.count_pattern() == len(SAMPLE)

    def test_predicate_counts_sort_nothing(self, store):
        """Counts are metadata of the rows: no projection is made for them."""
        assert store.predicate_counts() == {10: 3, 11: 2, 12: 1}
        assert ExhaustiveIndexStore(np.empty((0, 3), dtype=np.int64)).predicate_counts() == {}
        assert store.materialized_orders() == []

    def test_contains_and_object_lookup(self, store):
        assert store.contains(np.asarray([[2, 12, 99], [2, 12, 23]])).tolist() == [False, True]
        assert store.scan_pattern(s=2, p=12, fetch="o")[:, 0].tolist() == [23]

    def test_unknown_order_rejected(self, store):
        with pytest.raises(StorageError):
            store.table("abc")


class TestSortedOnFirstRead:
    """A table is made from its rows and sorts itself when first read."""

    MATRIX = np.asarray([[t.s, t.p, t.o] for t in SAMPLE])

    def test_nothing_is_sorted_until_read(self, projection_sorts):
        before = projection_sorts()
        store = ExhaustiveIndexStore(self.MATRIX, pool=BufferPool(page_size=2))
        assert len(store) == 6 and store.materialized_orders() == []
        store.warm()  # lengths and segment names only
        assert store.pool.cached_page_count() == 4 * 3 * 3
        assert store.materialized_orders() == []
        store.scan_pattern(p=10)
        store.count_pattern(s=1)
        assert store.materialized_orders() == ["pso", "spo"]
        after = projection_sorts()
        assert {order: after[order] - before[order] for order in ORDERS} == {
            "spo": 1, "pso": 1, "pos": 0, "osp": 0}

    def test_rows_may_be_a_callable(self):
        calls = []

        def rows():
            calls.append(1)
            return self.MATRIX[::-1]

        table = TripleTable(rows, order="osp", length=6)
        assert len(table) == 6 and not calls and not table.is_materialized
        assert table.raw().tolist() == TripleTable(self.MATRIX, order="osp").raw().tolist()
        table.column("s"), table.scan_prefix(21)
        assert calls == [1]

    def test_row_count_and_shape_are_checked_at_the_sort(self):
        short = TripleTable(lambda: self.MATRIX[:4], order="pso", length=6, name="t")
        with pytest.raises(StorageError, match="'t' was given 4 rows, expected 6"):
            short.scan_prefix(10)
        assert not short.is_materialized  # a failed guard leaves nothing behind
        with pytest.raises(StorageError, match=r"shape \(n, 3\)"):
            TripleTable(np.zeros((3, 2), dtype=np.int64)).raw()

    def test_eight_threads_first_touching_one_table_sort_once(self, projection_sorts):
        rng = np.random.default_rng(11)
        matrix = rng.integers(0, 5_000, (60_000, 3)).astype(np.int64)
        table = TripleTable(matrix, order="osp")
        before = projection_sorts()["osp"]
        barrier = threading.Barrier(8)
        seen = []

        def touch():
            barrier.wait()
            seen.append(tuple(table.column(c).data for c in "spo"))

        threads = [threading.Thread(target=touch) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert projection_sorts()["osp"] - before == 1
        assert len(seen) == 8
        for columns in seen[1:]:
            assert all(a is b for a, b in zip(columns, seen[0]))  # one set of arrays
        expected = matrix[np.lexsort((matrix[:, 1], matrix[:, 0], matrix[:, 2]))]
        assert np.array_equal(np.column_stack(seen[0]), expected)

    def test_a_replaced_index_store_is_freed_by_reference_counting(self, tmp_path):
        """No cycle runs through a table: with the cyclic collector off, a
        materialised projection dies at the ``compact()`` that merges it into
        its successor or the ``build_indexes()`` that replaces its store —
        built, compacted or reopened alike."""
        store = RDFStore.build(person_address_triples(), config=small_graph_config())
        query = f"SELECT ?s ?o WHERE {{ ?s <{next(iter(_predicates(store)))}> ?o . }}"
        # the insert probes SPO, and compaction merges what was sorted
        resident = {"built": ["pso"], "compacted": ["pso", "spo"], "reopened": ["pso"]}
        gc.collect()
        gc.disable()
        try:
            for step in ("built", "compacted", "reopened"):
                store.sparql(query, PlannerOptions(scheme=DEFAULT_SCHEME))
                assert store.index_store.materialized_orders() == resident[step], step
                table = weakref.ref(store.index_store.table("pso"))
                column = weakref.ref(table().column("o"))
                if step == "built":
                    store.update(f"INSERT DATA {{ <{EX}new> <{EX}p> <{EX}o> . }}")
                    store.compact()
                elif step == "compacted":
                    store.save(tmp_path / "db")
                    store = RDFStore.open(tmp_path / "db")
                    continue  # the old store object went with its last reference
                else:
                    store.build_indexes()
                assert table() is None and column() is None, step
        finally:
            gc.enable()


def test_which_projections_the_rdfh_corpus_reads(tpch_tiny):
    """The traffic pin.  On a clustered store the star schemes answer from
    the CS blocks and read exactly one projection, POS: the foreign-key hop
    of ``fk_hop`` probes it by the referenced subjects (and its estimate
    counts the predicate's distinct objects there), with zone-map push-down
    off and on.  The ``default`` scheme on ParseOrder sorts exactly what its
    patterns name in ``ACCESS_PATHS`` plus POS for a FILTER range inside a
    predicate — and nothing ever reads OPS, OSP or SOP, which therefore are
    never made."""
    corpus = [q6_sparql(), q3_sparql(), q1_sparql(), star_fk_hop_sparql()]
    for zone_maps in (False, True):
        clustered = build_rdfh_store(tpch_tiny)
        for text in corpus:
            clustered.sparql(text, PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=zone_maps))
        assert set(clustered.index_store.materialized_orders()) == {"pos"}, zone_maps

    for text in corpus:
        parse_order = build_rdfh_parseorder_store(tpch_tiny)
        parse_order.sparql(text, PlannerOptions(scheme=DEFAULT_SCHEME))
        query = parse_sparql(text)
        named = {ACCESS_PATHS["".join(
                    c for c, node in zip("spo", (p.subject, p.predicate, p.object))
                    if not isinstance(node, Variable))]
                 for p in query.patterns}
        ranged = {parse_order.index_store.within_predicate("o").order} if query.filters else set()
        assert set(parse_order.index_store.materialized_orders()) == named | ranged, text
        assert "ops" not in named | ranged


def _predicates(store):
    for oid in sorted(store.index_store.predicate_counts()):
        yield store.dictionary.decode(oid).value


def test_no_resident_twin(rdfh_store, tmp_path):
    """A triple table is its three columns: no ``(n, 3)`` copy stays beside
    them, built or reopened, and ``raw()`` still is the sorted input."""
    rng = np.random.default_rng(7)
    n = 50_000
    matrix = np.column_stack([rng.integers(0, n // 8, n), rng.integers(0, 40, n),
                              rng.integers(0, n, n)]).astype(np.int64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = ExhaustiveIndexStore(matrix)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 6.5 * matrix.nbytes, f"{retained / matrix.nbytes:.1f}x the matrix"
    for order, table in store.tables.items():
        keys = [matrix[:, "spo".index(c)] for c in reversed(order)]
        assert np.array_equal(table.raw(), matrix[np.lexsort(keys)])

    write_snapshot(rdfh_store, tmp_path / "db")
    reopened = RDFStore.open(tmp_path / "db")
    reopened.sparql(star_lookup_sparql())
    for owner in (rdfh_store, reopened):
        tables = [*owner.index_store.tables.values(), owner.clustered_store.irregular]
        for table in tables:
            for component in "spo":
                data = table.column(component).data
                assert data.flags.c_contiguous and data.base is None, table.name
            assert not any(isinstance(value, np.ndarray) and value.ndim == 2
                           for value in vars(table).values()), table.name


def _book_like_store(dirty: bool = True):
    triples = []
    for i in range(12):
        s = IRI(f"{EX}b{i}")
        triples.append(Triple(s, IRI(EX + "type"), IRI(EX + "Book")))
        triples.append(Triple(s, IRI(EX + "author"), IRI(f"{EX}a{i % 3}")))
        triples.append(Triple(s, IRI(EX + "year"), Literal(str(1990 + i), datatype=XSD_INTEGER)))
    for i in range(3):
        s = IRI(f"{EX}a{i}")
        triples.append(Triple(s, IRI(EX + "type"), IRI(EX + "Person")))
        triples.append(Triple(s, IRI(EX + "name"), Literal(f"Author {i}")))
    if dirty:
        triples.append(Triple(IRI(f"{EX}b0"), IRI(EX + "author"), IRI(f"{EX}a2")))  # second author
        triples.append(Triple(IRI(f"{EX}weird"), IRI(EX + "foo"), Literal("bar")))
    dictionary, matrix = encode_graph(triples)
    dictionary, matrix = value_order_literals(matrix, dictionary)
    config = DiscoveryConfig(generalization=GeneralizationConfig(min_support=3))
    schema = discover_schema(matrix, dictionary, config)
    return dictionary, matrix, schema


class TestSubjectClustering:
    def test_plan_is_bijection_over_member_subjects(self):
        dictionary, matrix, schema = _book_like_store()
        plan = plan_subject_clustering(matrix, dictionary, schema)
        assert sorted(plan.old.tolist()) == plan.new.tolist() == schema.membership.subjects.tolist()

    def test_cluster_groups_subjects_contiguously(self):
        dictionary, matrix, schema = _book_like_store()
        _dictionary, _matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        # after clustering, each CS's subject OIDs form a contiguous run within
        # the sorted list of all member subject OIDs
        all_members = sorted(s for cs_id in schema.tables
                             for s in schema.membership.members(cs_id).tolist())
        position = {s: i for i, s in enumerate(all_members)}
        for cs_id in schema.tables:
            positions = sorted(position[s] for s in schema.membership.members(cs_id).tolist())
            assert positions == list(range(positions[0], positions[0] + len(positions)))

    def test_cluster_preserves_triples(self):
        dictionary, matrix, schema = _book_like_store()
        before = {tuple(dictionary.decode_triple(EncodedTriple(*row)).n3() for _ in [0])[0]
                  for row in matrix.tolist()}
        dictionary, new_matrix, _schema, _plan = cluster_subjects(matrix, dictionary, schema)
        after = {dictionary.decode_triple(EncodedTriple(*row)).n3() for row in new_matrix.tolist()}
        assert before == after

    def test_sort_key_orders_subjects_by_value(self):
        dictionary, matrix, schema = _book_like_store(dirty=False)
        year_oid = dictionary.lookup_term(IRI(EX + "year"))
        book_cs = next(cs_id for cs_id, t in schema.tables.items()
                       if any(p == year_oid for p in t.properties))
        _dictionary, new_matrix, schema, _plan = cluster_subjects(
            matrix, dictionary, schema, {book_cs: year_oid})
        store = ClusteredStore.build(new_matrix, schema)
        block = store.block(book_cs)
        years = block.column(year_oid).data
        valid = years[years != NULL_OID]
        assert list(valid) == sorted(valid)
        assert year_oid in block.sorted_properties


class TestClusteredStore:
    def test_reconstruction_equals_input(self):
        dictionary, matrix, schema = _book_like_store()
        dictionary, new_matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        store = ClusteredStore.build(new_matrix, schema)
        original = sorted(map(tuple, new_matrix.tolist()))
        rebuilt = sorted(map(tuple, store.reconstruct_triples().tolist()))
        assert original == rebuilt
        assert store.triple_count() == new_matrix.shape[0]

    def test_irregular_subjects_stay_in_triple_store(self):
        dictionary, matrix, schema = _book_like_store()
        dictionary, new_matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        store = ClusteredStore.build(new_matrix, schema)
        weird = dictionary.lookup_term(IRI(f"{EX}weird"))
        assert schema.cs_of_subject(weird) is None
        assert len(store.irregular) >= 1
        assert 0 < store.regular_fraction() < 1

    def test_blocks_with_properties(self):
        dictionary, matrix, schema = _book_like_store()
        dictionary, new_matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        store = ClusteredStore.build(new_matrix, schema)
        author = dictionary.lookup_term(IRI(EX + "author"))
        year = dictionary.lookup_term(IRI(EX + "year"))
        name = dictionary.lookup_term(IRI(EX + "name"))
        assert len(store.blocks_with_properties([author, year])) == 1
        assert len(store.blocks_with_properties([author, name])) == 0

    def test_a_star_naming_a_many_property_gets_no_block(self):
        """A ``MANY`` property has no column, so no block serves a star that
        names it: the star is answered from the irregular table, where every
        value of such a property lives."""
        triples = []
        for i in range(12):
            s = IRI(f"{EX}doc{i}")
            triples.append(Triple(s, IRI(EX + "title"), Literal(f"Title {i}")))
            triples.append(Triple(s, IRI(EX + "tag"), Literal(f"tag{i % 3}")))
            triples.append(Triple(s, IRI(EX + "tag"), Literal(f"tag{3 + i % 4}")))
        store = RDFStore.build(triples, config=small_graph_config())
        title, tag = (store.dictionary.lookup_term(IRI(EX + name)) for name in ("title", "tag"))
        (table,) = store.schema.tables.values()
        assert table.properties[tag].multiplicity is Multiplicity.MANY
        clustered = store.clustered_store
        assert [block.cs_id for block in clustered.blocks_with_properties([title])] == [table.cs_id]
        assert clustered.blocks_with_properties([title, tag]) == []
        assert clustered.blocks_with_properties([tag]) == []
        assert len(clustered.irregular.scan_prefix(tag)) == 24
        rows = store.decode_rows(store.sparql(
            f"SELECT ?d ?t WHERE {{ ?d <{EX}title> ?n . ?d <{EX}tag> ?t . }}"))
        assert len(rows) == 24 and len(set(rows)) == 24

    def test_zone_maps_built_on_request(self):
        dictionary, matrix, schema = _book_like_store(dirty=False)
        dictionary, new_matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        store = ClusteredStore.build(new_matrix, schema, zone_size=4)
        for block in store.blocks:
            # every aligned column gets its zone map
            assert set(block.zone_maps) == set(block.property_columns)
            for zone_map in block.zone_maps.values():
                assert len(zone_map) >= 1

    def test_unknown_block_raises(self):
        dictionary, matrix, schema = _book_like_store()
        store = ClusteredStore.build(matrix, schema)
        with pytest.raises(StorageError):
            store.block(999)

    def test_positions_of_subjects(self):
        dictionary, matrix, schema = _book_like_store(dirty=False)
        dictionary, new_matrix, schema, _plan = cluster_subjects(matrix, dictionary, schema)
        store = ClusteredStore.build(new_matrix, schema)
        block = store.blocks[0]
        subjects = block.subject_column.data
        positions = block.positions_of_subjects(np.asarray([subjects[0], subjects[-1], 10**9]))
        assert list(positions) == [0, len(block) - 1]


# -- the array build against the per-row reference -------------------------------------


def assert_same_clustered_store(built: ClusteredStore, reference: ClusteredStore) -> None:
    assert [block.cs_id for block in built.blocks] == [block.cs_id for block in reference.blocks]
    for block, expected in zip(built.blocks, reference.blocks):
        assert block.label == expected.label
        assert block.subject_column.data.tolist() == expected.subject_column.data.tolist()
        assert list(block.property_columns) == list(expected.property_columns)
        for predicate, column in block.property_columns.items():
            assert column.data.tolist() == expected.property_columns[predicate].data.tolist()
            assert (block.zone_maps[predicate].to_array().tolist()
                    == expected.zone_maps[predicate].to_array().tolist())
        assert block.sorted_properties == expected.sorted_properties
    # the irregular table lexsorts on construction: same rows means same table
    assert built.irregular.raw().tolist() == reference.irregular.raw().tolist()


def _dirty_store() -> RDFStore:
    return RDFStore.build(generate_dirty(DirtyConfig(classes=4, subjects_per_class=60)).triples,
                          config=small_graph_config())


def _person_address_store() -> RDFStore:
    return RDFStore.build(person_address_triples(), config=small_graph_config())


class TestClusteredBuildDifferential:
    @pytest.mark.parametrize("fixture", ["book_store", "dblp_store", "rdfh_store"])
    def test_canonical_stores(self, fixture, request):
        store = request.getfixturevalue(fixture)
        built = ClusteredStore.build(store.matrix, store.schema, zone_size=64)
        assert_same_clustered_store(
            built, per_row_clustered_build(store.matrix, store.schema, zone_size=64))
        assert len(built.irregular) == len(store.clustered_store.irregular)

    @pytest.mark.parametrize("build", [_dirty_store, _person_address_store])
    def test_stores_with_a_large_irregular_part(self, build):
        store = build()
        assert len(store.clustered_store.irregular) > 100
        assert_same_clustered_store(ClusteredStore.build(store.matrix, store.schema),
                                    per_row_clustered_build(store.matrix, store.schema))

    def test_first_value_in_row_order_wins_and_the_rest_spill(self):
        """Two and three values for a ``1..1`` property, rows not sorted by
        anything: the first in matrix row order fills the cell."""
        schema = EmergentSchema(
            tables={0: CharacteristicSet(cs_id=0, support=3, properties={
                10: PropertySpec(10, Multiplicity.EXACTLY_ONE),
                11: PropertySpec(11, Multiplicity.ZERO_OR_ONE),
                12: PropertySpec(12, Multiplicity.MANY),
            })},
            membership=Membership([3, 5, 9], [0, 0, 0]))
        matrix = np.asarray([
            (9, 10, 103),   # first of three values for (9, p10): stays
            (5, 12, 300),   # MANY: irregular
            (3, 10, 202),   # first of two for (3, p10): stays
            (9, 10, 101),   # second for (9, p10) though smaller: spills
            (7, 10, 500),   # subject without a table
            (3, 11, 250),
            (9, 10, 102),   # third: spills
            (5, 13, 400),   # property the table does not have
            (3, 10, 201),   # second for (3, p10): spills
            (5, 10, 150),
        ], dtype=np.int64)
        built = ClusteredStore.build(matrix, schema)
        block = built.block(0)
        assert block.subject_column.data.tolist() == [3, 5, 9]
        assert block.column(10).data.tolist() == [202, 150, 103]
        assert block.column(11).data.tolist() == [250, NULL_OID, NULL_OID]
        assert not block.has_property(12)
        assert sorted(map(tuple, built.irregular.raw().tolist())) == sorted([
            (5, 12, 300), (9, 10, 101), (7, 10, 500), (9, 10, 102), (5, 13, 400), (3, 10, 201)])
        assert_same_clustered_store(built, per_row_clustered_build(matrix, schema))


# -- property-based equivalence --------------------------------------------------------


@st.composite
def random_encoded_dataset(draw):
    """Random small (s, p, o) datasets with a handful of predicates."""
    n = draw(st.integers(5, 60))
    rows = set()
    for _ in range(n):
        s = draw(st.integers(0, 15))
        p = draw(st.integers(0, 4))
        o = draw(st.integers(100, 130))
        rows.add((s, p, o))
    return sorted(rows)


@settings(max_examples=40, deadline=None)
@given(random_encoded_dataset())
def test_exhaustive_store_pattern_scans_match_naive(rows):
    matrix = np.asarray(rows, dtype=np.int64)
    store = ExhaustiveIndexStore(matrix)
    for s, p, o in [(None, 2, None), (3, None, None), (None, None, 105), (3, 2, None)]:
        expected = {tuple(r) for r in rows
                    if (s is None or r[0] == s) and (p is None or r[1] == p) and (o is None or r[2] == o)}
        got = {tuple(r) for r in store.scan_pattern(s=s, p=p, o=o).tolist()}
        assert got == expected


@settings(max_examples=30, deadline=None)
@given(random_encoded_dataset())
def test_clustered_store_never_loses_triples(rows):
    """Building the clustered store over any discovered schema preserves the
    exact triple set (blocks + irregular spill)."""
    matrix = np.asarray(rows, dtype=np.int64)
    schema = discover_schema(matrix, dictionary=None,
                             config=DiscoveryConfig(generalization=GeneralizationConfig(min_support=2)))
    store = ClusteredStore.build(matrix, schema)
    assert sorted(map(tuple, store.reconstruct_triples().tolist())) == sorted(map(tuple, matrix.tolist()))
    # ... and whatever the row order, it is the per-row builder's store
    shuffled = matrix[np.random.default_rng(len(rows)).permutation(len(rows))]
    assert_same_clustered_store(ClusteredStore.build(shuffled, schema),
                                per_row_clustered_build(shuffled, schema))
