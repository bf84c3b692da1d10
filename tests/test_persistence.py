"""Persistence layer: snapshot round trips, WAL crash recovery, lazy loading.

Three properties are exercised:

* **round-trip equivalence** — every query of the existing corpora answers
  identically on ``RDFStore.open(save(store))``, across all plan schemes,
  without the reopened store re-running discovery or clustering;
* **crash recovery** — truncating the WAL at arbitrary byte boundaries
  loses exactly the torn tail; replay matches a rebuild oracle that applies
  the same surviving prefix of updates to a fresh store;
* **lazy loading** — an opened store materializes columns on first scan,
  observable through ``BufferPool.stats()``.
"""

from __future__ import annotations

import json
import shutil
import sys
import zlib
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CheckpointReport,
    PendingUpdatesError,
    PersistenceError,
    RDFStore,
    SchemaError,
    StorageError,
    StoreConfig,
)
from repro.bench import TpchConfig, generate_tpch
from repro.bench.queries import q3_sparql, q6_sparql, star_lookup_sparql
from repro.bench.rdfh import P_L_QUANTITY, P_L_RETURNFLAG
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.persist import SnapshotReader, WriteAheadLog, write_snapshot
from repro.persist import snapshot as snapshot_module
from repro.persist.io import read_array, write_array
from repro.persist.snapshot import (
    GENERATION_PREFIX,
    MANIFEST_FILE,
    MEMBERSHIP_FILE,
    SCHEMA_FILE,
    wal_path,
)
from repro.server import SnapshotRegistry
from repro.storage import ACCESS_PATHS, ORDERS
from repro.sparql import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
)

from _datasets import EX, book_triples, build_rdfh_store
from test_updates import live_triples

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"))
from inputs import UpdateStream  # noqa: E402

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

SCHEMES = [
    PlannerOptions(scheme=DEFAULT_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME),
    PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False),
]

QUERIES = [
    f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b WHERE {{ ?b <{EX}has_author> <{EX}author/1> . }}",
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 1998) }}",
    f"SELECT ?b ?n WHERE {{ ?b <{EX}has_author> ?a . ?a <{EX}name> ?n . }}",
    f"SELECT ?p ?o WHERE {{ <{EX}book/3> ?p ?o . }}",
    f"SELECT (COUNT(?b) AS ?c) WHERE {{ ?b <{EX}isbn_no> ?i . }}",
]

SQL_QUERIES = [
    "SELECT isbn_no FROM Book WHERE in_year >= 1998 ORDER BY isbn_no",
    "SELECT b.isbn_no, a.name FROM Book b JOIN Person a ON b.has_author = a.id "
    "WHERE b.in_year >= 2000",
]


def _config() -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


@pytest.fixture()
def store() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


def _sort_rows(rows: list) -> list:
    return sorted(rows, key=lambda row: tuple((v is None, str(v)) for v in row))


def decoded(store: RDFStore, text: str, options=None) -> list:
    return _sort_rows(store.decode_rows(store.sparql(text, options)))


def assert_stores_equivalent(left: RDFStore, right: RDFStore,
                             queries=QUERIES, sql_queries=SQL_QUERIES) -> None:
    for text in queries:
        for options in SCHEMES:
            assert decoded(left, text, options) == decoded(right, text, options), \
                (text, options.describe())
    for text in sql_queries:
        assert _sort_rows(left.decode_rows(left.sql(text))) == \
            _sort_rows(right.decode_rows(right.sql(text))), text


def insert_book(n: int, year: int = 2001, author: int = 1) -> str:
    return f"""
    INSERT DATA {{
      <{EX}book/new{n}> a <{EX}Book> ;
          <{EX}has_author> <{EX}author/{author}> ;
          <{EX}in_year> "{year}"^^<{XSD_INT}> ;
          <{EX}isbn_no> "isbn-n{n:04d}" .
    }}"""


# -- snapshot round trips -----------------------------------------------------


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("clustered", [True, False], ids=["clustered", "unclustered"])
    def test_clustering_is_what_the_saved_store_holds(self, clustered, tmp_path):
        """A store stays clustered or not through a write and a checkpoint,
        and reopens the same: the saved clustered store decides, not the
        manifest's ``clustered`` flag, which is still written so format v3
        is unchanged."""
        store = RDFStore.build(book_triples(), config=_config(), cluster=clustered)
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        store.checkpoint()
        assert store.is_clustered == clustered
        manifest_path = tmp_path / "db" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        assert manifest["clustered"] is clustered
        assert (manifest["clustered_store"] is not None) == clustered
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.is_clustered == clustered
        assert_stores_equivalent(store, reopened)
        manifest["clustered"] = not clustered
        manifest_path.write_text(json.dumps(manifest))
        assert RDFStore.open(tmp_path / "db").is_clustered == clustered

    def test_book_corpus_identical_across_schemes(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert_stores_equivalent(store, reopened)

    def test_open_skips_discovery_and_clustering(self, store, tmp_path, monkeypatch):
        store.save(tmp_path / "db")
        import repro.core.store as core_store

        def _boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("open() re-ran a build stage")

        monkeypatch.setattr(core_store, "discover_schema", _boom)
        monkeypatch.setattr(core_store, "cluster_subjects", _boom)
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.is_clustered
        assert decoded(reopened, QUERIES[0]) == decoded(store, QUERIES[0])

    def test_schema_catalog_and_summaries_survive(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.schema_summary() == store.schema_summary()
        assert reopened.require_catalog().ddl_script() == store.require_catalog().ddl_script()
        assert len(reopened.dictionary) == len(store.dictionary)
        assert (reopened.dictionary.value_order_watermark
                == store.dictionary.value_order_watermark)
        left = store.storage_summary()
        right = reopened.storage_summary()
        for key in ("triples", "terms", "clustered", "tables", "foreign_keys",
                    "triple_coverage", "subject_coverage", "regular_fraction",
                    "irregular_triples"):
            assert left[key] == right[key], key

    def test_optimizer_behaves_identically(self, store, tmp_path):
        """The reopened store's plans — including cardinality estimates —
        must be byte-identical to the saved store's."""
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        for text in QUERIES:
            original = store.explain(text, PlannerOptions(scheme=OPTIMIZED_SCHEME))
            restored = reopened.explain(text, PlannerOptions(scheme=OPTIMIZED_SCHEME))
            assert restored == original, text

    def test_dirty_literals_round_trip(self, tmp_path):
        from repro.model import IRI, Literal, Triple
        nasty = [
            Literal('quote " backslash \\ tab \t'),
            Literal("newline\nand\rreturn"),
            Literal("unicode é中文   sep"),
            Literal("typed", datatype=f"{EX}custom"),
            Literal("tagged", language="en-GB"),
        ]
        triples = book_triples()
        for i, lit in enumerate(nasty):
            triples.append(Triple(IRI(f"{EX}book/{i}"), IRI(f"{EX}note"), lit))
        original = RDFStore.build(triples, config=_config())
        original.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        query = f"SELECT ?b ?n WHERE {{ ?b <{EX}note> ?n . }}"
        assert decoded(reopened, query) == decoded(original, query)

    def test_terms_no_reader_of_rdf_text_takes_round_trip(self, tmp_path):
        """The dictionary file is ``n3()`` and its exact inverse: terms the API
        built (or the lenient scanner before ``repro.model.syntax`` read from
        crawled N-Triples) that no reader of RDF text accepts any more."""
        from repro.model import BNode, IRI, Literal, Triple
        odd = [
            IRI("http://x/a b"), IRI("http://x/a<b>c\\d\re"), BNode("a/b"), BNode("-a "),
            Literal("x", language="en_US"), Literal("x", language="é--1"),
            Literal('q"\n', datatype="http://x/d t>"),
        ]
        triples = book_triples() + [Triple(IRI(f"{EX}book/{i}"), IRI(f"{EX}odd"), term)
                                    for i, term in enumerate(odd)]
        triples += [Triple(term, IRI(f"{EX}odd"), Literal("subject")) for term in odd[:4]]
        original = RDFStore.build(triples, config=_config())
        original.save(tmp_path / "db")
        # the format the parent commit wrote: one raw n3() per line
        dictionary_file = next((tmp_path / "db").glob(f"{GENERATION_PREFIX}*/dictionary.nt"))
        lines = dictionary_file.read_bytes().decode("utf-8").split("\n")
        assert {"<http://x/a b>", "_:a/b", '"x"@en_US'} <= set(lines)
        reopened = RDFStore.open(tmp_path / "db")
        assert list(reopened.dictionary.terms()) == list(original.dictionary.terms())
        query = f"SELECT ?b ?o WHERE {{ ?b <{EX}odd> ?o . }}"
        assert decoded(reopened, query) == decoded(original, query)

    def test_a_term_the_dictionary_file_cannot_hold_is_refused_at_save(self, store, tmp_path):
        from repro.model import IRI, Literal, Triple
        store.save(tmp_path / "db")
        broken = RDFStore.build(book_triples() + [
            Triple(IRI(f"{EX}line\nbreak"), IRI(f"{EX}note"), Literal("fine\nhere"))], config=_config())
        with pytest.raises(PersistenceError, match="line break"):
            broken.save(tmp_path / "db")
        with pytest.raises(PersistenceError, match="line break"):
            broken.save(tmp_path / "new")
        assert not (tmp_path / "new").exists()
        assert RDFStore.open(tmp_path / "db").triple_count() == store.triple_count()

    def test_dblp_round_trip(self, dblp_store, tmp_path):
        # write_snapshot (not save) keeps the shared session fixture detached
        write_snapshot(dblp_store, tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        from repro.bench.dblp import P_CREATOR, P_ISSUED, P_TITLE
        queries = [
            f"SELECT ?p ?t WHERE {{ ?p <{P_TITLE}> ?t . ?p <{P_ISSUED}> ?y . }}",
            f"SELECT ?p ?a WHERE {{ ?p <{P_CREATOR}> ?a . }}",
        ]
        assert_stores_equivalent(dblp_store, reopened, queries=queries, sql_queries=[])

    def test_rdfh_round_trip_with_zone_maps(self, rdfh_store, tmp_path):
        write_snapshot(rdfh_store, tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        queries = [q6_sparql(), star_lookup_sparql()]
        assert_stores_equivalent(rdfh_store, reopened, queries=queries, sql_queries=[])
        # the sub-ordering metadata that makes zone maps effective survives
        for block in rdfh_store.clustered_store.blocks:
            twin = reopened.clustered_store.block(block.cs_id)
            assert twin.sorted_properties == block.sorted_properties
            assert set(twin.zone_maps) == set(block.zone_maps)

    def test_reduced_schemas_survive(self, store, tmp_path):
        from repro.cs.summarize import SchemaSummary
        catalog = store.require_catalog()
        cs_ids = [table.cs_id for table in store.schema.tables_by_support()][:1]
        catalog.register_summary("core", SchemaSummary(table_ids=cs_ids, foreign_keys=[]))
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert (reopened.require_catalog().table_names("core")
                == catalog.table_names("core"))

    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    def test_reduced_schemas_survive_maintenance(self, store, tmp_path, pinned):
        """What a user registered survives every transition that keeps the
        tables it names — compaction and checkpoint, with or without a
        snapshot pinned across them — and is what
        ``save()`` → ``open()`` restores; re-discovery and reload, after
        which those tables are gone, drop it."""
        from repro.cs.summarize import SchemaSummary

        def register() -> list:
            cs_ids = [table.cs_id for table in store.schema.tables_by_support()][:1]
            return store.require_catalog().register_summary(
                "core", SchemaSummary(table_ids=cs_ids, foreign_keys=[]))

        registered = register()
        assert registered
        with store.snapshot() if pinned else nullcontext():
            catalog = store.catalog
            store.update(insert_book(1))
            store.compact()
            assert store.catalog is not catalog  # compaction installed a new one
            assert store.catalog.table_names("core") == registered
            store.save(tmp_path / "db")
            store.update(insert_book(2))
            store.checkpoint()
            assert store.catalog.table_names("core") == registered
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.catalog.table_names("core") == registered
        store.discover_schema()
        with pytest.raises(SchemaError, match="unknown reduced schema"):
            store.catalog.table_names("core")
        register()
        store.load(book_triples())
        assert store.catalog is None
        store.discover_schema()
        with pytest.raises(SchemaError, match="unknown reduced schema"):
            store.catalog.table_names("core")

    def test_unclustered_store_round_trip(self, tmp_path):
        original = RDFStore.build(book_triples(), config=_config(), cluster=False)
        original.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert not reopened.is_clustered
        assert decoded(reopened, QUERIES[0]) == decoded(original, QUERIES[0])


# -- lazy loading -------------------------------------------------------------


class TestLazyLoading:
    def test_nothing_materialized_at_open(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        stats = reopened.buffer_pool_stats()
        assert stats["lazy_segments_registered"] > 0
        assert stats["lazy_segments_materialized"] == 0
        assert all(not block.subject_column.is_materialized
                   for block in reopened.clustered_store.blocks)
        # the base matrix is lazy too, yet its row count is known
        assert not reopened._matrix.is_materialized
        assert reopened.triple_count() == store.triple_count()
        assert not reopened._matrix.is_materialized  # counting did not materialize
        # queries never need it; compaction does, and it loads on demand
        reopened.update(insert_book(1))
        reopened.compact()
        assert reopened.triple_count() == store.triple_count() + 4

    def test_first_scan_materializes_only_whats_needed(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        reopened.sparql(f"SELECT ?b WHERE {{ ?b <{EX}isbn_no> ?i . }}",
                        PlannerOptions(scheme=RDFSCAN_SCHEME))
        stats = reopened.buffer_pool_stats()
        assert 0 < stats["lazy_segments_materialized"] < stats["lazy_segments_registered"]
        assert stats["lazy_values_loaded"] > 0

    def test_materialization_is_not_charged_as_page_reads(self, tpch_tiny, tmp_path,
                                                          projection_sorts):
        """Cold-run accounting must match a freshly built store: loading a
        column from disk is bookkept separately from simulated page misses,
        and the access path does not depend on how the store came to be — the
        same projection per bound set, sorted on the same first read, hence
        the same counters and the same row sequence (no ``ORDER BY`` below)
        under every scheme."""
        built = build_rdfh_store(tpch_tiny)
        write_snapshot(built, tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        assert built.index_store.materialized_orders() == []  # a save sorts nothing
        assert reopened.index_store.materialized_orders() == []
        for bound in ACCESS_PATHS:
            assert (reopened.index_store.best_order(bound)
                    == built.index_store.best_order(bound)), bound
        queries = [
            f"SELECT ?s ?o WHERE {{ ?s <{P_L_QUANTITY}> ?o . }}",
            star_lookup_sparql(),
            f'SELECT ?l WHERE {{ ?l <{P_L_RETURNFLAG}> "R" . }}',
        ]
        sorts_before = projection_sorts()
        for text in queries:
            for scheme in (DEFAULT_SCHEME, RDFSCAN_SCHEME):
                options = PlannerOptions(scheme=scheme)
                built.reset_cold()
                fresh = built.sparql(text, options)
                reopened.reset_cold()
                again = reopened.sparql(text, options)
                assert again.cost.counters == fresh.cost.counters, (scheme, text)
                assert reopened.decode_rows(again) == built.decode_rows(fresh), \
                    (scheme, text)
                assert (reopened.storage_summary()["projections_materialized"]
                        == built.storage_summary()["projections_materialized"]), (scheme, text)
        # one sort per order per store, and the reopened store's came from
        # matrix.bin without materializing (or registering against) its own
        # base-matrix column: projections are no lazy segment of the pool
        made = built.storage_summary()["projections_materialized"]
        assert made and "ops" not in made
        sorts = projection_sorts()
        irregular = reopened.clustered_store.irregular  # a PSO table too; the save sorted built's
        assert {order: sorts[order] - sorts_before[order] for order in ORDERS} == {
            order: 2 * (order in made) + (order == irregular.order and irregular.is_materialized)
            for order in ORDERS}
        assert not reopened._matrix.is_materialized
        stats = reopened.buffer_pool_stats()
        assert stats["lazy_values_pending"] >= 3 * reopened.triple_count()
        assert stats["lazy_values_loaded"] < 3 * reopened.triple_count()
        assert built.buffer_pool_stats()["lazy_segments_registered"] == 0

    def test_a_compaction_keeps_the_kept_blocks_segments_pending(self, tpch_tiny, tmp_path):
        """A compaction keeps the blocks of tables no write touched, and a
        reopened store's kept blocks still load from disk: the pool keeps
        their unread values pending and forgets every segment the new
        structures no longer read."""
        write_snapshot(build_rdfh_store(tpch_tiny), tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        reopened.update(UpdateStream(tpch_tiny, 3).next_insert()[0])  # one cloned order
        before = {block.cs_id: block for block in reopened.clustered_store.blocks}
        reopened.compact()
        kept = [block for block in reopened.clustered_store.blocks
                if before.get(block.cs_id) is block]
        assert kept and len(kept) < len(before)  # Customer kept, Orders and Lineitem not
        columns = [column for block in kept
                   for column in (block.subject_column, *block.property_columns.values())]
        unread = sum(len(column) for column in columns if not column.is_materialized)
        assert unread > 0
        assert reopened.buffer_pool_stats()["lazy_values_pending"] == unread

    def test_save_sorts_nothing_and_stores_no_projection(self, store, tmp_path,
                                                         projection_sorts):
        store.sparql(QUERIES[1], PlannerOptions(scheme=DEFAULT_SCHEME))
        store.update(insert_book(1))  # base membership is an SPO probe
        store.clustered_store.irregular.raw()  # a table of its own, written in its PSO order
        before = store.storage_summary()["projections_materialized"]
        sorts = projection_sorts()
        assert before == ["pos", "spo"]
        info = store.save(tmp_path / "db")  # with a pending delta too
        assert store.storage_summary()["projections_materialized"] == before
        assert projection_sorts() == sorts
        assert not list((tmp_path / "db").rglob("hsp.*"))
        columns = {path.name for path in (tmp_path / "db" / info.generation / "columns").iterdir()}
        assert columns and all(name.startswith("clustered.") for name in columns)

    def test_explain_analyze_surfaces_buffer_stats(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        text = reopened.explain(QUERIES[0], analyze=True)
        assert "buffers:" in text
        assert "lazy_materialized=" in text

    def test_warm_and_cold_work_without_full_materialization(self, store, tmp_path):
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        reopened.warm()  # page pre-load must not force arrays off disk
        assert reopened.buffer_pool_stats()["cached_pages"] > 0
        reopened.reset_cold()
        assert reopened.buffer_pool_stats()["cached_pages"] == 0
        assert decoded(reopened, QUERIES[0]) == decoded(store, QUERIES[0])


# -- WAL durability and crash recovery ---------------------------------------


class TestWriteAheadLog:
    def test_updates_append_to_attached_wal(self, store, tmp_path):
        store.save(tmp_path / "db")
        wal = WriteAheadLog.open(wal_path(tmp_path / "db"))
        assert wal.record_count() == 0
        store.update(insert_book(1))
        store.update(f"DELETE DATA {{ <{EX}book/1> <{EX}isbn_no> \"isbn-0001\" . }}")
        assert WriteAheadLog.open(wal_path(tmp_path / "db")).record_count() == 2

    def test_noop_updates_are_not_logged(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(f"DELETE DATA {{ <{EX}no/such> <{EX}p> <{EX}o> . }}")
        assert WriteAheadLog.open(wal_path(tmp_path / "db")).record_count() == 0

    def test_reopen_replays_pending_updates(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        store.update(insert_book(2, year=1993))
        store.update(f"DELETE WHERE {{ ?b <{EX}in_year> \"1993\"^^<{XSD_INT}> . }}")
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.has_pending_updates()
        assert_stores_equivalent(store, reopened)

    def test_replay_publishes_one_version(self, store, tmp_path, monkeypatch):
        """No reader sees a store open() is still assembling, so its
        replayed records publish one version between them, not one each."""
        store.save(tmp_path / "db")
        for i in range(1, 6):
            store.update(insert_book(i))
        store.update(f"DELETE WHERE {{ <{EX}book/2> ?p ?o . }}")
        published = []
        publish = SnapshotRegistry.publish

        def counting_publish(registry, version):
            published.append(version.key)
            publish(registry, version)

        monkeypatch.setattr(SnapshotRegistry, "publish", counting_publish)
        reopened = RDFStore.open(tmp_path / "db")
        assert len(published) == 2  # the base on open, then the replayed delta
        assert published[-1] == (reopened.generation, reopened.delta.version)
        assert_stores_equivalent(store, reopened)

    def test_save_with_pending_updates_seeds_the_wal(self, store, tmp_path):
        store.update(insert_book(7))
        info = store.save(tmp_path / "db")
        assert info.pending_updates_logged == 1
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.has_pending_updates()
        assert_stores_equivalent(store, reopened)

    def test_failed_compaction_keeps_the_journal(self, store, tmp_path, monkeypatch):
        """If compaction dies midway, the journal must still hold the
        acknowledged texts so a later save() seeds them into the WAL."""
        import repro.updates.compaction as compaction_mod
        store.save(tmp_path / "db1")
        store.update(insert_book(1))

        def _boom(base, delta):
            raise MemoryError("simulated mid-compaction failure")

        monkeypatch.setattr(compaction_mod, "merge_matrices", _boom)
        with pytest.raises(MemoryError):
            store.compact()
        monkeypatch.undo()
        assert len(store.journal) == 1  # acknowledged update still journaled
        info = store.save(tmp_path / "db2")
        assert info.pending_updates_logged == 1
        reopened = RDFStore.open(tmp_path / "db2")
        assert_stores_equivalent(store, reopened)

    def test_net_zero_updates_do_not_survive_compaction_in_the_journal(self, store, tmp_path):
        """Insert-then-delete cancels out; after a (no-op) compact, a save
        must not re-seed the dead request texts into the fresh WAL."""
        triple = f"<{EX}book/tmp> <{EX}isbn_no> \"isbn-tmp\" ."
        store.update(f"INSERT DATA {{ {triple} }}")
        store.update(f"DELETE DATA {{ {triple} }}")
        assert not store.has_pending_updates()
        report = store.compact()
        assert report.merged_inserts == 0
        info = store.save(tmp_path / "db")
        assert info.pending_updates_logged == 0
        assert WriteAheadLog.open(wal_path(tmp_path / "db")).record_count() == 0

    def test_replay_survives_compaction_oid_remapping(self, store, tmp_path):
        """Logical (text) records stay valid even though compaction re-maps
        literal OIDs: replay against the older on-disk base is equivalent."""
        store.save(tmp_path / "db")
        store.update(insert_book(1, year=2040))  # new literal, post-watermark
        store.compact()                          # re-maps it into value order
        store.update(insert_book(2, year=2041))
        reopened = RDFStore.open(tmp_path / "db")
        assert_stores_equivalent(store, reopened)


class TestCrashRecovery:
    def _updates(self):
        return [
            insert_book(1),
            insert_book(2, year=1993),
            f"DELETE DATA {{ <{EX}book/2> <{EX}isbn_no> \"isbn-0002\" . }}",
            insert_book(3, author=4),
            f"DELETE WHERE {{ ?b <{EX}in_year> \"1993\"^^<{XSD_INT}> . }}",
            insert_book(4, year=2012),
        ]

    def test_truncation_at_every_record_boundary_matches_oracle(self, tmp_path):
        """Chop the WAL at arbitrary points; the reopened store must equal a
        fresh build that applied exactly the surviving record prefix."""
        base = RDFStore.build(book_triples(), config=_config())
        base.save(tmp_path / "db")
        log_path = wal_path(tmp_path / "db")
        offsets = [log_path.stat().st_size]  # end offset after k records
        for text in self._updates():
            base.update(text)
            offsets.append(log_path.stat().st_size)
        full = log_path.read_bytes()

        # cut exactly at, just before and just after every record boundary
        cut_points = set()
        for k, offset in enumerate(offsets):
            cut_points.update({offset, offset - 3, offset + 5})
        cut_points = sorted(p for p in cut_points
                            if offsets[0] <= p <= offsets[-1])

        for cut in cut_points:
            log_path.write_bytes(full[:cut])
            survivors = sum(1 for end in offsets[1:] if end <= cut)
            oracle = RDFStore.build(book_triples(), config=_config())
            for text in self._updates()[:survivors]:
                oracle.update(text)
            reopened = RDFStore.open(tmp_path / "db")
            assert_stores_equivalent(oracle, reopened, sql_queries=[]), cut
        log_path.write_bytes(full)

    def test_corrupt_record_ends_replay_at_the_tear(self, tmp_path):
        base = RDFStore.build(book_triples(), config=_config())
        base.save(tmp_path / "db")
        for text in self._updates()[:3]:
            base.update(text)
        log_path = wal_path(tmp_path / "db")
        raw = bytearray(log_path.read_bytes())
        raw[-10] ^= 0xFF  # flip a byte inside the last record's payload
        log_path.write_bytes(bytes(raw))
        assert WriteAheadLog.open(log_path).record_count() == 2
        oracle = RDFStore.build(book_triples(), config=_config())
        for text in self._updates()[:2]:
            oracle.update(text)
        reopened = RDFStore.open(tmp_path / "db")
        assert_stores_equivalent(oracle, reopened, sql_queries=[])

    def test_torn_tail_is_truncated_so_later_appends_survive(self, store, tmp_path):
        """A record appended after crash recovery must never hide behind the
        torn tail: open() truncates the garbage, so the next replay sees it."""
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        store.update(insert_book(2))
        log_path = wal_path(tmp_path / "db")
        full = log_path.read_bytes()
        log_path.write_bytes(full[:-7])  # tear the second record

        recovered = RDFStore.open(tmp_path / "db")  # replays 1, truncates tear
        assert recovered.delta.insert_count() == 4  # one book = 4 triples
        recovered.update(insert_book(3))            # appended post-recovery

        again = RDFStore.open(tmp_path / "db")
        assert again.delta.insert_count() == 8      # books 1 and 3
        assert_stores_equivalent(recovered, again, sql_queries=[])

    def test_wal_append_failure_rolls_the_update_back(self, store, tmp_path, monkeypatch):
        """If the WAL append fails, the request must fail atomically — no
        applied-but-unlogged update a crash would silently lose."""
        store.save(tmp_path / "db")

        def _disk_full(self, text):
            raise PersistenceError("cannot append to WAL: disk full")

        monkeypatch.setattr(WriteAheadLog, "append", _disk_full)
        with pytest.raises(PersistenceError, match="disk full"):
            store.update(insert_book(1))
        assert not store.has_pending_updates()
        assert len(store.journal) == 0  # a later save() must not replay it

    def test_generation_retention_across_checkpoints(self, store, tmp_path):
        """The previous published generation is retained one cycle (open
        handles may still lazily read it); older ones are removed."""
        def generations():
            return {d.name for d in (tmp_path / "db").iterdir()
                    if d.is_dir() and d.name.startswith(GENERATION_PREFIX)}

        info_a = store.save(tmp_path / "db")
        held_open = RDFStore.open(tmp_path / "db")  # lazy loaders into gen A
        answers_at_a = decoded(store, QUERIES[0])
        store.update(insert_book(1))
        info_b = store.checkpoint()
        assert generations() == {info_a.generation, info_b.snapshot.generation}
        # the handle opened against generation A keeps answering (its
        # snapshot view: the state as of generation A)
        assert decoded(held_open, QUERIES[0]) == answers_at_a
        store.update(insert_book(2))
        info_c = store.checkpoint()
        assert generations() == {info_b.snapshot.generation,
                                 info_c.snapshot.generation}
        reopened = RDFStore.open(tmp_path / "db")
        assert_stores_equivalent(store, reopened)

    def test_a_store_outlives_the_generation_it_was_opened_from(self, store, tmp_path):
        """Two saves remove the generation a store was opened from; a
        projection it first reads after that sorts the matrix the saves left
        resident, not a file that is gone."""
        store.save(tmp_path / "db")
        reopened = RDFStore.open(tmp_path / "db")
        opened_from = next((tmp_path / "db").glob("gen-*"))
        reopened.checkpoint()
        reopened.checkpoint()  # nothing pending either time: no rebuild in between
        assert not opened_from.exists()
        assert reopened.index_store.materialized_orders() == []
        assert_stores_equivalent(store, reopened)
        assert reopened.index_store.materialized_orders() != []

    def test_concurrent_wal_appends_never_destroy_each_other(self, store, tmp_path):
        """Two handles on one database degrade to interleaved appends — an
        acknowledged record is never truncated away by a stale handle."""
        store.save(tmp_path / "db")
        a = RDFStore.open(tmp_path / "db")
        b = RDFStore.open(tmp_path / "db")
        a.update(insert_book(1))
        b.update(insert_book(2))  # b's handle is stale; must adopt a's record
        a.update(insert_book(3))
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.delta.insert_count() == 12  # all three books, 4 triples each

    def test_append_after_failed_append_is_not_hidden_by_torn_bytes(self, store, tmp_path):
        """A partial record left by a *failed* append must not swallow the
        next acknowledged record: append() truncates to the last intact
        offset before writing."""
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        log_path = wal_path(tmp_path / "db")
        # simulate a torn in-place append: garbage past the last intact record
        with open(log_path, "ab") as sink:
            sink.write(b"WREC\x99\x00\x00\x00partial-garbage")
        store.update(insert_book(2))  # same handle, appends over the garbage
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.delta.insert_count() == 8  # both books replayed
        assert_stores_equivalent(store, reopened, sql_queries=[])

    def test_interrupted_first_save_is_retryable(self, store, tmp_path):
        """Generation debris without a manifest (a failed first save) must
        not wedge the directory; foreign files still must."""
        (tmp_path / "db" / "gen-deadbeef0000" / "columns").mkdir(parents=True)
        (tmp_path / "db" / "gen-deadbeef0000" / "matrix.bin").write_bytes(b"partial")
        store.save(tmp_path / "db")  # reclaims the debris
        reopened = RDFStore.open(tmp_path / "db")
        assert_stores_equivalent(store, reopened)
        assert not (tmp_path / "db" / "gen-deadbeef0000").exists()

    def test_wal_epoch_mismatch_is_refused(self, store, tmp_path):
        store.save(tmp_path / "a")
        store.save(tmp_path / "b")
        wal_path(tmp_path / "a").write_bytes(wal_path(tmp_path / "b").read_bytes())
        with pytest.raises(PersistenceError, match="epoch"):
            RDFStore.open(tmp_path / "a")

    def test_missing_wal_is_refused(self, store, tmp_path):
        store.save(tmp_path / "db")
        wal_path(tmp_path / "db").unlink()
        with pytest.raises(PersistenceError, match="WAL"):
            RDFStore.open(tmp_path / "db")


# -- corruption and format validation ----------------------------------------


def _rewrite_as_v2(root, store):
    """Turn the live generation of a database this tree wrote into what
    format v2 wrote: the six sorted projections as files, listed in the
    manifest.  Returns the generation directory."""
    manifest_path = root / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    generation = root / manifest["generation"]
    matrix = read_array(generation / "matrix.bin")
    orders = {}
    for order in ("spo", "sop", "pso", "pos", "osp", "ops"):
        keys = [matrix[:, "spo".index(c)] for c in reversed(order)]
        crc = write_array(generation / "columns" / f"hsp.{order}.bin", matrix[np.lexsort(keys)])
        orders[order] = {"file": f"hsp.{order}.bin", "rows": len(matrix), "crc": crc}
    manifest["index"]["orders"] = orders
    manifest["format_version"] = 2
    manifest_path.write_text(json.dumps(manifest))
    return generation



class TestFormatValidation:
    def test_corrupt_column_file_detected_on_first_scan(self, store, tmp_path):
        store.save(tmp_path / "db")
        victim = next((tmp_path / "db").glob("gen-*/columns/clustered.cs*.p*.bin"))
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        reopened = RDFStore.open(tmp_path / "db")  # lazy: open itself succeeds
        with pytest.raises(PersistenceError, match="checksum|corrupt"):
            for text in QUERIES:
                for options in SCHEMES:
                    reopened.sparql(text, options)

    def test_corrupt_dictionary_file_is_refused_at_open(self, store, tmp_path):
        store.save(tmp_path / "db")
        victim = next((tmp_path / "db").glob("gen-*/dictionary.nt"))
        victim.write_bytes(b"\xff not a dictionary \xff")
        with pytest.raises(PersistenceError):
            RDFStore.open(tmp_path / "db")

    def test_unsupported_format_version(self, store, tmp_path):
        store.save(tmp_path / "db")
        manifest_path = tmp_path / "db" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="v99"):
            RDFStore.open(tmp_path / "db")

    def test_not_a_database_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="MANIFEST"):
            RDFStore.open(tmp_path)

    def test_save_refuses_foreign_directory(self, store, tmp_path):
        (tmp_path / "precious.txt").write_text("do not clobber")
        with pytest.raises(PersistenceError, match="refusing"):
            store.save(tmp_path)
        assert (tmp_path / "precious.txt").read_text() == "do not clobber"

    def test_manifest_written_last_and_atomically(self, store, tmp_path):
        store.save(tmp_path / "db")
        assert not (tmp_path / "db" / (MANIFEST_FILE + ".tmp")).exists()
        reader = SnapshotReader(tmp_path / "db")
        assert reader.manifest["triples"] == store.triple_count()


    def test_manifests_from_before_the_knobs_went_still_open(self, store, tmp_path):
        """``"index": null`` (what a store saved before its first build, or
        one that had the exhaustive indexes switched off, used to write)
        opens with an index store like any other — there is no unbuilt
        store; the retired keys — five config knobs, the plan cache's own
        generation and the WAL seed count that restored it — are ignored and
        no longer written."""
        # (a) saved straight after load(): no schema, no clustered store
        bare = RDFStore(_config())
        bare.load(book_triples())
        assert bare.index_store is not None and len(bare.index_store) == bare.triple_count()
        bare.save(tmp_path / "bare")
        manifest_path = tmp_path / "bare" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest["index"]) == {"name", "predicate_counts"}
        assert manifest["clustered_store"] is None
        assert set(manifest["config"]) == {"page_size", "zone_size"}
        manifest["index"] = None  # as the parent wrote it
        manifest_path.write_text(json.dumps(manifest))
        bare.update(insert_book(1))  # replayed at open, before any read
        reopened = RDFStore.open(tmp_path / "bare")
        assert reopened.has_pending_updates()
        assert reopened.index_store is not None
        assert reopened.index_store.predicate_counts() == bare.index_store.predicate_counts()
        assert_stores_equivalent(bare, reopened, sql_queries=[])

        # (b) hand-edited the way a parent store with the knob off wrote it:
        # a clustered store but no index, and the retired keys still there
        store.save(tmp_path / "db")
        manifest_path = tmp_path / "db" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        assert not {"plan_cache_generation", "wal_seeded_records"} & set(manifest)
        manifest["index"] = None
        manifest["config"].update(build_exhaustive_indexes=False, build_zone_maps=True,
                                  buffer_pool_pages=16, plan_cache_size=0,
                                  cost_model={"page_read_seconds": 1.0})
        manifest.update(plan_cache_generation=7, wal_seeded_records=0)
        manifest_path.write_text(json.dumps(manifest))
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.is_clustered and reopened.index_store is not None
        assert reopened.plan_cache.capacity == store.plan_cache.capacity > 0
        assert reopened.pool.capacity_pages == store.pool.capacity_pages > 16
        assert reopened.context().index_store is reopened.index_store
        assert_stores_equivalent(store, reopened)

    def test_format_v2_databases_still_open(self, store, tmp_path):
        """Format v2 stored the six sorted projections as ``hsp.<order>.bin``
        and listed them under ``index.orders``; v3 stores nothing that is a
        sort of the matrix.  A v2 directory opens (the entries are ignored,
        projections are sorted from ``matrix.bin``), answers, and its files
        leave with the generation, at the second save after it."""
        info = store.save(tmp_path / "db")
        legacy_generation = _rewrite_as_v2(tmp_path / "db", store)
        assert len(list(legacy_generation.glob("columns/hsp.*.bin"))) == 6

        legacy = RDFStore.open(tmp_path / "db")
        assert legacy.index_store.materialized_orders() == []
        assert_stores_equivalent(store, legacy)
        legacy.update(insert_book(1))
        legacy.checkpoint()   # first save after it: the v2 generation is kept one cycle
        assert len(list((tmp_path / "db").glob("gen-*/columns/hsp.*"))) == 6
        legacy.update(insert_book(2))
        legacy.checkpoint()   # second save: it goes, and the projection files with it
        assert not legacy_generation.exists()
        assert not list((tmp_path / "db").rglob("hsp.*"))
        manifest = json.loads((tmp_path / "db" / MANIFEST_FILE).read_text())
        assert manifest["format_version"] == 3 and "orders" not in manifest["index"]
        assert info.generation != manifest["generation"]
        assert_stores_equivalent(legacy, RDFStore.open(tmp_path / "db"))

    def test_format_v1_databases_still_open(self, rdfh_store, tmp_path):
        """Format v1 listed each table's ``subjects`` (and the irregular ones)
        inside ``schema.json``, had no membership file and, like v2, stored
        the projections; only v3 is written, all three are read."""
        write_snapshot(rdfh_store, tmp_path / "db")
        manifest_path = tmp_path / "db" / MANIFEST_FILE
        assert json.loads(manifest_path.read_text())["format_version"] == 3
        current = RDFStore.open(tmp_path / "db")
        generation = _rewrite_as_v2(tmp_path / "db", rdfh_store)
        manifest = json.loads(manifest_path.read_text())

        # rewrite the generation by hand into the v1 layout
        subjects, cs_ids = read_array(generation / MEMBERSHIP_FILE)
        payload = json.loads((generation / SCHEMA_FILE).read_text())
        for table in payload["tables"]:
            table["subjects"] = subjects[cs_ids == table["cs_id"]].tolist()
        payload["irregular_subjects"] = [10 ** 9]  # never read: irregularity is derived
        text = json.dumps(payload, indent=2, sort_keys=True)
        (generation / SCHEMA_FILE).write_text(text)
        (generation / MEMBERSHIP_FILE).unlink()
        manifest["schema"] = {"file": SCHEMA_FILE, "crc": zlib.crc32(text.encode("utf-8"))}
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))

        legacy = RDFStore.open(tmp_path / "db")
        assert legacy.schema.membership.subjects.tolist() == subjects.tolist()
        assert legacy.schema.membership.cs_ids.tolist() == cs_ids.tolist()
        assert_stores_equivalent(current, legacy, queries=[q3_sparql(), q6_sparql()],
                                 sql_queries=[])
        assert_stores_equivalent(rdfh_store, legacy, queries=[q3_sparql(), q6_sparql()],
                                 sql_queries=[])
        legacy.save(tmp_path / "resaved")
        resaved = json.loads((tmp_path / "resaved" / MANIFEST_FILE).read_text())
        assert resaved["format_version"] == 3 and "membership" in resaved["schema"]
        assert not list((tmp_path / "resaved").rglob("hsp.*"))

    @pytest.mark.parametrize("damage, complaint", [
        ("truncated", "data bytes"), ("unsorted", "ascending"), ("unknown_table", "table")])
    def test_damaged_membership_file_is_refused(self, store, tmp_path, damage, complaint):
        store.save(tmp_path / "db")
        manifest_path = tmp_path / "db" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        path = tmp_path / "db" / manifest["generation"] / MEMBERSHIP_FILE
        pairs = read_array(path)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            if damage == "unsorted":
                pairs[0, :2] = pairs[0, 1::-1]
            else:
                pairs[1, -1] = 99
            manifest["schema"]["membership"]["crc"] = write_array(path, pairs)
            manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=complaint):
            RDFStore.open(tmp_path / "db")

    def test_schema_json_does_not_grow_with_subjects(self, rdfh_store, tmp_path):
        """``schema.json`` is O(tables); who belongs where is the array file."""
        sizes = []
        larger = build_rdfh_store(generate_tpch(TpchConfig(scale_factor=0.0008)))
        for name, rdfh in (("small", rdfh_store), ("large", larger)):
            info = write_snapshot(rdfh, tmp_path / name)
            generation = tmp_path / name / info.generation
            members = len(rdfh.schema.membership)
            assert (generation / MEMBERSHIP_FILE).stat().st_size == 32 + 2 * 8 * members
            sizes.append(((generation / SCHEMA_FILE).stat().st_size, members))
        (small_bytes, small_members), (large_bytes, large_members) = sizes
        assert large_members > 2 * small_members
        # same tables and specs; only the digits of support / coverage differ
        assert abs(large_bytes - small_bytes) <= 32 and large_bytes < 10_000


# -- typed pending-updates errors ---------------------------------------------


class TestPendingUpdatesErrors:
    def test_load_raises_typed_error(self, store):
        store.update(insert_book(1))
        with pytest.raises(PendingUpdatesError, match="compact"):
            store.load(book_triples())

    def test_cluster_raises_typed_error(self, store):
        store.update(insert_book(1))
        with pytest.raises(PendingUpdatesError, match="compact"):
            store.cluster()

    def test_typed_error_is_a_storage_error(self):
        assert issubclass(PendingUpdatesError, StorageError)
        assert issubclass(PersistenceError, StorageError)


# -- checkpoint lifecycle -----------------------------------------------------


class TestCheckpoint:
    def test_checkpoint_compacts_snapshots_and_truncates(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        store.update(insert_book(2))
        report = store.checkpoint()
        assert isinstance(report, CheckpointReport)
        assert report.compaction.merged_inserts > 0
        assert not store.has_pending_updates()
        assert WriteAheadLog.open(wal_path(tmp_path / "db")).record_count() == 0
        reopened = RDFStore.open(tmp_path / "db")
        assert not reopened.has_pending_updates()
        assert_stores_equivalent(store, reopened)

    def test_checkpoint_requires_attachment_or_path(self, store, tmp_path):
        with pytest.raises(PersistenceError, match="not attached"):
            store.checkpoint()
        store.update(insert_book(1))
        report = store.checkpoint(tmp_path / "db")
        assert report.snapshot.pending_updates_logged == 0
        assert store.db_path == tmp_path / "db"

    def test_load_detaches_the_database(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.load(book_triples(books=5))
        assert store.db_path is None
        store.discover_schema()
        store.cluster()
        store.update(insert_book(9))  # must not try to touch the old WAL
        assert WriteAheadLog.open(wal_path(tmp_path / "db")).record_count() == 0

    def test_updates_after_checkpoint_keep_flowing_to_the_new_wal(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(insert_book(1))
        store.checkpoint()
        store.update(insert_book(2))
        reopened = RDFStore.open(tmp_path / "db")
        assert reopened.has_pending_updates()
        assert_stores_equivalent(store, reopened)


# -- crash points of a checkpoint ----------------------------------------------


_CHECKPOINT_IO = ("write_array", "write_text", "write_json_atomic", "fsync_dir",
                  "copy_append_text")
"""Every durable step a checkpoint's save takes: each array and text file,
the manifest's atomic replace, each directory fsync, and the copy of the
previous generation's dictionary file with the new terms appended."""

CRASH_QUERIES = [
    f"SELECT ?b ?y WHERE {{ ?b <{EX}in_year> ?y . FILTER(?y >= 2002) }}",
    f"SELECT ?b ?a ?i WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}",
    f"SELECT ?b ?n WHERE {{ ?b <{EX}has_author> ?a . ?a <{EX}name> ?n . "
    f"?b <{EX}in_year> ?y . FILTER(?y > 2003) }}",
]


def _failing_io(monkeypatch, fail_at: int) -> dict:
    """Make the ``fail_at``-th checkpoint I/O call (1-based; 0: none) raise
    ``OSError`` — a crash at that point; returns the per-step call counts."""
    counts = dict.fromkeys(_CHECKPOINT_IO, 0)

    def failing(name, real):
        def step(*args, **kwargs):
            counts[name] += 1
            if sum(counts.values()) == fail_at:
                raise OSError(f"injected failure in {name} (call {fail_at})")
            return real(*args, **kwargs)
        return step

    for name in _CHECKPOINT_IO:
        monkeypatch.setattr(snapshot_module, name, failing(name, getattr(snapshot_module, name)))
    return counts


def _answers(store: RDFStore) -> list:
    return [decoded(store, text) for text in CRASH_QUERIES]


def test_a_checkpoint_that_fails_at_any_step_reopens_to_every_acknowledged_update(
        tmp_path, monkeypatch):
    """Crash-point sweep: for every k, the k-th durable step of a checkpoint
    fails.  The database must open, holding the acknowledged updates — the
    old generation replays its WAL, or the new one published them."""
    seed = tmp_path / "seed"
    store = RDFStore.build(book_triples(), config=_config())
    store.save(seed)
    store.update(insert_book(1, year=2005))
    store.checkpoint()  # leaves a literal tail: the next checkpoint appends
    updates = [insert_book(2, year=2006, author=3),
               f'DELETE DATA {{ <{EX}book/7> <{EX}isbn_no> "isbn-0007" . }}',
               insert_book(3, year=2004)]

    def crash_at(k: int):
        db = tmp_path / f"crash{k}"
        shutil.copytree(seed, db)
        live = RDFStore.open(db)
        for text in updates:
            live.update(text)
        with monkeypatch.context() as patch:
            counts = _failing_io(patch, k)
            if k:
                with pytest.raises(OSError, match="injected"):
                    live.checkpoint()
            else:
                live.checkpoint()
        return db, live, counts

    db, live, counts = crash_at(0)
    steps = sum(counts.values())
    assert counts["copy_append_text"] == 1 and steps > 20, counts
    oracle = RDFStore.build(live_triples(live), config=_config())
    expected, expected_count = _answers(oracle), oracle.live_triple_count()
    assert expected_count == live.live_triple_count()
    assert _answers(RDFStore.open(db)) == expected
    for k in range(1, steps + 1):
        db, _live, counts = crash_at(k)
        reopened = RDFStore.open(db)
        assert reopened.live_triple_count() == expected_count, (k, counts)
        assert _answers(reopened) == expected, (k, counts)

