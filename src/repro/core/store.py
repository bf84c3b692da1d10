"""The :class:`RDFStore` facade: the library's main entry point.

A store is built in the order the paper's architecture prescribes:

1. :meth:`RDFStore.load` — parse / accept triples, dictionary-encode them
   (parse order), value-order the literal OIDs;
2. :meth:`RDFStore.discover_schema` — run characteristic-set discovery;
3. :meth:`RDFStore.cluster` — re-assign subject OIDs by CS (subject
   clustering), build the clustered store with optional zone maps;
4. query — :meth:`RDFStore.sparql` (Default or RDFscan/RDFjoin scheme)
   and :meth:`RDFStore.sql` over the emergent
   relational view.

``RDFStore.build(...)`` runs the whole pipeline in one call.  The store also
exposes cold/hot buffer-pool control so experiments can reproduce the
cold-vs-hot columns of Table I, an LRU plan cache so repeated queries skip
parse + plan, and :meth:`RDFStore.explain` to inspect plans with estimated
vs. actual cardinalities.

The store is writable after building: :meth:`RDFStore.update` executes
SPARQL Update requests (``INSERT DATA`` / ``DELETE DATA`` / ``DELETE
WHERE``) against a :class:`~repro.updates.DeltaStore` overlay, every access
path merges ``base ∪ delta − tombstones``, and :meth:`RDFStore.compact`
folds the accumulated delta back into the clustered base storage with
incremental emergent-schema maintenance (see ``docs/updates.md``).

The store is also durable: :meth:`RDFStore.save` serializes the whole
physical organization to a versioned on-disk database directory,
:meth:`RDFStore.open` reopens it *without* re-running discovery or
clustering (columns materialize lazily on first scan), every update on an
attached store is written ahead to a crash-tolerant log, and
:meth:`RDFStore.checkpoint` compacts + snapshots + truncates that log
(see ``docs/persistence.md``).

Finally, the store is safe under concurrent access: writers serialize on
one writer mutex, and readers — direct calls and MVCC snapshots
(:meth:`RDFStore.snapshot`, :meth:`RDFStore.session`) alike — read only
committed, immutable versions that stay consistent and decodable across
concurrent updates, compactions and checkpoints.  Each update request's
atomicity comes from a per-request undo log whose cost is proportional to
the keys the request touched, never to the number of pending writes
(see ``docs/concurrency.md`` and :mod:`repro.server`).

Each fact about a store version has one owner here.  Every transition that
changes what readers see — ``update``, ``load``, ``discover_schema``,
``cluster``, ``compact``, ``open`` — replaces base objects instead of
editing them and ends in :meth:`RDFStore._publish`, which moves the
``(generation, delta.version)`` pair and publishes the committed version
record every read runs against; cached plans are keyed by the generation
and whether writes are pending, and nothing is invalidated, cleared or
counted.  A schema becomes the store's —
and its SQL catalog, with the reduced schemas registered on the previous
one — in :meth:`RDFStore._install_schema` only, and the on-disk manifest is
read in :mod:`repro.persist` only.
"""

from __future__ import annotations

import os
import threading
import time

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..columnar import BufferPool, Column, CostModel
from ..cs import DiscoveryConfig, EmergentSchema, discover_schema
from ..engine import ExecutionContext
from ..errors import (
    PendingUpdatesError,
    PersistenceError,
    QueryCancelledError,
    ReproError,
    StorageError,
)
from ..model import Graph, IRI, TermDictionary, Triple
from ..obs import (
    ActiveQueryRegistry,
    EventLog,
    MetricsRegistry,
    QueryObserver,
    QueryTrace,
    SlowQueryLog,
    default_registry,
)
from ..persist import DictionaryFile, SnapshotInfo, SnapshotReader, write_snapshot
from ..rio import parse_rdf
from ..server import ReadSnapshot, SnapshotRegistry, StoreSession
from ..server.session import StoreVersion
from ..planner import PlanCache, PlannerOptions, QueryEngine, QueryResult
from ..sparql import parse_update
from ..sql import Catalog
from ..storage import (
    ClusteredStore,
    ClusteringPlan,
    ExhaustiveIndexStore,
    cluster_subjects,
    encode_graph,
    value_order_literals,
)
from ..updates import (
    CompactionReport,
    DeltaStore,
    UpdateApplier,
    UpdateJournal,
    UpdateResult,
    compact_store,
)


@dataclass
class StoreConfig:
    """Configuration of an :class:`RDFStore`.

    Attributes:
        discovery: characteristic-set discovery thresholds.
        buffer_pool_pages: capacity of the simulated buffer pool.
        page_size: simulated page size in values.
        zone_size: rows per zone in the clustered store's zone maps (every
            aligned column gets one, and a star scan prunes a ranged column
            by it; :attr:`PlannerOptions.use_zone_maps` switches only the
            planner's cross-FK push-down).
        cost_model: counters-to-seconds conversion (the simulated time
            of Table I); no plan is chosen by it.
        plan_cache_size: entries kept in the LRU plan cache (0 disables
            caching).
        batch_size: rows per batch flowing between physical operators.
            Size 1 degenerates to row-at-a-time execution (kept as a
            differential-testing oracle); the default comes from the
            ``REPRO_BATCH_SIZE`` environment variable, falling back to
            1024.  A runtime tuning knob, not part of the on-disk layout.
        slow_query_seconds: queries at or above this wall time land in the
            store's slow-query log (see :meth:`RDFStore.slow_queries`).
        event_log_path: optional file the structured event log (see
            :meth:`RDFStore.events`) also appends to, one JSON line per
            event (``None`` keeps events in memory only).
        profile_memory: also sample per-operator allocation peaks with
            ``tracemalloc`` when a query is profiled (an order of magnitude
            of overhead — strictly a debugging switch).
    """

    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    buffer_pool_pages: int = 1 << 20
    page_size: int = 1024
    zone_size: int = 1024
    cost_model: CostModel = field(default_factory=CostModel)
    plan_cache_size: int = 128
    batch_size: int = field(
        default_factory=lambda: int(os.environ.get("REPRO_BATCH_SIZE", "1024")))
    slow_query_seconds: float = 0.25
    event_log_path: Optional[Path | str] = None
    profile_memory: bool = False

    def __post_init__(self) -> None:
        """Validate eagerly so misconfiguration fails at construction, not
        deep inside ``build()``."""
        if not isinstance(self.buffer_pool_pages, int) or self.buffer_pool_pages < 1:
            raise StorageError(
                f"buffer_pool_pages must be a positive integer, got {self.buffer_pool_pages!r}")
        if not isinstance(self.page_size, int) or self.page_size < 1:
            raise StorageError(
                f"page_size must be a positive integer, got {self.page_size!r}")
        if not isinstance(self.zone_size, int) or self.zone_size < 1:
            raise StorageError(
                f"zone_size must be a positive integer, got {self.zone_size!r}")
        if not isinstance(self.plan_cache_size, int) or self.plan_cache_size < 0:
            raise StorageError(
                f"plan_cache_size must be a non-negative integer (0 disables caching), "
                f"got {self.plan_cache_size!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise StorageError(
                f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not isinstance(self.slow_query_seconds, (int, float)) or self.slow_query_seconds < 0:
            raise StorageError(
                f"slow_query_seconds must be a non-negative number, "
                f"got {self.slow_query_seconds!r}")
        if not isinstance(self.profile_memory, bool):
            raise StorageError(
                f"profile_memory must be a bool, got {self.profile_memory!r}")


@dataclass(frozen=True)
class CheckpointReport:
    """Outcome of one :meth:`RDFStore.checkpoint`: compaction + snapshot."""

    compaction: CompactionReport
    snapshot: SnapshotInfo

    def describe(self) -> str:
        return (f"checkpoint: {self.compaction.describe()}; snapshot at "
                f"{self.snapshot.path} ({self.snapshot.triples} triples, "
                f"{self.snapshot.files} files, {self.snapshot.data_bytes} bytes)")


class RDFStore:
    """Self-organizing RDF store: triples in, SQL/SPARQL out."""

    def __init__(self, config: Optional[StoreConfig] = None) -> None:
        self.config = config or StoreConfig()
        self.dictionary = TermDictionary()
        self.matrix = np.empty((0, 3), dtype=np.int64)
        self.pool = BufferPool(capacity_pages=self.config.buffer_pool_pages,
                               page_size=self.config.page_size)
        self.schema: Optional[EmergentSchema] = None
        self.index_store = ExhaustiveIndexStore(self.matrix, pool=self.pool)
        """The triple projections of the current matrix.  One exists whenever a
        matrix does: it costs nothing until a pattern first reads an order."""
        self.clustered_store: Optional[ClusteredStore] = None
        self.clustering_plan: Optional[ClusteringPlan] = None
        self.catalog: Optional[Catalog] = None
        self.plan_cache = PlanCache(capacity=self.config.plan_cache_size)
        self.delta = DeltaStore(pool=self.pool)
        self.journal = UpdateJournal()
        self.db_path: Optional[Path] = None
        self.dictionary_file: Optional[DictionaryFile] = None
        """The dictionary file the last save or open wrote or read, and for
        which dictionary: while no OID moves, the next save copies it and
        appends the terms added since."""
        self.generation = 0
        """Base-structure generation: bumped whenever a base object
        (physical store, dictionary, schema) is replaced.  Together with
        ``delta.version`` it identifies one immutable state — the version
        pair whose read state the snapshot registry keeps and an MVCC read
        snapshot pins.  Every plan-cache key starts with the generation (and
        whether writes are pending): nothing is cleared when it moves."""
        self.metrics_registry = MetricsRegistry()
        """This store's metrics (see :mod:`repro.obs`).  *Store-lifetime*,
        not generation-lifetime: it survives rebuilds and compactions, so
        counters never reset underneath a scraper."""
        self.slow_query_log = SlowQueryLog(threshold_seconds=self.config.slow_query_seconds)
        self._observer = QueryObserver(self.metrics_registry, self.slow_query_log)
        self.event_log = EventLog(path=self.config.event_log_path)
        """Structured lifecycle events (query start/finish/cancel, updates,
        compactions, checkpoints, WAL replay).  Store-lifetime, like the
        metrics registry."""
        self.query_registry = ActiveQueryRegistry(events=self.event_log,
                                                  metrics=self.metrics_registry)
        """Live registry of in-flight queries; assigns ids, carries the
        cooperative-cancellation flags.  Store-lifetime — ids never reset
        under a running ``top`` view."""
        self._last_trace: Optional[QueryTrace] = None
        self._writer = threading.RLock()
        """The writer mutex: one transition at a time.  Reentrant, since
        ``checkpoint`` → ``compact`` → ``save`` nest, and so does WAL
        replay's ``update`` inside ``open``.  No reader ever takes it."""
        self._lock_wait_seconds = self.metrics_registry.histogram(
            "lock_wait_seconds", "Time spent waiting to acquire the store's writer mutex.",
            labelnames=("side",))
        self._snapshots = SnapshotRegistry(StoreVersion(self))
        self._update_seconds = self.metrics_registry.histogram(
            "update_seconds", "Wall time of SPARQL Update requests.")
        self._compaction_seconds = self.metrics_registry.histogram(
            "compaction_seconds", "Wall time of delta-into-base compactions.")
        self._checkpoint_seconds = self.metrics_registry.histogram(
            "checkpoint_seconds", "Wall time of full checkpoints (compact+snapshot).")
        self._undo_log_entries = self.metrics_registry.histogram(
            "undo_log_entries", "Undo-log depth (keys touched) per update request.",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000))
        self._register_collector_metrics()

    def _register_collector_metrics(self) -> None:
        """Adapt existing ``stats()``-style introspection into the registry.

        Callback-backed metrics read the live values at scrape time — no
        double bookkeeping, and the closures read ``self``'s *current*
        attributes, so they keep tracking the store across rebuilds.
        """
        registry = self.metrics_registry
        registry.counter("buffer_pool_page_hits_total",
                         "Buffer-pool page accesses served from cache.",
                         fn=lambda: self.pool.tracker.page_hits)
        registry.counter("buffer_pool_page_reads_total",
                         "Buffer-pool page misses (simulated disk reads).",
                         fn=lambda: self.pool.tracker.page_reads)
        registry.counter("buffer_pool_evictions_total",
                         "Pages evicted by LRU capacity pressure.",
                         fn=lambda: self.pool.evictions)
        registry.counter("buffer_pool_lazy_values_loaded_total",
                         "Column values materialized from disk by lazy segments.",
                         fn=lambda: self.pool.lazy_values_loaded)
        registry.gauge("buffer_pool_cached_pages", "Pages currently cached.",
                       fn=lambda: self.pool.cached_page_count())
        registry.gauge("buffer_pool_resident_bytes",
                       "Bytes of column data currently cached.",
                       fn=lambda: self.pool.stats()["resident_bytes"])
        registry.counter("plan_cache_hits_total",
                         "Plan-cache hits over the store lifetime.",
                         fn=lambda: self.plan_cache.lifetime_hits)
        registry.counter("plan_cache_misses_total",
                         "Plan-cache misses over the store lifetime.",
                         fn=lambda: self.plan_cache.lifetime_misses)
        registry.counter("plan_cache_evictions_total",
                         "Plan-cache LRU evictions over the store lifetime.",
                         fn=lambda: self.plan_cache.lifetime_evictions)
        registry.gauge("plan_cache_entries", "Plans currently cached.",
                       fn=lambda: len(self.plan_cache))
        registry.gauge("delta_inserts", "Pending (uncompacted) inserted triples.",
                       fn=lambda: self.delta.insert_count())
        registry.gauge("delta_tombstones", "Pending (uncompacted) delete tombstones.",
                       fn=lambda: self.delta.tombstone_count())
        registry.gauge("delta_deferred_reclaim_depth",
                       "Delta versions whose page reclamation waits on open pins.",
                       fn=lambda: self._snapshots.deferred_reclaim_depth())
        registry.gauge("open_snapshots", "MVCC read snapshots currently pinned.",
                       fn=lambda: self._snapshots.active_count())
        registry.gauge("pinned_delta_versions",
                       "Distinct delta versions referenced by open snapshots.",
                       fn=lambda: len(self._snapshots.pinned_delta_versions()))
        registry.gauge("store_generation", "Base-structure rebuild generation.",
                       fn=lambda: self.generation)
        registry.gauge("live_triples",
                       "Triples visible to queries (base + delta - tombstones).",
                       fn=lambda: self.live_triple_count())
        registry.gauge("wal_records",
                       "Intact records in the attached WAL (0 when detached).",
                       fn=lambda: (self.journal.wal.record_count()
                                   if self.journal.wal is not None else 0))
        registry.gauge("slow_queries_logged",
                       "Entries currently held by the slow-query log.",
                       fn=lambda: len(self.slow_query_log))
        registry.gauge("event_log_entries",
                       "Events currently buffered by the structured event log.",
                       fn=lambda: len(self.event_log))
        registry.gauge("dictionary_tail_terms",
                       "Terms above the dictionary's value-order watermark: appended "
                       "since the last load() or cluster(), which compaction keeps.",
                       fn=lambda: len(self.dictionary) - self.dictionary.value_order_watermark)

    # -- construction pipeline ----------------------------------------------------

    @classmethod
    def build(
        cls,
        source: Graph | Iterable[Triple] | str,
        config: Optional[StoreConfig] = None,
        sort_keys: Optional[Dict[int, int]] = None,
        sort_key_names: Optional[Dict[str, str]] = None,
        cluster: bool = True,
    ) -> "RDFStore":
        """Run the full pipeline: load, discover, (optionally) cluster.

        Args:
            source: a :class:`Graph`, an iterable of :class:`Triple`, or RDF
                text (N-Triples).
            config: store configuration; defaults to :class:`StoreConfig`.
            sort_keys: CS id -> predicate OID to sub-order each CS on.
            sort_key_names: table label -> predicate IRI (friendlier variant).
            cluster: when ``False``, stop after schema discovery and build
                only the exhaustive indexes (the ParseOrder baseline).

        Returns:
            The fully built store, ready for :meth:`sparql` / :meth:`sql`.

        Raises:
            ParseError: when RDF text cannot be parsed.
            StorageError: when the source contains no triples.
        """
        store = cls(config)
        store.load(source)
        store.discover_schema()
        if cluster:
            store.cluster(sort_keys=sort_keys, sort_key_names=sort_key_names)
        else:
            store.build_indexes()
        return store

    def load(self, source: Graph | Iterable[Triple] | str, syntax: str = "ntriples") -> int:
        """Load decoded triples (or RDF text) and encode them in parse order.

        Loading replaces the data: the triples are encoded into a fresh
        dictionary (no term of what was loaded before lives on) and every
        derived structure is dropped (schema, catalog and its reduced
        schemas, indexes, clustered store); duplicate triples are dropped.

        Args:
            source: a :class:`Graph`, an iterable of :class:`Triple`, or RDF
                text in the given ``syntax`` (``ntriples`` or ``turtle``).
            syntax: serialization of ``source`` when it is a string.

        Returns:
            The total number of distinct triples now loaded.

        Raises:
            ParseError: when RDF text cannot be parsed.
            PendingUpdatesError: when uncompacted updates are pending —
                reloading re-encodes OIDs and would silently drop
                acknowledged writes; call :meth:`compact` first.
        """
        with self._writing():
            if self.has_pending_updates():
                raise PendingUpdatesError(
                    "cannot load with pending updates; call compact() first")
            if isinstance(source, str):
                triples: Iterable[Triple] = parse_rdf(source, syntax=syntax)
            else:
                triples = source
            # a load replaces the data, so it encodes into a dictionary of its
            # own: no term of the replaced triples lives on, a source that
            # fails half way leaves the store as it was, and open read
            # snapshots keep the old dictionary, which nothing touches again
            dictionary, matrix = encode_graph(triples)
            self.dictionary, self.matrix = value_order_literals(matrix, dictionary)
            # a full reload re-encodes (and value-reorders) OIDs: the tables a
            # schema — or a registered reduced schema — names are gone
            self._install_schema(None)
            # loading changes triple *content*, so any attached on-disk database
            # no longer describes this store; detach rather than let the WAL
            # collect records that would replay against the wrong base
            self._detach_database()
            self._drop_physical_stores()
            return self.triple_count()

    def discover_schema(self, config: Optional[DiscoveryConfig] = None) -> EmergentSchema:
        """Run characteristic-set discovery over the loaded triples.

        Args:
            config: discovery thresholds; defaults to the store config's.

        Returns:
            The discovered :class:`EmergentSchema` (also kept on the store).

        Raises:
            StorageError: when no triples have been loaded yet.
        """
        with self._writing():
            if self.triple_count() == 0:
                raise StorageError("no triples loaded; call load() first")
            # re-discovery renumbers the tables, so the reduced schemas
            # registered over the old ones are not carried across
            self._install_schema(
                discover_schema(self.matrix, self.dictionary,
                                config or self.config.discovery), reduced={})
            self._drop_physical_stores()
            return self.schema

    def cluster(self, sort_keys: Optional[Dict[int, int]] = None,
                sort_key_names: Optional[Dict[str, str]] = None) -> ClusteringPlan:
        """Apply subject clustering and (re)build the physical stores.

        Args:
            sort_keys: CS id -> predicate OID used to sub-order the CS's
                subjects.
            sort_key_names: friendlier variant mapping table label ->
                predicate IRI string (unknown labels are ignored).

        Returns:
            The :class:`ClusteringPlan` describing the OID re-assignment.

        Raises:
            StorageError: when the schema has not been discovered yet.
            PendingUpdatesError: when uncompacted updates are pending
                (clustering remaps subject OIDs, which would invalidate the
                delta — call :meth:`compact` first).
        """
        with self._writing():
            if self.has_pending_updates():
                raise PendingUpdatesError(
                    "cannot re-cluster with pending updates; call compact() first")
            resolved = dict(sort_keys or {})
            if sort_key_names:
                resolved.update(self._resolve_sort_key_names(sort_key_names))
            # clustering renumbers anyway, so it is where the literal tail that
            # compactions left behind is merged into value order (nothing to
            # merge on a fresh load).  A new dictionary, matrix and schema:
            # the published version keeps decoding through the old ones
            dictionary, matrix = value_order_literals(self.matrix, self.dictionary)
            self.dictionary, self.matrix, schema, self.clustering_plan = cluster_subjects(
                matrix, dictionary, self.require_schema(), resolved)
            self._install_schema(schema)
            self._install_physical_stores(
                ExhaustiveIndexStore(self.matrix, pool=self.pool), clustered=True)
            return self.clustering_plan

    def build_indexes(self) -> None:
        """Put the physical stores over the current matrix: a new exhaustive
        index store (each projection sorts at its first read) and, when
        clustered, the clustered store's blocks (built now)."""
        with self._writing():
            self._install_physical_stores(ExhaustiveIndexStore(self.matrix, pool=self.pool),
                                          clustered=self.clustered_store is not None)

    def _install_physical_stores(self, index_store: ExhaustiveIndexStore,
                                 clustered: bool) -> None:
        """Make ``index_store`` (over the current matrix) the store's, build
        the clustered store over the current schema when ``clustered``, and
        publish."""
        # rebuilding replaces every (possibly lazily loading) structure with
        # in-memory ones; drop the stale lazy-segment bookkeeping so
        # buffer_pool_stats() does not report dead segments as pending
        self.pool.reset_lazy_registry()
        self.index_store = index_store
        if clustered:
            self.clustered_store = ClusteredStore.build(
                self.matrix, self.require_schema(), pool=self.pool,
                zone_size=self.config.zone_size)
        self._publish()

    @contextmanager
    def _writing(self) -> Iterator[None]:
        """Hold the writer mutex for the ``with`` block (every transition
        does), observing the wait in ``lock_wait_seconds{side="write"}``."""
        started = time.perf_counter()
        with self._writer:
            self._lock_wait_seconds.observe(time.perf_counter() - started, side="write")
            yield

    def _publish(self, new_base: bool = True) -> None:
        """The one tail of every transition: move the version pair and
        publish the committed record of the version it reaches.  The record
        it replaces loses its delta index pages now, or when its last pin
        does.

        ``new_base`` says a base object (physical store, dictionary, schema,
        catalog) was replaced, which bumps the generation so the
        (generation, delta version) pair stays unique per state; a write
        has already moved ``delta.version``, and one that did not (a no-op
        request) keeps the published record and its pages.  A write during
        WAL replay publishes nothing: no reader can see the store
        :meth:`open` is assembling, and it publishes once after the replay.
        Always the last step of a change, under the writer mutex: a reader
        sees the state before it or after it, never one in between.
        """
        if new_base:
            self.generation += 1
        elif (self.journal.is_replaying
              or self._snapshots.current.key == (self.generation, self.delta.version)):
            return
        self._snapshots.publish(StoreVersion(self))

    def _install_schema(self, schema: Optional[EmergentSchema],
                        reduced: Optional[Dict[str, List[str]]] = None) -> None:
        """The one place ``(schema, dictionary)`` becomes the store's schema
        and SQL catalog.

        ``reduced`` are the reduced schemas to register on the new catalog
        — by default those of the catalog it replaces, so what a user
        registered survives every transition that keeps the tables it names
        (clustering, compaction).  Re-discovery and reload pass none;
        ``open`` passes the manifest's.
        """
        if reduced is None:
            reduced = self.catalog.reduced_schemas_state() if self.catalog is not None else {}
        catalog = None
        if schema is not None:
            catalog = Catalog(schema, self.dictionary)
            catalog.restore_reduced_schemas(reduced)
        self.schema, self.catalog = schema, catalog

    def _resolve_sort_key_names(self, sort_key_names: Dict[str, str]) -> Dict[int, int]:
        schema = self.require_schema()
        resolved: Dict[int, int] = {}
        for table_label, predicate_iri in sort_key_names.items():
            predicate_oid = self.dictionary.lookup_term(IRI(predicate_iri))
            if predicate_oid is None:
                continue
            for table in schema.tables.values():
                if (table.label or f"cs{table.cs_id}").lower() == table_label.lower():
                    resolved[table.cs_id] = predicate_oid
        return resolved

    def _drop_physical_stores(self) -> None:
        """The triples or the schema changed under the physical stores: the
        clustering goes (until ``cluster()``), the index store is the new
        matrix's."""
        self.clustered_store = None
        self.clustering_plan = None
        self.build_indexes()

    # -- accessors --------------------------------------------------------------------

    def require_schema(self) -> EmergentSchema:
        if self.schema is None:
            raise StorageError("schema not discovered yet; call discover_schema() first")
        return self.schema

    def require_catalog(self) -> Catalog:
        if self.catalog is None:
            raise StorageError("catalog not available; call discover_schema() first")
        return self.catalog

    @property
    def is_clustered(self) -> bool:
        return self.clustered_store is not None

    @property
    def matrix(self) -> np.ndarray:
        """The base ``(n, 3)`` triple matrix.

        Kept as one flat :class:`~repro.columnar.Column` (``base.matrix``):
        on a store reopened from disk it is lazy like every other column and
        stays on disk until an operation actually needs it (compaction,
        re-clustering, re-discovery) — queries read the clustered store and
        projections, never this array.
        """
        return self._matrix.data.reshape(-1, 3)

    @matrix.setter
    def matrix(self, value: np.ndarray) -> None:
        self._matrix = Column("base.matrix", np.asarray(value).reshape(-1))

    def triple_count(self) -> int:
        """Triples in the base store (excluding pending writes); answered
        from the column's length, so a lazy matrix stays on disk."""
        return len(self._matrix) // 3

    def live_triple_count(self) -> int:
        """Triples currently visible to queries: base ∪ delta − tombstones."""
        return (self.triple_count() + self.delta.insert_count()
                - self.delta.tombstone_count())

    def context(self) -> ExecutionContext:
        """The execution context of the store's published version, shared by
        SPARQL and SQL.  A write makes a new one (it carries that version's
        delta) over the same physical stores."""
        return self._published().context

    def _published(self) -> StoreVersion:
        """The committed record every read runs against: one attribute read.
        ``batch_size`` is a live runtime knob, not part of any version, so
        the record picks it up as it is handed out."""
        version = self._snapshots.current
        version.context.batch_size = self.config.batch_size
        return version

    # -- cache control ------------------------------------------------------------------

    def reset_cold(self) -> None:
        """Empty the buffer pool (cold cache).

        The pool is shared by every attached structure — base permutation
        indexes, clustered CS blocks, the irregular table and the delta
        overlay's columns — so one reset covers them all.
        """
        self.pool.reset_cold()

    def warm(self) -> None:
        """Pre-load every attached structure's pages (hot cache).

        Covers the exhaustive indexes, the clustered store (CS blocks plus
        the irregular table) and the pending delta's columns, so cold/hot
        experiments stay honest after writes.
        """
        version = self._snapshots.current
        version.context.index_store.warm()
        if version.context.clustered_store is not None:
            version.context.clustered_store.warm()
        if version.delta is not None:
            version.delta.warm()

    # -- writing -----------------------------------------------------------------------

    def has_pending_updates(self) -> bool:
        """Whether uncompacted inserts or deletes are pending."""
        return not self.delta.is_empty()

    def update(self, text: str) -> UpdateResult:
        """Execute a SPARQL Update request against the delta overlay.

        Supported forms: ``INSERT DATA``, ``DELETE DATA`` and ``DELETE
        WHERE`` (chainable with ``;``).  Writes go to the
        :class:`~repro.updates.DeltaStore`; the base structures stay
        untouched, yet every subsequent SPARQL/SQL query sees
        ``base ∪ delta − tombstones``.  A request is atomic: if any
        statement fails, the statements already applied are rolled back.
        Call :meth:`compact` to fold the delta into base storage.

        Args:
            text: the update request text.

        Returns:
            An :class:`~repro.updates.UpdateResult` with the number of
            triples actually inserted and deleted (RDF set semantics:
            re-inserting an existing triple or deleting a missing one is a
            no-op).

        Raises:
            ParseError: when the text is not in the supported update subset.
        """
        # parsing is pure — do it before taking the writer mutex so a burst of
        # updates keeps the exclusive sections as short as possible, and
        # unparsable requests never serialize
        request = parse_update(text)
        started = time.perf_counter()
        with self._writing():
            undo = self.delta.begin_request()
            try:
                result = UpdateApplier(self).apply(request)
                if result.changed:
                    # journal only state-changing requests: the journal (and the
                    # attached WAL, when the store is durable) is what save() and
                    # crash recovery replay, and no-ops would just slow replay
                    # down.  Recording inside the try keeps apply + log atomic: a
                    # failed WAL append (disk full) rolls the request back, so a
                    # query can never observe an update that would not survive a
                    # crash.
                    self.journal.record(text)
            except Exception:
                # replay the undo log backwards: O(keys this request touched),
                # never O(pending writes) — the property that keeps a burst of
                # N uncompacted updates linear instead of quadratic
                self.delta.abort_request(undo)
                self.metrics_registry.counter(
                    "update_errors_total", "Update requests rolled back.").inc()
                raise
            else:
                self.delta.commit_request(undo)
            finally:
                # even a rolled-back request may have appended dictionary
                # terms: fold the new literals into the dictionary's sorted
                # tail here, under the writer mutex, so no reader has to.  The
                # physical stores, column statistics and the literal order
                # index's head survive — a write is never a rebuild.  Readers
                # saw the record published before the request until now
                self.dictionary.index_appended_literals()
                self._publish(new_base=False)
            self._update_seconds.observe(time.perf_counter() - started)
            self._undo_log_entries.observe(len(undo))
            registry = self.metrics_registry
            registry.counter("updates_total",
                             "Committed SPARQL Update requests.").inc()
            registry.counter("triples_inserted_total",
                             "Triples inserted by updates.").inc(result.inserted)
            registry.counter("triples_deleted_total",
                             "Triples deleted by updates.").inc(result.deleted)
            if result.changed and not self.journal.is_replaying:
                self.event_log.emit("update", inserted=result.inserted,
                                    deleted=result.deleted)
            return result

    @contextmanager
    def pending_version(self) -> Iterator[StoreVersion]:
        """The record a write's own reads run against (``DELETE WHERE``
        after an earlier statement of the same request): the published one
        while the request has changed nothing, else one of the pending state
        built for the writer alone.  That one is never published, and its
        delta index pages go when the ``with`` block ends."""
        published = self._snapshots.current
        if published.key == (self.generation, self.delta.version):
            yield published
            return
        version = StoreVersion(self)
        try:
            yield version
        finally:
            version.drop_pages()

    # -- concurrent access ---------------------------------------------------------------

    def snapshot(self) -> ReadSnapshot:
        """Pin an MVCC read snapshot of the current committed state.

        The snapshot is a cheap versioned handle — base generation plus
        delta version — over immutable structures.  Pinning takes the
        snapshot registry's mutex only, so it never waits on a writer, and
        queries through it never observe concurrent updates, compactions or
        checkpoints.  Release it with ``close()`` (or use it as a context
        manager) so superseded delta index pages can be reclaimed.

        Returns:
            An open :class:`~repro.server.ReadSnapshot`.
        """
        return self._snapshots.acquire(self)

    def session(self) -> StoreSession:
        """A per-client handle: snapshot reads, single-writer writes.

        Each read auto-pins the latest snapshot, or a sticky one between
        ``begin()``/``end()`` (repeatable reads).  See
        :class:`~repro.server.StoreSession` and ``docs/concurrency.md``.
        """
        return StoreSession(self)

    def open_snapshot_count(self) -> int:
        """Number of read snapshots currently pinned on this store."""
        return self._snapshots.active_count()

    def compact(self) -> CompactionReport:
        """Fold the pending delta into base storage (the explicit heavy step).

        Merges ``base − tombstones + inserts`` into a new base matrix,
        incrementally maintains the emergent schema (new subjects join a
        property-set-matching CS or the leftover bucket, emptied subjects
        leave, per-column statistics and coverage refresh) and rebuilds the
        clustered store and the SQL catalog (registered reduced schemas
        carry over).  No OID moves: the dictionary stays the store's, with
        its literal tail, its watermark and its warm value bridge, so every
        projection a read has sorted is merged with the sorted delta instead
        of being sorted again.  Characteristic-set discovery, subject
        clustering and the value order over all literals are *not* redone —
        call :meth:`discover_schema` / :meth:`cluster` explicitly when the
        data has drifted far enough.

        Open read snapshots are unaffected: they keep answering from the
        pre-compaction state, since compaction makes a new matrix, schema
        and physical stores instead of editing the ones they hold, and the
        pinned delta versions' index pages stay in the buffer pool until the
        last snapshot is released.

        Returns:
            A :class:`~repro.updates.CompactionReport`; a no-op report when
            nothing was pending.
        """
        started = time.perf_counter()
        with self._writing():
            if not self.has_pending_updates():
                self.journal.clear()  # its texts' inserts and deletes cancelled out
                return CompactionReport()
            delta = self.delta.freeze()
            previous = self.index_store
            matrix, schema, report = compact_store(self.matrix, delta, self.schema)
            indexing = time.perf_counter()
            self.matrix = matrix
            self.delta.clear()
            # only now that the merge succeeded: the journal's texts are
            # reflected in the base matrix, so save() no longer needs to seed
            # them into a fresh WAL.  Clearing any earlier would lose
            # acknowledged updates from the next snapshot if the merge failed
            self.journal.clear()
            self._install_schema(schema)
            merged = previous.materialized_orders()
            self._install_physical_stores(
                previous.merged(self.matrix, delta.matrix(), delta.tombstone_matrix()),
                clustered=self.clustered_store is not None)
            finished = time.perf_counter()
            self.metrics_registry.counter(
                "compactions_total", "Delta-into-base compactions applied.").inc()
            self._compaction_seconds.observe(finished - started)
            self.event_log.emit("compaction",
                                merged_inserts=report.merged_inserts,
                                applied_deletes=report.applied_deletes,
                                seconds=finished - started,
                                statistics_s=report.statistics_s,
                                index_s=finished - indexing,
                                projections_merged=len(merged))
            return report

    # -- persistence --------------------------------------------------------------------

    def save(self, path: Path | str) -> SnapshotInfo:
        """Serialize the store into an on-disk database directory.

        Writes the dictionary, schema, base matrix and every clustered
        column (each as a checksummed binary file), per-column statistics,
        zone maps, predicate counts and a manifest — no permutation
        projection: those are sorts of the matrix — then creates a
        fresh write-ahead log for the new snapshot generation.  Pending
        (uncompacted) updates are **not lost**: their request texts seed the
        new WAL and are replayed by :meth:`open`.

        Saving also *attaches* the store to ``path``: every subsequent
        :meth:`update` is appended to the WAL (and fsynced) before it
        returns, so acknowledged writes survive a crash.

        Args:
            path: target directory; created if missing.  An existing
                directory is only overwritten when it already holds a repro
                database (or is empty).

        Returns:
            A :class:`~repro.persist.SnapshotInfo` describing what was
            written.

        Raises:
            PersistenceError: when the target exists but is not a repro
                database directory.
        """
        with self._writing():
            info = write_snapshot(self, path, attach=True)
            self.db_path = Path(path)
            return info

    @classmethod
    def open(cls, path: Path | str, config: Optional[StoreConfig] = None) -> "RDFStore":
        """Reopen a saved database without rebuilding anything.

        Restores the dictionary (with its value-order watermark), the
        emergent schema, SQL catalog and registered reduced schemas, the
        clustered store, per-column statistics, zone maps and predicate
        counts — so plans and their estimates come out exactly as on the
        saved store.
        Characteristic-set discovery and subject clustering are **not**
        re-run, column data stays on disk until a scan first touches it
        (lazy loading; observe it via :meth:`buffer_pool_stats`), and a
        permutation projection is sorted from the matrix file when a pattern
        first reads it, as on a built store.

        Any intact write-ahead-log records are replayed in order, restoring
        the delta overlay of updates applied (or still pending) after the
        snapshot was taken.  Replay stops at the first torn or corrupt
        record — exactly the tail a crash mid-append can leave behind.

        Args:
            path: the database directory written by :meth:`save`.
            config: optional configuration override; defaults to the
                configuration persisted in the manifest (discovery
                thresholds fall back to defaults — they only matter for
                explicit re-discovery).

        Returns:
            A new store over the database, attached to it.

        Raises:
            PersistenceError: when the directory is missing, corrupt,
                version-incompatible, or its WAL belongs to a different
                snapshot generation.
        """
        reader = SnapshotReader(path)
        store = cls(config if config is not None else StoreConfig(**reader.config()))
        parts = reader.read(store.pool)
        store.dictionary, store.dictionary_file = parts.dictionary, parts.dictionary_file
        store._matrix = parts.matrix
        store._install_schema(parts.schema, parts.reduced_schemas)
        store.index_store = parts.index_store
        store.clustered_store = parts.clustered_store
        store._publish()
        store.journal.attach_wal(parts.wal)
        with store.journal.replaying():
            replayed = 0
            for text in parts.wal.replay_texts():
                try:
                    store.update(text)
                except ReproError as exc:
                    # a CRC-intact record that fails to re-apply means the
                    # database needs a different build (e.g. a newer update
                    # dialect); surface it under the documented error type
                    raise PersistenceError(
                        f"WAL record {replayed} failed to replay: {exc}") from exc
                replayed += 1
        store._publish(new_base=False)
        if replayed:
            default_registry().counter(
                "wal_replayed_records_total",
                "WAL records re-applied while opening databases.").inc(replayed)
            store.event_log.emit("wal_replay", path=str(path), records=replayed)
        store.db_path = Path(path)
        return store

    def checkpoint(self, path: Optional[Path | str] = None) -> "CheckpointReport":
        """Compact, snapshot and truncate the WAL in one durable step.

        This is the maintenance operation a long-running writable store
        needs periodically: :meth:`compact` folds the delta into base
        storage, :meth:`save` writes the merged state as a new snapshot
        generation, and the fresh (empty) WAL replaces the old one — replay
        after the checkpoint starts from the new snapshot.

        Args:
            path: target directory; defaults to the attached database
                (from a previous :meth:`save` / :meth:`open`).

        Returns:
            A :class:`CheckpointReport` bundling the compaction report and
            the snapshot info.

        Raises:
            PersistenceError: when no path is given and the store is not
                attached to a database.
        """
        started = time.perf_counter()
        with self._writing():
            target = Path(path) if path is not None else self.db_path
            if target is None:
                raise PersistenceError(
                    "store is not attached to a database; pass a path or call save() first")
            compaction = self.compact()
            writing = time.perf_counter()
            snapshot = self.save(target)
            finished = time.perf_counter()
            self.metrics_registry.counter(
                "checkpoints_total", "Checkpoints (compact + snapshot + WAL reset).").inc()
            self._checkpoint_seconds.observe(finished - started)
            self.event_log.emit("checkpoint", path=str(target),
                                triples=snapshot.triples,
                                seconds=finished - started,
                                compact_s=writing - started,
                                write_s=finished - writing)
            return CheckpointReport(compaction=compaction, snapshot=snapshot)

    def _detach_database(self) -> None:
        """Forget the attached on-disk database (content has diverged)."""
        self.db_path = None
        self.journal.attach_wal(None)
        self.journal.clear()

    # -- querying ----------------------------------------------------------------------

    def engine(self) -> QueryEngine:
        """The query engine of the store's current version (wired to the
        plan cache), serving SPARQL and — once a schema is discovered — SQL.

        An engine belongs to one version and costs nothing to make; what
        amortizes across queries and versions — the plan cache, column
        statistics — lives on the store and on the columns.
        """
        return self._published().engine

    def sparql(self, text: str, options: Optional[PlannerOptions] = None,
               profile: bool = False) -> QueryResult:
        """Run a SPARQL query.

        Args:
            text: query text in the supported SELECT subset.
            options: plan scheme configuration (``default`` or ``rdfscan``,
                also spelt ``optimized``); defaults to RDFscan/RDFjoin.
            profile: when ``True``, record a per-operator
                :class:`~repro.obs.QueryTrace` for this run — wall time,
                rows, buffer-pool page reads/hits, payload bytes and (with
                ``config.profile_memory``) peak allocations per operator —
                returned on the result's ``trace`` field and via
                :meth:`last_trace`.

        Returns:
            A :class:`QueryResult` with OID bindings, measured cost, the
            executed plan and the run that observed it.

        Raises:
            ParseError: when the query text is not in the supported subset.
            PlanError: when the options name an unknown plan scheme.
            ExecutionError: when the plan needs a store that is not built.
            QueryCancelledError: when the query was cancelled mid-run via
                :meth:`cancel` (see :meth:`active_queries`).
        """
        return self.run_query(self._published(), "sparql", text, options,
                              profile=profile)

    def run_query(self, version: StoreVersion, frontend: str, text: str,
                  options: Optional[PlannerOptions] = None, source: str = "store",
                  profile: bool = False) -> QueryResult:
        """The one read path and the one query lifecycle: run a query of
        either front end against one version's read state.

        Direct :meth:`sparql` / :meth:`sql` calls pass the current version,
        an MVCC snapshot passes the version it pins, and
        ``explain(analyze=True)`` is the same call with ``profile=True``.

        The run is registered (listed and cancellable) before it executes
        and leaves the registry with the time since then and its outcome:
        ``cancelled`` (an operator action, so it does not count as a query
        error), an error (event plus ``query_errors_total``), or success
        (metrics, slow-query log and, for a profiled run, :meth:`last_trace`).
        """
        scheme = "sql" if frontend == "sql" else (options or PlannerOptions()).scheme
        tracer = (QueryTrace(pool=self.pool, memory=self.config.profile_memory)
                  if profile else None)
        registry = self.query_registry
        run = registry.begin(text, frontend, scheme, source=source, pool=self.pool,
                             trace=tracer)
        try:
            if frontend not in version.engine.frontends:
                raise StorageError("catalog not available; call discover_schema() first")
            result = version.engine.query(frontend, text, options, run)
        except QueryCancelledError:
            registry.finish(run, run.elapsed_seconds(), status="cancelled")
            raise
        except BaseException as exc:
            registry.finish(run, run.elapsed_seconds(), error=exc)
            self._observer.error(frontend)
            raise
        elapsed = run.elapsed_seconds()
        registry.finish(run, elapsed)
        self._observer.observe(run, elapsed)
        if tracer is not None:
            self._last_trace = tracer
        return result

    def sparql_plan(self, text: str, options: Optional[PlannerOptions] = None):
        """Parse and plan (but do not run) a SPARQL query.

        Returns:
            The root :class:`~repro.engine.PhysicalOperator` of the plan,
            annotated with estimated row counts.
        """
        return self.engine().prepare("sparql", text, options)[1]

    def explain(self, text: str, options: Optional[PlannerOptions] = None,
                analyze: bool = False) -> str:
        """Render a query's plan with estimated (and actual) cardinalities.

        Args:
            text: SPARQL query text.
            options: plan scheme configuration; defaults to RDFscan/RDFjoin.
            analyze: when ``True``, execute the plan first so every operator
                line also reports the actually observed row count —
                ``EXPLAIN ANALYZE``.

        Returns:
            A multi-line string: a header with the effective options
            followed by the indented operator tree, each line carrying
            ``est=…`` (and ``actual=…`` plus per-operator ``time=`` and
            ``pages=`` after execution — the analyze run is profiled, so
            buffer-pool reads are attributed per operator, and a ``mem=``
            column appears when ``config.profile_memory`` is on).  With
            ``analyze=True`` the header carries the executor's cost and
            ``parse=`` and ``plan=`` (both zero when the plan came from the
            cache), and a ``buffers:`` line
            reports the pool's memory accounting — cached pages, *this
            run's* evictions/reads/hits (the trace's
            :meth:`BufferPool.snapshot_delta`) and how much of a lazily
            opened database the run materialized.  The analyze run is a
            query like any other (``source="explain"``): listed,
            cancellable, counted and logged.
        """
        options = options or PlannerOptions()
        header = f"plan [{options.describe()}]"
        if not analyze:
            return header + "\n" + self.sparql_plan(text, options).explain()
        result = self.run_query(self._published(), "sparql", text, options,
                                source="explain", profile=True)
        run = result.run
        header += (
            f" {result.cost.describe()} parse={run.parse_seconds * 1e3:.2f}ms"
            f" plan={run.plan_seconds * 1e3:.2f}ms"
            "\nbuffers: cached_pages={cached_pages} resident_bytes={resident_bytes}"
            " evictions={evictions} reads={page_reads} hits={page_hits}"
            " lazy_materialized={lazy_segments_materialized}/{lazy_segments_registered}"
            " lazy_values_loaded={lazy_values_loaded}".format(**run.trace.buffers))
        return header + "\n" + result.plan.explain(run=run)

    def plan_cache_stats(self) -> Dict[str, int]:
        """Plan-cache counters: ``size``, ``capacity`` and the store-lifetime
        ``lifetime_hits`` / ``lifetime_misses`` / ``lifetime_evictions``."""
        return self.plan_cache.stats()

    def buffer_pool_stats(self) -> Dict[str, int]:
        """Buffer-pool memory accounting and lazy-loading counters.

        See :meth:`repro.columnar.BufferPool.stats`; this is how lazy
        column loading after :meth:`open` is observed (``lazy_*`` keys).
        """
        return self.pool.stats()

    # -- observability -------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every metric sample as one flat dict (see ``docs/observability.md``).

        Merges this store's registry with the process-global one (WAL
        counters live there); keys are ``name{label="value"}`` strings,
        histograms contribute ``_count``/``_sum``/``_max``/``_p50``/
        ``_p95``/``_p99`` entries.
        """
        merged = dict(default_registry().collect())
        merged.update(self.metrics_registry.collect())
        return merged

    def slow_queries(self) -> List:
        """Newest-first :class:`~repro.obs.SlowQueryEntry` list.

        Queries whose wall time reached ``config.slow_query_seconds`` land
        here (a ring buffer of the newest 128 entries).
        """
        return self.slow_query_log.entries()

    def active_queries(self) -> List[Dict[str, object]]:
        """Listing of every query currently executing on this store.

        One dict per in-flight query (oldest first) with its registry
        ``id``, frontend, plan scheme, normalized text, start time, elapsed
        seconds, rows/batches produced so far, the operator that most
        recently emitted, an estimated completion fraction (``progress``,
        ``None`` when the plan carries no cardinality estimates), this
        run's buffer-pool delta, and whether cancellation was requested.
        Covers direct :meth:`sparql`/:meth:`sql` calls and queries running
        through MVCC read snapshots / server sessions alike.
        """
        return self.query_registry.active()

    def cancel(self, query_id: int, reason: str = "") -> bool:
        """Request cooperative cancellation of a running query.

        The executing thread observes the request at its next batch
        boundary and unwinds with
        :class:`~repro.errors.QueryCancelledError` — snapshot pins are
        released by the same paths a successful run uses.

        Args:
            query_id: the id shown by :meth:`active_queries` / ``/queries``.
            reason: optional operator-supplied note, recorded in the event
                log and the error message.

        Returns:
            ``True`` when the id was active (the query will stop within
            one batch); ``False`` for unknown or already-finished ids —
            a safe no-op.
        """
        return self.query_registry.cancel(query_id, reason=reason)

    def events(self, type: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Newest-first structured lifecycle events (a ring of the newest
        1024; ``config.event_log_path`` also appends them to a file).

        Query starts/finishes/cancellations/errors, committed updates,
        compactions, checkpoints and WAL replays; each record carries a
        monotonic ``seq``, a unix ``ts`` and a ``type`` plus type-specific
        fields — see ``docs/observability.md`` for the schema.
        """
        return self.event_log.events(type=type, limit=limit)

    def last_trace(self) -> Optional[QueryTrace]:
        """The most recent profiled run's :class:`~repro.obs.QueryTrace`.

        Populated by ``sparql(..., profile=True)``, ``sql(..., profile=True)``
        and ``explain(..., analyze=True)``; ``None`` until one of those ran.
        """
        return self._last_trace

    def sql(self, text: str, profile: bool = False) -> QueryResult:
        """Run a SQL query against the emergent relational view.

        Args:
            text: a SELECT statement over the discovered tables.
            profile: when ``True``, record a per-operator
                :class:`~repro.obs.QueryTrace` for this run (see
                :meth:`sparql`).

        Returns:
            A :class:`QueryResult` with rows, cost and the executed plan; a
            repeated text is served from the plan cache like SPARQL.

        Raises:
            ParseError: when the SQL text cannot be parsed.
            SchemaError: when the query references unknown tables/columns.
            QueryCancelledError: when the query was cancelled mid-run via
                :meth:`cancel`.
        """
        return self.run_query(self._published(), "sql", text, profile=profile)

    def decode_rows(self, result: QueryResult) -> List[tuple]:
        """Decode a query result's OIDs back to Python values.

        Decodes through the version the query ran against, so a result
        decodes the same after a later ``compact()`` or ``cluster()``
        re-mapped the store's OIDs.

        Args:
            result: the value returned by :meth:`sparql` or :meth:`sql`.

        Returns:
            One tuple per result row, with IRIs/literals decoded to Python
            strings, numbers, dates — computed aggregates stay floats.
        """
        return result.decoded_rows(result.context)

    # -- reporting ----------------------------------------------------------------------

    def schema_summary(self) -> List[str]:
        """Human readable schema listing."""
        return self.require_schema().summary_lines(self.dictionary)

    def storage_summary(self) -> Dict[str, object]:
        """Key figures about the physical organization."""
        summary: Dict[str, object] = {
            "triples": self.triple_count(),
            "terms": len(self.dictionary),
            "clustered": self.is_clustered,
        }
        if self.schema is not None:
            summary["tables"] = len(self.schema.tables)
            summary["foreign_keys"] = len(self.schema.foreign_keys)
            summary["triple_coverage"] = self.schema.coverage.triple_coverage()
            summary["subject_coverage"] = self.schema.coverage.subject_coverage()
        summary["projections_materialized"] = self.index_store.materialized_orders()
        if self.clustered_store is not None:
            summary["regular_fraction"] = self.clustered_store.regular_fraction()
            summary["irregular_triples"] = len(self.clustered_store.irregular)
        if self.has_pending_updates():
            summary.update(self.delta.summary())
        open_snapshots = self._snapshots.active_count()
        if open_snapshots:
            summary["open_snapshots"] = open_snapshots
        if self.db_path is not None:
            summary["database"] = str(self.db_path)
            if self.journal.wal is not None:
                summary["wal_records"] = self.journal.wal.record_count()
        return summary
