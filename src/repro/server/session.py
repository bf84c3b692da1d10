"""MVCC read snapshots and per-client store sessions.

A :class:`ReadSnapshot` is the unit of snapshot isolation: it pins one
*version pair* — the store's base generation (bumped whenever the physical
structures are rebuilt) and the delta version (bumped by every write) — and
bundles everything a query needs to run against exactly that state:

* direct references to the base structures (dictionary, schema, catalog,
  exhaustive indexes, clustered store) — immutable by construction: rebuilds
  replace these objects instead of mutating them, and the store
  clones dictionary/schema before compaction whenever snapshots are open;
* a :class:`~repro.updates.FrozenDelta` view of the pending writes —
  an immutable copy the live delta's later mutations cannot touch;
* a private :class:`~repro.engine.ExecutionContext` and one query engine
  (SPARQL and SQL) wired to those references — cheap to create: a context
  holds no index of its own (the literal order index that range predicates
  resolve through belongs to the pinned dictionary and is shared with the
  live store).

Acquisition happens under the store's shared (read) lock and is cheap: the
frozen delta is built once per delta version and cached by the
:class:`SnapshotRegistry`, so ten readers pinning the same version share one
view.  Execution happens *without* any lock — a reader holding a snapshot
never blocks the writer and never observes its progress.

A :class:`StoreSession` is the per-client convenience handle
(:meth:`repro.core.RDFStore.session`): queries auto-pin the latest snapshot
per call, or run against one sticky snapshot between :meth:`StoreSession.begin`
and :meth:`StoreSession.end`; writes go through the store's single-writer
path.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..engine import ExecutionContext
from ..errors import StorageError
from ..planner import PlanCache, PlannerOptions, QueryEngine, QueryResult
from ..sparql import SPARQL_FRONTEND
from ..sql import sql_frontend


def query_engine(context: ExecutionContext, catalog, plan_cache: Optional[PlanCache]) -> QueryEngine:
    """The engine over one context: SPARQL, and SQL once a schema (hence a
    catalog) exists.  The live store and every snapshot build theirs here."""
    frontends = [SPARQL_FRONTEND]
    if catalog is not None:
        frontends.append(sql_frontend(catalog))
    return QueryEngine(context, frontends, plan_cache)


class ReadSnapshot:
    """One pinned, immutable view of a store: base generation + delta version.

    Obtained from :meth:`repro.core.RDFStore.snapshot` (or a
    :class:`StoreSession`); release with :meth:`close` or use as a context
    manager.  All queries through the snapshot see exactly the state at pin
    time, regardless of concurrent updates, compactions or checkpoints.
    """

    def __init__(self, store, registry: "SnapshotRegistry", generation: int,
                 delta_version: int, context: ExecutionContext, catalog,
                 pinned_delta, base_triples: int, plan_cache) -> None:
        self._store = store
        self._registry = registry
        self.generation = generation
        self.delta_version = delta_version
        self.context = context
        self.catalog = catalog
        self._base_triples = base_triples
        self._pinned_delta = pinned_delta
        """The live delta object the pin was taken on — captured so release
        still reaches it if the store is later re-pointed in place
        (``RDFStore.open(into=...)`` swaps the store's delta object)."""
        self._engine = query_engine(context, catalog, plan_cache)
        """The plan cache is shared by every snapshot of the *same* version
        pair (the registry rotates it when the version moves), so a serving
        window between writes amortizes parse + plan across readers.  The
        store's own cache cannot be shared: a pinned old-state snapshot
        could repopulate it after a write cleared it, handing stale plans
        to the new state."""
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pin (idempotent).

        Once every snapshot of a superseded delta version is closed, the
        version's index pages are reclaimed from the buffer pool.
        """
        if self._closed:
            return
        self._closed = True
        self._registry.release(self)

    def __enter__(self) -> "ReadSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("this read snapshot has been released")

    # -- querying ------------------------------------------------------------

    def sparql(self, text: str, options: Optional[PlannerOptions] = None,
               profile: bool = False) -> QueryResult:
        """Run a SPARQL query against the pinned state.

        Snapshot queries run inside the owning store's
        :meth:`~repro.core.RDFStore.query_scope`, so they record into its
        metrics, slow-query log and active-query registry exactly like
        direct :meth:`RDFStore.sparql` calls — all resolved through the
        store at call time, so they keep pointing at the live registries
        even across an ``open(into=...)`` swap.  The query is therefore visible
        in ``store.active_queries()`` (``source="snapshot"``) and
        cancellable with ``store.cancel(id)`` while it runs.

        With ``profile=True`` (or ``config.profile_queries``) the run
        carries a :class:`~repro.obs.QueryProfile` on the result's
        ``trace`` field, same as the direct store call.
        """
        self._require_open()
        scheme = (options or PlannerOptions()).scheme
        with self._store.query_scope(text, "sparql", scheme, source="snapshot",
                                     profile=profile) as run:
            return self._engine.query("sparql", text, options, run)

    def sql(self, text: str, profile: bool = False) -> QueryResult:
        """Run a SQL query against the pinned state's emergent schema."""
        self._require_open()
        if self.catalog is None:
            raise StorageError("catalog not available; the store had no discovered schema")
        with self._store.query_scope(text, "sql", "sql", source="snapshot",
                                     profile=profile) as run:
            return self._engine.query("sql", text, run=run)

    def decode_rows(self, result) -> List[tuple]:
        """Decode a result's OIDs with the *pinned* dictionary.

        Safe even after a later compaction re-mapped the live store's
        literal OIDs — the snapshot holds the dictionary it was pinned with.
        """
        self._require_open()
        return result.decoded_rows(self.context)

    def live_triple_count(self) -> int:
        """Triples visible to this snapshot: base ∪ delta − tombstones.

        Computed from the base count captured at pin time — never from the
        live store, whose base may have compacted since.
        """
        self._require_open()
        delta = self.context.delta
        if delta is None:
            return self._base_triples
        return self._base_triples + delta.insert_count() - delta.tombstone_count()


class SnapshotRegistry:
    """Tracks open snapshots and caches one frozen delta per version.

    Owned by the store; :meth:`acquire` is called under the store's shared
    lock (no writer in flight), :meth:`release` may be called from any
    reader thread at any time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active: Dict[Tuple[int, int], int] = {}
        self._frozen_key: Optional[Tuple[int, int]] = None
        self._frozen_view = None
        self._plan_cache: Optional[PlanCache] = None
        """Shared by every snapshot of the cached version pair; rotated
        together with the frozen view when the version moves on."""
        self._retired_hits = 0
        self._retired_misses = 0
        self._retired_evictions = 0
        """Lifetime counters folded in from rotated-out plan caches, so
        :meth:`plan_cache_stats` stays monotonic across version changes."""

    def acquire(self, store) -> ReadSnapshot:
        """Pin the store's current state and hand out a snapshot.

        Caller must hold the store's read lock: the delta is guaranteed to
        be in a committed state, and the base structures cannot be swapped
        mid-pin.
        """
        delta = store.delta
        generation = store.generation
        key = (generation, delta.version)
        with self._lock:
            if self._frozen_key != key:
                self._frozen_view = delta.freeze() if not delta.is_empty() else None
                self._retire_cache_locked()
                self._plan_cache = PlanCache(capacity=store.config.plan_cache_size)
                self._frozen_key = key
            frozen = self._frozen_view
            plan_cache = self._plan_cache
            version = delta.pin_version()
            self._active[key] = self._active.get(key, 0) + 1
        context = ExecutionContext(
            dictionary=store.dictionary,
            pool=store.pool,
            index_store=store.index_store,
            clustered_store=store.clustered_store,
            schema=store.schema,
            cost_model=store.config.cost_model,
            delta=frozen,
            batch_size=store.config.batch_size,
        )
        return ReadSnapshot(store, self, generation=generation,
                            delta_version=version, context=context,
                            catalog=store.catalog, pinned_delta=delta,
                            base_triples=store.triple_count(),
                            plan_cache=plan_cache)

    def release(self, snapshot: ReadSnapshot) -> None:
        key = (snapshot.generation, snapshot.delta_version)
        with self._lock:
            remaining = self._active.get(key, 0) - 1
            if remaining > 0:
                self._active[key] = remaining
            else:
                self._active.pop(key, None)
                # the cached frozen view stays: while the key is still
                # current the next acquisition re-uses it for free, and a
                # superseded key is replaced on the next acquisition anyway
        snapshot._pinned_delta.unpin_version(snapshot.delta_version)

    def active_count(self) -> int:
        """Number of snapshots currently open across all versions."""
        with self._lock:
            return sum(self._active.values())

    def invalidate_cache(self) -> None:
        """Drop the cached frozen view and plan cache.

        Called when the store is re-pointed in place
        (``RDFStore.open(into=...)``): the new incarnation's (generation,
        version) pairs restart and could collide with the cached key, which
        would hand a stale frozen view to a fresh pin.  Pin accounting for
        snapshots opened before the swap is unaffected.
        """
        with self._lock:
            self._frozen_key = None
            self._frozen_view = None
            self._retire_cache_locked()

    def _retire_cache_locked(self) -> None:
        cache = self._plan_cache
        if cache is not None:
            stats = cache.stats()
            self._retired_hits += stats["lifetime_hits"]
            self._retired_misses += stats["lifetime_misses"]
            self._retired_evictions += stats["lifetime_evictions"]
        self._plan_cache = None

    def plan_cache_stats(self) -> Dict[str, int]:
        """Monotonic hit/miss/eviction totals across every per-version
        cache this registry has ever handed out, plus the live entry count."""
        with self._lock:
            live = self._plan_cache.stats() if self._plan_cache is not None else {}
            return {
                "hits": self._retired_hits + live.get("lifetime_hits", 0),
                "misses": self._retired_misses + live.get("lifetime_misses", 0),
                "evictions": self._retired_evictions + live.get("lifetime_evictions", 0),
                "entries": live.get("size", 0),
            }


class StoreSession:
    """A per-client handle over one store: snapshot reads, serialized writes.

    Reads auto-pin the latest snapshot per call (each query sees the newest
    committed state, never a torn one); between :meth:`begin` and
    :meth:`end` they run against one sticky snapshot instead (repeatable
    reads).  Writes always go through the store's single-writer lock.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._sticky: Optional[ReadSnapshot] = None

    # -- snapshot control ----------------------------------------------------

    def begin(self) -> ReadSnapshot:
        """Pin a sticky snapshot: subsequent reads all see this state."""
        if self._sticky is not None:
            raise StorageError("session already holds a snapshot; call end() first")
        self._sticky = self.store.snapshot()
        return self._sticky

    def end(self) -> None:
        """Release the sticky snapshot (idempotent)."""
        if self._sticky is not None:
            self._sticky.close()
            self._sticky = None

    @property
    def snapshot(self) -> Optional[ReadSnapshot]:
        """The sticky snapshot, when one is pinned."""
        return self._sticky

    def __enter__(self) -> "StoreSession":
        return self

    def __exit__(self, *exc) -> None:
        self.end()

    # -- reads ---------------------------------------------------------------

    def sparql(self, text: str, options: Optional[PlannerOptions] = None,
               decode: bool = False):
        """Run a SPARQL query against the session's view.

        With ``decode=True`` returns decoded rows (decoded under the same
        snapshot, so OIDs and terms always match).
        """
        if self._sticky is not None:
            result = self._sticky.sparql(text, options)
            return self._sticky.decode_rows(result) if decode else result
        with self.store.snapshot() as snapshot:
            result = snapshot.sparql(text, options)
            return snapshot.decode_rows(result) if decode else result

    def sql(self, text: str, decode: bool = False):
        """Run a SQL query against the session's view."""
        if self._sticky is not None:
            result = self._sticky.sql(text)
            return self._sticky.decode_rows(result) if decode else result
        with self.store.snapshot() as snapshot:
            result = snapshot.sql(text)
            return snapshot.decode_rows(result) if decode else result

    # -- writes --------------------------------------------------------------

    def update(self, text: str):
        """Execute a SPARQL Update through the store's single-writer path.

        A sticky snapshot, if any, deliberately does *not* see the write —
        that is what repeatable reads mean; call :meth:`end` + :meth:`begin`
        to move the session's view forward.
        """
        return self.store.update(text)
