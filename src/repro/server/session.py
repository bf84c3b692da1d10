"""The per-version read state and the MVCC snapshots that pin it.

There is one way to read a store.  A :class:`StoreVersion` is the read state
of one committed *version pair* — the store's base generation (bumped
whenever a base object is replaced) and the delta version (bumped by every
write) — and bundles everything a query needs to run against exactly that
state:

* direct references to the base structures (dictionary, schema, catalog,
  exhaustive indexes, clustered store) — immutable by construction: every
  transition replaces these objects instead of editing them;
* the version's :class:`~repro.updates.FrozenDelta` — the immutable read
  half of the pending writes;
* one :class:`~repro.engine.ExecutionContext` and one query engine (SPARQL
  and SQL) wired to those references and to the store's one plan cache,
  under keys scoped by what a plan reads — the base generation and whether
  writes are pending, not the delta version: a plan reads the delta and
  the literal tail at run time, so every version of a generation with
  pending writes shares its templates, before and after each write.
  Nothing clears the cache; a request binds its constants against its own
  version's dictionary (see :class:`~repro.planner.PlanCache`).

The writer builds the record once per committed version, as the last step
of every transition, and the :class:`SnapshotRegistry` *publishes* it with
one assignment — a context and an engine cost microseconds, and whatever is
expensive to derive lives on the objects it describes (statistics on
columns, the literal index and numeric values on the dictionary, the delta
index on the frozen delta).  Every reader of that version shares it.  A
direct ``store.sparql`` reads the published record, one attribute read; a
:class:`ReadSnapshot` is the same record plus a *pin*, which is what makes
it survive (and stay decodable across) later updates, compactions and
checkpoints.  Pinning takes the registry's mutex only, never the writer's:
no reader waits on a writer, and none observes a request in flight.  A
held snapshot is a client's repeatable read: every query through it sees
the state it pinned, whatever the writer does meanwhile.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from ..engine import ExecutionContext
from ..errors import StorageError
from ..planner import PlannerOptions, QueryEngine, QueryResult
from ..sparql import SPARQL_FRONTEND
from ..sql import sql_frontend


class StoreVersion:
    """The read state of one (generation, delta version) pair of a store.

    Built by the writer from the store's attributes — at publish, or for a
    request's own reads of its pending state — and never changed after: a
    later write or rebuild makes a new record.
    """

    __slots__ = ("key", "delta", "context", "catalog", "engine", "base_triples")

    def __init__(self, store) -> None:
        self.key = key = (store.generation, store.delta.version)
        self.delta = (None if store.delta.is_empty()
                      else store.delta.freeze(store.schema, store.index_store))
        self.context = ExecutionContext(
            dictionary=store.dictionary,
            pool=store.pool,
            index_store=store.index_store,
            clustered_store=store.clustered_store,
            schema=store.schema,
            delta=self.delta,
            batch_size=store.config.batch_size,
        )
        self.catalog = store.catalog
        # SPARQL always; SQL once a schema (hence a catalog) exists
        frontends = [SPARQL_FRONTEND]
        if self.catalog is not None:
            frontends.append(sql_frontend(self.catalog))
        # plans key on what they read: the base generation, and whether the
        # pending delta is empty; the delta itself is read at run time
        self.engine = QueryEngine(self.context, frontends, store.plan_cache,
                                  version=(store.generation, self.delta is not None))
        self.base_triples = store.triple_count()

    def drop_pages(self, current: "StoreVersion") -> None:
        """Evict this version's delta pages from the buffer pool, but for
        the tail blocks ``current``, the published record, shares."""
        if self.delta is not None:
            self.delta.drop_pages(current.delta)


class ReadSnapshot:
    """A pin on one :class:`StoreVersion`: base generation + delta version.

    Obtained from :meth:`repro.core.RDFStore.snapshot`; release with
    :meth:`close` or use as a context manager.  All queries through the snapshot see exactly the state at pin
    time, regardless of concurrent updates, compactions or checkpoints.
    """

    def __init__(self, store, registry: "SnapshotRegistry", version: StoreVersion) -> None:
        self._store = store
        self._registry = registry
        self._version = version
        self.generation, self.delta_version = version.key
        self.context = version.context
        self.catalog = version.catalog
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
        self._registry.release(self._version)

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

        Snapshot queries run through the owning store's
        :meth:`~repro.core.RDFStore.run_query`, the body a direct
        :meth:`RDFStore.sparql` call runs through, so they record into its
        metrics, slow-query log and active-query registry exactly alike.
        The query is therefore visible in ``store.active_queries()``
        (``source="snapshot"``) and cancellable with ``store.cancel(id)``
        while it runs.

        With ``profile=True`` the run carries a
        :class:`~repro.obs.QueryTrace` on the result's ``trace`` field,
        same as the direct store call.
        """
        return self.query("sparql", text, options, profile)

    def sql(self, text: str, profile: bool = False) -> QueryResult:
        """Run a SQL query against the pinned state's emergent schema."""
        return self.query("sql", text, profile=profile)

    def query(self, frontend: str, text: str, options: Optional[PlannerOptions] = None,
              profile: bool = False) -> QueryResult:
        """Run a query of either front end against the pinned state."""
        self._require_open()
        return self._store.run_query(self._version, frontend, text, options,
                                     source="snapshot", profile=profile)

    def decode_rows(self, result) -> List[tuple]:
        """Decode a result's OIDs with the *pinned* dictionary.

        Safe even after a later compaction re-mapped the live store's
        literal OIDs — the snapshot holds the dictionary it was pinned with.
        """
        self._require_open()
        return result.decoded_rows(self.context)

    def live_triple_count(self) -> int:
        """Triples visible to this snapshot: base ∪ delta − tombstones.

        Computed from the base count captured with the version — never from
        the live store, whose base may have compacted since.
        """
        self._require_open()
        delta = self._version.delta
        if delta is None:
            return self._version.base_triples
        return self._version.base_triples + delta.insert_count() - delta.tombstone_count()


class SnapshotRegistry:
    """Holds the published :class:`StoreVersion` and counts pins on every
    version.

    Owned by the store.  ``current`` is the committed record every read
    runs against: the writer replaces it with :meth:`publish` and nothing
    else changes it.  One rule reclaims a delta version's index pages from
    the buffer pool, in one place (:meth:`publish` / :meth:`release`): a
    replaced version's pages are dropped at once if nothing pins it, else
    at its last release.
    """

    def __init__(self, version: StoreVersion) -> None:
        self._lock = threading.Lock()
        self.current = version
        self._pins: Dict[StoreVersion, int] = {}
        """Pin counts per record, by identity."""

    def publish(self, version: StoreVersion) -> None:
        """Make ``version`` the committed record: one assignment, under the
        mutex a pin takes, so a pin counts on the record it hands out."""
        with self._lock:
            replaced, self.current = self.current, version
            if replaced not in self._pins:
                replaced.drop_pages(version)

    def acquire(self, store) -> ReadSnapshot:
        """Pin the published record and hand out a snapshot."""
        with self._lock:
            version = self.current
            self._pins[version] = self._pins.get(version, 0) + 1
        # batch_size is a live runtime knob, not part of any version
        version.context.batch_size = store.config.batch_size
        return ReadSnapshot(store, self, version)

    def release(self, version: StoreVersion) -> None:
        with self._lock:
            remaining = self._pins[version] - 1
            if remaining:
                self._pins[version] = remaining
                return
            del self._pins[version]
            if version is not self.current:
                version.drop_pages(self.current)

    def active_count(self) -> int:
        """Number of snapshots currently open across all versions."""
        with self._lock:
            return sum(self._pins.values())

    def pinned_delta_versions(self) -> Set[int]:
        """Delta versions currently referenced by open snapshots."""
        with self._lock:
            return {version.key[1] for version in self._pins}

    def deferred_reclaim_depth(self) -> int:
        """Superseded delta versions whose pages wait on open pins.

        A persistently nonzero depth under a read-heavy workload means
        snapshot pins are outliving writes and superseded delta index pages
        are accumulating in the buffer pool.
        """
        with self._lock:
            return sum(1 for version in self._pins
                       if version is not self.current and version.delta is not None)

