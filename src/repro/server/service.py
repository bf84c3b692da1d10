"""The threaded query server: a store behind a thread pool and an HTTP endpoint.

The store is the object to share between threads: reads run lock-free on
the committed version record the writer published, and every transition
takes the writer mutex.  :class:`QueryServer` puts a small thread pool in
front of one store, turning it into the in-process equivalent of a SPARQL
endpoint: ``submit_*`` returns a :class:`concurrent.futures.Future`
immediately, any number of client threads can submit concurrently, and
every read pins a snapshot and decodes under that pin.

The server does not own the store: building, compacting and persisting
remain the owner's business, and maintenance can run while the server keeps
answering from pinned snapshots.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from urllib.parse import parse_qs, urlsplit

from ..obs import default_registry, render_prometheus
from ..planner import PlannerOptions, QueryResult


class QueryServer:
    """A small threaded executor serving queries and updates over one store.

    ``workers`` threads execute submitted requests concurrently; reads run
    against pinned snapshots, writes serialize on the store's writer mutex.
    Every request bumps the store's ``server_requests_total{kind=…}`` /
    ``server_errors_total{kind=…}`` counters and the
    ``server_inflight_requests`` gauge.  Use as a context manager, or call
    :meth:`shutdown` explicitly.
    """

    def __init__(self, store, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("a query server needs at least one worker thread")
        self.store = store
        self.workers = workers
        registry = store.metrics_registry
        self._requests = registry.counter(
            "server_requests_total", "Requests accepted by the query server.",
            labelnames=("kind",))
        self._errors = registry.counter(
            "server_errors_total", "Requests that raised, by kind.",
            labelnames=("kind",))
        self._inflight = registry.gauge(
            "server_inflight_requests", "Requests currently executing.")
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-query")
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # -- submission --------------------------------------------------------------

    def submit_query(self, text: str, options: Optional[PlannerOptions] = None,
                     decode: bool = False) -> "Future[QueryResult]":
        """Queue one SPARQL query; resolve to its result, or to its decoded
        rows with ``decode=True``."""
        return self._pool.submit(self._read, "query", "sparql", text, options, decode)

    def submit_sql(self, text: str, decode: bool = False) -> "Future[QueryResult]":
        """Queue one SQL query; resolve to its result (or decoded rows)."""
        return self._pool.submit(self._read, "sql", "sql", text, None, decode)

    def submit_update(self, text: str) -> Future:
        """Queue one SPARQL Update; resolve to its :class:`UpdateResult`."""
        return self._pool.submit(self._update, text)

    @contextmanager
    def _counted(self, kind: str):
        self._requests.inc(kind=kind)
        self._inflight.add(1)
        try:
            yield
        except Exception:
            self._errors.inc(kind=kind)
            raise
        finally:
            self._inflight.add(-1)

    def _read(self, kind: str, frontend: str, text: str,
              options: Optional[PlannerOptions], decode: bool):
        """Pin, run, decode under the same pin, release: one served read.
        Decoding under the pin keeps OIDs and terms matched while a writer
        rebuilds."""
        with self._counted(kind), self.store.snapshot() as snapshot:
            result = snapshot.query(frontend, text, options)
            return snapshot.decode_rows(result) if decode else result

    def _update(self, text: str):
        with self._counted("update"):
            return self.store.update(text)

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict:
        """What ``/stats`` serves: open snapshots, pending writes, versions,
        active queries, per-frontend/scheme latency summaries (count, sum,
        exact max, mean, bucket-estimated percentiles), and the most recent
        slow-query entries."""
        store = self.store
        return {
            "open_snapshots": store.open_snapshot_count(),
            "base_generation": store.generation,
            "delta_version": store.delta.version,
            "pending_inserts": store.delta.insert_count(),
            "pending_deletes": store.delta.tombstone_count(),
            "active_queries": store.query_registry.active_count(),
            "query_latency": self._histogram_summaries("query_seconds"),
            "profile_latency": self._histogram_summaries("query_profile_seconds"),
            "slow_queries": [entry.as_dict() for entry
                             in store.slow_queries()[:20]],
        }

    def _histogram_summaries(self, name: str) -> dict:
        """One ``summary()`` dict per labelset of a store histogram,
        keyed ``label=value,label=value`` (``"all"`` when unlabeled)."""
        histogram = self.store.metrics_registry.get(name)
        out: dict = {}
        if histogram is None:
            return out
        for key, _state in histogram.samples():
            labels = dict(zip(histogram.labelnames, key))
            label_key = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            out[label_key or "all"] = histogram.summary(**labels)
        return out

    def metrics_text(self) -> str:
        """The served store's metrics in Prometheus text format.

        Merges the store's registry with the process-global one (WAL
        counters); this is the body the ``/metrics`` endpoint serves.
        """
        return render_prometheus(self.store.metrics_registry,
                                 default_registry())

    def start_metrics_endpoint(self, host: str = "127.0.0.1",
                               port: int = 0) -> int:
        """Serve the observability endpoint on a daemon thread.

        Routes (all ``GET``):

        * ``/metrics`` — Prometheus text exposition;
        * ``/stats`` — server-level JSON (versions, pending writes, active
          query count, recent slow queries);
        * ``/queries`` — JSON list of in-flight queries with progress;
        * ``/queries/cancel?id=N`` — request cooperative cancellation
          (``200`` with ``{"cancelled": true}`` when the id was active,
          ``404`` when unknown/finished, ``400`` for a malformed id).

        Returns the bound port (``port=0`` picks a free one).  Stopped by
        :meth:`shutdown`.
        """
        if self._http is not None:
            raise RuntimeError("metrics endpoint already running")
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                # a scraper or curl may disconnect mid-response; that is the
                # client's business, not a server stack trace
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", content_type)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass

            def _send_json(self, status: int, payload: object) -> None:
                self._send(status, "application/json",
                           json.dumps(payload).encode("utf-8"))

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                parts = urlsplit(self.path)
                route = parts.path
                if route == "/metrics":
                    self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                               server.metrics_text().encode("utf-8"))
                elif route == "/stats":
                    self._send_json(200, server.stats())
                elif route == "/queries":
                    self._send_json(200,
                                    {"queries": server.store.active_queries()})
                elif route == "/queries/cancel":
                    params = parse_qs(parts.query)
                    raw = params.get("id", [""])[0]
                    try:
                        query_id = int(raw)
                    except ValueError:
                        self._send_json(400, {"error": f"bad query id: {raw!r}"})
                        return
                    reason = params.get("reason", [""])[0]
                    if server.store.cancel(query_id, reason=reason):
                        self._send_json(200, {"cancelled": True, "id": query_id})
                    else:
                        self._send_json(404, {"cancelled": False, "id": query_id,
                                              "error": "no such active query"})
                else:
                    self._send_json(404, {
                        "error": f"unknown path {route!r}",
                        "routes": ["/metrics", "/stats", "/queries",
                                   "/queries/cancel?id=N"]})

            def log_message(self, format, *args) -> None:  # noqa: A002
                pass  # scrapes every few seconds would flood stderr

        self._http = ThreadingHTTPServer((host, port), _Handler)
        self._http.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-metrics", daemon=True)
        self._http_thread.start()
        return self._http.server_address[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The metrics endpoint's bound port, or ``None`` when not running."""
        return self._http.server_address[1] if self._http is not None else None

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
            if self._http_thread is not None:
                self._http_thread.join(timeout=5)
                self._http_thread = None
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
