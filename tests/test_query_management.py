"""Live query management: registry, cancellation, progress, event log.

Covered here:

* the structured :class:`EventLog` — ring semantics, type filtering, the
  JSON-lines file sink with bounded rotation;
* :class:`ActiveQueryRegistry` / :class:`ActiveQuery` unit semantics — id
  monotonicity, idempotent finish, cancel of unknown ids, progress
  estimation (clamping, monotonic peak, ``None`` without estimates);
* store integration — queries visible in ``active_queries()`` mid-run,
  cooperative cancellation raising :class:`QueryCancelledError` within one
  batch, lifecycle events for queries/updates/compactions/checkpoints/WAL
  replay;
* cancellation races — cancel under 8 concurrent snapshot readers plus a
  writer, cancel of an already-finished id (no-op), cancel during LIMIT
  early termination — all asserting registry cleanup and no leaked
  snapshot pins;
* the HTTP surface — ``/queries`` listing, ``/queries/cancel`` status
  codes (200/404/400), and the hardened 404-with-JSON-body handler.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    DiscoveryConfig,
    EventLog,
    ExecutionError,
    GeneralizationConfig,
    ParseError,
    PlannerOptions,
    QueryCancelledError,
    QueryServer,
    RDFStore,
    StorageError,
    StoreConfig,
)
from repro.engine.operators import ProjectOp
from repro.obs import NULL_ACTIVE_QUERY, ActiveQuery, ActiveQueryRegistry

from _datasets import EX, book_triples

STAR_QUERY = f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}"
CROSS_QUERY = (f"SELECT ?b ?a ?b2 WHERE {{ ?b <{EX}has_author> ?a . "
               f"?b2 <{EX}has_author> ?a . }}")


def _untimed(line: str) -> str:
    """An ``explain`` tree line without its run-to-run ``time=`` token."""
    return re.sub(r" time=[0-9.]+ms", "", line)


def _config(**overrides) -> StoreConfig:
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)), **overrides)


@pytest.fixture()
def store() -> RDFStore:
    return RDFStore.build(book_triples(), config=_config())


@pytest.fixture()
def slow_store() -> RDFStore:
    """Row-at-a-time cross-join workload: many batches, cancels within one.

    A user that must *see* the query running holds it with
    :func:`project_gate` or :func:`project_turnstile`: its length alone does
    not promise that a cancel arrives before it finishes."""
    return RDFStore.build(book_triples(books=1200, authors=4),
                          config=_config(batch_size=1))


class _Gate:
    """Deterministic mid-query hold: every ProjectOp batch waits for release."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()


@pytest.fixture()
def project_gate(monkeypatch) -> _Gate:
    gate = _Gate()
    original = ProjectOp._batches

    def gated(self, context):
        for batch in original(self, context):
            gate.entered.set()
            assert gate.release.wait(timeout=30), "gate never released"
            yield batch

    monkeypatch.setattr(ProjectOp, "_batches", gated)
    return gate


class _Turnstile:
    """Step-by-step mid-query hold: every ProjectOp batch signals its
    arrival and waits for one pass."""

    def __init__(self):
        self.arrived = threading.Semaphore(0)
        self.passes = threading.Semaphore(0)


@pytest.fixture()
def project_turnstile(monkeypatch) -> _Turnstile:
    turnstile = _Turnstile()
    original = ProjectOp._batches

    def stepped(self, context):
        for batch in original(self, context):
            turnstile.arrived.release()
            assert turnstile.passes.acquire(timeout=30), "turnstile never passed"
            yield batch

    monkeypatch.setattr(ProjectOp, "_batches", stepped)
    return turnstile


# -- event log ----------------------------------------------------------------


class TestEventLog:
    def test_emit_assigns_monotonic_seq_and_ts(self):
        log = EventLog(capacity=8)
        first = log.emit("query_start", id=1)
        second = log.emit("query_finish", id=1, status="finished")
        assert second["seq"] == first["seq"] + 1
        assert second["ts"] >= first["ts"]
        assert first["type"] == "query_start" and first["id"] == 1

    def test_ring_evicts_oldest_and_counts_drops(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("update", n=i)
        events = log.events()
        assert [e["n"] for e in events] == [4, 3, 2]  # newest first
        assert len(log) == 3
        stats = log.stats()
        assert stats == {"emitted": 5, "buffered": 3, "dropped": 2,
                         "rotations": 0}

    def test_type_filter_and_limit(self):
        log = EventLog(capacity=16)
        for i in range(4):
            log.emit("query_start", id=i)
            log.emit("query_finish", id=i)
        starts = log.events(type="query_start", limit=2)
        assert [e["id"] for e in starts] == [3, 2]
        assert all(e["type"] == "query_start" for e in starts)

    def test_file_sink_writes_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=path)
        log.emit("checkpoint", path="/db", seconds=0.5)
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["type"] == "checkpoint" and record["path"] == "/db"

    def test_rotation_keeps_at_most_two_files(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=path, max_bytes=200)
        for i in range(50):
            log.emit("update", n=i, padding="x" * 40)
        log.close()
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["events.jsonl", "events.jsonl.1"]
        assert log.stats()["rotations"] >= 1
        for file in tmp_path.iterdir():
            assert file.stat().st_size <= 200 + 120  # bound + one record slack
            for line in file.read_text().splitlines():
                json.loads(line)  # every rotated line is intact JSON

    def test_clear_keeps_file_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=4, path=path)
        log.emit("update", n=1)
        log.clear()
        assert len(log) == 0
        log.emit("update", n=2)
        log.close()
        assert len(path.read_text().splitlines()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)
        with pytest.raises(ValueError):
            EventLog(max_bytes=0)


# -- registry unit semantics --------------------------------------------------


class _FakeOp:
    def __init__(self, estimated, children=()):
        self.estimated_rows = estimated
        self._children = tuple(children)

    def children(self):
        return self._children

    def describe(self):
        return f"Fake[est={self.estimated_rows}]"


class TestActiveQueryRegistry:
    def test_ids_are_monotonic_and_finish_is_idempotent(self):
        registry = ActiveQueryRegistry()
        first = registry.begin("SELECT 1", "sparql", "optimized")
        second = registry.begin("SELECT 2", "sparql", "optimized")
        assert second.query_id == first.query_id + 1
        assert registry.active_count() == 2
        registry.finish(first)
        registry.finish(first)  # double-finish is a no-op
        assert registry.active_count() == 1
        registry.finish(second)
        assert registry.active() == []

    def test_cancel_unknown_or_finished_id_is_noop(self):
        events = EventLog(capacity=8)
        registry = ActiveQueryRegistry(events=events)
        assert registry.cancel(42) is False
        query = registry.begin("SELECT 1", "sparql", "optimized")
        registry.finish(query)
        assert registry.cancel(query.query_id) is False
        # a refused cancel leaves no trace in the event log
        assert events.events(type="query_cancel") == []

    def test_cancel_sets_flag_and_emits_event(self):
        events = EventLog(capacity=8)
        registry = ActiveQueryRegistry(events=events)
        query = registry.begin("SELECT 1", "sparql", "optimized")
        assert registry.cancel(query.query_id, reason="too slow") is True
        assert query.cancel_requested is True
        (cancel,) = events.events(type="query_cancel")
        assert cancel["id"] == query.query_id and cancel["reason"] == "too slow"
        with pytest.raises(QueryCancelledError) as excinfo:
            query.raise_cancelled()
        assert excinfo.value.query_id == query.query_id
        assert "too slow" in str(excinfo.value)

    def test_progress_none_without_estimates(self):
        query = ActiveQuery(1, "q", "sparql", "rdfscan")
        query.attach_plan(_FakeOp(None, [_FakeOp(None)]))
        assert query.progress() is None

    def test_progress_clamped_and_monotonic(self):
        child = _FakeOp(100.0)
        root = _FakeOp(100.0, [child])
        query = ActiveQuery(1, "q", "sparql", "optimized")
        query.attach_plan(root)
        query.tally(child)[0] += 50
        assert query.progress() == pytest.approx(0.25)
        query.tally(root)[0] += 50
        assert query.progress() == pytest.approx(0.5)
        # a wild underestimate cannot push the fraction past 1.0 ...
        query.tally(child)[0] += 10_000
        query.tally(root)[0] += 10_000
        assert query.progress() == 1.0
        # ... and the reported fraction never goes backwards
        peak = query.progress()
        assert query.progress() >= peak

    def test_describe_lists_everything_top_needs(self):
        query = ActiveQuery(7, "SELECT   ?x\nWHERE { }", "sparql", "optimized",
                            source="snapshot")
        root = _FakeOp(10.0)
        query.attach_plan(root)
        tally = query.tally(root)
        tally[0] += 4
        tally[1] += 1
        entry = query.describe()
        assert entry["id"] == 7
        assert entry["text"] == "SELECT ?x WHERE { }"  # whitespace-normalized
        assert entry["source"] == "snapshot"
        assert entry["rows"] == 4 and entry["batches"] == 1
        assert entry["operator"] == root.describe()
        assert 0 < entry["progress"] <= 1.0
        assert entry["cancel_requested"] is False
        assert entry["elapsed_seconds"] >= 0

    def test_error_type_hierarchy(self):
        assert issubclass(QueryCancelledError, ExecutionError)
        assert QueryCancelledError("x").query_id is None

    def test_null_active_query_is_inert(self):
        assert NULL_ACTIVE_QUERY.enabled is False
        assert NULL_ACTIVE_QUERY.trace is None
        assert NULL_ACTIVE_QUERY.explain_note(_FakeOp(10.0)) == ""


# -- store integration --------------------------------------------------------


class TestStoreIntegration:
    def test_query_lifecycle_events(self, store):
        result = store.sparql(STAR_QUERY)
        assert store.active_queries() == []
        finish = store.events(type="query_finish", limit=1)[0]
        start = store.events(type="query_start", limit=1)[0]
        assert start["id"] == finish["id"]
        assert start["frontend"] == "sparql"
        assert finish["status"] == "finished"
        assert finish["rows"] == len(result)
        assert finish["seconds"] >= 0

    def test_sql_queries_are_registered_too(self, store):
        store.sql("SELECT isbn_no FROM Book ORDER BY isbn_no")
        start = store.events(type="query_start", limit=1)[0]
        assert start["frontend"] == "sql"
        assert store.active_queries() == []

    def test_failed_query_emits_error_event(self, store):
        with pytest.raises(Exception):
            store.sql("SELECT nope FROM NoSuchTable")
        (error,) = store.events(type="query_error")
        assert "NoSuchTable" in error["error"] or "error" in error["error"].lower()
        assert store.active_queries() == []

    @pytest.mark.parametrize("outcome", ["finished", "profiled", "sql", "sql-profiled",
                                         "error", "sql-without-catalog", "cancelled"])
    def test_run_query_outcomes(self, outcome, store, monkeypatch):
        """Each way a run ends, as ``run_query`` accounts it through the
        registry's one ``finish``: exactly one terminal event, the completed
        / error / cancel counters, the run's ``buffers`` (a profiled run's
        only) and ``last_trace`` (only a profiled success replaces it)."""
        earlier = store.sparql(STAR_QUERY, profile=True).trace
        store.event_log.clear()
        before = store.metrics()
        if outcome == "sql-without-catalog":
            store = RDFStore(config=_config())
            store.load(book_triples())
            earlier, before = None, store.metrics()
        if outcome == "cancelled":
            begin = store.query_registry.begin

            def begin_cancelled(*args, **kwargs):
                run = begin(*args, **kwargs)
                store.cancel(run.query_id, reason="before the first batch")
                return run

            monkeypatch.setattr(store.query_registry, "begin", begin_cancelled)
        runs = {
            "finished": lambda: store.sparql(STAR_QUERY),
            "profiled": lambda: store.sparql(STAR_QUERY, profile=True),
            "sql": lambda: store.sql("SELECT isbn_no FROM Book"),
            "sql-profiled": lambda: store.sql("SELECT isbn_no FROM Book", profile=True),
            "error": lambda: store.sparql("THIS IS NOT SPARQL"),
            "sql-without-catalog": lambda: store.sql("SELECT isbn_no FROM Book"),
            "cancelled": lambda: store.sparql(STAR_QUERY),
        }
        raised = None
        try:
            result = runs[outcome]()
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            raised, result = exc, None
        after = store.metrics()

        def grew(prefix: str) -> float:
            return sum(value - before.get(key, 0) for key, value in after.items()
                       if key.startswith(prefix))

        frontend = "sql" if outcome.startswith("sql") else "sparql"
        (start,) = store.events(type="query_start")
        assert start["frontend"] == frontend
        assert store.active_queries() == []
        (terminal,) = store.events(type="query_finish") + store.events(type="query_error")
        assert terminal["id"] == start["id"] and terminal["frontend"] == frontend
        completed = errors = cancelled = 0
        if outcome in ("error", "sql-without-catalog"):
            assert isinstance(raised, ParseError if outcome == "error" else StorageError)
            assert terminal["type"] == "query_error"
            errors = 1
        elif outcome == "cancelled":
            assert isinstance(raised, QueryCancelledError)
            assert raised.query_id == start["id"]
            assert terminal["type"] == "query_finish" and terminal["status"] == "cancelled"
            cancelled = 1  # an operator action, not a query error
        else:
            assert raised is None
            assert terminal["type"] == "query_finish" and terminal["status"] == "finished"
            assert terminal["rows"] == len(result)
            completed = 1
        assert grew(f'queries_total{{frontend="{frontend}"') == grew("queries_total") == completed
        assert grew(f'query_seconds_count{{frontend="{frontend}"') == completed
        assert grew(f'query_errors_total{{frontend="{frontend}"}}') == grew("query_errors_total") == errors
        assert grew("queries_cancelled_total") == cancelled
        if outcome in ("profiled", "sql-profiled"):
            assert store.last_trace() is result.trace is not earlier
            assert result.run.buffers  # the run's pool delta since it began
        else:
            assert store.last_trace() is earlier
            assert result is None or result.run.buffers == {}  # no pool stats() taken

    def test_query_visible_and_cancellable_mid_run(self, store, project_gate):
        outcome = []

        def run():
            try:
                store.sparql(STAR_QUERY)
                outcome.append("finished")
            except QueryCancelledError as exc:
                outcome.append(("cancelled", exc.query_id))

        thread = threading.Thread(target=run)
        thread.start()
        assert project_gate.entered.wait(timeout=10)
        (entry,) = store.active_queries()
        assert entry["frontend"] == "sparql"
        assert entry["cancel_requested"] is False
        assert store.cancel(entry["id"], reason="operator request") is True
        (listed,) = store.active_queries()
        assert listed["cancel_requested"] is True
        project_gate.release.set()
        thread.join(timeout=30)
        assert outcome == [("cancelled", entry["id"])]
        assert store.active_queries() == []
        finish = store.events(type="query_finish", limit=1)[0]
        assert finish["status"] == "cancelled" and finish["id"] == entry["id"]
        # a subsequent identical query runs normally on the shared cached plan
        assert len(store.sparql(STAR_QUERY)) > 0

    def test_explain_analyze_runs_inside_the_lifecycle(self, store, project_gate):
        """``explain(analyze=True)`` is a query like any other: listed while
        it runs (``source="explain"``), cancellable, counted and logged."""
        outcome = []

        def run():
            try:
                outcome.append(store.explain(STAR_QUERY, analyze=True))
            except QueryCancelledError as exc:
                outcome.append(("cancelled", exc.query_id))

        thread = threading.Thread(target=run)
        thread.start()
        assert project_gate.entered.wait(timeout=10)
        (entry,) = store.active_queries()
        assert entry["source"] == "explain" and entry["frontend"] == "sparql"
        assert store.cancel(entry["id"]) is True
        project_gate.release.set()
        thread.join(timeout=30)
        assert outcome == [("cancelled", entry["id"])]
        assert store.active_queries() == []
        finish = store.events(type="query_finish", limit=1)[0]
        assert finish["status"] == "cancelled" and finish["id"] == entry["id"]

        text = store.explain(STAR_QUERY, analyze=True)
        assert store.metrics()['queries_total{frontend="sparql",scheme="rdfscan"}'] == 1
        assert store.events(type="query_start", limit=1)[0]["source"] == "explain"
        header, buffers, *tree = text.splitlines()
        # the header accounts for the call: the executor's wall time plus
        # parse and plan time; everything below it is as it always was
        assert re.fullmatch(
            r"plan \[scheme=rdfscan zonemaps=yes\] wall=[0-9.]+ms sim=[0-9.]+ms "
            r"reads=\d+ hits=\d+ scanned=\d+ joins=\d+ parse=[0-9.]+ms plan=[0-9.]+ms",
            header), header
        assert re.fullmatch(
            r"buffers: cached_pages=\d+ resident_bytes=\d+ evictions=\d+ reads=\d+ "
            r"hits=\d+ lazy_materialized=\d+/\d+ lazy_values_loaded=\d+", buffers), buffers
        profiled = store.sparql(STAR_QUERY, profile=True)
        assert ([_untimed(line) for line in tree]
                == [_untimed(line) for line in
                    profiled.plan.explain(run=profiled.run).splitlines()])
        assert all(re.search(r"est=\d+ actual=\d+ .*time=[0-9.]+ms pages=\d+", line)
                   for line in tree), tree

    def test_progress_is_monotonic_under_optimized_scheme(self, slow_store,
                                                          project_turnstile):
        options = PlannerOptions(scheme="optimized")
        samples = []

        def run():
            try:
                slow_store.sparql(CROSS_QUERY, options)
            except QueryCancelledError:
                pass

        thread = threading.Thread(target=run)
        thread.start()
        qid = None
        # sample between output batches: the query is held at each one
        for _step in range(5):
            assert project_turnstile.arrived.acquire(timeout=10), "query never produced a batch"
            active = slow_store.active_queries()
            if active:
                qid = active[0]["id"]
                if active[0]["progress"] is not None:
                    samples.append(active[0]["progress"])
            project_turnstile.passes.release()
        if qid is not None:
            slow_store.cancel(qid)  # seen enough; stop the burn
        project_turnstile.passes.release()  # the next batch sees the cancel
        thread.join(timeout=30)
        assert qid is not None, "query never became visible"
        assert samples, "no progress samples observed"
        assert samples == sorted(samples), "progress went backwards"
        assert 0 < samples[-1] <= 1.0

    def test_cancel_finished_id_is_noop(self, store):
        store.sparql(STAR_QUERY)
        finished_id = store.events(type="query_finish", limit=1)[0]["id"]
        assert store.cancel(finished_id) is False
        assert store.events(type="query_cancel") == []

    def test_update_compaction_checkpoint_events(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}')
        (update,) = store.events(type="update")
        assert update["inserted"] == 1 and update["deleted"] == 0
        store.checkpoint()
        (compaction,) = store.events(type="compaction")
        assert compaction["merged_inserts"] == 1
        phases = [compaction[phase] for phase in ("statistics_s", "index_s")]
        assert all(seconds >= 0 for seconds in phases) and sum(phases) <= compaction["seconds"]
        assert "value_order_s" not in compaction  # compaction moves no OID
        # the insert's set check sorted SPO, and compaction merged it
        assert compaction["projections_merged"] >= 1
        (checkpoint,) = store.events(type="checkpoint")
        assert checkpoint["triples"] == store.triple_count()
        assert checkpoint["compact_s"] >= compaction["seconds"]
        assert checkpoint["compact_s"] + checkpoint["write_s"] == pytest.approx(
            checkpoint["seconds"])

    def test_wal_replay_event_on_open(self, store, tmp_path):
        store.save(tmp_path / "db")
        store.update(f'INSERT DATA {{ <{EX}x> <{EX}p> "v" . }}')
        reopened = RDFStore.open(tmp_path / "db")
        (replay,) = reopened.events(type="wal_replay")
        assert replay["records"] == 1
        # replayed updates do not masquerade as fresh update events
        assert reopened.events(type="update") == []

    def test_event_log_file_sink_through_store(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = RDFStore.build(book_triples(),
                               config=_config(event_log_path=path))
        store.sparql(STAR_QUERY)
        store.event_log.close()
        types = [json.loads(line)["type"]
                 for line in path.read_text().splitlines()]
        assert types == ["query_start", "query_finish"]

    def test_event_log_entries_metric(self, store):
        store.sparql(STAR_QUERY)
        metrics = store.metrics()
        assert metrics["event_log_entries"] == len(store.event_log) >= 2
        assert metrics["active_queries"] == 0
        assert metrics["queries_cancelled_total"] == 0


# -- cancellation races -------------------------------------------------------


class TestCancellationRaces:
    def test_cancel_under_concurrent_readers_and_writer(self, slow_store, project_gate):
        """Cancel queries mid-flight under 8 snapshot readers + a writer; the
        gate holds every query until all 8 are cancelled."""
        with QueryServer(slow_store, workers=8) as server:
            futures = [server.submit_query(CROSS_QUERY) for _ in range(8)]
            stop_writer = threading.Event()

            def write():
                i = 0
                while not stop_writer.is_set():
                    slow_store.update(
                        f'INSERT DATA {{ <{EX}w/{i}> <{EX}p> "v" . }}')
                    i += 1
                    time.sleep(0.002)

            writer = threading.Thread(target=write)
            writer.start()
            try:
                cancelled = set()
                deadline = time.time() + 60
                while time.time() < deadline:
                    for entry in slow_store.active_queries():
                        if entry["id"] not in cancelled:
                            if slow_store.cancel(entry["id"]):
                                cancelled.add(entry["id"])
                    if len(cancelled) == len(futures):
                        project_gate.release.set()
                    if all(f.done() for f in futures):
                        break
                    time.sleep(0.002)
            finally:
                project_gate.release.set()
                stop_writer.set()
                writer.join(timeout=30)
            outcomes = []
            for future in futures:
                try:
                    result = future.result(timeout=60)
                    outcomes.append(("finished", len(result)))
                except QueryCancelledError as exc:
                    outcomes.append(("cancelled", exc.query_id))
        # every reader unwound one way or the other; most were cancelled
        assert len(outcomes) == 8
        assert cancelled, "no query was ever visible to cancel"
        assert sum(1 for kind, _ in outcomes if kind == "cancelled") >= 1
        assert slow_store.active_queries() == []
        assert slow_store.open_snapshot_count() == 0, "leaked snapshot pins"
        cancels = slow_store.events(type="query_cancel")
        assert {event["id"] for event in cancels} == cancelled

    def test_cancel_during_limit_early_termination(self, store, project_gate):
        """LIMIT closes its child mid-stream; a racing cancel must unwind
        cleanly through the same cascade without leaking registry entries."""
        query = f"SELECT ?b WHERE {{ ?b <{EX}has_author> ?a . }} LIMIT 3"
        outcome = []

        def run():
            try:
                with store.snapshot() as snapshot:
                    outcome.append(("finished", len(snapshot.sparql(query))))
            except QueryCancelledError as exc:
                outcome.append(("cancelled", exc.query_id))

        thread = threading.Thread(target=run)
        thread.start()
        assert project_gate.entered.wait(timeout=10)
        (entry,) = store.active_queries()
        assert entry["source"] == "snapshot"
        assert store.cancel(entry["id"]) is True
        project_gate.release.set()
        thread.join(timeout=30)
        assert outcome[0][0] in ("cancelled", "finished")
        assert store.active_queries() == []
        assert store.open_snapshot_count() == 0, "leaked snapshot pin"

    def test_uncancelled_limit_still_terminates_early(self, store):
        query = f"SELECT ?b WHERE {{ ?b <{EX}has_author> ?a . }} LIMIT 3"
        with store.snapshot() as snapshot:
            assert len(snapshot.sparql(query)) == 3
        assert store.active_queries() == []
        assert store.open_snapshot_count() == 0


# -- HTTP surface -------------------------------------------------------------


def _http_json(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        body = err.read()
        return err.code, json.loads(body), dict(err.headers)


class TestHttpQueryManagement:
    def test_queries_listing_and_cancel_roundtrip(self, slow_store, project_gate):
        with QueryServer(slow_store, workers=2) as server:
            port = server.start_metrics_endpoint()
            base = f"http://127.0.0.1:{port}"
            future = server.submit_query(CROSS_QUERY)
            entry = None
            deadline = time.time() + 30
            while time.time() < deadline:
                _status, payload, _headers = _http_json(f"{base}/queries")
                if payload["queries"]:
                    entry = payload["queries"][0]
                    break
                time.sleep(0.005)
            assert entry is not None, "query never appeared in /queries"
            assert entry["source"] == "snapshot"
            status, payload, _headers = _http_json(
                f"{base}/queries/cancel?id={entry['id']}&reason=http")
            assert status == 200 and payload == {"cancelled": True,
                                                 "id": entry["id"]}
            project_gate.release.set()  # the query held until the cancel was sent
            with pytest.raises(QueryCancelledError):
                future.result(timeout=60)
            (cancel,) = slow_store.events(type="query_cancel")
            assert cancel["reason"] == "http"
        assert slow_store.active_queries() == []
        assert slow_store.open_snapshot_count() == 0

    def test_cancel_status_codes(self, store):
        with QueryServer(store, workers=1) as server:
            port = server.start_metrics_endpoint()
            base = f"http://127.0.0.1:{port}"
            status, payload, _ = _http_json(f"{base}/queries/cancel?id=999")
            assert status == 404 and payload["cancelled"] is False
            status, payload, _ = _http_json(f"{base}/queries/cancel?id=abc")
            assert status == 400 and "bad query id" in payload["error"]
            status, payload, _ = _http_json(f"{base}/queries/cancel")
            assert status == 400

    def test_unknown_path_has_json_body_and_content_length(self, store):
        with QueryServer(store, workers=1) as server:
            port = server.start_metrics_endpoint()
            base = f"http://127.0.0.1:{port}"
            status, payload, headers = _http_json(f"{base}/definitely/not")
            assert status == 404
            assert "/queries" in payload["routes"]
            assert int(headers["Content-Length"]) > 0
            assert headers["Content-Type"] == "application/json"

    def test_stats_includes_slow_queries_and_active_count(self, store):
        store.slow_query_log.threshold_seconds = 0.0  # log everything
        with QueryServer(store, workers=1) as server:
            port = server.start_metrics_endpoint()
            server.submit_query(STAR_QUERY).result()
            base = f"http://127.0.0.1:{port}"
            _status, stats, _ = _http_json(f"{base}/stats")
            assert stats["active_queries"] == 0
            assert len(stats["slow_queries"]) >= 1
            entry = stats["slow_queries"][0]
            assert entry["frontend"] == "sparql"
            assert entry["seconds"] >= 0

    def test_served_store_cancel_and_listing(self, store):
        with QueryServer(store, workers=1) as server:
            assert server.store is store
            assert server.store.active_queries() == []
            assert server.store.cancel(12345) is False
