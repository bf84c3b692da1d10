"""The four workloads.

Load shape, common to all: a closed loop with one client on one thread in
one process.  Every measured loop is time-boxed by ``--seconds`` in whole
rounds with a floor (``Scale.min_rounds`` etc.), ``gc.collect()`` runs
before it and the collector stays enabled.  Each request is timed text-in
to decoded-rows-out, and its answer is compared with the oracle outside
the timed interval.  Every duration is kept with the time it ended at and
converted to the reference host speed when the run ends (``HostClock``).

Only public entry points of ``repro`` are called, so the layers are
measured from outside: a traced run wraps those calls in spans and replays
each request stage by stage (parse, prepare, execute, decode) to attribute
its latency.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import shutil
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean as mean
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import PlannerOptions, RDFStore
from repro.bench import sub_order_keys
from repro.engine import execute_plan
from repro.rio import parse_rdf
from repro.sparql import SparqlEngine, parse_sparql, parse_update
from repro.sql import parse_sql

from inputs import (
    PROBE_PLAN,
    AdhocStream,
    Dataset,
    QueryOp,
    Scale,
    UpdateStream,
    lines_of_order_op,
    make_dataset,
    papers_of_conference_op,
    q3_op,
    q6_op,
    repeat_ops,
)
from oracle import ShadowModel, check_fingerprint, check_fresh_store
from spans import HostClock, SpanRecorder, duration
from stats import P90_MIN_SAMPLES, geomean, median, percentile

now = time.perf_counter

Timed = Tuple[float, float]
"""``(time the interval ended, raw seconds)``."""

NOISY_UNSTEADINESS = 0.6
"""A run during which the host clock's readings spread wider than this is
flagged ``noisy``."""

OPERATOR_BUCKETS = {"RDFscan": "rdfscan", "RDFjoin": "rdfjoin", "Aggregate": "aggregate"}
"""Operator kinds every workload executes; all others (index scans, hash
joins, sort, limit, project, rename) are summed as ``other``.  The trace
file keeps the full per-operator tree."""

STAGES = ("rio.parse_s", "model.encode_s", "cs.discover_s", "storage.cluster_s",
          "storage.index_s")


class OpLog:
    """Raw latencies per operation class and the attempted/failed counts."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[Timed]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message[:400])

    def count(self, classes: Iterable[str]) -> int:
        return sum(len(self.latencies[cls]) for cls in classes)


class Run:
    """State of one workload run: configuration in, measurements out."""

    def __init__(self, workload: str, scale: Scale, seed: int, seconds: float,
                 trace: bool, tmp_root: Path) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp_root = tmp_root
        self.clock = HostClock()
        self.log = OpLog()
        self.base_log = OpLog()
        """What a traced run times with spans off: the base of
        ``trace.overhead_ratio``."""
        self.recorder: Optional[SpanRecorder] = SpanRecorder() if trace else None
        self.setups: List[List[Timed]] = []
        self.builds: List[List[Timed]] = []
        """One list of timed pieces per set-up / per store build."""
        self.distinct_triples = 0
        self.read_classes: List[str] = []
        """The classes ``query_p50_ms``/``query_p90_ms`` average over."""
        self.other_read_classes: List[str] = []
        self.write_classes: List[str] = []
        """``queries_per_s`` counts all reads over the busy time of reads
        and writes (``update_mix``: updates and checkpoints)."""
        self.store_summary: Dict[str, object] = {}
        self.stages: Dict[str, List[Timed]] = defaultdict(list)
        self.op_samples: List[Tuple[float, Dict[str, float]]] = []
        """Per traced request: when it ended and its layer times in raw
        seconds; normalised together, so differences stay consistent."""
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self.layer: Dict[str, float] = {}
        self.sizes: Dict[str, object] = {}
        self.fingerprint: Dict[str, object] = {}

    def new_dir(self, prefix: str) -> Path:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=self.tmp_root))

    @contextmanager
    def piece(self, sink: List[Timed]) -> Iterator[None]:
        """Time a piece of set-up or ingest; the clock may tick inside it
        (its kernel time is taken out again)."""
        self.clock.tick()
        spent, started = self.clock.spent, now()
        yield
        ended = now()
        sink.append((ended, ended - started - (self.clock.spent - spent)))
        self.clock.tick()

    def ticking(self, triples: Iterable) -> Iterator:
        """``triples`` unchanged, with the clock given a chance to sample
        every couple of thousand: readings from inside a long ``load``."""
        for index, triple in enumerate(triples):
            if index % 2000 == 0:
                self.clock.tick()
            yield triple

    def seconds_of(self, pieces: List[Timed]) -> float:
        return sum(self.clock.normalise(pieces))

    def floor(self, untraced: int) -> int:
        """Loop floors shrink in a traced run: a traced request costs about
        four plain ones and its numbers carry no bound."""
        return max(1, untraced // 10) if self.trace else untraced


# -- building -----------------------------------------------------------------------


def build_store(run: Run, source) -> RDFStore:
    """``RDFStore.build(source, sort_key_names=...)`` as its three public
    steps, so the host clock reads between them (and inside the load, which
    consumes the text's parser as a stream exactly as ``build(text)`` does)."""
    triples = parse_rdf(source) if isinstance(source, str) else source
    pieces: List[Timed] = []
    store = RDFStore()
    with run.piece(pieces):
        store.load(run.ticking(triples))
    with run.piece(pieces):
        store.discover_schema()
    with run.piece(pieces):
        store.cluster(sort_key_names=sub_order_keys())
    run.builds.append(pieces)
    return store


def staged_build(run: Run, text: str) -> RDFStore:
    """The traced build: parse, encode, discover, cluster and index as one
    span each.  ``cluster()`` ends with an index build, so a second,
    separately timed ``build_indexes()`` gives the share to subtract."""
    rec, clock = run.recorder, run.clock
    with rec.span("build", rec.new_op()):
        clock.tick()
        with rec.span("rio.parse") as parse:
            triples = list(parse_rdf(text))
        clock.tick()
        store = RDFStore()
        with rec.span("model.encode") as encode:
            store.load(triples)
        del triples
        clock.tick()
        with rec.span("cs.discover") as discover:
            store.discover_schema()
        clock.tick()
        with rec.span("storage.cluster") as cluster:
            store.cluster(sort_key_names=sub_order_keys())
        clock.tick()
        with rec.span("storage.index") as index:
            store.build_indexes()
        clock.tick()
    timed = [(span["end"], duration(span)) for span in (parse, encode, discover, cluster, index)]
    timed[3] = (cluster["end"], duration(cluster) - duration(index))
    for stage, piece in zip(STAGES, timed):
        run.stages[stage].append(piece)
    run.builds.append(timed[:4])
    run.store_summary = store.storage_summary()
    return store


def generate(run: Run, with_text: bool):
    """The workload's data set, checked against its pinned fingerprint, and
    the timed piece generating it took."""
    pieces: List[Timed] = []
    with run.piece(pieces):
        dataset = make_dataset(run.workload, run.scale, run.seed, with_text=with_text,
                               tick=run.clock.tick)
        run.fingerprint = check_fingerprint(dataset, run.scale.name, run.seed)
    run.distinct_triples = dataset.distinct_triples
    return dataset, pieces


def set_up_store(run: Run, durable: bool = False):
    """Generate the RDF-H data set and build the clustered, sub-ordered store,
    ``Scale.setups`` times over (``setup_s`` is the median; earlier stores
    are released first).  Untraced runs build from the ``Triple`` list, which
    keeps ``rio`` out of set-up; a traced run ingests the N-Triples text
    stage by stage so every ingest layer is timed on this data set too.
    With ``durable`` the store is saved and reopened, WAL attached."""
    dataset = store = db_dir = None
    for _ in range(1 if run.trace else run.scale.setups):
        dataset = store = None
        gc.collect()
        dataset, pieces = generate(run, with_text=run.trace)
        if run.trace:
            store = staged_build(run, dataset.text)
        else:
            store = build_store(run, dataset.triples)
        pieces.extend(run.builds[-1])
        if durable:
            db_dir = run.new_dir("db")
            with run.piece(pieces):
                store.save(db_dir)
            with run.piece(pieces):
                store = RDFStore.open(db_dir)
        run.setups.append(pieces)
    return dataset, store, db_dir


# -- requests -----------------------------------------------------------------------


class Client:
    """The single closed-loop client: issues one request at a time against
    one store and checks each answer against the shadow model."""

    def __init__(self, run: Run, store: RDFStore, model: ShadowModel) -> None:
        self.run = run
        self.store = store
        self.model = model
        self.tracing = False
        self.log = run.log
        self._options: Dict[str, PlannerOptions] = {}
        self._stable_rows: Dict[QueryOp, list] = {}
        self._uncached: Optional[SparqlEngine] = None

    def options(self, op: QueryOp) -> Optional[PlannerOptions]:
        if op.scheme is None:
            return None
        if op.scheme not in self._options:
            self._options[op.scheme] = PlannerOptions(scheme=op.scheme)
        return self._options[op.scheme]

    def call(self, op: QueryOp) -> list:
        """The unit every latency in this benchmark refers to: text in,
        decoded rows out."""
        if op.frontend == "sparql":
            return self.store.decode_rows(self.store.sparql(op.text, self.options(op)))
        return self.store.decode_rows(self.store.sql(op.text))

    def request(self, op: QueryOp, stable: bool = False, record: bool = True) -> None:
        """Issue ``op``, time it, verify it.  ``stable`` marks a text whose
        answer cannot change (no writes in this workload): it is checked
        against the oracle once and for exact equality with that verified
        answer afterwards."""
        log = self.log
        log.attempted += 1
        self.run.clock.tick()
        try:
            if self.tracing:
                timed, rows = self._traced_call(op)
            else:
                started = now()
                rows = self.call(op)
                ended = now()
                timed = (ended, ended - started)
        except Exception as exc:  # the loop must go on; the failure is counted
            log.fail(f"{op.cls}: {exc!r}")
            return
        if record:
            log.latencies[op.cls].append(timed)
        if stable and op in self._stable_rows:
            correct = rows == self._stable_rows[op]
        else:
            correct = self.model.check(op, rows)
            if stable and correct:
                self._stable_rows[op] = rows
        if not correct:
            log.fail(f"{op.cls}: {len(rows)} rows disagree with the oracle for {op.params}")

    # -- traced ------------------------------------------------------------------------

    def _uncached_engine(self) -> SparqlEngine:
        """An engine without a plan cache, so ``prepare`` always parses and
        plans; rebuilt when a rebuild replaced the store's context."""
        context = self.store.context()
        if self._uncached is None or self._uncached.context is not context:
            self._uncached = SparqlEngine(context)
        return self._uncached

    def _traced_call(self, op: QueryOp) -> Tuple[Timed, list]:
        """The plain request under a ``request`` span, then the same text
        replayed through the public stages, then once with ``profile=True``
        for the per-operator self times.  All are siblings under one root
        span; the request's latency is what is reported."""
        rec, store, counts = self.run.recorder, self.store, self.run.counts
        times: Dict[str, float] = {}
        with rec.span(f"op:{op.cls}", rec.new_op()):
            cache_before = store.plan_cache_stats()
            with rec.span("request") as request:
                rows = self.call(op)
            if op.frontend == "sparql":
                cache_after = store.plan_cache_stats()
                hit = cache_after["lifetime_hits"] > cache_before["lifetime_hits"]
                with rec.span("sparql.parse") as parse:
                    parse_sparql(op.text)
                with rec.span("sparql.prepare") as prepare:
                    _query, plan = self._uncached_engine().prepare(op.text, self.options(op))
                with rec.span("engine.execute") as execute:
                    _bindings, cost = execute_plan(plan, store.context())
                with rec.span("profile"):
                    profiled = store.sparql(op.text, self.options(op), profile=True)
                execute_s, counters = duration(execute), cost.counters
                counts["plan_cache_hit"].append(1.0 if hit else 0.0)
                times["sparql.parse_ms"] = duration(parse)
                times["sparql.plan_ms"] = max(0.0, duration(prepare) - duration(parse))
                front_end_s = 0.0 if hit else duration(prepare)
            else:
                with rec.span("sql.parse") as parse:
                    parse_sql(op.text)
                with rec.span("profile"):
                    profiled = store.sql(op.text, profile=True)
                execute_s, counters = profiled.cost.wall_seconds, profiled.cost.counters
                times["sql.parse_ms"] = duration(parse)
                front_end_s = duration(parse)
            with rec.span("core.decode") as decode:
                decoded = store.decode_rows(profiled)
        rest = duration(request) - front_end_s - execute_s - duration(decode)
        times["core.lifecycle_ms" if op.frontend == "sparql" else "sql.plan_lifecycle_ms"] = rest
        times["engine.execute_ms"] = execute_s
        times["core.decode_ms"] = duration(decode)
        buckets = dict.fromkeys(("rdfscan", "rdfjoin", "aggregate", "other"), 0.0)
        stack = [profiled.trace.root] if profiled.trace.root is not None else []
        while stack:
            span = stack.pop()
            kind = span.label.split("[", 1)[0].strip()
            buckets[OPERATOR_BUCKETS.get(kind, "other")] += span.self_seconds
            stack.extend(span.children)
        for bucket, seconds in buckets.items():
            times[f"engine.{bucket}_self_ms"] = seconds
        self.run.op_samples.append((request["end"], times))
        counts["rows"].append(len(decoded))
        counts["tuples_scanned"].append(counters.get("tuples_scanned", 0))
        counts["join_operations"].append(counters.get("join_operations", 0))
        counts["page_touches"].append(counters.get("page_reads", 0)
                                      + counters.get("page_hits", 0))
        return (request["end"], duration(request)), rows


def query_loop(run: Run, client: Client, next_round: Callable[[], List[QueryOp]],
               stable: bool, fixed_rounds: Optional[int] = None) -> None:
    """Warm up, then run whole rounds until ``--seconds`` have passed and the
    floor is met (or exactly ``fixed_rounds``).  In a traced run every
    fourth round is timed with spans off, the base of
    ``trace.overhead_ratio``."""
    for _ in range(run.scale.warmup_rounds):
        for op in next_round():
            client.request(op, stable, record=False)
    gc.collect()
    floor = run.floor(run.scale.min_rounds if fixed_rounds is None else fixed_rounds)
    if run.trace:
        floor = max(2, floor)
    rounds, started = 0, now()
    while rounds < floor or (fixed_rounds is None and now() - started < run.seconds):
        plain = run.trace and rounds % 4 == 1
        client.tracing = run.trace and not plain
        client.log = run.base_log if plain else run.log
        for op in next_round():
            client.request(op, stable)
        rounds += 1
    client.tracing = False
    client.log = run.log
    run.sizes["rounds"] = rounds


def cold_pass(run: Run, client: Client, ops: List[QueryOp]) -> None:
    """One cold-cache execution per class: exact page-read counts and the
    cost model's simulated time (the paper's Table I cold numbers)."""
    reads, simulated = 0, 0.0
    for op in ops:
        client.store.reset_cold()
        if op.frontend == "sparql":
            result = client.store.sparql(op.text, client.options(op))
        else:
            result = client.store.sql(op.text)
        reads += result.cost.counters.get("page_reads", 0)
        simulated += result.cost.simulated_seconds
    run.layer["columnar.cold_page_reads"] = reads
    run.layer["columnar.cold_simulated_ms"] = simulated * 1e3


# -- the durable stream ---------------------------------------------------------------


def directory_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _dirs, names in os.walk(path) for name in names)


class DurableStream:
    """Writes beside reads on an opened, WAL-attached store.

    An epoch is ``cycles_per_epoch`` cycles, then ``checkpoint()``, then
    ``postcompact_rounds`` rounds of ``q6``/``q3`` on the just-compacted
    store.  A cycle is one ``INSERT DATA`` of a new order, four reads over
    the pending delta (the new order's lineitems, ``q6``, ``q3`` and
    ``q6`` through SQL) and, every fifth cycle, a ``DELETE WHERE`` of an
    earlier inserted order's lineitems.  After the epochs a tail of cycles
    leaves a WAL to replay, and copies of the directory are opened.
    ``update_mix`` runs it at full size (``own``); traced runs of the other
    workloads append it at ``PROBE_PLAN`` size.
    """

    UPDATE_CLASSES = ("insert", "delete")
    DELTA_READS = ("lines_of_order_delta", "q6_delta", "q3_delta", "sql_q6_delta")
    POSTCOMPACT_READS = ("q6_postcompact", "q3_postcompact")

    def __init__(self, run: Run, client: Client, db_dir: Path, dataset: Dataset,
                 plan: dict, own: bool) -> None:
        self.run = run
        self.client = client
        self.store = client.store
        self.model = client.model
        self.db_dir = db_dir
        self.plan = plan
        self.own = own
        self.updates = UpdateStream(dataset.data, run.seed + 3)
        self.cycles = 0
        self.pending_triples = 0
        self.pending_peak = 0
        self.trace_writes = False
        self.wal = defaultdict(float)
        self.write_stages: Dict[str, List[Timed]] = defaultdict(list)
        self.snapshot_bytes = 0
        self.disk_bytes_per_triple = 0.0

    def _update(self, cls: str, text: str):
        """One acknowledged (WAL-fsynced) update request."""
        log, rec = self.client.log, self.run.recorder
        log.attempted += 1
        self.run.clock.tick()
        try:
            if self.trace_writes:
                with rec.span(f"op:{cls}", rec.new_op()):
                    with rec.span("request") as request:
                        result = self.store.update(text)
                    with rec.span("sparql.parse_update") as parse:
                        parse_update(text)
                timed = (request["end"], duration(request))
                self.write_stages["sparql.parse_update_ms"].append(
                    (parse["end"], duration(parse)))
            else:
                started = now()
                result = self.store.update(text)
                ended = now()
                timed = (ended, ended - started)
        except Exception as exc:  # counted; the stream goes on
            log.fail(f"{cls}: {exc!r}")
            return None
        log.latencies[cls].append(timed)
        return result

    def _cycle(self) -> None:
        log = self.client.log
        text, order, lines = self.updates.next_insert()
        result = self._update("insert", text)
        expected = self.model.insert_order(order, lines)
        if result is not None and result.inserted != expected:
            log.fail(f"insert of order {order.orderkey} stored {result.inserted} triples, "
                     f"expected {expected}")
        self.pending_triples += expected
        self.pending_peak = max(self.pending_peak, self.pending_triples)
        self.client.request(lines_of_order_op(order.orderkey, cls="lines_of_order_delta"))
        self.client.request(q6_op("q6_delta"))
        self.client.request(q3_op("q3_delta"))
        self.client.request(q6_op("sql_q6_delta", frontend="sql"))
        if self.cycles % 5 == 4:
            victim = self.updates.inserted_keys[self.cycles - 2]
            result = self._update("delete", self.updates.delete_lines_text(victim))
            expected = self.model.delete_lines(victim)
            if result is not None and result.deleted != expected:
                log.fail(f"delete of order {victim}'s lineitems removed {result.deleted} "
                         f"triples, expected {expected}")
        self.cycles += 1

    def _cycles(self, count: int) -> None:
        """Cycles, with the process-wide WAL counters read around them so
        checkpoints' own WAL writes stay out of the per-update figures."""
        before = self.store.metrics()
        updates_before = self.client.log.count(self.UPDATE_CLASSES)
        triples_before = self.model.inserted_triples + self.model.deleted_triples
        for _ in range(count):
            self._cycle()
        after = self.store.metrics()
        self.wal["bytes"] += after["wal_bytes_written_total"] - before["wal_bytes_written_total"]
        self.wal["fsyncs"] += after["wal_fsyncs_total"] - before["wal_fsyncs_total"]
        self.wal["updates"] += self.client.log.count(self.UPDATE_CLASSES) - updates_before
        self.wal["triples"] += (self.model.inserted_triples + self.model.deleted_triples
                                - triples_before)

    def _checkpoint(self) -> None:
        log, rec = self.client.log, self.run.recorder
        log.attempted += 1
        self.run.clock.tick()
        try:
            if self.trace_writes:
                with rec.span("op:checkpoint", rec.new_op()) as root:
                    with rec.span("updates.compact") as compact:
                        self.store.compact()
                    with rec.span("persist.snapshot_write") as write:
                        report = self.store.checkpoint()
                timed = (root["end"], duration(root))
                self.write_stages["updates.compact_s"].append(
                    (compact["end"], duration(compact)))
                self.write_stages["persist.snapshot_write_s"].append(
                    (write["end"], duration(write)))
            else:
                started = now()
                report = self.store.checkpoint()
                ended = now()
                timed = (ended, ended - started)
        except Exception as exc:  # counted; the stream goes on
            log.fail(f"checkpoint: {exc!r}")
            return
        self.run.clock.tick()
        log.latencies["checkpoint"].append(timed)
        self.pending_triples = 0
        self.snapshot_bytes = report.snapshot.data_bytes
        live = self.store.live_triple_count()
        self.disk_bytes_per_triple = directory_bytes(self.db_dir) / live
        if live != self.model.live_triples() or self.store.has_pending_updates():
            log.fail(f"after checkpoint the store holds {live} live triples, "
                     f"the shadow model {self.model.live_triples()}")

    def _open_copy(self, cls: str) -> None:
        """Byte-copy the directory while the store stays open, reopen the
        copy (replaying whatever the WAL holds) and answer a first ``q6``:
        every acknowledged update must be there."""
        log = self.run.log
        copy = self.run.new_dir("copy")
        shutil.rmtree(copy)
        shutil.copytree(self.db_dir, copy)
        op = q6_op("q6_first")
        log.attempted += 1
        self.run.clock.tick()
        try:
            started = now()
            reopened = RDFStore.open(copy)
            opened = now()
            rows = reopened.decode_rows(reopened.sparql(op.text))
            finished = now()
            live = reopened.live_triple_count()
        except Exception as exc:  # counted; the stream goes on
            log.fail(f"{cls}: {exc!r}")
            return
        finally:
            reopened = None
            gc.collect()
            shutil.rmtree(copy, ignore_errors=True)
        self.run.clock.tick()
        log.latencies[cls].append((finished, finished - started))
        log.latencies[cls + "_only"].append((opened, opened - started))
        log.latencies[cls + "_first_query"].append((finished, finished - opened))
        if live != self.model.live_triples() or not self.model.check(op, rows):
            log.fail(f"{cls}: the reopened copy holds {live} live triples and answers {rows}; "
                     f"the shadow model holds {self.model.live_triples()}")

    def run_stream(self, seconds: float) -> None:
        plan, client, run = self.plan, self.client, self.run
        gc.collect()
        floor = plan["min_epochs"]
        if run.trace and self.own:
            floor = max(2, run.floor(floor))
        epochs, started = 0, now()
        while epochs < floor or now() - started < seconds:
            # a traced run of update_mix alternates plain and traced epochs:
            # identical work, so their ratio is the tracing overhead
            traced_epoch = run.trace and (not self.own or epochs % 2 == 1)
            self.trace_writes = traced_epoch
            client.tracing = traced_epoch and self.own
            client.log = run.base_log if (run.trace and not traced_epoch) else run.log
            self._cycles(plan["cycles_per_epoch"])
            self._checkpoint()
            for _ in range(plan["postcompact_rounds"]):
                client.request(q6_op("q6_postcompact"))
                client.request(q3_op("q3_postcompact"))
            epochs += 1
            if epochs == 1 and run.trace:
                client.tracing = False
                self._open_copy("open_base")
                if self.own:
                    cold_pass(run, client, [lines_of_order_op(1), q6_op("q6"), q3_op("q3"),
                                            q6_op("sql_q6", frontend="sql")])
        client.tracing = self.trace_writes = False
        client.log = run.log
        self._cycles(plan["tail_cycles"])
        for _ in range(plan["opens"]):
            self._open_copy("open")
        run.sizes.update(epochs=epochs, cycles=self.cycles)


def durable_probe(run: Run, store: RDFStore, dataset: Dataset, model: ShadowModel) -> DurableStream:
    """Append the durable stream at probe size to a traced run of another
    workload, on that workload's own store."""
    db_dir = run.new_dir("db")
    store.save(db_dir)
    client = Client(run, RDFStore.open(db_dir), model)
    stream = DurableStream(run, client, db_dir, dataset, PROBE_PLAN, own=False)
    stream.run_stream(seconds=0.0)
    return stream


# -- the workloads -------------------------------------------------------------------


def run_bulk_build(run: Run) -> Optional[DurableStream]:
    scale = run.scale
    dataset = None
    for _ in range(1 if run.trace else scale.setups):
        dataset = None
        gc.collect()
        dataset, pieces = generate(run, with_text=True)
        run.setups.append(pieces)
    model = ShadowModel(dataset)
    first_q6 = q6_op("q6_first")

    store, builds, started = None, 0, now()
    while builds < run.floor(scale.min_builds) or now() - started < run.seconds:
        store = None
        gc.collect()
        run.log.attempted += 1
        try:
            store = (staged_build if run.trace else build_store)(run, dataset.text)
        except Exception as exc:  # counted; nothing to query, so stop building
            run.log.fail(f"build: {exc!r}")
            break
        builds += 1
        ended = run.builds[-1][-1][0]
        run.log.latencies["build"].append((ended, sum(s for _end, s in run.builds[-1])))
        for problem in check_fresh_store(store, dataset):
            run.log.fail(f"build {builds}: {problem}")
        Client(run, store, model).request(first_q6)
    run.sizes["builds"] = builds
    if store is None:
        return None

    # queries on the fresh mixed store: many small tables beside RDF-H
    client = Client(run, store, model)
    fixed = [q6_op("q6"), q3_op("q3"), q6_op("sql_q6", frontend="sql")]
    conference = itertools.count()
    run.read_classes = [op.cls for op in fixed] + ["papers_of_conference"]
    query_loop(run, client,
               lambda: fixed + [papers_of_conference_op(next(conference) % 60)],
               stable=True, fixed_rounds=scale.bulk_query_rounds)
    if run.trace:
        cold_pass(run, client, fixed + [papers_of_conference_op(0)])
        return durable_probe(run, store, dataset, model)
    return None


def run_query_repeat(run: Run) -> Optional[DurableStream]:
    dataset, store, _ = set_up_store(run)
    model = ShadowModel(dataset)
    client = Client(run, store, model)
    ops = repeat_ops()
    run.read_classes = [op.cls for op in ops]
    query_loop(run, client, lambda: ops, stable=True)
    if run.trace:
        cold_pass(run, client, ops)
        return durable_probe(run, store, dataset, model)
    return None


def run_query_adhoc(run: Run) -> Optional[DurableStream]:
    dataset, store, _ = set_up_store(run)
    model = ShadowModel(dataset)
    client = Client(run, store, model)
    stream = AdhocStream(dataset.data, run.seed + 3)
    run.read_classes = ["cust_star", "orders_of_customer", "lines_of_order",
                        "q6_params", "q3_params", "sql_order_range"]
    query_loop(run, client, stream.next_round, stable=False)
    if run.trace:
        cold_pass(run, client, AdhocStream(dataset.data, run.seed + 3).next_round())
        return durable_probe(run, store, dataset, model)
    return None


def run_update_mix(run: Run) -> DurableStream:
    scale = run.scale
    dataset, store, db_dir = set_up_store(run, durable=True)
    client = Client(run, store, ShadowModel(dataset))
    plan = dict(cycles_per_epoch=scale.cycles_per_epoch, min_epochs=scale.min_epochs,
                postcompact_rounds=scale.postcompact_rounds, tail_cycles=scale.tail_cycles,
                opens=scale.opens)
    stream = DurableStream(run, client, db_dir, dataset, plan, own=True)
    run.read_classes = list(stream.DELTA_READS)
    run.other_read_classes = list(stream.POSTCOMPACT_READS)
    run.write_classes = list(stream.UPDATE_CLASSES) + ["checkpoint"]
    stream.run_stream(run.seconds)
    return stream


RUNNERS = {
    "bulk_build": run_bulk_build,
    "query_repeat": run_query_repeat,
    "query_adhoc": run_query_adhoc,
    "update_mix": run_update_mix,
}


# -- metrics -------------------------------------------------------------------------


def normalised_ms(run: Run, log: OpLog) -> Dict[str, List[float]]:
    """Every class's latencies in milliseconds at reference host speed."""
    return {cls: [s * 1e3 for s in run.clock.normalise(timed)]
            for cls, timed in log.latencies.items()}


def class_summary(log: OpLog, ms: Dict[str, List[float]]) -> Dict[str, dict]:
    """Per class: sample count, median and (with enough samples) p90 at
    reference host speed, and the raw median as the wall clock read it."""
    out = {}
    for cls, values in sorted(ms.items()):
        entry = {"n": len(values), "p50_ms": median(values),
                 "raw_p50_ms": median([s * 1e3 for _end, s in log.latencies[cls]])}
        if len(values) >= P90_MIN_SAMPLES:
            entry["p90_ms"] = percentile(values, 0.9)
        out[cls] = entry
    return out


def query_p50(ms: Dict[str, List[float]], classes: Iterable[str]) -> float:
    return geomean(median(ms[cls]) for cls in classes)


def end_to_end_metrics(run: Run, ms: Dict[str, List[float]]) -> Dict[str, float]:
    reads = run.read_classes + run.other_read_classes
    busy_ms = sum(sum(ms[cls]) for cls in reads + run.write_classes)
    return {
        "setup_s": median([run.seconds_of(pieces) for pieces in run.setups]),
        "build_triples_per_s": run.distinct_triples
                               / median([run.seconds_of(pieces) for pieces in run.builds]),
        "query_p50_ms": query_p50(ms, run.read_classes),
        "query_p90_ms": geomean(percentile(ms[cls], 0.9) for cls in run.read_classes),
        "queries_per_s": sum(len(ms[cls]) for cls in reads) / (busy_ms / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def durable_metrics(run: Run, stream: DurableStream,
                    ms: Dict[str, List[float]]) -> Dict[str, float]:
    """Update and persistence figures; the same names in every workload
    (the full stream in ``update_mix``, the probe elsewhere)."""
    out = {
        "updates.update_p50_ms": median(ms["insert"] + ms["delete"]),
        "updates.insert_p50_ms": median(ms["insert"]),
        "updates.insert_p90_ms": percentile(ms["insert"], 0.9),
        "updates.delete_p50_ms": median(ms["delete"]),
        "updates.delta_triples_peak": stream.pending_peak,
        "persist.wal_bytes_per_triple": stream.wal["bytes"] / stream.wal["triples"],
        "persist.wal_fsyncs_per_update": stream.wal["fsyncs"] / stream.wal["updates"],
        "persist.checkpoint_s": median(ms["checkpoint"]) / 1e3,
        "persist.snapshot_bytes": stream.snapshot_bytes,
        "persist.disk_bytes_per_triple": stream.disk_bytes_per_triple,
        "persist.open_s": median(ms["open"]) / 1e3,
        "persist.open_tail_s": median(ms["open_only"]) / 1e3,
        "persist.first_query_ms": median(ms["open_first_query"]),
    }
    if run.trace:
        stages = {name: run.clock.normalise(timed)
                  for name, timed in stream.write_stages.items()}
        out.update({
            "sparql.parse_update_ms": median(stages["sparql.parse_update_ms"]) * 1e3,
            "updates.compact_s": median(stages["updates.compact_s"]),
            "persist.snapshot_write_s": median(stages["persist.snapshot_write_s"]),
            "persist.open_base_s": median(ms["open_base_only"]) / 1e3,
        })
    return out


def per_layer_metrics(run: Run, stream: DurableStream,
                      ms: Dict[str, List[float]]) -> Dict[str, float]:
    """Layer figures of a traced run.  Times per request are means over the
    traced requests, so they add up to the mean request latency:
    ``request = (1 - hit ratio) * (parse + plan) + execute + decode +
    lifecycle``; ``sparql.parse_ms``/``plan_ms`` are the cost of a miss, and
    ``lifecycle`` is what is left of the request: query registry, observer,
    and any work a first execution does that the replay does not repeat."""
    clock, counts, summary = run.clock, run.counts, run.store_summary
    layer_ms: Dict[str, List[float]] = defaultdict(list)
    for ended, times in run.op_samples:
        slowdown = clock.slowdown(ended, ended)
        for name, seconds in times.items():
            layer_ms[name].append(seconds * 1e3 / slowdown)
    out = {name: median(clock.normalise(timed)) for name, timed in run.stages.items()}
    out.update({
        "model.terms": summary["terms"],
        "cs.tables": summary["tables"],
        "cs.triple_coverage": summary["triple_coverage"],
        "storage.irregular_triples": summary["irregular_triples"],
        "sparql.plan_cache_hit_ratio": mean(counts["plan_cache_hit"]),
        "engine.tuples_scanned_per_row": sum(counts["tuples_scanned"])
                                         / max(1.0, sum(counts["rows"])),
        "engine.join_ops_per_query": mean(counts["join_operations"]),
        "core.decoded_rows_per_s": sum(counts["rows"])
                                   / (sum(layer_ms["core.decode_ms"]) / 1e3),
        "columnar.page_touches_per_query": mean(counts["page_touches"]),
        "host.calibration_ms": median(clock.readings_ms),
        "host.unsteadiness": clock.unsteadiness(),
        "trace.overhead_ratio": (query_p50(ms, run.read_classes)
                                 / query_p50(normalised_ms(run, run.base_log),
                                             run.read_classes)),
    })
    out.update({name: mean(values) for name, values in layer_ms.items()})
    out.update(run.layer)
    out.update(durable_metrics(run, stream, ms))
    return out


def execute(workload: str, scale: Scale, seed: int, seconds: float, trace: bool,
            tmp_root: Path, trace_path: Optional[Path] = None) -> dict:
    """Run one workload once, in this process; returns the run record.

    ``metrics`` holds the values the contract asks for (end-to-end when
    untraced, per-layer when traced) without units; ``detail`` holds, for
    ``update_mix``, the update and persistence figures of the untraced run.
    """
    run = Run(workload, scale, seed, seconds, trace, tmp_root)
    try:
        stream = RUNNERS[workload](run)
        log, clock = run.log, run.clock
        ms = normalised_ms(run, log)
        record = {
            "workload": workload, "scale": scale.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "attempted": log.attempted, "failed": log.failed,
            "correct": log.failed == 0 and log.attempted > 0, "failures": log.failures,
            "classes": class_summary(log, ms),
            "noisy": clock.unsteadiness() > NOISY_UNSTEADINESS,
            "host": {"calibration_ms": median(clock.readings_ms),
                     "reference_ms": clock.REFERENCE_MS,
                     "unsteadiness": clock.unsteadiness(), "readings": len(clock.times)},
            "sizes": dict(run.sizes, distinct_triples=run.distinct_triples,
                          setups=len(run.setups), fingerprint=run.fingerprint),
        }
        if trace:
            record["metrics"] = per_layer_metrics(run, stream, ms)
            if trace_path is not None:
                run.recorder.write(trace_path, {k: record[k] for k in
                                                ("workload", "scale", "seed", "seconds")})
            record["trace_spans"] = len(run.recorder.spans)
        else:
            record["metrics"] = end_to_end_metrics(run, ms)
            record["detail"] = durable_metrics(run, stream, ms) if stream is not None else {}
        return record
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
