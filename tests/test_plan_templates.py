"""Physical plans are immutable templates.

A plan holds what the planner decided and nothing a run writes: run state
lives in the operators' generator frames, what a run observed lives on its
own run object.  Covered here:

* immutability — over the batch-differential corpus on all four schemes,
  ``vars(op)`` of every operator is identical before and after bare,
  traced and cancelled runs;
* re-entrancy — one execution of a cached plan is held mid-stream while a
  second runs the same plan object to completion through another snapshot
  and a third is cancelled; every answer is right and no pin leaks;
* per-run actuals — two overlapping runs of one plan over different
  snapshots each report their own ``actual=``;
* the close cascade — an early ``LIMIT`` stop, a cancellation and an
  operator error each close every operator's generator exactly once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from _datasets import EX, book_triples
from test_batch_differential import (
    BOOK_QUERIES,
    DBLP_QUERIES,
    RDFH_QUERIES,
    SCHEMES,
)
from repro import QueryCancelledError, RDFStore, StoreConfig
from repro.columnar import BufferPool
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.engine import (
    BindingTable,
    ExecutionContext,
    LimitOp,
    MaterializedOp,
    ProjectOp,
    execute_plan,
)
from repro.errors import ExecutionError
from repro.model import TermDictionary
from repro.obs import ActiveQuery
from repro.sparql import SparqlEngine

STAR_QUERY = f"SELECT ?b ?a WHERE {{ ?b <{EX}has_author> ?a . ?b <{EX}isbn_no> ?i . }}"


def _operators(plan):
    yield plan
    for child in plan.children():
        yield from _operators(child)


def _state(plan):
    """Every operator with a shallow copy of its attributes, plus the plan
    text (which renders the nested patterns and ranges)."""
    return [(op, dict(vars(op))) for op in _operators(plan)], plan.explain()


def _assert_untouched(plan, state) -> None:
    operators, text = state
    assert [op for op, _ in operators] == list(_operators(plan))
    for op, before in operators:
        after = vars(op)
        assert after.keys() == before.keys(), op.describe()
        for name, value in before.items():
            assert after[name] is value, (op.describe(), name)
    assert plan.explain() == text


# -- (a) immutability -------------------------------------------------------------------


def _check_corpus_leaves_plans_untouched(store: RDFStore, queries) -> None:
    engine = store.engine()
    for text in queries:
        for options in SCHEMES:
            _query, plan = engine.prepare("sparql", text, options)
            state = _state(plan)
            result = store.sparql(text, options)
            assert result.plan is plan  # the cached object itself ran
            _assert_untouched(plan, state)
            assert store.sparql(text, options, profile=True).plan is plan
            _assert_untouched(plan, state)
            run = store.query_registry.begin(text, "sparql", options.scheme)
            store.cancel(run.query_id)
            with pytest.raises(QueryCancelledError) as cancelled:
                engine.query("sparql", text, options, run)
            store.query_registry.finish(run, run.elapsed_seconds(), cancelled.value)
            _assert_untouched(plan, state)
    assert store.active_queries() == []


def test_book_corpus_leaves_plans_untouched(book_store):
    _check_corpus_leaves_plans_untouched(book_store, BOOK_QUERIES)


def test_dblp_corpus_leaves_plans_untouched(dblp_store):
    _check_corpus_leaves_plans_untouched(dblp_store, DBLP_QUERIES)


def test_rdfh_corpus_leaves_plans_untouched(rdfh_store):
    _check_corpus_leaves_plans_untouched(rdfh_store, RDFH_QUERIES)


# -- (b) re-entrancy, (c) per-run actuals ------------------------------------------------


@pytest.fixture()
def store() -> RDFStore:
    return RDFStore.build(book_triples(), config=StoreConfig(
        batch_size=4, discovery=DiscoveryConfig(
            generalization=GeneralizationConfig(min_support=3))))


class _Gate:
    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()


@pytest.fixture()
def gates(monkeypatch):
    """Hold ``ProjectOp`` streams of the threads named after a gate: each
    batch waits for that gate's release before it is handed on."""
    held = {"first": _Gate(), "third": _Gate()}
    original = ProjectOp._batches

    def gated(self, context):
        gate = held.get(threading.current_thread().name)
        for batch in original(self, context):
            if gate is not None:
                gate.entered.set()
                assert gate.release.wait(timeout=30), "gate never released"
            yield batch

    monkeypatch.setattr(ProjectOp, "_batches", gated)
    return held


def _rows(snapshot, result) -> list:
    return sorted(tuple(str(v) for v in row) for row in snapshot.decode_rows(result))


def test_one_cached_plan_runs_re_entrantly(store, gates):
    expected = sorted(tuple(str(v) for v in row)
                      for row in store.decode_rows(store.sparql(STAR_QUERY)))
    outcomes = {}

    def read(name):
        def run():
            try:
                with store.snapshot() as snapshot:
                    result = snapshot.sparql(STAR_QUERY)
                    outcomes[name] = (result.plan, _rows(snapshot, result))
            except QueryCancelledError as exc:
                outcomes[name] = ("cancelled", exc.query_id)
        thread = threading.Thread(target=run, name=name)
        thread.start()
        return thread

    first = read("first")
    assert gates["first"].entered.wait(timeout=10)
    # the same cached plan, a second snapshot, while the first is mid-stream
    second = read("second")
    second.join(timeout=10)
    assert not second.is_alive(), "a held run blocked another run of its plan"
    third = read("third")
    assert gates["third"].entered.wait(timeout=10)
    listed = store.active_queries()
    assert [entry["source"] for entry in listed] == ["snapshot", "snapshot"]
    third_id = max(entry["id"] for entry in listed)
    assert store.cancel(third_id) is True
    gates["third"].release.set()
    third.join(timeout=10)
    gates["first"].release.set()
    first.join(timeout=10)
    assert not first.is_alive() and not third.is_alive()

    assert outcomes["third"] == ("cancelled", third_id)
    first_plan, first_rows = outcomes["first"]
    second_plan, second_rows = outcomes["second"]
    assert second_plan is first_plan  # one plan object, two overlapping runs
    assert first_rows == expected and second_rows == expected
    assert store.active_queries() == []
    assert store.open_snapshot_count() == 0, "leaked snapshot pin"


def test_overlapping_runs_report_their_own_actuals(store, gates):
    before = store.snapshot()
    store.update(f'INSERT DATA {{ <{EX}book/new> <{EX}has_author> <{EX}author/1> . '
                 f'<{EX}book/new> <{EX}isbn_no> "isbn-new" . }}')
    after = store.snapshot()
    try:
        _query, plan = SparqlEngine(before.context).prepare(STAR_QUERY)
        runs = {"first": ActiveQuery(1, STAR_QUERY, "sparql", "rdfscan"),
                "second": ActiveQuery(2, STAR_QUERY, "sparql", "rdfscan")}
        rows = {}

        def execute(name, snapshot):
            def run():
                context = snapshot.context.with_run(runs[name])
                rows[name] = execute_plan(plan, context)[0].num_rows
            thread = threading.Thread(target=run, name=name)
            thread.start()
            return thread

        first = execute("first", before)
        assert gates["first"].entered.wait(timeout=10)
        execute("second", after).join(timeout=10)
        assert runs["first"].actual(plan) < rows["second"]  # still mid-stream
        gates["first"].release.set()
        first.join(timeout=10)
        assert rows["second"] == rows["first"] + 1
        for name in ("first", "second"):
            assert runs[name].actual(plan) == rows[name]
            assert f"actual={rows[name]}" in plan.explain(run=runs[name]).splitlines()[0]
        assert "actual=" not in plan.explain()
    finally:
        before.close()
        after.close()


# -- (d) close cascade ------------------------------------------------------------------


def _logging(cls, log, name):
    """``cls`` whose generator notes in ``log`` when it is closed."""
    class Logging(cls):
        def _batches(self, context):
            try:
                yield from super()._batches(context)
            finally:
                log.append(name)
    return Logging


class _CancelAfterFirstBatch(ProjectOp):
    def _batches(self, context):
        for batch in super()._batches(context):
            yield batch
            context.run.cancel_requested = True


def _bare_context() -> ExecutionContext:
    return ExecutionContext(dictionary=TermDictionary(), pool=BufferPool(page_size=4),
                            batch_size=2)


def _observed_context() -> ExecutionContext:
    return _bare_context().with_run(ActiveQuery(1, "cascade", "test", "default"))


def _pipeline(log, middle_cls=ProjectOp, variables=("a",)):
    leaf = _logging(MaterializedOp, log, "leaf")(
        BindingTable({"a": np.arange(100, dtype=np.int64)}))
    middle = _logging(middle_cls, log, "middle")(leaf, [(name, name) for name in variables])
    return _logging(LimitOp, log, "top")(middle, 3)


@pytest.mark.parametrize("make_context", [_bare_context, _observed_context])
def test_limit_early_stop_closes_every_generator_once(make_context):
    log = []
    result, _cost = execute_plan(_pipeline(log), make_context())
    assert result.num_rows == 3  # two batches of the leaf's fifty
    assert sorted(log) == ["leaf", "middle", "top"]


def test_cancellation_closes_every_generator_once():
    log = []
    with pytest.raises(QueryCancelledError):
        execute_plan(_pipeline(log, _CancelAfterFirstBatch), _observed_context())
    assert sorted(log) == ["leaf", "middle", "top"]


@pytest.mark.parametrize("make_context", [_bare_context, _observed_context])
def test_operator_error_closes_every_generator_once(make_context):
    log = []
    plan = _pipeline(log, variables=("missing",))  # the projection raises mid-stream
    try:
        execute_plan(plan, make_context())
    except ExecutionError:
        pass
    else:
        pytest.fail("projecting an unknown variable must raise")
    assert sorted(log) == ["leaf", "middle", "top"]
