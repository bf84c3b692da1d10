"""Figure 5 (this repo's extension): the cost-based optimizer vs. Table I.

The paper's Table I compares the Default and RDFscan/RDFjoin plan schemes;
this benchmark adds the third scheme introduced by the optimizer layer —
``optimized`` (RDFscan/RDFjoin algebra with cardinality-driven join order)
— on the same RDF-H workload, verifies all three schemes return identical
answers, and measures the plan cache's repeated-query speedup.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.bench import q3_sparql, q6_sparql, star_fk_hop_sparql, star_lookup_sparql
from repro.sparql import (
    DEFAULT_SCHEME,
    OPTIMIZED_SCHEME,
    RDFSCAN_SCHEME,
    PlannerOptions,
    QueryOptimizer,
    SparqlEngine,
)

SCHEMES = (DEFAULT_SCHEME, RDFSCAN_SCHEME, OPTIMIZED_SCHEME)

QUERIES = [
    ("star_lookup", star_lookup_sparql()),
    ("star_fk_hop", star_fk_hop_sparql()),
    ("rdfh_q6", q6_sparql()),
]


@pytest.mark.parametrize("query_name,query_text", QUERIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_execution(benchmark, table1_harness, bench_report,
                          query_name, query_text, scheme):
    """Cold execution of each query under each of the three plan schemes."""
    store = table1_harness.store("Clustered")
    options = PlannerOptions(scheme=scheme)
    plan = store.sparql_plan(query_text, options)
    benchmark.extra_info["joins"] = plan.count_joins()
    benchmark.extra_info["estimated_rows"] = plan.estimated_rows

    def run():
        store.reset_cold()
        return store.sparql(query_text, options)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    bench_report.record_pytest_benchmark(
        f"{query_name}_{scheme}_cold_seconds", benchmark)
    assert len(result) > 0


def test_optimized_equivalence_and_report(table1_harness, bench_report):
    """All three schemes agree; write the comparison report."""
    store = table1_harness.store("Clustered")
    optimizer = QueryOptimizer(store.context())
    lines = ["Figure 5 — cost-based optimizer vs. the Table I plan schemes", ""]
    for name, text in QUERIES + [("rdfh_q3_zonemaps", q3_sparql())]:
        use_zone_maps = name.endswith("zonemaps")
        reference = None
        lines.append(name)
        for scheme in SCHEMES:
            options = PlannerOptions(scheme=scheme, use_zone_maps=use_zone_maps)
            store.reset_cold()
            result = store.sparql(text, options)
            rows = sorted(result.rows())
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"{scheme} diverged on {name}"
            estimated_cost = optimizer.plan_cost_seconds(result.plan)
            lines.append(f"  {scheme:>10}: {len(result):>6} rows  "
                         f"sim={result.cost.simulated_seconds * 1e3:8.2f}ms  "
                         f"est-cost={estimated_cost * 1e3:7.2f}ms  "
                         f"joins={result.plan.count_joins()}  "
                         f"operators={result.plan.count_operators()}")
        options = PlannerOptions(scheme=OPTIMIZED_SCHEME, use_zone_maps=use_zone_maps)
        lines.append("  optimized plan (est vs actual):")
        lines.extend("    " + line
                     for line in store.explain(text, options, analyze=True).splitlines())
        lines.append("")
    bench_report.write_text("fig5_optimizer.txt", "\n".join(lines))


def test_batched_vs_row_execution(table1_harness, bench_report):
    """The vectorized batch executor vs. row-at-a-time execution.

    The same queries run hot under ``batch_size=1024`` (the production
    default) and ``batch_size=1`` (every operator degenerates to
    row-at-a-time), median of 3 runs each.  Scan-heavy plans must be at
    least 5x faster batched; in smoke mode (tiny CI leg) the bar is only
    "not slower".
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
    store = table1_harness.store("Clustered")
    saved = store.config.batch_size

    def timed_runs(text, options, size):
        store.config.batch_size = size
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            result = store.sparql(text, options)
            runs.append(time.perf_counter() - started)
        return runs, sorted(result.rows())

    lines = ["Figure 5 addendum — batched vs row-at-a-time execution "
             "(median of 3, hot)", ""]
    try:
        # scan-heavy plans carry the >=5x acceptance bar; q6's plan reduces
        # to a handful of rows at bench scale, so it only has to not regress
        scan_heavy = [("star_lookup", star_lookup_sparql()),
                      ("star_fk_hop", star_fk_hop_sparql()),
                      ("rdfh_q3", q3_sparql())]
        for name, text in scan_heavy + [("rdfh_q6", q6_sparql())]:
            options = PlannerOptions(scheme=OPTIMIZED_SCHEME)
            batched_runs, batched_rows = timed_runs(text, options, 1024)
            row_runs, row_rows = timed_runs(text, options, 1)
            assert batched_rows == row_rows, f"batched diverged on {name}"
            batched = statistics.median(batched_runs)
            row_mode = statistics.median(row_runs)
            speedup = row_mode / max(batched, 1e-9)
            bench_report.record_timings(f"{name}_batched_hot_seconds",
                                        batched_runs, extra={"batch_size": 1024})
            bench_report.record_timings(f"{name}_row_mode_hot_seconds",
                                        row_runs, extra={"batch_size": 1})
            bench_report.record(f"{name}_batch_speedup", speedup, unit="ratio",
                                direction="higher_is_better")
            lines.append(f"  {name:>14}: batched={batched * 1e3:8.2f}ms  "
                         f"row-at-a-time={row_mode * 1e3:9.2f}ms  "
                         f"speedup={speedup:6.1f}x")
            floor = 5.0 if not smoke and name != "rdfh_q6" else 1.0
            assert speedup >= floor, \
                f"{name}: batched only {speedup:.2f}x vs row-at-a-time (floor {floor}x)"
    finally:
        store.config.batch_size = saved
    bench_report.write_text("fig5_batch_speedup.txt", "\n".join(lines) + "\n")


def test_trace_overhead(table1_harness, bench_report):
    """Observation is strictly opt-in: report its cost, bound its blast.

    The same hot micro-query runs four ways:

    * *bare* — straight through the SPARQL engine, no registry, no tracer
      (the ``NULL_ACTIVE_QUERY`` run: one ``enabled`` check per operator
      per run);
    * *registry* — ``store.sparql()`` untraced, which also registers
      every run in the active-query registry (begin/finish bookkeeping
      plus per-batch row accounting);
    * *traced* — ``store.sparql(trace=True)``, span enter/exit around
      every pull of a batch from an operator.

    The report records all medians and relative overheads; the assertion
    only bounds the *traced* run (5x vs the registry path) — the ≤5%
    registry-vs-bare guard lives in ``tests/test_observability.py``.
    """
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
    store = table1_harness.store("Clustered")
    query = star_lookup_sparql()
    options = PlannerOptions(scheme=OPTIMIZED_SCHEME)
    store.sparql(query, options)  # warm: plan cached, columns resident
    engine = store.engine()

    repeats = 10 if smoke else 30

    def best_mean_seconds(run) -> float:
        best = None
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(repeats):
                run()
            mean = (time.perf_counter() - started) / repeats
            best = mean if best is None else min(best, mean)
        return best

    bare = best_mean_seconds(lambda: engine.query("sparql", query, options))
    registry = best_mean_seconds(lambda: store.sparql(query, options))
    traced = best_mean_seconds(lambda: store.sparql(query, options, trace=True))
    registry_overhead = registry / max(bare, 1e-12) - 1.0
    traced_overhead = traced / max(registry, 1e-12) - 1.0
    kind = f"best mean of 5x{repeats}"
    bench_report.record("star_lookup_bare_seconds", bare, kind=kind, runs=repeats)
    bench_report.record("star_lookup_registry_seconds", registry, kind=kind,
                        runs=repeats)
    bench_report.record("star_lookup_traced_seconds", traced, kind=kind,
                        runs=repeats)
    report = (f"Figure 5 addendum — observation overhead on star_lookup "
              f"(best mean of 5x{repeats} hot runs)\n"
              f"  bare engine:        {bare * 1e6:9.1f} us/query\n"
              f"  registry (store):   {registry * 1e6:9.1f} us/query  "
              f"({registry_overhead * 100:+6.1f}% vs bare)\n"
              f"  traced:             {traced * 1e6:9.1f} us/query  "
              f"({traced_overhead * 100:+6.1f}% vs registry)\n")
    bench_report.write_text("fig5_trace_overhead.txt", report)
    assert store.last_trace() is not None and store.last_trace().root is not None
    assert traced <= registry * 5.0, \
        f"tracing costs {traced_overhead * 100:.0f}% — span bookkeeping got too heavy"


def test_plan_cache_speedup(table1_harness, bench_report):
    """Repeated prepared queries must be measurably faster through the cache."""
    store = table1_harness.store("Clustered")
    query = star_fk_hop_sparql()
    options = PlannerOptions(scheme=OPTIMIZED_SCHEME)
    rounds = 100

    cached_engine = store.engine()
    store.plan_cache.clear()
    cached_engine.prepare("sparql", query, options)  # prime the cache
    hits_before = store.plan_cache.stats()["lifetime_hits"]
    started = time.perf_counter()
    for _ in range(rounds):
        cached_engine.prepare("sparql", query, options)
    cached_seconds = time.perf_counter() - started
    assert store.plan_cache.stats()["lifetime_hits"] - hits_before == rounds

    uncached_engine = SparqlEngine(store.context())  # no plan cache attached
    started = time.perf_counter()
    for _ in range(rounds):
        uncached_engine.prepare(query, options)
    uncached_seconds = time.perf_counter() - started

    speedup = uncached_seconds / max(cached_seconds, 1e-9)
    bench_report.record("plan_cache_prepare_speedup", speedup, unit="ratio",
                        runs=rounds, direction="higher_is_better",
                        extra={"cached_seconds": cached_seconds,
                               "uncached_seconds": uncached_seconds})
    bench_report.write_text(
        "fig5_plan_cache.txt",
        f"plan cache prepare() speedup over {rounds} repeats: {speedup:.1f}x\n"
        f"cached:   {cached_seconds * 1e3:.2f} ms total\n"
        f"uncached: {uncached_seconds * 1e3:.2f} ms total\n")
    assert speedup > 1.5, f"expected a measurable cache speedup, got {speedup:.2f}x"
