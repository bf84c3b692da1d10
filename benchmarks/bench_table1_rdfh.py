"""Table I reproduction: RDF-H Q3 and Q6 under all six configurations.

Each benchmark measures one cell of the paper's Table I grid
({Default, RDFscan/RDFjoin} x {ParseOrder, Clustered} x zone maps x
{cold, hot}); the final "test" renders the whole grid (wall-clock and
simulated time) and writes it to ``benchmarks/results/table1.txt``.
"""

from __future__ import annotations

import pytest

from repro.bench import format_table_one
from repro.bench.harness import TableOneHarness
from repro.sparql import PlannerOptions

CONFIGURATIONS = TableOneHarness.CONFIGURATIONS
_CONFIG_IDS = [f"{scheme}-{ordering}-{'zm' if zm else 'nozm'}"
               for scheme, ordering, zm in CONFIGURATIONS]


@pytest.mark.parametrize("query", ["Q3", "Q6"])
@pytest.mark.parametrize("scheme,ordering,zone_maps", CONFIGURATIONS, ids=_CONFIG_IDS)
@pytest.mark.parametrize("cache_state", ["cold", "hot"])
def test_table1_cell(benchmark, table1_harness, bench_report, query, scheme,
                     ordering, zone_maps, cache_state):
    """Wall-clock benchmark of one Table I cell (cost counters reported as extra info).

    The cache state is set before each round, outside the timed call: only
    the query is timed, so a hot cell is not charged for warming the pool.
    """
    store = table1_harness.store(ordering)
    set_cache_state = store.reset_cold if cache_state == "cold" else store.warm
    text = table1_harness.query_text(query)
    options = PlannerOptions(scheme=scheme, use_zone_maps=zone_maps)

    result = benchmark.pedantic(lambda: store.sparql(text, options), setup=set_cache_state,
                                rounds=3, iterations=1, warmup_rounds=0)
    counters = result.cost.counters
    benchmark.extra_info["simulated_ms"] = result.cost.simulated_seconds * 1e3
    benchmark.extra_info["page_reads"] = counters["page_reads"]
    benchmark.extra_info["join_operations"] = counters["join_operations"]
    benchmark.extra_info["result_rows"] = len(result)
    cell = (f"{query}_{scheme}_{ordering}_{'zm' if zone_maps else 'nozm'}"
            f"_{cache_state}")
    bench_report.record_pytest_benchmark(f"{cell}_wall_seconds", benchmark)
    bench_report.record(f"{cell}_simulated_seconds",
                        result.cost.simulated_seconds,
                        extra={"page_reads": counters["page_reads"]})
    assert len(result) >= 1


def test_table1_full_grid(table1_harness, bench_report):
    """Run the full grid once and emit the paper-style table."""
    result = table1_harness.run()
    simulated = format_table_one(result, metric="simulated_seconds")
    wall = format_table_one(result, metric="wall_seconds")
    report = simulated + "\n\n" + wall + "\n"
    bench_report.write_text("table1.txt", report)
    bench_report.record("q3_speedup_fully_optimized_vs_baseline",
                        result.speedup("Q3"), unit="ratio",
                        direction="higher_is_better")
    print("\n" + report)

    # the qualitative shape of Table I must hold on the simulated metric
    def sim(query, scheme, ordering, zone_maps, state="cold"):
        return result.cell(query, scheme, ordering, zone_maps, state).simulated_seconds

    for query in ("Q3", "Q6"):
        assert sim(query, "default", "Clustered", False) <= sim(query, "default", "ParseOrder", False)
        assert sim(query, "rdfscan", "Clustered", False) <= sim(query, "rdfscan", "ParseOrder", False)
        assert sim(query, "rdfscan", "Clustered", False) <= sim(query, "default", "Clustered", False)
        assert sim(query, "rdfscan", "Clustered", True, "hot") <= sim(query, "rdfscan", "Clustered", True, "cold")
    # zone maps give a further factor on Q3 (cross-FK date push-down)
    assert sim("Q3", "rdfscan", "Clustered", True) < sim("Q3", "rdfscan", "Clustered", False)
    # fully optimized vs baseline: the paper reports >40x at SF=10; at this small
    # scale we only require a substantial (>5x) factor, recorded in EXPERIMENTS.md
    assert result.speedup("Q3") > 5.0
