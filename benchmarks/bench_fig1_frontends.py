"""Figure 1 reproduction: SPARQL and SQL front-ends over the same storage.

Figure 1 shows the architecture: a SPARQL front-end and a SQL front-end both
talk to the same relational/triple storage inside one kernel.  The benchmark
runs the same analytical question (RDF-H Q6 and Q3) through both front-ends,
verifies the answers agree and that both paths do the same work (they share
one planner), and measures both.
"""

from __future__ import annotations

import pytest

from repro.bench import q3_sparql, q3_sql, q6_sparql, q6_sql
from repro.sparql import PlannerOptions, RDFSCAN_SCHEME


ZONE_MAPS = PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=True)
"""What SQL always plans under; SPARQL is asked for the same."""

COUNTERS = ("tuples_scanned", "tuples_probed", "join_operations", "operator_invocations")
"""The deterministic part of a run's cost (page reads vs. hits depend on
what ran before)."""


def _record_counters(bench_report, name: str, result) -> None:
    for counter in COUNTERS:
        bench_report.record(f"{name}_{counter}", result.cost.counters[counter], unit="count")


def test_sparql_frontend_q6(benchmark, table1_harness, bench_report):
    store = table1_harness.store("Clustered")
    store.warm()  # hot means warmed before the clock starts, not inside it
    result = benchmark.pedantic(lambda: store.sparql(q6_sparql(), ZONE_MAPS),
                                rounds=3, iterations=1)
    bench_report.record_pytest_benchmark("q6_sparql_hot_seconds", benchmark)
    assert len(result) == 1


def test_sql_frontend_q6(benchmark, table1_harness, bench_report):
    store = table1_harness.store("Clustered")
    store.warm()
    result = benchmark.pedantic(lambda: store.sql(q6_sql()), rounds=3, iterations=1)
    bench_report.record_pytest_benchmark("q6_sql_hot_seconds", benchmark)
    assert len(result) == 1


def test_frontends_share_one_plan(table1_harness, bench_report):
    """Both front ends lower to one logical query and one planner, so the
    same question does the same work: deterministic and blocking in CI."""
    store = table1_harness.store("Clustered")
    results = {
        "q6_sparql": store.sparql(q6_sparql(), ZONE_MAPS), "q6_sql": store.sql(q6_sql()),
        "q3_sparql": store.sparql(q3_sparql(), ZONE_MAPS), "q3_sql": store.sql(q3_sql()),
    }
    for name, result in results.items():
        _record_counters(bench_report, name, result)
    for counter in COUNTERS:
        assert (results["q6_sql"].cost.counters[counter]
                == results["q6_sparql"].cost.counters[counter]), counter
    # Q3's two texts differ (SPARQL also groups by ?shippriority) but join alike,
    # and SQL gets the date restriction pushed across the foreign key too
    assert (results["q3_sql"].cost.counters["join_operations"]
            == results["q3_sparql"].cost.counters["join_operations"])
    plan = results["q3_sql"].plan.explain()
    assert "HashJoin" not in plan and plan.count("subj[") >= 2, plan


def test_frontends_agree(table1_harness, bench_report):
    store = table1_harness.store("Clustered")
    sparql_q6 = store.sparql(q6_sparql(), ZONE_MAPS)
    sql_q6 = store.sql(q6_sql())
    sparql_revenue = float(sparql_q6.bindings.column("revenue")[0])
    sql_revenue = float(sql_q6.bindings.column("revenue")[0])
    assert sparql_revenue == pytest.approx(sql_revenue, rel=1e-9)

    sparql_q3 = store.decode_rows(store.sparql(q3_sparql(), ZONE_MAPS))
    sql_q3 = store.decode_rows(store.sql(q3_sql()))
    assert len(sparql_q3) == len(sql_q3)
    # same orders in the same sequence; revenue is column 3 (SPARQL) / 2 (SQL)
    assert [row[0] for row in sparql_q3] == [row[0] for row in sql_q3]
    for sparql_row, sql_row in zip(sparql_q3, sql_q3):
        assert sparql_row[3] == pytest.approx(sql_row[2], rel=1e-9)

    catalog = store.require_catalog()
    lines = ["Figure 1 reproduction — one storage engine, two front-ends", ""]
    lines.append(f"Q6 revenue via SPARQL: {sparql_revenue:.2f}")
    lines.append(f"Q6 revenue via SQL   : {sql_revenue:.2f}")
    lines.append("")
    lines.append("Emergent SQL view (DDL):")
    lines.append(catalog.ddl_script())
    report = "\n".join(lines) + "\n"
    bench_report.write_text("fig1_frontends.txt", report)
    print("\n" + report)
