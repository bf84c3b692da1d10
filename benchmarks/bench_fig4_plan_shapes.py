"""Figure 4 reproduction: RDFscan/RDFjoin collapse star-pattern joins.

Figure 4 shows the plan shapes for (a) a four-property star and (b) a star
plus a foreign-key hop: the Default scheme needs one index-scan join per
property, the RDFscan/RDFjoin scheme a single operator per star.  This
benchmark counts operators and joins per scheme, verifies both plans return
identical answers, and measures their execution.
"""

from __future__ import annotations

import pytest

from repro.bench import star_fk_hop_sparql, star_lookup_sparql
from repro.sparql import DEFAULT_SCHEME, PlannerOptions, RDFSCAN_SCHEME


@pytest.mark.parametrize("query_name,query_text", [
    ("fig4a_star", star_lookup_sparql()),
    ("fig4b_star_fk_hop", star_fk_hop_sparql()),
])
@pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, RDFSCAN_SCHEME])
def test_plan_shape_execution(benchmark, table1_harness, bench_report,
                              query_name, query_text, scheme):
    store = table1_harness.store("Clustered")
    options = PlannerOptions(scheme=scheme)
    plan = store.sparql_plan(query_text, options)
    benchmark.extra_info["joins"] = plan.count_joins()
    benchmark.extra_info["operators"] = plan.count_operators()

    def run():
        store.reset_cold()
        return store.sparql(query_text, options)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    bench_report.record_pytest_benchmark(
        f"{query_name}_{scheme}_cold_seconds", benchmark)
    assert len(result) > 0


def test_plan_shapes_and_equivalence(table1_harness, bench_report):
    store = table1_harness.store("Clustered")
    lines = ["Figure 4 reproduction — operator and join counts per plan scheme", ""]
    for name, text in (("Fig 4(a) star, 4 properties", star_lookup_sparql()),
                       ("Fig 4(b) star + FK hop", star_fk_hop_sparql())):
        default_plan = store.sparql_plan(text, PlannerOptions(scheme=DEFAULT_SCHEME))
        rdfscan_plan = store.sparql_plan(text, PlannerOptions(scheme=RDFSCAN_SCHEME))
        default_result = store.sparql(text, PlannerOptions(scheme=DEFAULT_SCHEME))
        rdfscan_result = store.sparql(text, PlannerOptions(scheme=RDFSCAN_SCHEME))
        columns = default_result.columns
        assert default_result.bindings.to_set(columns) == rdfscan_result.bindings.to_set(columns)

        lines.append(name)
        lines.append(f"  Default        : {default_plan.count_joins()} joins, "
                     f"{default_plan.count_operators()} operators")
        lines.append(f"  RDFscan/RDFjoin: {rdfscan_plan.count_joins()} joins, "
                     f"{rdfscan_plan.count_operators()} operators")
        lines.append("  Default plan:")
        lines.extend("    " + line for line in
                     default_result.plan.explain(run=default_result.run).splitlines())
        lines.append("  RDFscan/RDFjoin plan:")
        lines.extend("    " + line for line in
                     rdfscan_result.plan.explain(run=rdfscan_result.run).splitlines())
        lines.append("")

        # the paper's claim: per-property joins disappear
        assert rdfscan_plan.count_joins() < default_plan.count_joins()

    report = "\n".join(lines) + "\n"
    bench_report.write_text("fig4_plan_shapes.txt", report)
    print("\n" + report)

    # Fig 4(a): the 4-property star needs 3 joins in the Default scheme, 0 with RDFscan
    star_default = store.sparql_plan(star_lookup_sparql(), PlannerOptions(scheme=DEFAULT_SCHEME))
    star_rdfscan = store.sparql_plan(star_lookup_sparql(), PlannerOptions(scheme=RDFSCAN_SCHEME))
    assert star_default.count_joins() == 3
    assert star_rdfscan.count_joins() == 0
    # Fig 4(b): the new scheme keeps the FK-hop join (prop4 scan joined with the
    # restricted ?s2 set) plus one RDFjoin fetching the remaining star properties
    hop_rdfscan = store.sparql_plan(star_fk_hop_sparql(), PlannerOptions(scheme=RDFSCAN_SCHEME))
    hop_default = store.sparql_plan(star_fk_hop_sparql(), PlannerOptions(scheme=DEFAULT_SCHEME))
    assert hop_rdfscan.count_joins() == 2
    assert hop_default.count_joins() == 4
    assert hop_rdfscan.operator_names().get("RDFJoinOp", 0) == 1
