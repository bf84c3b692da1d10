"""Figure 3 reproduction: the effect of subject clustering on storage locality.

Figure 3 illustrates how clustering moves the triples of each characteristic
set into contiguous, aligned ranges while irregular triples stay in the basic
triple store.  This benchmark quantifies the effect: the same star query over
the ParseOrder and the Clustered store, comparing page reads (locality) and
the clustered store's physical statistics.
"""

from __future__ import annotations

from repro.bench import q6_sparql
from repro.sparql import PlannerOptions, RDFSCAN_SCHEME


def _cold_run(store, query, options):
    store.reset_cold()
    return store.sparql(query, options)


def _subject_bounds(block):
    """Smallest and largest subject OID of a non-empty block (the subject
    column is sorted); ``(0, -1)`` for an empty one."""
    subjects = block.subject_column.data
    return (int(subjects[0]), int(subjects[-1])) if len(subjects) else (0, -1)


def test_parse_order_locality(benchmark, table1_harness, bench_report):
    store = table1_harness.store("ParseOrder")
    options = PlannerOptions(scheme=RDFSCAN_SCHEME)
    result = benchmark.pedantic(lambda: _cold_run(store, q6_sparql(), options),
                                rounds=3, iterations=1)
    benchmark.extra_info["page_reads"] = result.cost.counters["page_reads"]
    bench_report.record_pytest_benchmark("q6_cold_parseorder_seconds", benchmark)
    assert len(result) == 1


def test_clustered_locality(benchmark, table1_harness, bench_report):
    parse_order = table1_harness.store("ParseOrder")
    clustered = table1_harness.store("Clustered")
    options = PlannerOptions(scheme=RDFSCAN_SCHEME)

    result = benchmark.pedantic(lambda: _cold_run(clustered, q6_sparql(), options),
                                rounds=3, iterations=1)
    benchmark.extra_info["page_reads"] = result.cost.counters["page_reads"]
    bench_report.record_pytest_benchmark("q6_cold_clustered_seconds", benchmark)

    baseline = _cold_run(parse_order, q6_sparql(), options)
    clustered_run = _cold_run(clustered, q6_sparql(), options)
    bench_report.record("q6_cold_parseorder_page_reads",
                        baseline.cost.counters["page_reads"], unit="pages")
    bench_report.record("q6_cold_clustered_page_reads",
                        clustered_run.cost.counters["page_reads"], unit="pages")

    store = clustered.clustered_store
    lines = ["Figure 3 reproduction — subject clustering and locality", ""]
    lines.append(f"CS blocks: {len(store.blocks)}")
    for block in store.blocks:
        low, high = _subject_bounds(block)
        lines.append(f"  block {block.label}: {len(block)} subjects, aligned columns="
                     f"{len(block.property_columns)}, subject OIDs [{low}, {high}]")
    lines.append(f"irregular triples (basic PSO store): {len(store.irregular)}")
    lines.append(f"regular fraction: {store.regular_fraction():.3f}")
    lines.append("")
    lines.append(f"Q6 cold page reads, ParseOrder: {baseline.cost.counters['page_reads']}")
    lines.append(f"Q6 cold page reads, Clustered:  {clustered_run.cost.counters['page_reads']}")
    report = "\n".join(lines) + "\n"
    bench_report.write_text("fig3_clustering.txt", report)
    print("\n" + report)

    # clustering concentrates each CS into contiguous subject ranges: the same
    # query touches (far) fewer pages than on the parse-order layout
    assert clustered_run.cost.counters["page_reads"] < baseline.cost.counters["page_reads"]
    assert store.regular_fraction() > 0.95

    # the blocks partition the subject OID space into disjoint ranges
    ranges = sorted(_subject_bounds(block) for block in store.blocks if len(block))
    for (prev_low, prev_high), (low, high) in zip(ranges, ranges[1:]):
        assert prev_high < low
