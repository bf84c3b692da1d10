"""Figure 2 reproduction: structure recognized from an example RDF graph.

Benchmarks the schema-discovery pipeline on the DBLP-like data of Figure 2
and on dirty web-crawl-like data, and prints the recovered tables, foreign
keys, coverage and irregular remainder.
"""

from __future__ import annotations

from repro.bench import DblpConfig, DirtyConfig, generate_dblp, generate_dirty
from repro.cs import DiscoveryConfig, GeneralizationConfig, discover_schema
from repro.storage import encode_graph, value_order_literals


def _encode(triples):
    dictionary, matrix = encode_graph(triples)
    return value_order_literals(matrix, dictionary)


def test_schema_discovery_dblp(benchmark, bench_report):
    dictionary, matrix = _encode(generate_dblp(DblpConfig(papers=400, conferences=16, authors=120,
                                                          irregularity=0.05)))
    config = DiscoveryConfig(generalization=GeneralizationConfig(min_support=3))

    schema = benchmark(lambda: discover_schema(matrix, dictionary, config))

    lines = ["Figure 2 reproduction — emergent schema of the DBLP-like graph", ""]
    lines.extend(schema.summary_lines(dictionary))
    for fk in schema.foreign_keys:
        source = schema.tables[fk.source_cs].label
        target = schema.tables[fk.target_cs].label
        predicate = dictionary.decode(fk.predicate_oid).local_name()
        lines.append(f"FK: {source}.{predicate} -> {target} (confidence {fk.confidence:.2f})")
    irregular_subjects = schema.coverage.total_subjects - schema.coverage.covered_subjects
    lines.append(f"irregular subjects: {irregular_subjects}")
    report = "\n".join(lines) + "\n"
    bench_report.write_text("fig2_schema.txt", report)
    bench_report.record_pytest_benchmark(
        "discover_dblp_seconds", benchmark,
        extra={"coverage": round(schema.coverage.triple_coverage(), 4),
               "tables": len(schema.tables)})
    print("\n" + report)

    labels = {t.label for t in schema.tables.values()}
    assert "Inproceedings" in labels
    assert schema.coverage.triple_coverage() > 0.85
    assert len(schema.foreign_keys) >= 2
    # the ad-hoc web-page subjects either end up outside the regular schema or,
    # when numerous enough to clear the support threshold, as their own table
    webpage_tables = [t for t in schema.tables.values()
                      if all(dictionary.decode(p).local_name() in ("homepage", "content")
                             for p in t.properties)]
    assert irregular_subjects or webpage_tables


def test_schema_discovery_dirty_crawl(benchmark, bench_report):
    dataset = generate_dirty(DirtyConfig(classes=6, subjects_per_class=150, noise_triples=0.05,
                                         chaotic_subjects=40))
    dictionary, matrix = _encode(dataset.triples)
    # dirty data needs a laxer attach threshold: subjects missing several optional
    # properties (or carrying noisy extra ones) should still join their class
    config = DiscoveryConfig(generalization=GeneralizationConfig(min_support=5,
                                                                 attach_similarity=0.35))

    schema = benchmark(lambda: discover_schema(matrix, dictionary, config))

    regular_fraction = dataset.regular_triple_count / dataset.total_triples()
    bench_report.record_pytest_benchmark(
        "discover_dirty_seconds", benchmark,
        extra={"coverage": round(schema.coverage.triple_coverage(), 4),
               "regular_fraction": round(regular_fraction, 4)})
    assert schema.coverage.triple_coverage() >= 0.8 * regular_fraction
    assert len(schema.tables) >= 5
