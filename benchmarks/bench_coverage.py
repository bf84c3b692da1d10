"""Coverage ablation (Section II-A claim: the rough relational schema covers
most of the input, e.g. ~85%).

Sweeps the support threshold and toggles generalization on dirty web-crawl
data, reporting triple coverage and table count — the trade-off the paper's
schema summarization is designed around.
"""

from __future__ import annotations

import pytest

from repro.bench import DirtyConfig, generate_dirty
from repro.cs import DiscoveryConfig, GeneralizationConfig, discover_schema
from repro.storage import encode_graph, value_order_literals


@pytest.fixture(scope="module")
def dirty_encoded():
    dataset = generate_dirty(DirtyConfig(classes=6, subjects_per_class=150, dropout=0.15,
                                         noise_triples=0.08, chaotic_subjects=60))
    dictionary, matrix = encode_graph(dataset.triples)
    dictionary, matrix = value_order_literals(matrix, dictionary)
    return dataset, dictionary, matrix


@pytest.mark.parametrize("min_support", [2, 5, 20, 80])
def test_coverage_vs_support_threshold(benchmark, dirty_encoded, bench_report,
                                       min_support):
    dataset, dictionary, matrix = dirty_encoded
    config = DiscoveryConfig(generalization=GeneralizationConfig(min_support=min_support))
    schema = benchmark(lambda: discover_schema(matrix, dictionary, config))
    benchmark.extra_info["triple_coverage"] = round(schema.coverage.triple_coverage(), 4)
    benchmark.extra_info["tables"] = len(schema.tables)
    bench_report.record_pytest_benchmark(
        f"discover_min_support_{min_support}_seconds", benchmark)
    assert 0.0 <= schema.coverage.triple_coverage() <= 1.0


def test_generalization_ablation(dirty_encoded, bench_report):
    """Generalization (nullable merging) should raise coverage and shrink the
    schema compared to exact-CS-only discovery."""
    dataset, dictionary, matrix = dirty_encoded

    strict = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=5, core_merge_similarity=1.0,
                                            attach_similarity=1.0, minority_presence=1.0)))
    generalized = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=5, attach_similarity=0.35)))

    lines = ["Coverage ablation — dirty web-crawl-like data", ""]
    lines.append(f"regular backbone fraction (ground truth): "
                 f"{dataset.regular_triple_count / dataset.total_triples():.3f}")
    lines.append(f"exact CSs only     : coverage={strict.coverage.triple_coverage():.3f} "
                 f"tables={len(strict.tables)}")
    lines.append(f"with generalization: coverage={generalized.coverage.triple_coverage():.3f} "
                 f"tables={len(generalized.tables)}")
    for min_support in (2, 5, 20, 80):
        schema = discover_schema(matrix, dictionary, DiscoveryConfig(
            generalization=GeneralizationConfig(min_support=min_support)))
        lines.append(f"min_support={min_support:>3}: coverage={schema.coverage.triple_coverage():.3f} "
                     f"tables={len(schema.tables)}")
    report = "\n".join(lines) + "\n"
    bench_report.write_text("coverage_ablation.txt", report)
    bench_report.record("coverage_strict", strict.coverage.triple_coverage(),
                        unit="fraction", direction="higher_is_better",
                        extra={"tables": len(strict.tables)})
    bench_report.record("coverage_generalized",
                        generalized.coverage.triple_coverage(),
                        unit="fraction", direction="higher_is_better",
                        extra={"tables": len(generalized.tables)})
    print("\n" + report)

    assert generalized.coverage.triple_coverage() >= strict.coverage.triple_coverage()
    assert len(generalized.tables) <= max(len(strict.tables), 1)
    # the paper's "covers most of the data set" claim: this generator is deliberately
    # dirtier than typical web data, so the bar here is a clear majority rather
    # than the ~85% quoted for real data sets
    assert generalized.coverage.triple_coverage() > 0.55
