"""The paper's claims, checked on figures that do not depend on the machine.

Table I, its ablation and Figs. 1–5 are asserted on what the buffer-pool
cost model and the planner report — simulated seconds, page reads, join
counts, coverage — never on wall-clock time, which the repo benchmark
(``benchmarks/e2e/``) measures.  Every Table I and figure check reads one
pair of RDF-H stores, ParseOrder and Clustered, at SF 0.0004 with 256-row
pages and zones: with 1024-row pages Q3's fully optimised factor at this
scale falls below the bar.  The grid runs once per module.

Claims held by other modules are not repeated here: Fig. 1's equal Q6
counters (``test_frontends.py``), Fig. 7's partial lazy materialisation and
stores without projection files (``test_persistence.py``), column statistics
computed once per column under served reads and an update burst that
publishes in O(touched) (``test_concurrency.py``).
"""

from __future__ import annotations

import pytest

from repro.bench import (
    DblpConfig,
    DirtyConfig,
    TableOneConfig,
    TableOneHarness,
    format_table_one,
    generate_dblp,
    generate_dirty,
    q3_sparql,
    q3_sql,
    q6_sparql,
    q6_sql,
    star_fk_hop_sparql,
    star_lookup_sparql,
)
from repro.core import StoreConfig
from repro.cs import DiscoveryConfig, GeneralizationConfig, discover_schema
from repro.sparql import DEFAULT_SCHEME, OPTIMIZED_SCHEME, RDFSCAN_SCHEME, PlannerOptions
from repro.storage import encode_graph, value_order_literals

SCALE_FACTOR = 0.0004
PAGE_SIZE = 256


@pytest.fixture(scope="module")
def harness() -> TableOneHarness:
    return TableOneHarness(TableOneConfig(scale_factor=SCALE_FACTOR),
                           store_config=StoreConfig(page_size=PAGE_SIZE, zone_size=PAGE_SIZE))


@pytest.fixture(scope="module")
def grid(harness):
    return harness.run()


def _cold(grid, query: str, scheme: str, ordering: str, zone_maps: bool):
    return grid.cell(query, scheme, ordering, zone_maps, "cold")


def _encoded(triples):
    dictionary, matrix = encode_graph(triples)
    return value_order_literals(matrix, dictionary)


# -- Table I and its ablation --------------------------------------------------------------


def test_table_one(grid):
    """Clustering, RDFscan/RDFjoin and zone maps each cut simulated time on
    both queries, and the grid prints in the paper's layout."""
    assert len(grid.measurements) == len(TableOneHarness.CONFIGURATIONS) * 2 * 2
    assert all(m.result_rows == 1 for m in grid.measurements if m.query == "Q6")
    assert all(m.result_rows >= 1 for m in grid.measurements)
    for query in ("Q3", "Q6"):
        def sim(scheme, ordering, zone_maps, state="cold"):
            return grid.cell(query, scheme, ordering, zone_maps, state).simulated_seconds

        assert sim(DEFAULT_SCHEME, "Clustered", False) <= sim(DEFAULT_SCHEME, "ParseOrder", False)
        assert sim(RDFSCAN_SCHEME, "Clustered", False) <= sim(RDFSCAN_SCHEME, "ParseOrder", False)
        assert sim(RDFSCAN_SCHEME, "Clustered", False) <= sim(DEFAULT_SCHEME, "Clustered", False)
        assert (sim(RDFSCAN_SCHEME, "Clustered", True, "hot")
                <= sim(RDFSCAN_SCHEME, "Clustered", True))

    table = format_table_one(grid)
    assert "times in sim ms" in table and "Q3 Cold" in table and "RDFscan/RDFjoin" in table
    assert "speedup (cold, Q3)" in table


def test_hot_runs_read_no_page(grid):
    hot = [m for m in grid.measurements if m.cache_state == "hot"]
    assert len(hot) == len(grid.measurements) // 2
    assert all(m.page_reads == 0 for m in hot)


def test_zone_maps_push_q3s_date_restriction_across_the_foreign_key(grid):
    assert (_cold(grid, "Q3", RDFSCAN_SCHEME, "Clustered", True).simulated_seconds
            < _cold(grid, "Q3", RDFSCAN_SCHEME, "Clustered", False).simulated_seconds)


def test_q3_fully_optimised_beats_the_baseline_by_more_than_5x(grid):
    """The paper reports > 40x at SF 10; at this scale the bar is 5x."""
    assert grid.speedup("Q3") > 5.0


ABLATION = (
    ("baseline", DEFAULT_SCHEME, "ParseOrder", False),
    ("clustering_only", DEFAULT_SCHEME, "Clustered", False),
    ("rdfscan_only", RDFSCAN_SCHEME, "ParseOrder", False),
    ("clustering_plus_rdfscan", RDFSCAN_SCHEME, "Clustered", False),
    ("fully_optimized", RDFSCAN_SCHEME, "Clustered", True),
)


def test_each_optimisation_adds_to_the_last_on_q3(grid):
    cost = {label: _cold(grid, "Q3", scheme, ordering, zone_maps).simulated_seconds
            for label, scheme, ordering, zone_maps in ABLATION}
    assert cost["clustering_only"] <= cost["baseline"]
    assert cost["clustering_plus_rdfscan"] <= cost["rdfscan_only"]
    assert cost["fully_optimized"] <= cost["clustering_plus_rdfscan"]
    assert cost["fully_optimized"] < cost["baseline"]


# -- Fig. 1: one storage engine, two front ends ---------------------------------------------


ZONE_MAPS = PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=True)  # what SQL plans under


def test_sql_and_sparql_answer_q3_alike_with_one_join_plan(harness):
    store = harness.store("Clustered")
    sparql_q3, sql_q3 = store.sparql(q3_sparql(), ZONE_MAPS), store.sql(q3_sql())
    # the texts differ (SPARQL also groups by ?shippriority) but join alike
    assert (sql_q3.cost.counters["join_operations"]
            == sparql_q3.cost.counters["join_operations"])
    plan = sql_q3.plan.explain()
    assert "HashJoin" not in plan and plan.count("subj[") >= 2, plan

    sparql_rows, sql_rows = store.decode_rows(sparql_q3), store.decode_rows(sql_q3)
    assert sql_rows and [row[0] for row in sparql_rows] == [row[0] for row in sql_rows]
    for sparql_row, sql_row in zip(sparql_rows, sql_rows):  # revenue: column 3 / column 2
        assert sparql_row[3] == pytest.approx(sql_row[2], rel=1e-9)


def test_sql_and_sparql_answer_q6_alike(harness):
    store = harness.store("Clustered")
    [sparql_q6] = store.decode_rows(store.sparql(q6_sparql(), ZONE_MAPS))
    [sql_q6] = store.decode_rows(store.sql(q6_sql()))
    assert sparql_q6[0] == pytest.approx(sql_q6[0], rel=1e-9)


# -- Fig. 2 and Section II-A: the emergent schema and its coverage -----------------------------


def test_dblp_graph_yields_its_tables_foreign_keys_and_coverage():
    dictionary, matrix = _encoded(generate_dblp(DblpConfig(papers=400, conferences=16,
                                                           authors=120, irregularity=0.05)))
    schema = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))
    assert "Inproceedings" in {t.label for t in schema.tables.values()}
    assert schema.coverage.triple_coverage() > 0.85
    assert len(schema.foreign_keys) >= 2
    # the ad-hoc web pages end up outside the regular schema or, when numerous
    # enough to clear the support threshold, as a table of their own
    irregular_subjects = schema.coverage.total_subjects - schema.coverage.covered_subjects
    webpage_tables = [t for t in schema.tables.values()
                      if all(dictionary.decode(p).local_name() in ("homepage", "content")
                             for p in t.properties)]
    assert irregular_subjects or webpage_tables


def test_dirty_crawl_coverage_tracks_its_regular_backbone():
    dataset = generate_dirty(DirtyConfig(classes=6, subjects_per_class=150,
                                         noise_triples=0.05, chaotic_subjects=40))
    dictionary, matrix = _encoded(dataset.triples)
    # subjects missing several optional properties, or carrying noisy extra
    # ones, still join their class under a laxer attach threshold
    schema = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=5, attach_similarity=0.35)))
    regular_fraction = dataset.regular_triple_count / dataset.total_triples()
    assert schema.coverage.triple_coverage() >= 0.8 * regular_fraction
    assert len(schema.tables) >= 5


def test_generalisation_raises_coverage_with_fewer_tables():
    dataset = generate_dirty(DirtyConfig(classes=6, subjects_per_class=150, dropout=0.15,
                                         noise_triples=0.08, chaotic_subjects=60))
    dictionary, matrix = _encoded(dataset.triples)
    strict = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=5, core_merge_similarity=1.0,
                                            attach_similarity=1.0, minority_presence=1.0)))
    generalized = discover_schema(matrix, dictionary, DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=5, attach_similarity=0.35)))
    assert generalized.coverage.triple_coverage() >= strict.coverage.triple_coverage()
    assert len(generalized.tables) <= max(len(strict.tables), 1)
    # "covers most of the data set": this generator is deliberately dirtier than
    # typical web data, so the bar is a clear majority, not the ~85% of real sets
    assert generalized.coverage.triple_coverage() > 0.55


# -- Fig. 3: subject clustering -------------------------------------------------------------


def test_clustering_gives_each_table_a_disjoint_subject_range_and_fewer_page_reads(harness, grid):
    assert (_cold(grid, "Q6", RDFSCAN_SCHEME, "Clustered", False).page_reads
            < _cold(grid, "Q6", RDFSCAN_SCHEME, "ParseOrder", False).page_reads)
    clustered = harness.store("Clustered").clustered_store
    assert clustered.regular_fraction() > 0.95
    ranges = sorted((int(block.subject_column.data[0]), int(block.subject_column.data[-1]))
                    for block in clustered.blocks if len(block))
    for (_low, previous_high), (low, _high) in zip(ranges, ranges[1:]):
        assert previous_high < low


# -- Fig. 4: RDFscan/RDFjoin collapse the star joins ----------------------------------------


# the paper's Fig. 4 rows: no zone-map push-down
DEFAULT = PlannerOptions(scheme=DEFAULT_SCHEME, use_zone_maps=False)
RDFSCAN = PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=False)


def _same_answers(store, text):
    baseline, collapsed = store.sparql(text, DEFAULT), store.sparql(text, RDFSCAN)
    return len(baseline) and (baseline.bindings.to_set(baseline.columns)
                              == collapsed.bindings.to_set(baseline.columns))


def test_rdfscan_collapses_a_four_property_star(harness):
    """(a) a four-property star: 3 joins, then none."""
    store = harness.store("Clustered")
    assert _same_answers(store, star_lookup_sparql())
    assert store.sparql_plan(star_lookup_sparql(), DEFAULT).count_joins() == 3
    assert store.sparql_plan(star_lookup_sparql(), RDFSCAN).count_joins() == 0


def test_rdfjoin_fetches_the_star_behind_a_foreign_key_hop(harness):
    """(b) star + FK hop: the hop's join stays, plus one RDFjoin fetching the
    rest of the star."""
    store = harness.store("Clustered")
    assert _same_answers(store, star_fk_hop_sparql())
    hop = store.sparql_plan(star_fk_hop_sparql(), RDFSCAN)
    assert store.sparql_plan(star_fk_hop_sparql(), DEFAULT).count_joins() == 4
    assert hop.count_joins() == 2
    assert hop.operator_names().get("RDFJoinOp", 0) == 1


# -- Fig. 5: the cost-based scheme answers like the paper's two ---------------------------------


@pytest.mark.parametrize("text,zone_maps", [
    (star_lookup_sparql(), False), (star_fk_hop_sparql(), False),
    (q6_sparql(), False), (q3_sparql(), True),
], ids=["star_lookup", "star_fk_hop", "q6", "q3_zone_maps"])
def test_three_schemes_return_the_same_rows(harness, text, zone_maps):
    store = harness.store("Clustered")
    answers = [sorted(store.sparql(text, PlannerOptions(scheme=scheme,
                                                        use_zone_maps=zone_maps)).rows())
               for scheme in (DEFAULT_SCHEME, RDFSCAN_SCHEME, OPTIMIZED_SCHEME)]
    assert answers[0] and answers[1] == answers[0] and answers[2] == answers[0]
