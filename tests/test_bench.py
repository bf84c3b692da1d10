"""Tests for the benchmark substrate: generators, query texts and the Table I
harness's mechanics (the paper's Table I claims are in ``test_paper_claims.py``)."""

from datetime import date

import pytest

from repro.bench import (
    DblpConfig,
    DirtyConfig,
    TableOneConfig,
    TableOneHarness,
    TpchConfig,
    format_table_one,
    generate_dblp,
    generate_dirty,
    generate_rdfh_triples,
    generate_tpch,
    iter_reference_q3,
    iter_reference_q6,
    q3_sparql,
    q6_sparql,
    star_fk_hop_sparql,
    star_lookup_sparql,
    sub_order_keys,
    tpch_to_triples,
)
from repro.bench.rdfh import CLASS_LINEITEM, CLASS_ORDER, expected_subject_counts
from repro.bench.tpch import ORDER_DATE_END, ORDER_DATE_START, iter_lineitems_by_order
from repro.errors import BenchmarkError
from repro.sparql import DEFAULT_SCHEME, RDFSCAN_SCHEME, parse_sparql


class TestTpchGenerator:
    def test_deterministic(self):
        a = generate_tpch(TpchConfig(scale_factor=0.0004))
        b = generate_tpch(TpchConfig(scale_factor=0.0004))
        assert a.customers == b.customers
        assert a.orders == b.orders
        assert a.lineitems == b.lineitems

    def test_row_counts_scale(self):
        small = generate_tpch(TpchConfig(scale_factor=0.0002))
        large = generate_tpch(TpchConfig(scale_factor=0.0008))
        assert large.row_counts()["customer"] > small.row_counts()["customer"]
        assert large.row_counts()["lineitem"] > small.row_counts()["lineitem"]

    def test_referential_integrity(self, tpch_tiny):
        customer_keys = {c.custkey for c in tpch_tiny.customers}
        order_keys = {o.orderkey for o in tpch_tiny.orders}
        assert all(o.custkey in customer_keys for o in tpch_tiny.orders)
        assert all(l.orderkey in order_keys for l in tpch_tiny.lineitems)

    def test_date_ranges_and_correlation(self, tpch_tiny):
        orders_by_key = {o.orderkey: o for o in tpch_tiny.orders}
        for line in tpch_tiny.lineitems:
            order = orders_by_key[line.orderkey]
            assert ORDER_DATE_START <= order.orderdate <= ORDER_DATE_END
            assert 1 <= (line.shipdate - order.orderdate).days <= 121

    def test_value_domains(self, tpch_tiny):
        for line in tpch_tiny.lineitems:
            assert 1 <= line.quantity <= 50
            assert 0.0 <= line.discount <= 0.10
            assert line.extendedprice > 0

    def test_reference_answers_nonempty(self, tpch_tiny):
        assert iter_reference_q6(tpch_tiny) > 0
        assert len(iter_reference_q3(tpch_tiny)) > 0

    def test_lineitems_by_order_grouping(self, tpch_tiny):
        groups = list(iter_lineitems_by_order(tpch_tiny))
        assert sum(len(lines) for _o, lines in groups) == len(tpch_tiny.lineitems)


class TestRdfhMapping:
    def test_triple_counts(self, tpch_tiny):
        triples = list(tpch_to_triples(tpch_tiny))
        expected = (len(tpch_tiny.customers) * 5 + len(tpch_tiny.orders) * 7
                    + len(tpch_tiny.lineitems) * 10)
        assert len(triples) == expected

    def test_subject_counts_per_class(self, tpch_tiny):
        triples = list(tpch_to_triples(tpch_tiny))
        counts = expected_subject_counts(tpch_tiny)
        by_class = {}
        for t in triples:
            if t.predicate.value.endswith("type"):
                by_class[t.object.value] = by_class.get(t.object.value, 0) + 1
        assert by_class[CLASS_ORDER] == counts[CLASS_ORDER]
        assert by_class[CLASS_LINEITEM] == counts[CLASS_LINEITEM]

    def test_generate_rdfh_triples_wrapper(self):
        triples = generate_rdfh_triples(scale_factor=0.0002)
        assert len(triples) > 100

    def test_sub_order_keys_labels(self):
        keys = sub_order_keys()
        assert set(keys) == {"Lineitem", "Order"}


class TestQueryTexts:
    @pytest.mark.parametrize("text", [
        q6_sparql(), q3_sparql(), star_lookup_sparql(), star_fk_hop_sparql(),
    ])
    def test_queries_parse(self, text):
        query = parse_sparql(text)
        assert query.patterns

    def test_q6_parameterization(self):
        text = q6_sparql(ship_year=1997, discount=0.05, quantity_limit=30)
        assert "1997-01-01" in text and "1998-01-01" in text
        assert "0.039" in text and "0.061" in text
        assert "30" in text

    def test_q3_parameterization(self):
        text = q3_sparql(segment="MACHINERY", cutoff=date(1996, 1, 1), limit=5)
        assert "MACHINERY" in text and "1996-01-01" in text and "LIMIT 5" in text


class TestOtherGenerators:
    def test_dblp_deterministic_and_sized(self):
        a = generate_dblp(DblpConfig(papers=50))
        b = generate_dblp(DblpConfig(papers=50))
        assert a == b
        assert len(a) > 150

    def test_dirty_ground_truth_accounting(self):
        dataset = generate_dirty(DirtyConfig(classes=3, subjects_per_class=30))
        assert dataset.regular_subject_count == 90
        assert dataset.regular_triple_count <= dataset.total_triples()
        assert len(dataset.class_of_subject) == 90


class TestHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        return TableOneHarness(TableOneConfig(scale_factor=0.0004))

    @pytest.fixture(scope="class")
    def q6_grid(self, harness):
        return harness.run(queries=["q6"])

    def test_stores_built_lazily_and_cached(self, harness):
        store = harness.store("Clustered")
        assert store is harness.store("Clustered")
        assert harness.store("ParseOrder").is_clustered is False
        with pytest.raises(BenchmarkError):
            harness.store("Nope")

    def test_unknown_query_rejected(self, harness):
        with pytest.raises(BenchmarkError):
            harness.query_text("Q99")
        with pytest.raises(BenchmarkError):
            harness.run_cell("Q6", RDFSCAN_SCHEME, "Clustered", True, "warm")

    def test_run_cell_and_grid(self, harness, q6_grid):
        cell = harness.run_cell("Q6", RDFSCAN_SCHEME, "Clustered", True, "cold")
        assert cell.result_rows == 1
        assert cell.simulated_seconds > 0
        assert len(q6_grid.measurements) == len(TableOneHarness.CONFIGURATIONS) * 2
        assert {m.query for m in q6_grid.measurements} == {"Q6"}
        assert q6_grid.cell("Q3", RDFSCAN_SCHEME, "Clustered", True, "cold") is None
        table = format_table_one(q6_grid)
        assert "Q6 Cold" in table and "Q3 Cold" not in table and "RDFscan" in table

    def test_cells_are_deterministic(self, harness, q6_grid):
        for scheme, ordering, zone_maps in TableOneHarness.CONFIGURATIONS:
            assert (harness.run_cell("Q6", scheme, ordering, zone_maps, "cold")
                    == q6_grid.cell("Q6", scheme, ordering, zone_maps, "cold"))

    def test_speedup_metric(self, q6_grid):
        baseline = q6_grid.cell("Q6", DEFAULT_SCHEME, "ParseOrder", False, "cold")
        best = q6_grid.cell("Q6", RDFSCAN_SCHEME, "Clustered", True, "cold")
        assert q6_grid.speedup("Q6") == baseline.simulated_seconds / best.simulated_seconds
        with pytest.raises(BenchmarkError):
            q6_grid.speedup("Q3")
