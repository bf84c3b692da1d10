"""Tests for the columnar substrate: columns, buffer pool, zone maps, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import (
    BufferPool,
    Column,
    ColumnStats,
    CostModel,
    CardinalityEstimator,
    CostTracker,
    NULL_OID,
    QueryCost,
    ZoneMap,
    gather_columns,
)
from repro.cs import DiscoveryConfig, GeneralizationConfig, discover_schema
from repro.engine import OidRange, PatternTerm, StarPattern, StarProperty
from repro.errors import StorageError
from repro.storage import ExhaustiveIndexStore, TripleTable


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=10, page_size=4)
        assert pool.access_value("col", 0) is False
        assert pool.access_value("col", 1) is True  # same page
        assert pool.tracker.page_reads == 1
        assert pool.tracker.page_hits == 1

    def test_access_range_touches_each_page_once(self):
        pool = BufferPool(page_size=4)
        misses = pool.access_range("col", 0, 10)
        assert misses == 3
        assert pool.access_range("col", 0, 10) == 0

    def test_reset_cold_clears_cache(self):
        pool = BufferPool(page_size=4)
        pool.access_range("col", 0, 8)
        pool.reset_cold()
        assert pool.cached_page_count() == 0
        assert pool.access_value("col", 0) is False

    def test_warm_preloads(self):
        pool = BufferPool(page_size=4)
        pool.warm("col", 10)
        assert pool.cached_page_count() == 3
        assert pool.access_value("col", 9) is True

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2, page_size=1)
        pool.access_page("col", 0)
        pool.access_page("col", 1)
        pool.access_page("col", 2)  # evicts page 0
        assert pool.contains("col", 0) is False
        assert pool.contains("col", 2) is True

    def test_pages_for(self):
        pool = BufferPool(page_size=100)
        assert pool.pages_for(0) == 0
        assert pool.pages_for(1) == 1
        assert pool.pages_for(100) == 1
        assert pool.pages_for(101) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.booleans(),
                              st.lists(st.integers(0, 12), min_size=0, max_size=8)),
                    max_size=30),
           st.integers(1, 6))
    def test_batched_touches_replay_one_page_at_a_time(self, trace, capacity):
        """``access_range`` / ``access_pages`` take the lock once per call;
        replayed page by page through ``access_page`` on a small pool that
        evicts, the same trace gives the same misses, hit / read / eviction
        counts and resident pages in the same LRU order — those of a plain
        LRU list — and a drop by segment prefix leaves the list's others."""
        batched = BufferPool(capacity_pages=capacity, page_size=4)
        paged = BufferPool(capacity_pages=capacity, page_size=4)
        lru, model = [], [0, 0, 0]  # resident keys, oldest first; hits, reads, evictions
        for segment, as_range, values in trace:
            if as_range:  # a value range: its pages, ascending
                start, stop = (min(values), max(values) + 1) if values else (3, 3)
                misses = batched.access_range(segment, start * 4 + 1, stop * 4 - 2)
                pages = range(start, stop) if values else range(0)
            else:  # explicit pages, repeats and any order included
                misses = batched.access_pages(segment, values)
                pages = values
            assert misses == sum(not paged.access_page(segment, page) for page in pages)
            for page in pages:
                hit = (segment, page) in lru
                if hit:
                    lru.remove((segment, page))
                lru.append((segment, page))
                model[0 if hit else 1] += 1
                if len(lru) > capacity:
                    lru.pop(0)
                    model[2] += 1

        def counts(pool):
            return [pool.tracker.page_hits, pool.tracker.page_reads, pool.evictions]

        assert counts(batched) == counts(paged) == model
        assert list(batched._pages) == list(paged._pages) == lru
        # the per-segment page index follows evictions: a drop by prefix
        # removes exactly the resident pages of the segments it names
        assert batched.segments_cached("b") == sum(segment == "b" for segment, _ in lru)
        assert batched.drop_segments(("a", "c")) == sum(segment == "a" for segment, _ in lru)
        assert list(batched._pages) == [key for key in lru if key[0] != "a"]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BufferPool(capacity_pages=0)
        with pytest.raises(ValueError):
            BufferPool(page_size=0)


class TestColumn:
    def test_sorted_validation(self):
        with pytest.raises(StorageError):
            Column("c", [3, 2, 1], sorted_ascending=True)

    def test_get_and_slice(self):
        col = Column("c", [10, 20, 30, 40])
        assert list(col.gather([2])) == [30]
        assert list(col.slice(1, 3)) == [20, 30]
        assert list(col.slice(3, 99)) == [40]  # clipped to the column
        with pytest.raises(StorageError):
            col.gather([10])

    def test_select_equal_sorted_uses_binary_search(self):
        """Equality on a sorted column is a prefix range: binary searches
        (probes, no pages), then a slice of only the matching rows."""
        pool = BufferPool(page_size=2)
        rows = [(s, 7, o) for o, s in enumerate([1, 1, 2, 3, 3, 3])]
        table = TripleTable(np.asarray(rows), order="spo", pool=pool)
        lo, hi = table.prefix_row_range(3)
        assert (lo, hi) == (3, 6)
        assert pool.tracker.tuples_probed == 2 and pool.tracker.page_reads == 0
        assert table.fetch_rows(lo, hi, fetch="s")[:, 0].tolist() == [3, 3, 3]
        # only the matching pages are touched, not the whole column
        assert pool.tracker.page_reads <= 2

    def test_select_range_sorted(self):
        """A range on the component sorted inside one predicate is two more
        binary searches per interval (inclusive bounds, ``None`` = open)."""
        table = TripleTable(np.asarray([(s, 7, 0) for s in (1, 2, 3, 4, 5)]), order="pso")
        subjects = table.column("s").data
        for low, high, expected in ((2, 4, [2, 3, 4]), (3, 3, [3]), (None, 2, [1, 2]),
                                    (4, None, [4, 5]), (4, 2, []), (None, None, [1, 2, 3, 4, 5])):
            ranges = table.narrowed_row_ranges(7, OidRange(low, high).intervals())
            assert [s for lo, hi in ranges for s in subjects[lo:hi].tolist()] == expected
        # a head interval and a tail hull: two row ranges, in row order
        assert table.narrowed_row_ranges(7, [(1, 2), (4, 4)]) == [(0, 2), (3, 4)]
        assert table.narrowed_row_ranges(8, [(2, 4)]) == []  # absent predicate

    def test_gather_accounts_pages(self):
        pool = BufferPool(page_size=2)
        col = Column("c", list(range(10)), pool=pool)
        values = col.gather([0, 9, 1])
        assert list(values) == [0, 9, 1]
        assert pool.tracker.page_reads == 2  # pages 0 and 4
        with pytest.raises(StorageError):
            col.gather([42])

    def test_gather_touches_each_distinct_page_once_lowest_first(self):
        """Unsorted, duplicated positions across page boundaries: every page
        they fall on is touched once, in ascending page order — the reads,
        hits and LRU order of the sorted ``np.unique`` page set."""
        pool = BufferPool(capacity_pages=3, page_size=4)
        col = Column("c", list(range(20)), pool=pool)
        pool.access_page("c", 1)  # already cached: the gather hits it
        positions = [17, 3, 5, 17, 0, 4, 13, 3, 16]  # pages 4 0 1 4 0 1 3 0 4
        assert col.gather(positions).tolist() == positions
        # pages 0, 1, 3, 4 in that order: read, hit, read, read (evicting 0)
        assert (pool.tracker.page_reads, pool.tracker.page_hits) == (4, 1)
        assert pool.evictions == 1
        assert list(pool._pages) == [("c", 1), ("c", 3), ("c", 4)]
        assert pool.tracker.tuples_probed == len(positions)

    def test_gathering_aligned_columns_together_accounts_like_gathering_each(self):
        """``gather_columns`` finds the positions' pages once for all the
        columns, and reads, hits, evicts and counts probes exactly as one
        ``gather`` per column in turn."""
        positions = [17, 3, 5, 17, 0, 4, 13, 3, 16]
        pools = [BufferPool(capacity_pages=5, page_size=4) for _ in range(2)]
        columns = [[Column(name, [v * 10 + i for v in range(20)], pool=pool)
                    for i, name in enumerate("abc")] for pool in pools]
        for pool in pools:
            pool.access_page("b", 1)
        each = [column.gather(positions).tolist() for column in columns[0]]
        together = [values.tolist() for values in gather_columns(columns[1], positions)]
        assert together == each

        def accounting(pool: BufferPool) -> tuple:
            tracker = pool.tracker
            return (tracker.page_reads, tracker.page_hits, tracker.tuples_probed,
                    pool.evictions, list(pool._pages))

        assert accounting(pools[1]) == accounting(pools[0])
        assert pools[0].evictions  # three columns' pages overflow the pool
        assert gather_columns([], positions) == []
        with pytest.raises(StorageError):
            gather_columns(columns[1], [20])

    def test_null_handling(self):
        col = Column("c", [1, NULL_OID, 3, NULL_OID])
        assert col.null_count() == 2
        stats = col.statistics()
        assert (stats.min_value, stats.max_value, stats.distinct_count) == (1, 3, 2)
        assert col.statistics() is stats  # computed once, kept on the column

    def test_min_max_empty(self):
        stats = Column("c", []).statistics()
        assert stats.min_value is None and stats.max_value is None
        assert stats.estimate_range_selectivity(0, 10) == 0.0


class TestZoneMap:
    def test_build_and_prune(self):
        zone_map = ZoneMap.build(list(range(100)), zone_size=10)
        assert len(zone_map) == 10
        ranges = zone_map.candidate_row_ranges([(25, 34)])
        assert ranges == [(20, 40)]
        assert zone_map.candidate_row_count(25, 34) == 20

    def test_adjacent_ranges_coalesce(self):
        zone_map = ZoneMap.build(list(range(40)), zone_size=10)
        assert zone_map.candidate_row_ranges([(5, 25)]) == [(0, 30)]

    def test_unbounded_predicate_keeps_everything(self):
        zone_map = ZoneMap.build(list(range(40)), zone_size=10)
        assert zone_map.selectivity(None, None) == 1.0

    def test_no_match(self):
        zone_map = ZoneMap.build([1, 2, 3, 4], zone_size=2)
        assert zone_map.candidate_row_ranges([(100, 200)]) == []
        assert zone_map.selectivity(100, 200) == 0.0

    def test_null_only_zone_never_matches(self):
        zone_map = ZoneMap.build([NULL_OID, NULL_OID, 5, 6], zone_size=2)
        assert zone_map.candidate_row_ranges([(0, 100)]) == [(2, 4)]

    def test_value_bounds_for_rows(self):
        zone_map = ZoneMap.build([10, 20, 30, 40, 50, 60], zone_size=2)
        assert zone_map.value_bounds_for_rows(2, 6) == (30, 60)
        assert zone_map.value_bounds_for_rows(0, 1) == (10, 20)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_pruning_is_sound_property(self, values, a, b):
        """Zone-map pruning never discards a row that matches the predicate."""
        low, high = min(a, b), max(a, b)
        zone_map = ZoneMap.build(values, zone_size=16)
        kept = set()
        for start, stop in zone_map.candidate_row_ranges([(low, high)]):
            kept.update(range(start, stop))
        matching = {i for i, v in enumerate(values) if low <= v <= high}
        assert matching <= kept


class TestCost:
    def test_tracker_snapshot_and_diff(self):
        tracker = CostTracker()
        tracker.page_reads += 3
        base = tracker.snapshot()
        tracker.page_reads += 2
        tracker.tuples_scanned += 10
        diff = tracker.diff(base)
        assert diff["page_reads"] == 2
        assert diff["tuples_scanned"] == 10

    def test_cost_model_weights_reads_heavier_than_hits(self):
        model = CostModel()
        cold = model.simulated_seconds({"page_reads": 10, "page_hits": 0})
        hot = model.simulated_seconds({"page_reads": 0, "page_hits": 10})
        assert cold > hot * 10

    def test_query_cost_describe(self):
        cost = QueryCost(wall_seconds=0.001, counters={"page_reads": 1}, simulated_seconds=0.0002)
        assert "reads=1" in cost.describe()


class TestStats:
    def test_column_stats(self):
        stats = ColumnStats.from_values([1, 2, 2, NULL_OID, 5])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3
        assert stats.min_value == 1 and stats.max_value == 5
        assert stats.not_null_fraction() == pytest.approx(0.8)
        assert 0 < stats.estimate_equality_selectivity() <= 1
        assert stats.estimate_range_selectivity(1, 5) == pytest.approx(0.8)

    def test_column_stats_empty(self):
        stats = ColumnStats.from_values([])
        assert stats.distinct_count == 0
        assert stats.estimate_equality_selectivity() == 0.0

    def test_histogram_estimates(self):
        """Range selectivity comes from the column's own summary (uniform
        between min and max): the one range model the optimizer uses."""
        stats = ColumnStats.from_values(list(range(1000)))
        assert stats.estimate_range_selectivity(0, 499) == pytest.approx(0.5, rel=0.05)
        assert stats.estimate_range_selectivity(0, 999) == pytest.approx(1.0, rel=0.01)
        assert stats.estimate_range_selectivity(5000, 6000) == 0.0

    def test_histogram_empty(self):
        assert ColumnStats.from_values([]).estimate_range_selectivity(0, 10) == 0.0

    @staticmethod
    def _star_estimator(rows):
        """A schema-aware estimator over raw rows, and a star builder."""
        matrix = np.asarray(rows, dtype=np.int64)
        schema = discover_schema(matrix, dictionary=None, config=DiscoveryConfig(
            generalization=GeneralizationConfig(min_support=1)))
        estimator = CardinalityEstimator(ExhaustiveIndexStore(matrix), schema=schema)

        def subjects(*predicates):
            return estimator.star_subject_cardinality(StarPattern(subject_var="s", properties=[
                StarProperty(p, PatternTerm.variable(f"o{p}")) for p in predicates]))
        return subjects

    def test_cooccurrence_conditional(self):
        """Co-occurrence is what the characteristic sets record: the star
        estimate over both predicates, relative to one of them, is the
        join hit ratio ``P(q | p)`` — exact, not ``sel_p * sel_q``."""
        subjects = self._star_estimator(
            [(1, 10, 5), (1, 11, 6), (2, 10, 5), (2, 11, 6), (3, 10, 7)])
        assert subjects(10) == 3
        assert subjects(10, 11) == 2
        assert subjects(10, 11) / subjects(10) == pytest.approx(2 / 3)
        assert subjects(10, 11) / subjects(11) == pytest.approx(1.0)

    def test_cooccurrence_star_cardinality(self):
        rows = [(s, p, 500 + s) for s in range(10) for p in (1, 2)]
        rows += [(100 + s, 1, 700 + s) for s in range(10)]
        subjects = self._star_estimator(rows)
        # all subjects with 2 also have 1 -> the star {1,2} has exactly 10 answers
        assert subjects(1, 2) == pytest.approx(10.0)
        assert subjects(1, 2, 999) == 0.0
        assert subjects(1) == 20
