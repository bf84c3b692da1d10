"""Tests for binding tables, expressions and the classical physical operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import BufferPool, CardinalityEstimator
from repro.engine import (
    AggregateOp,
    AggregateSpec,
    BinaryOp,
    BindingTable,
    ExecutionContext,
    HashJoinOp,
    IndexScanOp,
    LimitOp,
    MaterializedOp,
    NestedLoopIndexJoinOp,
    NumericConst,
    NumericVar,
    OidRange,
    OrderByOp,
    PatternTerm,
    ProjectOp,
    StarProperty,
    TriplePatternPlan,
    cross_join,
    execute_plan,
)
from repro.engine.operators import DistinctOp, FilterNotEqualOp
from repro.engine.plan import NO_OIDS
from repro.engine.rdfscan import _property_pairs
from repro.errors import ExecutionError
from repro.model import IRI, Literal, TermDictionary
from repro.model.terms import XSD_INTEGER
from repro.obs import ActiveQuery
from repro.storage import ExhaustiveIndexStore

EX = "http://example.org/"


class TestBindingTable:
    def test_unequal_columns_rejected(self):
        with pytest.raises(ExecutionError):
            BindingTable({"a": np.array([1, 2]), "b": np.array([1])})

    def test_basic_accessors(self):
        t = BindingTable({"a": np.array([1, 2, 3])})
        assert t.num_rows == 3
        assert t.variables == ["a"]
        assert t.has("a") and not t.has("b")
        with pytest.raises(ExecutionError):
            t.column("missing")

    def test_with_column_and_project(self):
        t = BindingTable({"a": np.array([1, 2])})
        t2 = t.with_column("b", np.array([3, 4]))
        assert t2.project(["b"]).variables == ["b"]
        with pytest.raises(ExecutionError):
            t.with_column("c", np.array([1, 2, 3]))

    def test_filter_and_select(self):
        t = BindingTable({"a": np.array([1, 2, 3, 4])})
        assert t.filter_mask(t.column("a") > 2).num_rows == 2
        assert t.select_rows(np.array([0, 3])).column("a").tolist() == [1, 4]

    def test_concat_requires_same_vars(self):
        t1 = BindingTable({"a": np.array([1])})
        t2 = BindingTable({"b": np.array([2])})
        with pytest.raises(ExecutionError):
            t1.concat(t2)
        merged = t1.concat(BindingTable({"a": np.array([5])}))
        assert merged.column("a").tolist() == [1, 5]

    def test_distinct(self):
        t = BindingTable({"a": np.array([1, 1, 2]), "b": np.array([7, 7, 8])})
        assert t.distinct().num_rows == 2

    def test_sort_and_head(self):
        t = BindingTable({"a": np.array([3, 1, 2]), "b": np.array([10, 30, 20])})
        ordered = t.sort_by([("a", False)])
        assert ordered.column("a").tolist() == [1, 2, 3]
        descending = t.sort_by([("b", True)])
        assert descending.column("b").tolist() == [30, 20, 10]
        assert t.head(2).num_rows == 2

    def test_sort_multiple_keys(self):
        t = BindingTable({"a": np.array([1, 1, 0]), "b": np.array([5, 3, 9])})
        ordered = t.sort_by([("a", False), ("b", False)])
        assert list(zip(ordered.column("a").tolist(), ordered.column("b").tolist())) == \
            [(0, 9), (1, 3), (1, 5)]

    def test_iter_rows_and_to_set(self):
        t = BindingTable({"a": np.array([1, 2])})
        assert list(t.iter_rows()) == [{"a": 1}, {"a": 2}]
        assert t.to_set() == {(1,), (2,)}

    def test_rename(self):
        t = BindingTable({"a": np.array([1])})
        assert t.rename({"a": "x"}).variables == ["x"]


class TestJoins:
    def test_cross_join(self):
        left = BindingTable({"a": np.array([1, 2])})
        right = BindingTable({"b": np.array([10, 20, 30])})
        assert cross_join(left, right).num_rows == 6
        with pytest.raises(ExecutionError):
            cross_join(left, BindingTable({"a": np.array([1])}))

    @staticmethod
    def _hash_join(left: BindingTable, right: BindingTable, join_vars) -> BindingTable:
        """``HashJoinOp`` of the two tables: ``left`` builds, ``right`` probes."""
        ctx = ExecutionContext(dictionary=TermDictionary(), pool=BufferPool())
        op = HashJoinOp(MaterializedOp(left), MaterializedOp(right), join_vars=join_vars)
        return execute_plan(op, ctx)[0]

    def test_hash_join_basic(self):
        left = BindingTable({"s": np.array([1, 2, 3]), "x": np.array([10, 20, 30])})
        right = BindingTable({"s": np.array([2, 3, 4]), "y": np.array([200, 300, 400])})
        joined = self._hash_join(left, right, ["s"])
        assert joined.to_set(["s", "x", "y"]) == {(2, 20, 200), (3, 30, 300)}

    def test_hash_join_duplicates(self):
        left = BindingTable({"s": np.array([1, 1])})
        right = BindingTable({"s": np.array([1, 1, 1])})
        assert self._hash_join(left, right, ["s"]).num_rows == 6

    def test_hash_join_no_keys_is_cross(self):
        left = BindingTable({"a": np.array([1])})
        right = BindingTable({"b": np.array([2, 3])})
        assert self._hash_join(left, right, []).num_rows == 2


class TestExpressions:
    def test_numeric_var_decodes_oids(self):
        dictionary = TermDictionary()
        oid = dictionary.encode_term(Literal("5", datatype=XSD_INTEGER))
        pool = BufferPool()
        ctx = ExecutionContext(dictionary=dictionary, pool=pool)
        table = BindingTable({"x": np.array([oid])})
        values = NumericVar("x").evaluate(table, ctx.dictionary)
        assert values.tolist() == [5.0]

    def test_binary_op_and_const(self):
        dictionary = TermDictionary()
        pool = BufferPool()
        ctx = ExecutionContext(dictionary=dictionary, pool=pool)
        table = BindingTable({"x": np.array([2.0, 3.0])})
        expr = BinaryOp("*", NumericVar("x"), NumericConst(10.0))
        assert expr.evaluate(table, ctx.dictionary).tolist() == [20.0, 30.0]
        assert expr.variables() == {"x"}

    def test_invalid_operator_rejected(self):
        with pytest.raises(ExecutionError):
            BinaryOp("%", NumericConst(1), NumericConst(2))

    def test_aggregate_spec_functions(self):
        values = np.array([1.0, 2.0, 3.0, float("nan")])
        assert AggregateSpec("sum", NumericConst(0), "x").compute(values) == pytest.approx(6.0)
        assert AggregateSpec("count", NumericConst(0), "x").compute(values) == 4
        assert AggregateSpec("avg", NumericConst(0), "x").compute(values) == pytest.approx(2.0)
        assert AggregateSpec("min", NumericConst(0), "x").compute(values) == 1.0
        assert AggregateSpec("max", NumericConst(0), "x").compute(values) == 3.0
        with pytest.raises(ExecutionError):
            AggregateSpec("median", NumericConst(0), "x")


def _context():
    """Tiny encoded data set + execution context over the exhaustive store."""
    dictionary = TermDictionary()
    rows = []
    p_name = dictionary.encode_term(IRI(EX + "name"))
    p_age = dictionary.encode_term(IRI(EX + "age"))
    ages = {}
    for i in range(6):
        s = dictionary.encode_term(IRI(f"{EX}person/{i}"))
        name = dictionary.encode_term(Literal(f"name{i}"))
        age = dictionary.encode_term(Literal(str(20 + i), datatype=XSD_INTEGER))
        ages[s] = age
        rows.append((s, p_name, name))
        rows.append((s, p_age, age))
    matrix = np.asarray(rows, dtype=np.int64)
    pool = BufferPool(page_size=4)
    store = ExhaustiveIndexStore(matrix, pool=pool)
    ctx = ExecutionContext(dictionary=dictionary, pool=pool, index_store=store)
    return ctx, p_name, p_age, ages


@st.composite
def _range_probe_case(draw):
    """A random matrix, a predicate (4 is never present) and an OID range:
    closed, half-open, empty (low > high) or unbounded."""
    rows = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3), st.integers(0, 9)),
                         max_size=40, unique=True))
    bound = st.one_of(st.none(), st.integers(-1, 10))
    return (np.asarray(rows, dtype=np.int64).reshape(-1, 3), draw(st.integers(0, 4)),
            OidRange(draw(bound), draw(bound)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_range_probe_case())
def test_range_probe_matches_a_mask(case):
    """The one range probe selects exactly the rows a boolean mask selects —
    subjects within a predicate on PSO, objects on POS — and its three callers
    (index scan, index-merge pairs, estimator) agree with it."""
    matrix, predicate, oid_range = case
    pool = BufferPool(page_size=4)
    store = ExhaustiveIndexStore(matrix, pool=pool)
    ctx = ExecutionContext(dictionary=TermDictionary(), pool=pool, index_store=store)
    pattern = TriplePatternPlan(PatternTerm.variable("s"), PatternTerm.constant(predicate),
                                PatternTerm.variable("o"))
    for order, component, keyword in (("pso", "s", "subject_range"), ("pos", "o", "object_range")):
        table = store.table(order)
        raw = table.raw()
        values = raw[:, "spo".index(component)]
        mask = raw[:, 1] == predicate
        if oid_range.low is not None:
            mask &= values >= oid_range.low
        if oid_range.high is not None:
            mask &= values <= oid_range.high
        ranges = table.narrowed_row_ranges(predicate, oid_range.intervals())
        assert [row for lo, hi in ranges for row in range(lo, hi)] == np.nonzero(mask)[0].tolist()
        pairs = sorted(map(tuple, raw[mask][:, [0, 2]].tolist()))

        assert CardinalityEstimator(store)._range_count(predicate, oid_range, component) == len(pairs)
        scanned, _ = execute_plan(IndexScanOp(pattern, **{keyword: oid_range}), ctx)
        assert sorted(zip(scanned.column("s").tolist(), scanned.column("o").tolist())) == pairs
        if component == "o":
            prop = StarProperty(predicate, PatternTerm.variable("o"), oid_range=oid_range)
            subjects, objects = _property_pairs(ctx, store, prop, NO_OIDS, None)
            assert sorted(zip(subjects.tolist(), objects.tolist())) == pairs


class TestOperators:
    def test_index_scan_binds_variables(self):
        ctx, p_name, _p_age, _ages = _context()
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")))
        result, cost = execute_plan(scan, ctx)
        assert result.num_rows == 6
        assert set(result.variables) == {"s", "n"}
        assert cost.counters["operator_invocations"] == 1

    def test_index_scan_object_range(self):
        ctx, _p_name, p_age, ages = _context()
        age_oids = sorted(ages.values())
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_age),
                                             PatternTerm.variable("a")),
                           object_range=OidRange(age_oids[1], age_oids[3]))
        result, _ = execute_plan(scan, ctx)
        assert result.num_rows == 3

    def test_nested_loop_index_join(self):
        ctx, p_name, p_age, _ages = _context()
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")))
        join = NestedLoopIndexJoinOp(scan, TriplePatternPlan(PatternTerm.variable("s"),
                                                             PatternTerm.constant(p_age),
                                                             PatternTerm.variable("a")))
        result, cost = execute_plan(join, ctx)
        assert result.num_rows == 6
        assert set(result.variables) == {"s", "n", "a"}
        assert cost.counters["join_operations"] == 1
        assert join.count_joins() == 1

    def test_nested_loop_index_join_by_object(self):
        """Keyed on the object, each input row probes POS for the subjects
        holding its value: input-major rows, a repeated value matched twice,
        an unknown one never, the subject range applied to the matches."""
        ctx, _p_name, p_age, ages = _context()
        by_age = {age: s for s, age in ages.items()}
        values = sorted(by_age)
        probes = np.array([values[3], values[0], 10 ** 6, values[3]])
        child = MaterializedOp(BindingTable({"a": probes, "row": np.arange(4)}))
        pattern = TriplePatternPlan(PatternTerm.variable("s"), PatternTerm.constant(p_age),
                                    PatternTerm.variable("a"))
        result, cost = execute_plan(NestedLoopIndexJoinOp(child, pattern, key="o"), ctx)
        assert result.column("row").tolist() == [0, 1, 3]
        assert result.column("s").tolist() == [by_age[values[3]], by_age[values[0]],
                                               by_age[values[3]]]
        assert cost.counters["join_operations"] == 1
        first = by_age[values[0]]
        ranged = NestedLoopIndexJoinOp(child, pattern, subject_range=OidRange(first, first),
                                       key="o")
        assert "subj[" in ranged.describe()
        assert execute_plan(ranged, ctx)[0].column("row").tolist() == [1]
        with pytest.raises(ExecutionError):
            NestedLoopIndexJoinOp(child, TriplePatternPlan(
                PatternTerm.variable("s"), PatternTerm.variable("p"),
                PatternTerm.variable("a")), key="o")
        with pytest.raises(ExecutionError):
            NestedLoopIndexJoinOp(child, pattern, key="p")

    def test_nested_loop_join_requires_variable_subject(self):
        ctx, p_name, _p_age, _ages = _context()
        child = MaterializedOp(BindingTable({"s": np.array([0])}))
        with pytest.raises(ExecutionError):
            NestedLoopIndexJoinOp(child, TriplePatternPlan(PatternTerm.constant(0),
                                                           PatternTerm.constant(p_name),
                                                           PatternTerm.variable("n")))

    def test_filters(self):
        ctx, _p_name, p_age, ages = _context()
        child = MaterializedOp(BindingTable({"a": np.array(sorted(ages.values()))}))
        low = sorted(ages.values())[1]
        not_equal, cost = execute_plan(FilterNotEqualOp(child, "a", low), ctx)
        assert not_equal.num_rows == 5
        assert low not in not_equal.column("a").tolist()
        assert cost.counters["tuples_scanned"] == 6

    def test_project_distinct_order_limit(self):
        ctx, _p, _q, _ages = _context()
        table = BindingTable({"a": np.array([3, 1, 1]), "b": np.array([30, 10, 10])})
        child = MaterializedOp(table)
        projected, _ = execute_plan(ProjectOp(child, [("a", "a")]), ctx)
        assert projected.variables == ["a"]
        distinct, _ = execute_plan(DistinctOp(ProjectOp(child, [("a", "a")])), ctx)
        assert distinct.num_rows == 2
        ordered, _ = execute_plan(OrderByOp(child, [("a", True)]), ctx)
        assert ordered.column("a").tolist() == [3, 1, 1]
        limited, _ = execute_plan(LimitOp(child, 2), ctx)
        assert limited.num_rows == 2

    def test_extend_and_aggregate(self):
        ctx, _p, _q, _ages = _context()
        table = BindingTable({"g": np.array([1, 1, 2]), "x": np.array([1.0, 2.0, 5.0])})
        double = BinaryOp("*", NumericVar("x"), NumericConst(2))
        agg = AggregateOp(MaterializedOp(table), ["g"],
                          [AggregateSpec("sum", double, "total"),
                           AggregateSpec("count", NumericVar("x"), "n")])
        result, _ = execute_plan(agg, ctx)
        rows = {int(g): (t, n) for g, t, n in zip(result.column("g"), result.column("total"),
                                                  result.column("n"))}
        assert rows[1] == (6.0, 2.0)
        assert rows[2] == (10.0, 1.0)

    def test_aggregate_without_groups(self):
        ctx, _p, _q, _ages = _context()
        table = BindingTable({"x": np.array([1.0, 2.0])})
        agg = AggregateOp(MaterializedOp(table), [], [AggregateSpec("sum", NumericVar("x"), "total")])
        result, _ = execute_plan(agg, ctx)
        assert result.column("total").tolist() == [3.0]

    def test_hash_join_operator_auto_vars(self):
        ctx, _p, _q, _ages = _context()
        left = MaterializedOp(BindingTable({"s": np.array([1, 2]), "x": np.array([5, 6])}))
        right = MaterializedOp(BindingTable({"s": np.array([2, 3]), "y": np.array([7, 8])}))
        result, _ = execute_plan(HashJoinOp(left, right), ctx)
        assert result.to_set(["s", "x", "y"]) == {(2, 6, 7)}

    def test_explain_tree(self):
        ctx, p_name, p_age, _ages = _context()
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")))
        join = NestedLoopIndexJoinOp(scan, TriplePatternPlan(PatternTerm.variable("s"),
                                                             PatternTerm.constant(p_age),
                                                             PatternTerm.variable("a")))
        text = join.explain()
        assert "NestedLoopIndexJoin" in text and "IndexScan" in text
        assert join.count_operators() == 2
        assert join.operator_names()["IndexScanOp"] == 1


class TestBatchedExecution:
    """Batch streams: size sweeps, per-run row accounting, early stop."""

    def _pipeline(self, ctx, p_name, p_age):
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")))
        return NestedLoopIndexJoinOp(scan, TriplePatternPlan(PatternTerm.variable("s"),
                                                             PatternTerm.constant(p_age),
                                                             PatternTerm.variable("a")))

    @pytest.mark.parametrize("size", [1, 2, 3, 1024])
    def test_pipeline_rows_identical_across_batch_sizes(self, size):
        ctx, p_name, p_age, _ages = _context()
        reference_ctx, rp_name, rp_age, _ = _context()
        reference, _ = execute_plan(self._pipeline(reference_ctx, rp_name, rp_age),
                                    reference_ctx)
        ctx.batch_size = size
        result, _ = execute_plan(self._pipeline(ctx, p_name, p_age), ctx)
        assert result.variables == reference.variables
        for name in reference.variables:
            assert result.column(name).tolist() == reference.column(name).tolist()

    @pytest.mark.parametrize("size", [1, 3, 1024])
    def test_operator_counters_independent_of_batch_size(self, size):
        ctx, p_name, p_age, _ages = _context()
        _result, cost = execute_plan(self._pipeline(ctx, p_name, p_age), ctx)
        reference = dict(cost.counters)
        ctx.batch_size = size
        _result, swept = execute_plan(self._pipeline(ctx, p_name, p_age), ctx)
        for key in ("operator_invocations", "join_operations", "tuples_probed"):
            assert swept.counters[key] == reference[key], key

    def test_actual_rows_counts_rows_not_batches(self):
        """Regression: with 6 output rows at batch_size=1 the old counter
        would have read 6 either way, but a row-per-batch stream must not
        report the *batch* count."""
        ctx, p_name, p_age, _ages = _context()
        ctx.batch_size = 2  # 6 rows -> 3 batches; actual rows must still be 6
        plan = self._pipeline(ctx, p_name, p_age)
        run = ActiveQuery(1, "pipeline", "test", "default")
        execute_plan(plan, ctx.with_run(run))
        assert run.actual(plan) == 6
        assert run.actual(plan.children()[0]) == 6
        assert (run.rows, run.batches) == (6, 3)  # the root's own counts

    def test_streaming_batches_preserve_schema_on_empty_result(self):
        ctx, p_name, _p_age, _ages = _context()
        ctx.batch_size = 4
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")),
                           object_range=OidRange(1, 0))  # empty interval
        result, _ = execute_plan(scan, ctx)
        assert result.num_rows == 0
        assert set(result.variables) == {"s", "n"}

    def test_limit_stops_pulling_from_child(self):
        ctx, _p, _q, _ages = _context()
        ctx.batch_size = 2

        class CountingOp(MaterializedOp):
            pulls = 0

            def _batches(self, context):
                for batch in super()._batches(context):
                    type(self).pulls += 1
                    yield batch

        child = CountingOp(BindingTable({"a": np.arange(100, dtype=np.int64)}))
        limited, _ = execute_plan(LimitOp(child, 2), ctx)
        assert limited.num_rows == 2
        assert 1 <= CountingOp.pulls <= 2  # counted, and never all 50 batches


class TestPlanPrimitives:
    def test_pattern_term_validation(self):
        with pytest.raises(Exception):
            PatternTerm()
        with pytest.raises(Exception):
            PatternTerm(var="x", oid=1)

    def test_oid_range_intersect_and_contains(self):
        a = OidRange(1, 10)
        b = OidRange(5, None)
        c = a.intersect(b)
        assert (c.low, c.high) == (5, 10)
        assert c.contains(7) and not c.contains(11)
        assert OidRange().is_unbounded()

    def test_cold_vs_hot_cost(self):
        ctx, p_name, _p_age, _ages = _context()
        scan = IndexScanOp(TriplePatternPlan(PatternTerm.variable("s"),
                                             PatternTerm.constant(p_name),
                                             PatternTerm.variable("n")))
        _result, cold = execute_plan(scan, ctx)
        _result, hot = execute_plan(scan, ctx)
        assert cold.counters["page_reads"] > 0
        assert hot.counters["page_reads"] == 0
        assert hot.simulated_seconds < cold.simulated_seconds
