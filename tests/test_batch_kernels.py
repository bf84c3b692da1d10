"""Property tests for the vectorized batch kernels (hypothesis).

Every kernel in :mod:`repro.engine.kernels` is checked against a naive
Python reference over randomized inputs, including the awkward shapes the
batched executor produces: empty batches, batches a filter emptied, and
duplicate rows that straddle a batch boundary.  Examples are derandomized, matching
the other hypothesis suites.
"""

from __future__ import annotations

import math
import struct
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # optional test dep: skip cleanly, like rdflib
from hypothesis import given, settings, strategies as st

from repro.columnar import NULL_OID, BufferPool
from repro.engine import (BindingTable, ExecutionContext, HashJoinOp, MaterializedOp,
                          execute_plan, kernels)
from repro.engine.expressions import AggregateSpec, NumericVar
from repro.model import TermDictionary
from repro.updates import FrozenDelta

# keys near 0 (NULL_OID included) fit a direct-address table; a key near
# 10**12 beside them spans too wide and takes the sort path, while keys all
# near 10**12 make a table far from zero
oid_st = st.one_of(st.integers(NULL_OID, 12), st.integers(10**12, 10**12 + 12))
column_st = st.lists(oid_st, max_size=30)


def _arr(values, dtype=np.int64):
    return np.asarray(list(values), dtype=dtype)


def _assert_unique_like_numpy(values: np.ndarray) -> None:
    """``unique_keys`` and ``_coded_rows``, on either path, answer exactly
    what ``np.unique(return_index=, return_inverse=)`` answers."""
    expected, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    got = kernels.unique_keys(values, return_index=True, return_inverse=True)
    assert [part.tolist() for part in got] == [expected.tolist(), first.tolist(),
                                               inverse.reshape(-1).tolist()]
    assert kernels.unique_keys(values).tolist() == expected.tolist()
    codes, uniques, _steps = kernels._coded_rows([values])
    assert (codes.tolist(), uniques.tolist()) == (inverse.reshape(-1).tolist(), expected.tolist())


# -- expand_ranges ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ranges=st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=12))
def test_expand_ranges_matches_python_loops(ranges):
    lo = _arr(pair[0] for pair in ranges)
    hi = _arr(pair[1] for pair in ranges)
    source, positions = kernels.expand_ranges(lo, hi)
    expected = [(i, p) for i, (a, b) in enumerate(ranges) for p in range(a, b)]
    assert list(zip(source.tolist(), positions.tolist())) == expected


def test_expand_ranges_empty_input():
    source, positions = kernels.expand_ranges(_arr(()), _arr(()))
    assert source.size == 0 and positions.size == 0


# -- merge join ------------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sorted_keys=column_st, probe=column_st)
def test_merge_join_indices_matches_reference(sorted_keys, probe):
    sorted_keys = sorted(sorted_keys)
    rows, positions = kernels.merge_join_indices(_arr(sorted_keys), _arr(probe))
    expected = [(j, p) for j, key in enumerate(probe)
                for p, value in enumerate(sorted_keys) if value == key]
    assert list(zip(rows.tolist(), positions.tolist())) == expected


# -- hash join -------------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    build=st.lists(st.tuples(oid_st, oid_st), max_size=20),
    probe=st.lists(st.tuples(oid_st, oid_st), max_size=20),
    width=st.sampled_from([1, 2]),
    code_limit=st.sampled_from([kernels._CODE_LIMIT, 1]),
)
def test_hash_join_indices_matches_reference(build, probe, width, code_limit):
    build = [row[:width] for row in build]
    probe = [row[:width] for row in probe]
    build_cols = [_arr(r[i] for r in build) for i in range(width)]
    probe_cols = [_arr(r[i] for r in probe) for i in range(width)]
    for build_col, probe_col in zip(build_cols, probe_cols):
        _assert_unique_like_numpy(np.concatenate([build_col, probe_col]))
    if not build or not probe:
        b_idx, p_idx = kernels.hash_join_indices(build_cols, probe_cols)
        assert b_idx.size == 0 and p_idx.size == 0
        return
    with mock.patch.object(kernels, "_CODE_LIMIT", code_limit):  # 1: always re-code
        b_idx, p_idx = kernels.hash_join_indices(build_cols, probe_cols)
    # probe-major, build rows in input order: exactly a nested loop over
    # probe rows then build rows
    expected = [(i, j) for j, pr in enumerate(probe)
                for i, br in enumerate(build) if br == pr]
    assert list(zip(b_idx.tolist(), p_idx.tolist())) == expected


def _probe_in_batches(index: kernels.JoinIndex, probe_cols, cuts):
    """One join index probed batch by batch over ``probe_cols`` split at
    ``cuts``, its pairs shifted to whole-probe row numbers."""
    bounds = [0, *sorted(set(cuts)), len(probe_cols[0])]
    build_rows, probe_rows = [], []
    for start, stop in zip(bounds, bounds[1:]):
        b_idx, p_idx = index.probe([col[start:stop] for col in probe_cols])
        build_rows += b_idx.tolist()
        probe_rows += (p_idx + start).tolist()
    return build_rows, probe_rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    build=st.lists(st.tuples(oid_st, oid_st), max_size=20),
    probe=st.lists(st.tuples(oid_st, oid_st), min_size=1, max_size=20),
    cuts=st.lists(st.integers(1, 19), max_size=4),
    width=st.sampled_from([1, 2]),
    code_limit=st.sampled_from([kernels._CODE_LIMIT, 1]),
)
def test_join_index_probed_by_batch_equals_one_call(build, probe, cuts, width, code_limit):
    """A build side keyed once (at the first batch's size, which may pick the
    other path than the whole probe side would) and probed batch by batch
    gives exactly the pairs of one ``hash_join_indices`` call."""
    cuts = [cut for cut in cuts if cut < len(probe)]
    build_cols = [_arr(r[i] for r in build) for i in range(width)]
    probe_cols = [_arr(r[i] for r in probe) for i in range(width)]
    first_batch = min(cuts, default=len(probe))
    with mock.patch.object(kernels, "_CODE_LIMIT", code_limit):  # 1: always re-code
        b_idx, p_idx = kernels.hash_join_indices(build_cols, probe_cols)
        index = kernels.JoinIndex(build_cols, first_batch)
        batched = _probe_in_batches(index, probe_cols, cuts)
    assert batched == (b_idx.tolist(), p_idx.tolist())


@pytest.mark.parametrize("width, distinct, spread, table", [
    (1, 40, 1, True),       # OIDs within the span rule
    (1, 40, 10**9, False),  # OIDs spread too wide
    (2, 5, 10**9, True),    # 5 × 5 combined codes over 60 build rows
    (2, 40, 1, False),      # 40 × 40 combined codes over 60 build rows
])
def test_join_index_takes_the_table_and_the_sort_path(width, distinct, spread, table):
    """Keys within ``TABLE_SPAN_FACTOR`` × rows of each other take the
    direct-address table, others the sort; both probe batch by batch like a
    nested loop."""
    rng = np.random.default_rng(7)
    build_cols = [rng.integers(0, distinct, 60) * spread for _ in range(width)]
    probe_cols = [rng.integers(0, distinct + 2, 50) * spread for _ in range(width)]
    index = kernels.JoinIndex(build_cols, 10)
    assert (index._bounds is not None) == table
    expected = [(i, j) for j in range(50) for i in range(60)
                if all(b[i] == p[j] for b, p in zip(build_cols, probe_cols))]
    assert expected and list(zip(*_probe_in_batches(index, probe_cols, [10, 25, 26]))) == expected


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    left=st.lists(st.tuples(oid_st, oid_st), max_size=15),
    right=st.lists(st.tuples(oid_st, oid_st), max_size=15),
)
def test_hash_join_tables_match_set_reference(left, right):
    left_table = BindingTable({"a": _arr(r[0] for r in left), "b": _arr(r[1] for r in left)})
    right_table = BindingTable({"a": _arr(r[0] for r in right), "c": _arr(r[1] for r in right)})
    result, _cost = execute_plan(
        HashJoinOp(MaterializedOp(left_table), MaterializedOp(right_table), join_vars=["a"]),
        ExecutionContext(dictionary=TermDictionary(), pool=BufferPool()))
    expected = sorted((la, lb, rc) for la, lb in left for ra, rc in right if la == ra)
    got = sorted(zip(result.column("a").tolist(), result.column("b").tolist(),
                     result.column("c").tolist()))
    assert got == expected


# -- filter masks ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=column_st,
       low=st.one_of(st.none(), oid_st),
       high=st.one_of(st.none(), oid_st),
       tail=st.lists(oid_st, max_size=4))
def test_range_mask_matches_reference(values, low, high, tail):
    mask = kernels.range_mask(_arr(values), low, high, _arr(sorted(tail)))
    expected = [((low is None or v >= low) and (high is None or v <= high)) or v in tail
                for v in values]
    assert mask.tolist() == expected


@settings(max_examples=50, deadline=None, derandomize=True)
@given(values=column_st, oid=oid_st)
def test_eq_neq_masks(values, oid):
    arr = _arr(values)
    assert kernels.eq_mask(arr, oid).tolist() == [v == oid for v in values]
    assert kernels.neq_mask(arr, oid).tolist() == [v != oid for v in values]


# -- tombstone subtraction -------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(oid_st, oid_st, oid_st), max_size=25),
    dead=st.lists(st.tuples(oid_st, oid_st, oid_st), max_size=10),
)
def test_subtract_rows_mask_matches_set_membership(rows, dead):
    """The one tombstone subtraction (``FrozenDelta``'s masks, whole-row and
    per-predicate) against set membership."""
    row_matrix = _arr(rows).reshape(-1, 3)
    delta = FrozenDelta(np.empty((0, 3), dtype=np.int64), _arr(dead).reshape(-1, 3))
    dead_set = set(dead)
    assert delta.tombstone_mask(row_matrix).tolist() == [row in dead_set for row in rows]
    for predicate in {row[1] for row in rows}:
        of_predicate = row_matrix[row_matrix[:, 1] == predicate]
        expected = [tuple(row) in dead_set for row in of_predicate.tolist()]
        assert delta.tombstone_mask(of_predicate, predicate=predicate).tolist() == expected
        assert delta.pair_tombstone_mask(
            predicate, of_predicate[:, 0], of_predicate[:, 2]).tolist() == expected


def test_subtract_rows_mask_empty_sides():
    rows = _arr([(1, 7, 3), (2, 7, 4)])
    empty = np.empty((0, 3), dtype=np.int64)
    dead = FrozenDelta(empty.copy(), rows.copy())
    assert dead.tombstone_mask(empty).size == 0
    assert dead.pair_tombstone_mask(7, empty[:, 0], empty[:, 2]).size == 0
    clean = FrozenDelta(empty.copy(), empty.copy())
    assert clean.tombstone_mask(rows).tolist() == [False, False]
    assert clean.pair_tombstone_mask(7, rows[:, 0], rows[:, 2]).tolist() == [False, False]


# -- DISTINCT --------------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(oid_st, oid_st), max_size=30),
       cuts=st.lists(st.integers(0, 30), max_size=4))
def test_streaming_distinct_equals_one_shot_regardless_of_batching(rows, cuts):
    """Batch-boundary-straddling duplicates are dropped exactly once."""
    one_shot = []
    seen = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            one_shot.append(row)

    bounds = sorted({c for c in cuts if c < len(rows)} | {0, len(rows)})
    streamed = []
    state = kernels.StreamingDistinct()
    for start, stop in zip(bounds, bounds[1:]):
        chunk = rows[start:stop]
        cols = [_arr(r[0] for r in chunk), _arr(r[1] for r in chunk)]
        keep = state.keep_indices(cols)
        streamed.extend(chunk[i] for i in keep.tolist())
    assert streamed == one_shot


def test_streaming_distinct_empty_batches_are_noops():
    state = kernels.StreamingDistinct()
    assert state.keep_indices([_arr(())]).size == 0
    assert state.keep_indices([_arr([5, 5, 6])]).tolist() == [0, 2]
    assert state.keep_indices([_arr(())]).size == 0
    assert state.keep_indices([_arr([6, 7])]).tolist() == [1]


# -- grouped aggregation ---------------------------------------------------------------

float_st = st.one_of(
    st.floats(-100, 100, allow_nan=False),
    st.just(float("nan")), st.just(float("inf")), st.just(float("-inf")))


key_float_st = st.sampled_from(
    [-0.0, 0.0, 1.5, -1.5, float("nan"), float("inf"), float("-inf")])


@st.composite
def grouped_rows_st(draw):
    """1-3 key columns, OID or float, and one value per row."""
    kinds = draw(st.lists(st.sampled_from(["oid", "float"]), min_size=1, max_size=3))
    cells = [oid_st if kind == "oid" else key_float_st for kind in kinds]
    return kinds, draw(st.lists(st.tuples(*cells, float_st), max_size=25))


def _row_identity(key: tuple) -> tuple:
    """``pack_rows``' identity: floats bitwise once ``-0.0`` is ``+0.0``."""
    return tuple(cell if isinstance(cell, int) else struct.pack("d", cell + 0.0)
                 for cell in key)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grouped=grouped_rows_st(),
       func=st.sampled_from(["count", "sum", "avg", "min", "max"]),
       code_limit=st.sampled_from([kernels._CODE_LIMIT, 1]))
def test_grouped_aggregate_matches_aggregate_spec_compute(grouped, func, code_limit):
    kinds, rows = grouped
    keys = [_arr((r[i] for r in rows), dtype=np.int64 if kind == "oid" else np.float64)
            for i, kind in enumerate(kinds)]
    values = _arr((r[-1] for r in rows), dtype=np.float64)
    # limit 1 re-codes the combined key before every further column, the way
    # a product of column widths past int64 would
    with mock.patch.object(kernels, "_CODE_LIMIT", code_limit):
        representatives, group_ids = kernels.group_rows(keys)
        key_columns = [kernels._key_column(column) for column in keys]
        for column in key_columns + [kernels.row_keys(key_columns)]:
            _assert_unique_like_numpy(column)
    out = kernels.grouped_aggregate(func, group_ids, representatives.size, values)

    # reference: per-group dict in first-appearance order, AggregateSpec.compute
    spec = AggregateSpec(func=func, expression=NumericVar("x"), alias="x")
    groups: dict = {}
    first_rows: dict = {}
    for position, row in enumerate(rows):
        identity = _row_identity(row[:-1])
        groups.setdefault(identity, []).append(row[-1])
        first_rows.setdefault(identity, position)
    assert representatives.tolist() == list(first_rows.values())
    order = list(groups)
    assert group_ids.tolist() == [order.index(_row_identity(row[:-1])) for row in rows]
    expected = [spec.compute(np.asarray(vals, dtype=np.float64))
                for vals in groups.values()]
    assert len(out) == len(expected)
    for got, want in zip(out.tolist(), expected):
        assert (math.isnan(got) and math.isnan(want)) or got == pytest.approx(want)


def test_group_rows_empty():
    representatives, group_ids = kernels.group_rows([_arr(())])
    assert representatives.size == 0 and group_ids.size == 0
