"""Vectorized batch kernels: the hot loops of the batched executor.

Every kernel maps a per-row Python loop the operators used to run onto a
handful of NumPy primitives.  They are deliberately free-standing functions
over plain ``int64``/``float64`` arrays so the property tests in
``tests/test_batch_kernels.py`` can check each one against a naive Python
reference in isolation:

* :func:`expand_ranges` — run-length expansion of ``[lo, hi)`` index ranges,
  the core of merge joins and nested-loop index probe fan-out;
* :func:`merge_join_indices` — probe keys against a sorted key column;
* :func:`unique_keys` — ``np.unique`` over integer keys, with first rows
  and ranks on request;
* :class:`JoinIndex` / :func:`hash_join_indices` — multi-column equi-join
  match pairs from a build side keyed once, ordered probe-major with build
  rows in input order (streaming joins probe it batch by batch and rely on
  this order being independent of how the probe side is batched);
* :func:`range_mask` / :func:`eq_mask` / :func:`neq_mask` — filter masks;
* :class:`StreamingDistinct` — cross-batch DISTINCT keeping first
  occurrences in stream order (duplicates may straddle batch boundaries);
* :func:`group_rows` / :func:`grouped_aggregate` — vectorized GROUP BY with
  exactly the per-group semantics of ``AggregateSpec.compute``.

Row identity has two forms.  :func:`row_keys` folds parallel columns into
one integer code per row by iterated dense re-coding — GROUP BY sorts
those at native integer speed, and a :class:`JoinIndex` keeps the code books
so probe rows are coded like its build rows; the codes mean something only
within the call (or the index) that made them.  :func:`pack_rows` packs the columns into one
fixed-width structured key per row, slower to sort but comparable between
calls, which the cross-batch DISTINCT needs.  GROUP BY and DISTINCT compare
float columns bitwise after normalizing ``-0.0`` to ``+0.0``; OID columns
(the common case) are exact.

Integer keys are looked up in a direct-address table over their ``[min,
max]`` instead of sorted whenever that span is at most
:data:`TABLE_SPAN_FACTOR` times the rows involved; :func:`_table_bounds`
makes that choice for :func:`unique_keys` and :class:`JoinIndex`, and so
for :func:`row_keys` and :func:`group_rows`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def _empty_pair() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


# -- run expansion / joins -------------------------------------------------------------


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand half-open ranges ``[lo[i], hi[i])`` into match pairs.

    Returns parallel arrays ``(source, position)``: for every ``i`` and every
    ``p`` in ``range(lo[i], hi[i])`` one pair ``(i, p)``, ordered by ``i``
    first and ``p`` second.  Empty (or inverted) ranges contribute nothing.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return _empty_pair()
    source = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - starts[source]
    return source, lo[source] + offsets


def merge_join_indices(sorted_keys: np.ndarray,
                       probe_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Match probe keys against a sorted key column.

    Returns ``(probe_row, sorted_position)`` pairs, probe-major, positions
    ascending within one probe row.
    """
    sorted_keys = np.asarray(sorted_keys)
    probe_keys = np.asarray(probe_keys)
    if sorted_keys.size == 0 or probe_keys.size == 0:
        return _empty_pair()
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    hi = np.searchsorted(sorted_keys, probe_keys, side="right")
    return expand_ranges(lo, hi)


TABLE_SPAN_FACTOR = 6
"""Integer keys are looked up in a direct-address table over their ``[min,
max]`` when that span is at most this many times the rows involved — NumPy's
own ``isin(kind="table")`` rule, so a table costs O(rows) memory by
construction — and sorted otherwise."""


def _table_bounds(keys: np.ndarray, rows: int) -> Optional[Tuple[int, int]]:
    """``(low, high)`` of a direct-address table over signed integer
    ``keys`` (OIDs, row codes), or ``None`` when the caller should sort
    instead: other keys, or a span beyond :data:`TABLE_SPAN_FACTOR` ×
    ``rows``.  The one place that choice is made."""
    if keys.size == 0 or keys.dtype.kind != "i":
        return None
    low, high = int(keys.min()), int(keys.max())
    if high - low >= TABLE_SPAN_FACTOR * rows:
        return None
    return low, high


def unique_keys(values: np.ndarray, return_index: bool = False,
                return_inverse: bool = False):
    """What ``np.unique(values, return_index=, return_inverse=)`` returns —
    the sorted distinct values, then each one's first row, then each row's
    rank among them — from a direct-address table when :func:`_table_bounds`
    allows one, otherwise by sorting."""
    values = np.asarray(values).reshape(-1)
    bounds = _table_bounds(values, values.size)
    if bounds is None:
        if return_index or return_inverse or values.dtype.kind != "i":
            return np.unique(values, return_index=return_index,
                             return_inverse=return_inverse)
        # NumPy hashes plain integer keys, which is slower than this sort
        ordered = np.sort(values)
        first_of_run = np.ones(ordered.size, dtype=bool)
        first_of_run[1:] = ordered[1:] != ordered[:-1]
        return ordered[first_of_run]
    low, high = bounds
    slots = values - low
    present = np.zeros(high - low + 1, dtype=bool)
    present[slots] = True
    uniques = (np.flatnonzero(present) + low).astype(values.dtype, copy=False)
    if not (return_index or return_inverse):
        return uniques
    inverse = (np.cumsum(present) - 1)[slots]
    out: Tuple[np.ndarray, ...] = (uniques,)
    if return_index:
        first = np.full(uniques.size, values.size, dtype=np.int64)
        np.minimum.at(first, inverse, np.arange(values.size, dtype=np.int64))
        out += (first,)
    if return_inverse:
        out += (inverse,)
    return out


_CODE_LIMIT = 1 << 62
"""Combined row codes are re-coded densely before they could pass this."""


def _coded_rows(columns: Sequence[np.ndarray]):
    """Parallel columns (two or more) combined into one dense-coded key per
    row — ``key * width + code``, each column coded by its sorted distinct
    values, the running key re-coded whenever the next product could leave
    ``int64`` — and the code books that made it: column 0's distinct values,
    then per later column its distinct values and the re-code of the running
    key before it (or ``None``)."""
    first, key = unique_keys(columns[0], return_inverse=True)
    bound = first.size
    steps = []
    for column in columns[1:]:
        uniques, codes = unique_keys(column, return_inverse=True)
        recode = None
        if bound * uniques.size >= _CODE_LIMIT:
            recode, key = unique_keys(key, return_inverse=True)
            bound = recode.size  # now both are at most the row count
        key = key * uniques.size + codes
        bound *= uniques.size
        steps.append((uniques, recode))
    return key.astype(np.int64, copy=False), first, steps


def row_keys(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One sortable scalar per row, equal exactly where whole rows are equal.

    A single column is its own key; more are combined by
    :func:`_coded_rows`, so arbitrarily many columns cannot overflow, and
    sorting or searching whole rows is one integer operation instead of a
    comparison of records.
    """
    if len(columns) == 1:
        return np.asarray(columns[0])
    return _coded_rows(columns)[0]


def _codes_in(uniques: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's index in the sorted distinct ``uniques``; ``-1`` where
    it is not one of them."""
    codes = np.searchsorted(uniques, values)
    found = codes < uniques.size
    found[found] = uniques[codes[found]] == values[found]
    return np.where(found, codes, -1)


class JoinIndex:
    """The build side of a multi-column equi-join, keyed once: a streaming
    join probes it batch by batch.

    :meth:`probe` returns matching ``(build_row, probe_row)`` pairs,
    probe-major, the build rows of one probe row in input order — so a
    probe side split into batches gets the pairs of the whole.  One column
    is its own key; more are combined by :func:`_coded_rows`, whose code
    books code the probe rows (a value absent from the build matches
    nothing).  A probe key finds its build rows in a direct-address table
    of per-key counts and starts when :func:`_table_bounds` allows one over
    the build rows plus ``probe_rows`` (the first probe batch's), and by
    binary search over the sorted build keys otherwise.
    """

    def __init__(self, build_arrays: Sequence[np.ndarray], probe_rows: int) -> None:
        self._first: Optional[np.ndarray] = None
        if len(build_arrays) == 1:
            key = np.asarray(build_arrays[0])
        else:
            key, self._first, self._steps = _coded_rows(build_arrays)
        self._order = np.argsort(key, kind="stable")
        self._bounds = _table_bounds(key, key.size + probe_rows)
        if self._bounds is None:
            self._sorted_keys = key[self._order]
        else:
            low, high = self._bounds
            self._counts = np.bincount(key - low, minlength=high - low + 1)
            self._starts = np.cumsum(self._counts) - self._counts

    def _probe_key(self, probe_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """The probe rows' keys in the build's code space (``-1``: no match)."""
        if self._first is None:
            return np.asarray(probe_arrays[0])
        key = _codes_in(self._first, np.asarray(probe_arrays[0]))
        for (uniques, recode), column in zip(self._steps, probe_arrays[1:]):
            codes = _codes_in(uniques, np.asarray(column))
            if recode is not None:
                key = _codes_in(recode, key)
            key = np.where((key < 0) | (codes < 0), -1, key * uniques.size + codes)
        return key

    def probe(self, probe_arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Matching ``(build_row, probe_row)`` pairs of one probe batch."""
        if self._order.size == 0 or len(probe_arrays[0]) == 0:
            return _empty_pair()
        probe_key = self._probe_key(probe_arrays)
        if self._bounds is None:
            probe_rows, positions = merge_join_indices(self._sorted_keys, probe_key)
            return self._order[positions], probe_rows
        low, high = self._bounds
        hit = (probe_key >= low) & (probe_key <= high)
        slots = np.where(hit, probe_key - low, 0)
        lo = self._starts[slots]
        probe_rows, positions = expand_ranges(lo, np.where(hit, lo + self._counts[slots], lo))
        return self._order[positions], probe_rows


def hash_join_indices(build_arrays: Sequence[np.ndarray],
                      probe_arrays: Sequence[np.ndarray]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Matching ``(build_row, probe_row)`` pairs of a multi-column equi-join
    in one call: a :class:`JoinIndex` probed once."""
    if len(build_arrays) != len(probe_arrays) or not build_arrays:
        raise ValueError("hash_join_indices needs matching non-empty column lists")
    return JoinIndex(build_arrays, len(probe_arrays[0])).probe(probe_arrays)


# -- filter masks ----------------------------------------------------------------------


def range_mask(values: np.ndarray, low: Optional[int] = None, high: Optional[int] = None,
               tail: Optional[np.ndarray] = None) -> np.ndarray:
    """Inclusive ``[low, high]`` interval mask, or membership in ``tail``, a
    sorted OID array (the tail literals an
    :class:`~repro.engine.plan.OidRange` matches, resolved at run time)."""
    values = np.asarray(values)
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= values >= low
    if high is not None:
        mask &= values <= high
    if tail is not None and len(tail):
        # tail OIDs lie above every head OID, so only values from the first
        # tail OID up can be one: most are not
        above = np.flatnonzero(values >= tail[0])
        mask[above] |= sorted_member_mask(values[above], tail)
    return mask


def eq_mask(values: np.ndarray, oid: int) -> np.ndarray:
    return np.asarray(values) == oid


def neq_mask(values: np.ndarray, oid: int) -> np.ndarray:
    return np.asarray(values) != oid


# -- row identity ----------------------------------------------------------------------


def _key_column(values: np.ndarray) -> np.ndarray:
    """A column as ``int64`` row-identity keys: OIDs as they are, floats
    bitwise after normalizing ``-0.0`` to ``+0.0``."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return (values.astype(np.float64) + 0.0).view(np.int64)
    return values.astype(np.int64, copy=False)


def pack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Pack parallel columns into one fixed-width structured key per row.

    Equal rows get equal keys; the key dtype is sortable and — unlike
    :func:`row_keys` — comparable between calls, so :func:`sorted_member_mask`
    can look one batch's rows up among an earlier batch's.  Float columns
    are compared bitwise after normalizing ``-0.0`` to ``+0.0``.
    """
    if not arrays:
        raise ValueError("pack_rows needs at least one column")
    cols = [_key_column(values) for values in arrays]
    stacked = np.ascontiguousarray(np.column_stack(cols))
    dtype = np.dtype([(f"c{i}", np.int64) for i in range(len(cols))])
    return stacked.view(dtype).reshape(-1)


def sorted_member_mask(keys: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Membership of each key in a sorted key array (binary search)."""
    if keys.size == 0 or sorted_set.size == 0:
        return np.zeros(keys.size, dtype=bool)
    idx = np.searchsorted(sorted_set, keys, side="left")
    in_bounds = idx < sorted_set.size
    mask = np.zeros(keys.size, dtype=bool)
    mask[in_bounds] = sorted_set[idx[in_bounds]] == keys[in_bounds]
    return mask


# -- DISTINCT --------------------------------------------------------------------------


class StreamingDistinct:
    """Cross-batch DISTINCT state.

    Each call to :meth:`keep_indices` returns the indices of rows not seen in
    any earlier batch (first occurrences, in stream order), so duplicates
    that straddle a batch boundary are still dropped exactly once.
    """

    def __init__(self) -> None:
        self._seen: Optional[np.ndarray] = None  # sorted packed keys

    def keep_indices(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if not arrays or len(arrays[0]) == 0:
            return np.empty(0, dtype=np.int64)
        keys = pack_rows(arrays)
        _, first = np.unique(keys, return_index=True)
        first = np.sort(first)
        fresh_keys = keys[first]
        if self._seen is not None and self._seen.size:
            fresh = ~sorted_member_mask(fresh_keys, self._seen)
            first = first[fresh]
            fresh_keys = fresh_keys[fresh]
        if fresh_keys.size:
            merged = fresh_keys if self._seen is None \
                else np.concatenate([self._seen, fresh_keys])
            self._seen = np.sort(merged)
        return first


# -- GROUP BY / aggregation ------------------------------------------------------------


def group_rows(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by their combined key.

    Returns ``(representatives, group_ids)``: the row index of each group's
    first occurrence (groups ordered by first appearance, matching the
    insertion order a per-row dict would produce) and each row's group id.
    Rows are identified as :func:`pack_rows` identifies them, but grouped on
    one integer code per row (:func:`row_keys`), which sorts at native speed
    where a packed record goes through the generic comparator.
    """
    if not arrays or len(arrays[0]) == 0:
        return _empty_pair()
    keys = row_keys([_key_column(values) for values in arrays])
    _, first_idx, inverse = unique_keys(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return first_idx[order], rank[inverse]


def grouped_aggregate(func: str, group_ids: np.ndarray, num_groups: int,
                      values: np.ndarray) -> np.ndarray:
    """Per-group aggregate with ``AggregateSpec.compute`` semantics.

    ``count`` counts every row (finite or not); ``sum``/``avg``/``min``/
    ``max`` reduce only finite values, yielding ``0.0`` (sum) or ``NaN``
    (others) for groups with no finite value at all.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if func == "count":
        return np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    finite = np.isfinite(values)
    finite_counts = np.bincount(group_ids, weights=finite.astype(np.float64),
                                minlength=num_groups)
    if func in ("sum", "avg"):
        sums = np.bincount(group_ids, weights=np.where(finite, values, 0.0),
                           minlength=num_groups)
        if func == "sum":
            return sums
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / finite_counts
        out[finite_counts == 0] = np.nan
        return out
    if func not in ("min", "max"):
        raise ValueError(f"unsupported aggregate function {func!r}")
    sentinel = np.inf if func == "min" else -np.inf
    out = np.full(num_groups, sentinel, dtype=np.float64)
    masked = np.where(finite, values, sentinel)
    if func == "min":
        np.minimum.at(out, group_ids, masked)
    else:
        np.maximum.at(out, group_ids, masked)
    out[finite_counts == 0] = np.nan
    return out
