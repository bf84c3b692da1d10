"""Netezza-style zone maps over columns.

A zone map stores, for every fixed-size zone (block of consecutive rows) of
a column, the minimum and maximum value found in that zone.  A range
predicate can then skip every zone whose ``[min, max]`` interval does not
intersect the predicate — without reading the zone's pages at all.

The paper uses zone maps twice:

* on the sub-ordering attribute of a clustered characteristic set (e.g.
  LINEITEM ordered on ``shipdate``), a date range selection touches only the
  zones that can contain matching rows;
* across a foreign key: given the selected LINEITEM rows, the zone map on
  the ``orderkey``-referencing column yields the narrow range of ORDERS
  subject OIDs that can be referenced, so the date restriction is
  effectively *pushed through the join* (and vice versa) — exploiting the
  strong order/ship date correlation in TPC-H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .column import NULL_OID

DEFAULT_ZONE_SIZE = 1024
"""Rows per zone; chosen equal to the default page size so a pruned zone is a pruned page."""


@dataclass(frozen=True)
class Zone:
    """Summary of one block of rows: positional extent and value extent."""

    start_row: int
    end_row: int  # exclusive
    min_value: int
    max_value: int

    def row_count(self) -> int:
        return self.end_row - self.start_row

    def overlaps(self, low: Optional[int], high: Optional[int]) -> bool:
        """Whether the zone's value interval intersects ``[low, high]``."""
        if self.min_value > self.max_value:
            return False  # empty (all-NULL) zone can never satisfy a predicate
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True


class ZoneMap:
    """Per-zone min/max summaries of a column."""

    def __init__(self, zones: List[Zone], zone_size: int, total_rows: int) -> None:
        self.zones = zones
        self.zone_size = zone_size
        self.total_rows = total_rows

    @classmethod
    def build(cls, values: Sequence[int] | np.ndarray, zone_size: int = DEFAULT_ZONE_SIZE,
              head_rows: Optional[int] = None) -> "ZoneMap":
        """Build a zone map over raw values (NULLs are ignored per zone).

        With ``head_rows``, the rows before it and the rows from it on are
        two runs, each zoned from its first row, so no zone straddles the
        boundary (a clustered table's head and tail)."""
        data = np.asarray(values, dtype=np.int64)
        total = int(data.shape[0])
        boundary = total if head_rows is None else head_rows
        zones = cls.zones_of(data, zone_size, 0, boundary)
        zones += cls.zones_of(data, zone_size, boundary, total)
        return cls(zones, zone_size, total)

    @staticmethod
    def zones_of(data: np.ndarray, zone_size: int, first: int, stop: int) -> List[Zone]:
        """The zones of rows ``[first, stop)`` of ``data``, from ``first``."""
        zones: List[Zone] = []
        for start in range(first, stop, zone_size):
            end = min(start + zone_size, stop)
            chunk = data[start:end]
            valid = chunk[chunk != NULL_OID]
            if valid.size == 0:
                # a zone of only NULLs can never match a range predicate
                zones.append(Zone(start, end, min_value=1, max_value=0))
            else:
                zones.append(Zone(start, end, int(valid.min()), int(valid.max())))
        return zones

    # -- persistence ---------------------------------------------------------

    def to_array(self) -> np.ndarray:
        """Flatten the zones to an ``(n, 4)`` int64 array for snapshotting.

        Columns are ``start_row, end_row, min_value, max_value`` — the
        all-NULL sentinel (``min > max``) round-trips unchanged.
        """
        if not self.zones:
            return np.empty((0, 4), dtype=np.int64)
        return np.asarray(
            [(z.start_row, z.end_row, z.min_value, z.max_value) for z in self.zones],
            dtype=np.int64)

    @classmethod
    def from_array(cls, rows: np.ndarray, zone_size: int, total_rows: int) -> "ZoneMap":
        """Rebuild a zone map persisted by :meth:`to_array`."""
        matrix = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
        zones = [Zone(int(s), int(e), int(lo), int(hi)) for s, e, lo, hi in matrix]
        return cls(zones, zone_size=zone_size, total_rows=total_rows)

    # -- pruning -------------------------------------------------------------

    def candidate_row_ranges(self, intervals: Sequence[Tuple[Optional[int], Optional[int]]]
                             ) -> List[tuple[int, int]]:
        """Candidate row ranges ``[start, end)``: the zones whose value
        interval intersects any of the predicate's ``intervals`` (inclusive
        ``(low, high)`` pairs, ``None`` open), adjacent zones coalesced —
        each zone at most once."""
        ranges: List[tuple[int, int]] = []
        for zone in self.zones:
            for low, high in intervals:
                if zone.overlaps(low, high):
                    if ranges and ranges[-1][1] == zone.start_row:
                        ranges[-1] = (ranges[-1][0], zone.end_row)
                    else:
                        ranges.append((zone.start_row, zone.end_row))
                    break
        return ranges

    def candidate_row_count(self, low: Optional[int], high: Optional[int]) -> int:
        """Total number of rows in candidate zones."""
        return sum(end - start for start, end in self.candidate_row_ranges([(low, high)]))

    def selectivity(self, low: Optional[int], high: Optional[int]) -> float:
        """Fraction of rows that survive zone pruning (1.0 when no pruning)."""
        if self.total_rows == 0:
            return 0.0
        return self.candidate_row_count(low, high) / self.total_rows

    def value_bounds_for_rows(self, row_start: int, row_end: int) -> Optional[tuple[int, int]]:
        """Min/max value over the zones overlapping a positional row range.

        This is the cross-table push-down primitive: given the row range of
        the *referencing* side selected by a predicate, return the value
        bounds of the referenced OIDs within it.
        """
        lo: Optional[int] = None
        hi: Optional[int] = None
        for zone in self.zones:
            if zone.end_row <= row_start or zone.start_row >= row_end:
                continue
            if zone.min_value > zone.max_value:
                continue  # all-NULL zone
            lo = zone.min_value if lo is None else min(lo, zone.min_value)
            hi = zone.max_value if hi is None else max(hi, zone.max_value)
        if lo is None or hi is None:
            return None
        return lo, hi

    def __len__(self) -> int:
        return len(self.zones)
