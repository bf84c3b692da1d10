"""Columnar substrate: columns, zone maps, buffer pool and cost model."""

from .bufferpool import BufferPool, DEFAULT_PAGE_SIZE
from .column import Column, NULL_OID, gather_columns
from .cost import CostModel, CostTracker, QueryCost
from .stats import CardinalityEstimator, ColumnStats
from .zonemap import DEFAULT_ZONE_SIZE, Zone, ZoneMap

__all__ = [
    "BufferPool",
    "CardinalityEstimator",
    "Column",
    "ColumnStats",
    "CostModel",
    "CostTracker",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_ZONE_SIZE",
    "NULL_OID",
    "QueryCost",
    "Zone",
    "ZoneMap",
    "gather_columns",
]
