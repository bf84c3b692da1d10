"""Physical storage: triple tables, exhaustive indexes and the clustered store."""

from .clustered import CSBlock, ClusteredStore
from .loader import (
    ClusteringPlan,
    apply_oid_mapping,
    cluster_subjects,
    encode_graph,
    plan_subject_clustering,
    value_order_literals,
)
from .permutation_index import ACCESS_PATHS, ExhaustiveIndexStore
from .triple_table import ORDERS, TripleTable

__all__ = [
    "ACCESS_PATHS",
    "CSBlock",
    "ClusteredStore",
    "ClusteringPlan",
    "ExhaustiveIndexStore",
    "ORDERS",
    "TripleTable",
    "apply_oid_mapping",
    "cluster_subjects",
    "encode_graph",
    "plan_subject_clustering",
    "value_order_literals",
]
