"""Benchmark substrate: workload generators, query texts and the Table I harness."""

from .dblp import DblpConfig, figure2_example, generate_dblp
from .dirty import DirtyConfig, DirtyDataset, generate_dirty
from .harness import (
    BenchmarkMeasurement,
    TableOneConfig,
    TableOneHarness,
    TableOneResult,
    format_table_one,
)
from .queries import (
    q1_sparql,
    q3_sparql,
    q3_sql,
    q6_sparql,
    q6_sql,
    star_fk_hop_sparql,
    star_lookup_sparql,
)
from .rdfh import generate_rdfh_triples, sub_order_keys, tpch_to_triples
from .tpch import (
    TpchConfig,
    TpchData,
    generate_tpch,
    iter_reference_q3,
    iter_reference_q6,
)

__all__ = [
    "BenchmarkMeasurement",
    "DblpConfig",
    "DirtyConfig",
    "DirtyDataset",
    "TableOneConfig",
    "TableOneHarness",
    "TableOneResult",
    "TpchConfig",
    "TpchData",
    "figure2_example",
    "format_table_one",
    "generate_dblp",
    "generate_dirty",
    "generate_rdfh_triples",
    "generate_tpch",
    "iter_reference_q3",
    "iter_reference_q6",
    "q1_sparql",
    "q3_sparql",
    "q3_sql",
    "q6_sparql",
    "q6_sql",
    "star_fk_hop_sparql",
    "star_lookup_sparql",
    "sub_order_keys",
    "tpch_to_triples",
]
