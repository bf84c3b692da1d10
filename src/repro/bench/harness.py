"""Benchmark harness reproducing the paper's Table I.

Table I of the paper measures RDF-H (SF=10) queries Q3 and Q6 on
MonetDB+HSP under six configurations — {Default, RDFscan/RDFjoin} plan
schemes × {ParseOrder, Clustered} subject ordering × zone maps on/off — each
cold and hot.  This harness rebuilds the same grid on the Python substrate:

* *ParseOrder* stores load the RDF-H triples and build only the exhaustive
  permutation indexes (no subject clustering);
* *Clustered* stores additionally run schema discovery, subject clustering
  (LINEITEM sub-ordered on ``l_shipdate``, ORDERS on ``o_orderdate``) and
  build the CS-clustered store with zone maps;
* *Cold* runs start from an empty buffer pool, *Hot* runs from a fully
  warmed one;
* every cell reports the buffer-pool cost model's simulated seconds, page
  reads and join count — hardware-independent figures to compare against the
  paper's relative factors.  Wall-clock time is measured by the repo
  benchmark, ``benchmarks/e2e/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import RDFStore, StoreConfig
from ..errors import BenchmarkError
from ..sparql import DEFAULT_SCHEME, PlannerOptions, RDFSCAN_SCHEME
from .queries import q3_sparql, q6_sparql
from .rdfh import generate_rdfh_triples, sub_order_keys

SCHEME_LABELS = {DEFAULT_SCHEME: "Default", RDFSCAN_SCHEME: "RDFscan/RDFjoin"}


@dataclass(frozen=True)
class TableOneConfig:
    """Harness configuration."""

    scale_factor: float = 0.005
    seed: int = 20130408
    queries: tuple = ("Q3", "Q6")


@dataclass
class BenchmarkMeasurement:
    """One cell of the grid: a query under one configuration and cache state."""

    query: str
    scheme: str
    ordering: str
    zone_maps: bool
    cache_state: str
    simulated_seconds: float
    page_reads: int
    page_hits: int
    join_operations: int
    result_rows: int


@dataclass
class TableOneResult:
    """All measurements plus the data set's scale and size."""

    measurements: List[BenchmarkMeasurement] = field(default_factory=list)
    triple_count: int = 0
    scale_factor: float = 0.0

    def cell(self, query: str, scheme: str, ordering: str, zone_maps: bool,
             cache_state: str) -> Optional[BenchmarkMeasurement]:
        for m in self.measurements:
            if (m.query == query and m.scheme == scheme and m.ordering == ordering
                    and m.zone_maps == zone_maps and m.cache_state == cache_state):
                return m
        return None

    def speedup(self, query: str) -> float:
        """Fully-optimized vs baseline factor for one query (cold, simulated)."""
        baseline = self.cell(query, DEFAULT_SCHEME, "ParseOrder", False, "cold")
        best = self.cell(query, RDFSCAN_SCHEME, "Clustered", True, "cold")
        if best is None:
            best = self.cell(query, RDFSCAN_SCHEME, "Clustered", False, "cold")
        if baseline is None or best is None:
            raise BenchmarkError("missing measurements for speedup computation")
        if best.simulated_seconds == 0:
            return float("inf")
        return baseline.simulated_seconds / best.simulated_seconds


class TableOneHarness:
    """Builds the RDF-H stores and runs the Table I grid."""

    CONFIGURATIONS = (
        (DEFAULT_SCHEME, "ParseOrder", False),
        (DEFAULT_SCHEME, "Clustered", False),
        (DEFAULT_SCHEME, "Clustered", True),
        (RDFSCAN_SCHEME, "ParseOrder", False),
        (RDFSCAN_SCHEME, "Clustered", False),
        (RDFSCAN_SCHEME, "Clustered", True),
    )

    def __init__(self, config: TableOneConfig | None = None,
                 store_config: Optional[StoreConfig] = None) -> None:
        self.config = config or TableOneConfig()
        self.store_config = store_config
        self._triples = None
        self._stores: Dict[str, RDFStore] = {}
        self.build_seconds: Dict[str, float] = {}

    # -- store construction ------------------------------------------------------

    def triples(self):
        if self._triples is None:
            self._triples = generate_rdfh_triples(scale_factor=self.config.scale_factor,
                                                  seed=self.config.seed)
        return self._triples

    def store(self, ordering: str) -> RDFStore:
        """Build (and cache) the store for one subject ordering."""
        if ordering not in ("ParseOrder", "Clustered"):
            raise BenchmarkError(f"unknown ordering {ordering!r}")
        if ordering not in self._stores:
            started = time.perf_counter()
            if ordering == "Clustered":
                store = RDFStore.build(self.triples(), config=self.store_config,
                                       sort_key_names=sub_order_keys(), cluster=True)
            else:
                store = RDFStore.build(self.triples(), config=self.store_config, cluster=False)
            self.build_seconds[ordering] = time.perf_counter() - started
            self._stores[ordering] = store
        return self._stores[ordering]

    # -- query texts -------------------------------------------------------------------

    def query_text(self, query: str) -> str:
        if query.upper() == "Q3":
            return q3_sparql()
        if query.upper() == "Q6":
            return q6_sparql()
        raise BenchmarkError(f"unknown query {query!r}; expected Q3 or Q6")

    # -- execution -----------------------------------------------------------------------

    def run_cell(self, query: str, scheme: str, ordering: str, zone_maps: bool,
                 cache_state: str) -> BenchmarkMeasurement:
        """Run one query under one configuration and cache state."""
        store = self.store(ordering)
        options = PlannerOptions(scheme=scheme, use_zone_maps=zone_maps)
        text = self.query_text(query)
        if cache_state == "cold":
            store.reset_cold()
        elif cache_state == "hot":
            store.warm()
        else:
            raise BenchmarkError(f"unknown cache state {cache_state!r}")
        result = store.sparql(text, options)
        return BenchmarkMeasurement(
            query=query.upper(),
            scheme=scheme,
            ordering=ordering,
            zone_maps=zone_maps,
            cache_state=cache_state,
            simulated_seconds=result.cost.simulated_seconds,
            page_reads=result.cost.counters.get("page_reads", 0),
            page_hits=result.cost.counters.get("page_hits", 0),
            join_operations=result.cost.counters.get("join_operations", 0),
            result_rows=len(result),
        )

    def run(self, queries: Optional[List[str]] = None) -> TableOneResult:
        """Run the full grid and return every measurement."""
        queries = [q.upper() for q in (queries or list(self.config.queries))]
        result = TableOneResult(scale_factor=self.config.scale_factor)
        for scheme, ordering, zone_maps in self.CONFIGURATIONS:
            for query in queries:
                for cache_state in ("cold", "hot"):
                    result.measurements.append(
                        self.run_cell(query, scheme, ordering, zone_maps, cache_state))
        result.triple_count = self.store("Clustered").triple_count()
        return result


def format_table_one(result: TableOneResult) -> str:
    """Render the simulated-time grid in the layout of the paper's Table I."""
    queries = sorted({m.query for m in result.measurements})
    header_cells = "".join(f" {q} Cold | {q} Hot |" for q in queries)
    lines = [
        f"Table I reproduction — RDF-H SF={result.scale_factor} "
        f"({result.triple_count} triples), times in sim ms",
        f"{'Query Plan':>16} | {'Scheme':>10} | {'ZMaps':>6} |{header_cells}",
        "-" * (42 + 14 * 2 * len(queries)),
    ]
    for scheme, ordering, zone_maps in TableOneHarness.CONFIGURATIONS:
        cells = []
        for query in queries:
            for cache_state in ("cold", "hot"):
                m = result.cell(query, scheme, ordering, zone_maps, cache_state)
                value = m.simulated_seconds * 1e3 if m is not None else float("nan")
                cells.append(f"{value:9.2f}")
        zone = "Yes" if zone_maps else "No"
        lines.append(f"{SCHEME_LABELS[scheme]:>16} | {ordering:>10} | {zone:>6} | " +
                     " | ".join(cells))
    for query in queries:
        try:
            lines.append(f"speedup (cold, {query}): baseline / fully-optimized = "
                         f"{result.speedup(query):.1f}x")
        except BenchmarkError:
            continue
    return "\n".join(lines)
