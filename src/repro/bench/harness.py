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
* both wall-clock seconds and the buffer-pool cost model's simulated seconds
  are reported — the simulated numbers are the hardware-independent ones to
  compare against the paper's relative factors.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

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
    repeat_hot: int = 1


@dataclass
class BenchmarkMeasurement:
    """One cell of the grid: a query under one configuration and cache state."""

    query: str
    scheme: str
    ordering: str
    zone_maps: bool
    cache_state: str
    wall_seconds: float
    simulated_seconds: float
    page_reads: int
    page_hits: int
    join_operations: int
    result_rows: int


@dataclass
class TableOneResult:
    """All measurements plus the store-build metadata."""

    measurements: List[BenchmarkMeasurement] = field(default_factory=list)
    build_seconds: Dict[str, float] = field(default_factory=dict)
    triple_count: int = 0
    scale_factor: float = 0.0

    def cell(self, query: str, scheme: str, ordering: str, zone_maps: bool,
             cache_state: str) -> Optional[BenchmarkMeasurement]:
        for m in self.measurements:
            if (m.query == query and m.scheme == scheme and m.ordering == ordering
                    and m.zone_maps == zone_maps and m.cache_state == cache_state):
                return m
        return None

    def speedup(self, query: str, metric: str = "simulated_seconds") -> float:
        """Fully-optimized vs baseline factor for one query (cold)."""
        baseline = self.cell(query, DEFAULT_SCHEME, "ParseOrder", False, "cold")
        best = self.cell(query, RDFSCAN_SCHEME, "Clustered", True, "cold")
        if best is None:
            best = self.cell(query, RDFSCAN_SCHEME, "Clustered", False, "cold")
        if baseline is None or best is None:
            raise BenchmarkError("missing measurements for speedup computation")
        denominator = getattr(best, metric)
        if denominator == 0:
            return float("inf")
        return getattr(baseline, metric) / denominator


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
            wall_seconds=result.cost.wall_seconds,
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
                # one unmeasured pass: no cell's wall time is charged a
                # projection's first sort or the planning (page accounting
                # starts from the cache state each cell sets)
                self.run_cell(query, scheme, ordering, zone_maps, "cold")
                for cache_state in ("cold", "hot"):
                    result.measurements.append(
                        self.run_cell(query, scheme, ordering, zone_maps, cache_state))
        result.build_seconds = dict(self.build_seconds)
        result.triple_count = self.store("Clustered").triple_count()
        return result


def format_table_one(result: TableOneResult, metric: str = "simulated_seconds") -> str:
    """Render the measurement grid in the layout of the paper's Table I."""
    unit = "sim ms" if metric == "simulated_seconds" else "wall ms"
    queries = sorted({m.query for m in result.measurements})
    header_cells = "".join(f" {q} Cold | {q} Hot |" for q in queries)
    lines = [
        f"Table I reproduction — RDF-H SF={result.scale_factor} "
        f"({result.triple_count} triples), times in {unit}",
        f"{'Query Plan':>16} | {'Scheme':>10} | {'ZMaps':>6} |{header_cells}",
        "-" * (42 + 14 * 2 * len(queries)),
    ]
    for scheme, ordering, zone_maps in TableOneHarness.CONFIGURATIONS:
        cells = []
        for query in queries:
            for cache_state in ("cold", "hot"):
                m = result.cell(query, scheme, ordering, zone_maps, cache_state)
                value = getattr(m, metric) * 1e3 if m is not None else float("nan")
                cells.append(f"{value:9.2f}")
        zone = "Yes" if zone_maps else "No"
        lines.append(f"{SCHEME_LABELS[scheme]:>16} | {ordering:>10} | {zone:>6} | " +
                     " | ".join(cells))
    for query in queries:
        try:
            lines.append(f"speedup (cold, {query}): baseline / fully-optimized = "
                         f"{result.speedup(query, metric):.1f}x")
        except BenchmarkError:
            continue
    return "\n".join(lines)


# -- machine-readable benchmark reporting -------------------------------------

BENCH_SCHEMA_VERSION = 1
"""Version of the ``BENCH_<name>.json`` layout written by
:class:`BenchReporter` and consumed by ``tools/bench_compare.py``.  Bump on
any incompatible change to the document structure."""

_DIRECTIONS = ("lower_is_better", "higher_is_better")


def git_revision(default: str = "unknown") -> str:
    """The commit SHA the benchmark ran against.

    Prefers ``GITHUB_SHA`` (exact even on CI's detached checkouts), falls
    back to ``git rev-parse HEAD``, then to ``default`` — a result file must
    never fail to be written because the tree isn't a git checkout.
    """
    sha = os.environ.get("GITHUB_SHA", "").strip()
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return default


def git_dirty() -> bool:
    """Whether the measured tree differs from the commit ``git_sha`` names.

    A run from a working tree with uncommitted changes measures *that
    commit plus the changes*; stamping only the SHA would attribute the
    numbers to code that did not produce them.  ``False`` when git cannot
    tell (no checkout, or ``GITHUB_SHA`` names an exact CI checkout).
    """
    if os.environ.get("GITHUB_SHA", "").strip():
        return False
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
        return proc.returncode == 0 and bool(proc.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return False


def collect_environment(**extra: object) -> Dict[str, object]:
    """Reproducibility metadata stamped into every benchmark result file.

    Interpreter and library versions, platform, the git SHA and whether the
    tree carried uncommitted changes on top of it; callers merge in run
    parameters (scale factor, batch size, smoke flag, …) via keyword
    arguments.
    """
    env: Dict[str, object] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_revision(),
        "git_dirty": git_dirty(),
    }
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in practice
        env["numpy"] = None
    env.update(extra)
    return env


class BenchReporter:
    """Collects named measurements from one benchmark module and writes both
    artifact kinds: human-readable text (``benchmarks/results/*.txt``, kept
    gitignored) and a schema-versioned machine-readable ``BENCH_<name>.json``
    (the canonical cross-PR artifact ``tools/bench_compare.py`` diffs).

    Every measurement carries its unit, how it was aggregated (``kind`` —
    usually ``median``), how many runs produced it, the spread across those
    runs (max − min), which direction is an improvement, and free-form
    ``extra`` context (join counts, row counts, estimated rows, …).
    """

    def __init__(self, name: str, results_dir: Optional[Path | str] = None,
                 environment: Optional[Dict[str, object]] = None) -> None:
        if not name or "/" in name:
            raise BenchmarkError(f"invalid benchmark name {name!r}")
        self.name = name
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.environment = dict(environment) if environment is not None \
            else collect_environment()
        self.measurements: Dict[str, Dict[str, object]] = {}
        self.created_utc = time.time()

    # -- recording -------------------------------------------------------------

    def record(self, name: str, value: float, unit: str = "seconds",
               kind: str = "value", runs: int = 1,
               spread: Optional[float] = None,
               direction: str = "lower_is_better",
               extra: Optional[Dict[str, object]] = None) -> None:
        """Register one named measurement (re-recording a name overwrites)."""
        if direction not in _DIRECTIONS:
            raise BenchmarkError(
                f"direction must be one of {_DIRECTIONS}, got {direction!r}")
        self.measurements[name] = {
            "value": float(value),
            "unit": unit,
            "kind": kind,
            "runs": int(runs),
            "spread": float(spread) if spread is not None else 0.0,
            "direction": direction,
            "extra": dict(extra or {}),
        }

    def measure(self, name: str, fn: Callable[[], object], repeats: int = 3,
                unit: str = "seconds", direction: str = "lower_is_better",
                extra: Optional[Dict[str, object]] = None) -> float:
        """Time ``fn`` ``repeats`` times and record the median; returns it."""
        if repeats < 1:
            raise BenchmarkError("repeats must be >= 1")
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - started)
        return self.record_timings(name, timings, unit=unit,
                                   direction=direction, extra=extra)

    def record_timings(self, name: str, timings: List[float],
                       unit: str = "seconds",
                       direction: str = "lower_is_better",
                       extra: Optional[Dict[str, object]] = None) -> float:
        """Record a list of repeated timings as median-of-N with spread."""
        if not timings:
            raise BenchmarkError(f"no timings for measurement {name!r}")
        median = statistics.median(timings)
        self.record(name, median, unit=unit, kind="median",
                    runs=len(timings), spread=max(timings) - min(timings),
                    direction=direction, extra=extra)
        return median

    def record_pytest_benchmark(self, name: str, benchmark,
                                extra: Optional[Dict[str, object]] = None) -> None:
        """Adapt a ``pytest-benchmark`` fixture's stats after it has run.

        Merges the fixture's ``extra_info`` into ``extra``.  A no-op when
        the fixture carries no stats (``--benchmark-disable`` runs).
        """
        stats = getattr(getattr(benchmark, "stats", None), "stats", None)
        if stats is None:
            return
        merged = dict(getattr(benchmark, "extra_info", {}) or {})
        merged.update(extra or {})
        self.record(name, stats.median, unit="seconds", kind="median",
                    runs=len(getattr(stats, "data", ())) or 1,
                    spread=stats.max - stats.min, extra=merged)

    # -- artifacts -------------------------------------------------------------

    def write_text(self, filename: str, text: str) -> Optional[Path]:
        """Write a human-readable report into the results directory.

        Returns the path, or ``None`` when the reporter has no results
        directory (JSON-only mode).
        """
        if self.results_dir is None:
            return None
        self.results_dir.mkdir(parents=True, exist_ok=True)
        path = self.results_dir / filename
        if not text.endswith("\n"):
            text += "\n"
        path.write_text(text, encoding="utf-8")
        return path

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": self.name,
            "created_utc": self.created_utc,
            "environment": dict(self.environment),
            "measurements": {name: dict(m)
                             for name, m in sorted(self.measurements.items())},
        }

    def write_json(self, out_dir: Path | str) -> Path:
        """Write ``BENCH_<name>.json`` into ``out_dir`` and return the path."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{self.name}.json"
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=False)
                        + "\n", encoding="utf-8")
        return path
