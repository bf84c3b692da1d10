"""Cost accounting for the simulated column store.

MonetDB runs at memory/disk speed in C; a Python reproduction cannot compare
absolute wall-clock times meaningfully.  Instead, every storage access in
this library is routed through a :class:`CostTracker`, which counts

* ``page_reads`` — buffer-pool misses (simulated disk page fetches),
* ``page_hits`` — buffer-pool hits,
* ``tuples_scanned`` — values materialized by scans,
* ``tuples_probed`` — index/hash probe operations,
* ``join_operations`` — physical join operators executed,
* ``operator_invocations`` — physical operators executed.

A :class:`CostModel` then converts the counters to a *simulated elapsed
time*, which is what the Table I reproduction reports alongside wall-clock.
The default constants approximate a 2013-era machine: a cold random disk
page read at ~0.2 ms, a hot in-memory page touch at ~0.5 µs and ~10 ns per
tuple of CPU work.  The absolute values are not the point — the *ratios*
between configurations are.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostTracker:
    """Mutable counters for one query (or load) execution."""

    page_reads: int = 0
    page_hits: int = 0
    tuples_scanned: int = 0
    tuples_probed: int = 0
    join_operations: int = 0
    operator_invocations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.page_reads = 0
        self.page_hits = 0
        self.tuples_scanned = 0
        self.tuples_probed = 0
        self.join_operations = 0
        self.operator_invocations = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "page_reads": self.page_reads,
            "page_hits": self.page_hits,
            "tuples_scanned": self.tuples_scanned,
            "tuples_probed": self.tuples_probed,
            "join_operations": self.join_operations,
            "operator_invocations": self.operator_invocations,
        }

    def merge(self, other: "CostTracker") -> None:
        """Accumulate another tracker's counters into this one."""
        self.page_reads += other.page_reads
        self.page_hits += other.page_hits
        self.tuples_scanned += other.tuples_scanned
        self.tuples_probed += other.tuples_probed
        self.join_operations += other.join_operations
        self.operator_invocations += other.operator_invocations

    def diff(self, baseline: dict[str, int]) -> dict[str, int]:
        """Return counters minus a previously taken :meth:`snapshot`."""
        current = self.snapshot()
        return {key: current[key] - baseline.get(key, 0) for key in current}


@dataclass(frozen=True)
class CostModel:
    """Converts :class:`CostTracker` counters into simulated seconds (the
    currency of Table I)."""

    page_read_seconds: float = 2.0e-4
    page_hit_seconds: float = 5.0e-7
    tuple_scan_seconds: float = 1.0e-8
    tuple_probe_seconds: float = 8.0e-8
    join_overhead_seconds: float = 5.0e-6
    operator_overhead_seconds: float = 2.0e-6

    def simulated_seconds(self, counters: dict[str, int]) -> float:
        """Return the simulated elapsed time for a counter dictionary."""
        return (
            counters.get("page_reads", 0) * self.page_read_seconds
            + counters.get("page_hits", 0) * self.page_hit_seconds
            + counters.get("tuples_scanned", 0) * self.tuple_scan_seconds
            + counters.get("tuples_probed", 0) * self.tuple_probe_seconds
            + counters.get("join_operations", 0) * self.join_overhead_seconds
            + counters.get("operator_invocations", 0) * self.operator_overhead_seconds
        )


@dataclass
class QueryCost:
    """Bundle of measured wall-clock time, counters and simulated time."""

    wall_seconds: float
    counters: dict[str, int] = field(default_factory=dict)
    simulated_seconds: float = 0.0

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"wall={self.wall_seconds * 1e3:.2f}ms sim={self.simulated_seconds * 1e3:.2f}ms "
            f"reads={self.counters.get('page_reads', 0)} hits={self.counters.get('page_hits', 0)} "
            f"scanned={self.counters.get('tuples_scanned', 0)} joins={self.counters.get('join_operations', 0)}"
        )
