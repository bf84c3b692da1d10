"""Summary statistics and the ``BENCHMARK.json`` declaration, shared by the
runner, the comparer and the smoke test."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
DECLARATION_PATH = REPO_ROOT / "BENCHMARK.json"

P90_MIN_SAMPLES = 100
"""A p90 is only reported with at least ten samples beyond it."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _mid, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def load_declaration() -> dict:
    return json.loads(DECLARATION_PATH.read_text(encoding="utf-8"))


def declared_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` section."""
    return {entry["name"]: entry["unit"] for entry in load_declaration()[section]}


def workload_names() -> List[str]:
    return [entry["name"] for entry in load_declaration()["workloads"]]
