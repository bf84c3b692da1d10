#!/usr/bin/env python3
"""Compare two result sets written by ``run.py``: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both sets' medians and
quartiles, the relative change of B against A (base: A's median), and a
verdict:

* ``worse``      -- B's median is worse than A's by more than the metric's bound;
* ``unresolved`` -- not worse, but either set's inter-quartile spread is wider
  than the bound, so "no regression" cannot be told from noise (unless every
  run of B reads better than every run of A);
* ``ok``         -- otherwise.

Exit code 1 on any ``worse``, 2 on unusable input (missing file, different
scales, a workload or metric missing on one side, no runs).  Runs flagged
``noisy`` are used unless ``--drop-noisy`` is given, which says how many it
dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import load_declaration, median, quartiles, relative_spread  # noqa: E402


class Unusable(Exception):
    pass


def load_runs(path: str, drop_noisy: bool) -> Dict[str, object]:
    try:
        result_set = json.loads(Path(path).read_text(encoding="utf-8"))
        runs = [run for run in result_set["runs"] if not run["trace"]]
        scale = result_set["scale"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Unusable(f"{path}: not a result set ({exc!r})") from exc
    dropped = 0
    if drop_noisy:
        dropped = sum(1 for run in runs if run["noisy"])
        runs = [run for run in runs if not run["noisy"]]
    by_workload: Dict[str, List[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    if not by_workload:
        raise Unusable(f"{path}: no usable untraced runs")
    return {"scale": scale, "runs": by_workload, "dropped": dropped, "path": path}


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """``(relative change of B's median against A's, verdict)``; a positive
    change is always a worsening."""
    base, new = median(a), median(b)
    change = (new - base) / base if better == "lower" else (base - new) / base
    if change > bound:
        return change, "worse"
    dominates = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if max(relative_spread(a), relative_spread(b)) > bound and not dominates:
        return change, "unresolved"
    return change, "ok"


def compare(a: dict, b: dict) -> int:
    if a["scale"] != b["scale"]:
        raise Unusable(f"scales differ: {a['path']} is {a['scale']}, "
                       f"{b['path']} is {b['scale']}")
    if set(a["runs"]) != set(b["runs"]):
        raise Unusable(f"workloads differ: {sorted(a['runs'])} vs {sorted(b['runs'])}")
    worse = 0
    for side in (a, b):
        if side["dropped"]:
            print(f"dropped {side['dropped']} noisy run(s) from {side['path']}")
    print(f"{'workload':<13}{'metric':<21}{'A median [q1, q3]':<42}{'B median [q1, q3]':<42}"
          f"{'B vs A':>9}  {'bound':>5}  verdict")
    metrics = load_declaration()["end_to_end"]
    for workload in sorted(a["runs"]):
        for metric in metrics:
            name = metric["name"]
            try:
                values = [[run["metrics"][name] for run in side["runs"][workload]]
                          for side in (a, b)]
            except KeyError as exc:
                raise Unusable(f"{workload}: metric {name} missing in a run") from exc
            change, word = verdict(values[0], values[1], metric["better"], metric["bound"])
            worse += word == "worse"
            cells = []
            for side_values in values:
                q1, _mid, q3 = quartiles(side_values)
                cells.append(f"{median(side_values):.5g} [{q1:.5g}, {q3:.5g}] "
                             f"n={len(side_values)}")
            sign = "worse" if change > 0 else "better"
            print(f"{workload:<13}{name:<21}{cells[0]:<42}{cells[1]:<42}"
                  f"{abs(change) * 100:>6.1f}% {sign:<6} {metric['bound']:>5}  {word}")
    print(f"relative change is (B median - A median) / A median, signed so that "
          f"'worse' follows each metric's direction; {worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="the base result set (e.g. the parent commit's)")
    parser.add_argument("b", help="the result set to judge")
    parser.add_argument("--drop-noisy", action="store_true",
                        help="ignore runs whose host-clock readings were unsteady")
    args = parser.parse_args(argv)
    try:
        return compare(load_runs(args.a, args.drop_noisy), load_runs(args.b, args.drop_noisy))
    except Unusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
