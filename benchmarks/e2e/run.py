#!/usr/bin/env python3
"""The repo benchmark: one command, four workloads, every metric by name.

With ``--workload`` it runs that workload once in this process and prints,
as its last line, the JSON object ``BENCHMARK.json``'s contract asks for
(end-to-end metrics, or per-layer metrics with ``--trace 1``).  Without
``--workload`` it runs every workload ``--runs`` times, each run in a fresh
subprocess, optionally followed by one traced run each, prints the medians
and writes the run set to ``results/<label>.json`` for ``compare.py``.

    python benchmarks/e2e/run.py                         # all workloads, 5 runs each
    python benchmarks/e2e/run.py --runs 5 --trace        # ... plus a traced run each
    python benchmarks/e2e/run.py --workload query_adhoc --seed 7 --trace 1
    python benchmarks/e2e/run.py --scale smoke           # seconds, not minutes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
RESULTS_DIR = E2E_DIR / "results"
sys.path.insert(0, str(E2E_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

from stats import declared_units, load_declaration, median, workload_names  # noqa: E402

RESULT_SCHEMA = 1


def contract_line(record: dict, units: dict) -> dict:
    """Exactly the keys the driver reads from the last line of stdout."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_report(record: dict, units: dict) -> None:
    sizes = record["sizes"]
    print(f"# {record['workload']}  scale={record['scale']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"triples={sizes['distinct_triples']} noisy={record['noisy']}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"sizes={ {k: v for k, v in sizes.items() if k != 'fingerprint'} }")
    host = record["host"]
    print(f"# host calibration_ms={host['calibration_ms']:.3f} (reference "
          f"{host['reference_ms']}) unsteadiness={host['unsteadiness']:.3f} "
          f"readings={host['readings']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name, unit in units.items():
        print(f"{name:<36} {record['metrics'][name]:>16.6g} {unit}")
    layer_units = declared_units("per_layer")
    for name, value in record.get("detail", {}).items():
        print(f"{name:<36} {value:>16.6g} {layer_units[name]}")
    for cls, entry in record["classes"].items():
        p90 = f"{entry['p90_ms']:.4g}" if "p90_ms" in entry else "-"
        print(f"class {cls:<30} n={entry['n']:<6} p50={entry['p50_ms']:.4g} ms  p90={p90} ms")


def run_single(args) -> int:
    from inputs import SCALES
    from oracle import InputDrift
    from workloads import execute

    units = declared_units("per_layer" if args.trace else "end_to_end")
    tmp_root = RESULTS_DIR / "tmp" / f"run-{os.getpid()}"
    trace_path = RESULTS_DIR / f"trace_{args.workload}.json" if args.trace else None
    try:
        record = execute(args.workload, SCALES[args.scale], args.seed, args.seconds,
                         bool(args.trace), tmp_root, trace_path)
    except InputDrift as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record["schema"] = RESULT_SCHEMA
    print_report(record, units)
    if args.out:
        Path(args.out).write_text(json.dumps(record, default=str), encoding="utf-8")
    print(json.dumps(contract_line(record, units)))
    return 0


def run_all(args) -> int:
    RESULTS_DIR.mkdir(exist_ok=True)
    label = args.label or time.strftime("run-%Y%m%d-%H%M%S")
    records = []
    plan = [(w, 0) for w in workload_names() for _ in range(args.runs)]
    if args.trace:
        plan += [(w, 1) for w in workload_names()]
    for index, (workload, trace) in enumerate(plan):
        out = RESULTS_DIR / f".{label}-{index}.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale, "--out", str(out)]
        started = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - started
        if done.returncode != 0 or not out.exists():
            print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
            print(f"error: {workload} (trace={trace}) exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        record = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        record["wall_s"] = wall
        records.append(record)
        print(f"[{index + 1}/{len(plan)}] {workload} trace={trace} wall={wall:.1f}s "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"noisy={record['noisy']}", flush=True)
    result_set = {
        "schema": RESULT_SCHEMA, "label": label, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "python": platform.python_version(),
        "machine": platform.machine(), "cpus": os.cpu_count(), "runs": records,
    }
    path = RESULTS_DIR / f"{label}.json"
    path.write_text(json.dumps(result_set, indent=1, default=str), encoding="utf-8")

    failed = sum(record["failed"] for record in records)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        units = declared_units(section)
        for workload in workload_names():
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            attempted = sum(r["attempted"] for r in runs)
            print(f"\n== {workload} ({section}, median of {len(runs)} run(s), "
                  f"{sum(r['noisy'] for r in runs)} noisy) "
                  f"failed_ops_ratio={sum(r['failed'] for r in runs) / attempted:g}")
            for name, unit in units.items():
                print(f"{name:<36} {median([r['metrics'][name] for r in runs]):>16.6g} {unit}")
            if trace == 0:
                layer_units = declared_units("per_layer")
                for name in runs[0].get("detail", {}):
                    value = median([r["detail"][name] for r in runs])
                    print(f"{name:<36} {value:>16.6g} {layer_units[name]}")
                for cls in runs[0]["classes"]:
                    p50 = median([r["classes"][cls]["p50_ms"] for r in runs])
                    print(f"class {cls:<30} p50={p50:.4g} ms")
    print(f"\nwrote {path.relative_to(REPO_ROOT)}")
    return 1 if failed else 0


def update_fingerprints() -> int:
    from inputs import DEFAULT_SEED, SCALES, fingerprint, make_dataset
    from oracle import FINGERPRINTS_PATH

    pinned = {}
    for scale in SCALES.values():
        for workload in ("bulk_build", "query_repeat"):
            dataset = make_dataset(workload, scale, DEFAULT_SEED, with_text=True)
            pinned[f"{dataset.name}@{scale.name}"] = fingerprint(dataset)
    FINGERPRINTS_PATH.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {sorted(pinned)} in {FINGERPRINTS_PATH.name}")
    return 0


def main(argv=None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir() or not (REPO_ROOT / "BENCHMARK.json").is_file():
        print("error: this benchmark measures the repro package; run it from a checkout "
              "that holds src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    from inputs import DEFAULT_SEED, SCALES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_declaration()["run_seconds"],
                        help="how long each measured loop runs (whole rounds, with a floor)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced runs per workload when no --workload is given")
    parser.add_argument("--label", help="name of the result set under results/")
    parser.add_argument("--out", help="also write the full run record to this file")
    parser.add_argument("--update-fingerprints", action="store_true",
                        help="re-pin the default-seed data sets after a deliberate "
                             "change of the generators")
    args = parser.parse_args(argv)
    if args.update_fingerprints:
        return update_fingerprints()
    return run_single(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
