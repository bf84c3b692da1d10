"""The benchmark reporter and the regression-compare tool.

``BenchReporter`` writes the schema-versioned ``BENCH_<name>.json`` contract;
``tools/bench_compare.py`` diffs two result sets against it.  The tests pin
the contract down: an injected ≥20% slowdown must be flagged (exit 1),
within-threshold drift must pass (exit 0), and unusable input — wrong schema
version, missing files — must exit 2, never crash or silently pass.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchReporter,
    collect_environment,
    git_revision,
)
from repro.errors import BenchmarkError

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_compare", bench_compare)
_spec.loader.exec_module(bench_compare)


def write_result(out_dir: Path, name: str, measurements: dict) -> Path:
    reporter = BenchReporter(name)
    for measurement_name, spec in measurements.items():
        reporter.record(measurement_name, **spec)
    return reporter.write_json(out_dir)


# -- the reporter's JSON contract ---------------------------------------------


class TestBenchReporter:
    def test_json_document_shape(self, tmp_path):
        reporter = BenchReporter("demo", environment=collect_environment(
            scale_factor=0.002))
        reporter.record("q_seconds", 0.5, runs=3, spread=0.1)
        path = reporter.write_json(tmp_path)
        assert path.name == "BENCH_demo.json"
        document = json.loads(path.read_text())
        assert document["schema_version"] == BENCH_SCHEMA_VERSION
        assert document["name"] == "demo"
        assert document["environment"]["scale_factor"] == 0.002
        for key in ("python", "platform", "git_sha", "git_dirty", "numpy"):
            assert key in document["environment"]
        measurement = document["measurements"]["q_seconds"]
        assert measurement["value"] == 0.5
        assert measurement["runs"] == 3
        assert measurement["direction"] == "lower_is_better"

    def test_git_sha_is_stamped(self):
        # this test runs inside the repo's checkout: a real SHA, not the default
        sha = git_revision()
        assert sha != "unknown" and len(sha) == 40

    def test_record_timings_median_and_spread(self):
        reporter = BenchReporter("demo")
        median = reporter.record_timings("q", [0.3, 0.1, 0.2])
        assert median == 0.2
        measurement = reporter.measurements["q"]
        assert measurement["runs"] == 3
        assert measurement["spread"] == pytest.approx(0.2)

    def test_measure_times_the_callable(self):
        reporter = BenchReporter("demo")
        value = reporter.measure("noop_seconds", lambda: None, repeats=3)
        assert value >= 0.0
        assert reporter.measurements["noop_seconds"]["kind"] == "median"

    def test_invalid_names_and_directions_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchReporter("")
        with pytest.raises(BenchmarkError):
            BenchReporter("a/b")
        reporter = BenchReporter("demo")
        with pytest.raises(BenchmarkError):
            reporter.record("x", 1.0, direction="sideways")
        with pytest.raises(BenchmarkError):
            reporter.record_timings("x", [])

    def test_write_text_requires_results_dir(self, tmp_path):
        assert BenchReporter("demo").write_text("r.txt", "hi") is None
        reporter = BenchReporter("demo", results_dir=tmp_path / "results")
        path = reporter.write_text("r.txt", "hi")
        assert path.read_text() == "hi\n"


# -- the compare tool ----------------------------------------------------------


class TestBenchCompare:
    def test_injected_slowdown_is_flagged(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"q_seconds": {"value": 1.0}})
        write_result(cand, "suite", {"q_seconds": {"value": 1.25}})  # +25%
        assert bench_compare.main([str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "q_seconds" in out

    def test_within_threshold_passes(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"q_seconds": {"value": 1.0}})
        write_result(cand, "suite", {"q_seconds": {"value": 1.15}})  # +15%
        assert bench_compare.main([str(base), str(cand)]) == 0

    def test_improvement_passes(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"q_seconds": {"value": 1.0}})
        write_result(cand, "suite", {"q_seconds": {"value": 0.4}})
        assert bench_compare.main([str(base), str(cand)]) == 0

    def test_higher_is_better_direction_respected(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        spec = {"value": 1000.0, "unit": "queries/s",
                "direction": "higher_is_better"}
        write_result(base, "suite", {"throughput": dict(spec)})
        write_result(cand, "suite", {"throughput": dict(spec, value=700.0)})
        assert bench_compare.main([str(base), str(cand)]) == 1
        # and a throughput *gain* is never a regression
        write_result(cand, "suite", {"throughput": dict(spec, value=1500.0)})
        assert bench_compare.main([str(base), str(cand)]) == 0

    def test_custom_threshold(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"q_seconds": {"value": 1.0}})
        write_result(cand, "suite", {"q_seconds": {"value": 1.15}})
        assert bench_compare.main([str(base), str(cand),
                                   "--threshold", "0.1"]) == 1

    def test_noise_floor_mutes_micro_timings(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        # 20µs -> 60µs is 3x, but both are below the 100µs noise floor
        write_result(base, "suite", {"tiny_seconds": {"value": 2e-5}})
        write_result(cand, "suite", {"tiny_seconds": {"value": 6e-5}})
        assert bench_compare.main([str(base), str(cand)]) == 0

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"q_seconds": {"value": 1.0}})
        cand.mkdir()
        document = json.loads((base / "BENCH_suite.json").read_text())
        document["schema_version"] = 99
        (cand / "BENCH_suite.json").write_text(json.dumps(document))
        assert bench_compare.main([str(base), str(cand)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_missing_inputs_exit_two(self, tmp_path):
        empty_a = tmp_path / "a"
        empty_b = tmp_path / "b"
        empty_a.mkdir()
        empty_b.mkdir()
        assert bench_compare.main([str(empty_a), str(empty_b)]) == 2
        assert bench_compare.main([str(tmp_path / "nope.json"),
                                   str(tmp_path / "also_nope.json")]) == 2

    def test_no_common_measurements_exit_two(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        write_result(base, "suite", {"old_seconds": {"value": 1.0}})
        write_result(cand, "suite", {"new_seconds": {"value": 1.0}})
        assert bench_compare.main([str(base), str(cand)]) == 2

    def test_single_file_comparison(self, tmp_path):
        base = write_result(tmp_path / "base", "suite",
                            {"q_seconds": {"value": 1.0}})
        cand = write_result(tmp_path / "cand", "suite",
                            {"q_seconds": {"value": 2.0}})
        assert bench_compare.main([str(base), str(cand)]) == 1
