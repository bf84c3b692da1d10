"""Smoke test of the benchmark itself: every workload and a traced run at
``--scale smoke``, in-process.  It checks the benchmark's plumbing (names,
units, oracles, span trees, the comparer), not speed."""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR))

import compare  # noqa: E402
from inputs import DEFAULT_SEED, SCALES  # noqa: E402
from spans import check_span_tree  # noqa: E402
from stats import declared_units, load_declaration, workload_names  # noqa: E402
from workloads import execute  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TRACED_WORKLOAD = "update_mix"


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    out = {"trace_path": root / "trace.json"}
    for workload in workload_names():
        out[workload] = execute(workload, SCALES["smoke"], DEFAULT_SEED, seconds=0.1,
                                trace=False, tmp_root=root / f"tmp-{workload}")
    out["traced"] = execute(TRACED_WORKLOAD, SCALES["smoke"], DEFAULT_SEED, seconds=0.1,
                            trace=True, tmp_root=root / "tmp-traced",
                            trace_path=out["trace_path"])
    return out


def test_declaration_is_well_formed():
    declaration = load_declaration()
    assert set(declaration) == {"command", "paths", "run_seconds", "workloads",
                                "end_to_end", "per_layer"}
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in declaration[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declaration["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declaration["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declaration["workloads"])


def test_no_operation_fails_and_results_are_stamped(records):
    for workload in workload_names() + ["traced"]:
        record = records[workload]
        assert record["failed"] == 0, record["failures"]
        assert record["correct"] and record["attempted"] > 0
        assert record["scale"] == "smoke"


def test_metric_names_match_the_declaration_both_ways(records):
    for workload in workload_names():
        assert set(records[workload]["metrics"]) == set(declared_units("end_to_end"))
    assert set(records["traced"]["metrics"]) == set(declared_units("per_layer"))
    # what an untraced update_mix run reports beside the contract is a
    # subset of the per-layer names, so it prints with a unit too
    assert set(records["update_mix"]["detail"]) <= set(declared_units("per_layer"))
    for workload in workload_names():
        assert all(value != 0 for value in records[workload]["metrics"].values())


def test_span_tree_closes(records):
    trace = json.loads(records["trace_path"].read_text(encoding="utf-8"))
    spans = trace["spans"]
    assert len(spans) == records["traced"]["trace_spans"] > 0
    assert check_span_tree(spans) == []
    roots = [span for span in spans if span["parent"] is None]
    assert roots and all(span["self"] >= 0 for span in roots)
    assert {"build", "rio.parse", "request", "sparql.prepare", "engine.execute",
            "core.decode", "updates.compact", "persist.snapshot_write"} <= \
        {span["name"] for span in spans}


def _result_set(records, path, scale="smoke", slowdown=None):
    runs = []
    for workload in workload_names():
        for jitter in (0.99, 1.0, 1.0, 1.01, 1.0):
            run = copy.deepcopy(records[workload])
            run["scale"] = scale
            for name in ("setup_s", "query_p50_ms", "query_p90_ms"):
                run["metrics"][name] *= jitter
            if slowdown and workload == slowdown[0]:
                run["metrics"][slowdown[1]] *= slowdown[2]
            runs.append(run)
    path.write_text(json.dumps({"schema": 1, "scale": scale, "runs": runs}, default=str),
                    encoding="utf-8")
    return str(path)


def test_compare_flags_an_injected_slowdown(records, tmp_path, capsys):
    bound = {m["name"]: m["bound"] for m in load_declaration()["end_to_end"]}["query_p50_ms"]
    base = _result_set(records, tmp_path / "a.json")
    same = _result_set(records, tmp_path / "b.json")
    slower = _result_set(records, tmp_path / "c.json",
                         slowdown=("query_adhoc", "query_p50_ms", 1 + bound + 0.1))
    assert compare.main([base, same]) == 0
    assert compare.main([same, base]) == 0
    assert compare.main([base, slower]) == 1
    assert re.search(r"query_adhoc\s+query_p50_ms.*worse\s+\S+\s+worse", capsys.readouterr().out)


def test_compare_rejects_unusable_input(records, tmp_path):
    smoke = _result_set(records, tmp_path / "smoke.json")
    full = _result_set(records, tmp_path / "full.json", scale="full")
    assert compare.main([smoke, full]) == 2
    assert compare.main([smoke, str(tmp_path / "missing.json")]) == 2
