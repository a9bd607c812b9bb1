"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

SPEC = run.load_spec()
run.use_library()


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One traced ``--quick`` suite run, shared by the tests below."""
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--quick", "--trace", "--seed", "0",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    elapsed = time.perf_counter() - t0
    return proc, elapsed, out


def test_quick_mode_runs_every_workload_clean(quick_run):
    proc, elapsed, out = quick_run
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 120
    (result,) = json.loads(out.read_text())["runs"]
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, w in result["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, (name, w["messages"])


def test_every_declared_metric_is_printed_with_its_unit(quick_run):
    proc, _elapsed, _out = quick_run
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{metric['name']} [{metric['unit']}]" in proc.stdout


def test_traced_spans_nest(quick_run):
    _proc, _elapsed, out = quick_run
    by_workload = json.loads(out.with_suffix(".spans.json").read_text())
    assert set(by_workload) == {w["name"] for w in SPEC["workloads"]}
    for name, recorded in by_workload.items():
        assert recorded, name
        roots = [s for s in recorded if s["parent"] is None]
        assert len({s["job"] for s in roots}) == len(roots)  # one job id per job
        for s in recorded:
            assert s["start_s"] <= s["end_s"]
            if s["parent"] is not None:
                parent = recorded[s["parent"]]
                assert parent["job"] == s["job"]
                assert parent["start_s"] <= s["start_s"] <= s["end_s"] <= parent["end_s"]
        assert all(t >= -1e-9 for t in spans.self_times(recorded).values())


def test_planted_wrong_reference_fails_the_run(monkeypatch, capsys):
    workload = workloads.WORKLOADS["verify-sim"]
    honest = workload.prepare

    def planted(seed, quick):
        payload = honest(seed, quick)
        ref = next(iter(payload["refs"].values()))
        element = next(iter(ref["c"]))
        ref["c"][element] += 1
        return payload

    monkeypatch.setattr(workload, "prepare", planted)
    status = run.main(["--workload", "verify-sim", "--quick", "--seconds", "0.1"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert line["correct"] is False and line["failed"] > 0
    assert line["failed"] <= line["attempted"]


@pytest.mark.parametrize("name", ["compile-novel", "verify-sim", "execute-npgen", "fuzz-campaign"])
def test_seed_decides_the_job_list(name):
    workload = workloads.WORKLOADS[name]

    def job_list(seed):
        payload = workload.prepare(seed, True)
        if name == "fuzz-campaign":
            return payload["campaigns"]
        cycles = workload.cycles(payload, 0)
        return [next(iter(cycles)), payload.get("inputs")]

    assert job_list(0) == job_list(0)
    assert job_list(0) != job_list(1)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layers = spans.layer_metrics([], 1, 1, {}, {})
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(declared) == sorted([*layers, "bench.trace_overhead_frac"])


def test_frozen_golden_table_matches_the_repository():
    frozen = workloads.load_data("golden_explore_e2_n4.json")
    source = json.loads(Path(run.ROOT, "benchmarks", "golden_explore_e2_n4.json").read_text())
    assert frozen == source
