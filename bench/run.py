#!/usr/bin/env python3
"""The repository benchmark: source text to oracle-checked values.

Run every workload (suite), one workload (the form a harness calls), or
compare two result files:

    python bench/run.py --seed 0 [--trace] [--out R.json] [--seconds T] [--quick]
    python bench/run.py --workload verify-sim --seed 0 --seconds 15 --trace 0
    python bench/run.py --compare A.json B.json

Workloads, metrics, units and regression bounds are declared in
``BENCHMARK.json`` at the repository root.  Each repetition runs in a
fresh interpreter, one at a time; repetitions are interleaved round-robin
across workloads and every metric is the median over repetitions.  A run
is fixed work: ``--seconds`` becomes whole cycles of jobs at a reference
host speed, and reported times and rates are scaled to that speed (see
``bench/README.md``).  Every output is checked against the sequential
oracle, and any failure makes the exit status 1.  With ``--workload`` the
last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  ``--trace`` adds one traced repetition per workload, writes its
spans out, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
#: a repetition running longer than this plus twice ``--seconds`` is
#: killed and counted as failed
CHILD_GRACE_S = 30


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_library() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))


#: reported in the suite table and result files beside BENCHMARK.json's
#: metrics, not gated: failed_frac is 0 on a clean run, sweep_s_p50 exists
#: on one workload, host_scale is reference-speed time over measured time
SUITE_EXTRAS = (("failed_frac", "ratio"), ("sweep_s_p50", "s"), ("host_scale", "x"))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def scaled(value: float, unit: str, scale: float) -> float:
    """A time or rate at the reference host speed; other units unchanged."""
    if unit in ("s", "ms"):
        return value * scale
    if unit.startswith("1/"):
        return value / scale
    return value


def rep_values(workload, rep: dict, ref: bool) -> dict[str, float]:
    """One repetition's end-to-end values, at the reference host speed
    (see ``workloads.HostSpeed``) or as measured."""
    if ref:
        setup, job_s, timed = rep["setup_ref_s"], rep["job_ref_s"], rep["timed_ref_s"]
    else:
        setup, job_s, timed = rep["setup_s"], rep["job_s"], rep["timed_s"]
    values = {
        "setup_s": setup,
        "jobs_per_s": rep["attempted"] / timed,
        "peak_rss_mb": rep["rss_mb"],
    }
    if not workload.unit_based:
        values["job_ms_p50"] = 1000.0 * percentile(job_s, 50)
        values["job_ms_p95"] = 1000.0 * percentile(job_s, 95)
    elif workload.call_metric:
        values[workload.call_metric] = timed
    return values


def summarize(workload, reps: list[dict], traced: dict | None, units: dict) -> dict:
    """End-to-end metrics (medians over repetitions) and per-layer ones."""
    done = [r for r in reps if not r.get("crashed")]
    attempted = sum(r["attempted"] for r in reps) + (traced["attempted"] if traced else 0)
    failed = sum(r["failed"] for r in reps) + (traced["failed"] if traced else 0)
    per_rep: dict[str, list] = {}
    raw: dict[str, list] = {}
    for rep in done:
        for name, value in rep_values(workload, rep, True).items():
            per_rep.setdefault(name, []).append(value)
        for name, value in rep_values(workload, rep, False).items():
            raw.setdefault(name, []).append(value)
    metrics = {name: statistics.median(values) for name, values in per_rep.items()}
    if workload.unit_based and done:
        # jobs run inside one call: percentiles over the calls' per-job times
        per_job = [1000.0 * r["timed_ref_s"] / r["attempted"] for r in done]
        metrics["job_ms_p50"] = percentile(per_job, 50)
        metrics["job_ms_p95"] = percentile(per_job, 95)
    metrics["failed_frac"] = failed / attempted if attempted else 1.0
    if done:
        per_rep["host_scale"] = [r["host_scale"] for r in done]
        metrics["host_scale"] = statistics.median(per_rep["host_scale"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "messages": [m for r in reps for m in r["messages"]],
        "metrics": metrics,
        "per_rep": per_rep,
        "raw_per_rep": raw,
        "reps": len(reps),
    }
    if traced is not None and not traced.get("crashed") and done:
        scale = traced["host_scale"]
        layers = {n: scaled(v, units[n], scale) for n, v in traced["layers"].items()}
        traced_rate = traced["attempted"] / traced["timed_ref_s"]
        layers["bench.trace_overhead_frac"] = metrics["jobs_per_s"] / traced_rate - 1.0
        result["per_layer"] = layers
    return result


# ----------------------------------------------------------------------
# running repetitions in fresh interpreters
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Defaults only: no ``REPRO_*`` knobs; a fixed hash seed so counts
    repeat exactly; temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def crashed_rep(message: str) -> dict:
    return {"crashed": True, "attempted": 1, "failed": 1, "messages": [message]}


def run_rep(name: str, payload, rep: int, work: int, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; ``work`` is its cycle count."""
    task = pickle.dumps({"workload": name, "payload": payload, "rep": rep,
                         "work": work, "trace": trace})
    cmd = [sys.executable, str(BENCH / "run.py"), "--child"]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn)], input=task, capture_output=True,
                              timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return crashed_rep(f"repetition {rep} killed after {timeout:.0f}s")
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return crashed_rep(f"repetition {rep} exited {proc.returncode}: {' | '.join(tail)}")
    return pickle.loads(proc.stdout)


def child_main(t_spawn: float) -> int:
    """One repetition: read the task on stdin, write the result on stdout."""
    task = pickle.load(sys.stdin.buffer)
    result_out = sys.stdout.buffer
    sys.stdout = sys.stderr  # library output must not corrupt the result
    use_library()
    import spans
    import workloads

    tracer = spans.Tracer() if task["trace"] else spans.NoTracer()
    workload = workloads.WORKLOADS[task["workload"]]
    rep = workload.run_rep(task["payload"], task["rep"], task["work"], tracer, t_spawn)
    result_out.write(pickle.dumps(rep))
    result_out.flush()
    return 0


def metric_units(spec: dict) -> dict[str, str]:
    declared = spec["end_to_end"] + spec["per_layer"]
    return {m["name"]: m["unit"] for m in declared} | dict(SUITE_EXTRAS)


def run_suite(names: list[str], seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Prepare every workload, then run their repetitions round-robin."""
    import workloads

    units = metric_units(load_spec())
    chosen = [workloads.WORKLOADS[n] for n in names]
    payloads = {w.name: w.prepare(seed, quick) for w in chosen}
    plans = {w.name: w.plan(seconds, quick) for w in chosen}
    reps: dict[str, list] = {w.name: [] for w in chosen}
    timeout = CHILD_GRACE_S + 2 * seconds
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        for index in range(max(count for count, _work in plans.values())):
            for w in chosen:
                count, work = plans[w.name]
                mine = reps[w.name]
                if index < count and not (mine and mine[-1].get("crashed")):
                    mine.append(run_rep(w.name, payloads[w.name], index, work, False, timeout))
        traced = {
            w.name: run_rep(w.name, payloads[w.name], len(reps[w.name]), plans[w.name][1],
                            True, timeout)
            for w in chosen
        } if trace else {}
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    results = {}
    for w in chosen:
        problems = w.cross_check(reps[w.name])  # marks differing repetitions failed
        result = results[w.name] = summarize(w, reps[w.name], traced.get(w.name), units)
        result["messages"] += problems
        if w.name in traced:
            result["spans"] = traced[w.name].get("spans", [])
    return {"seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
            "workloads": results}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_tables(run: dict, spec: dict) -> None:
    columns = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(SUITE_EXTRAS)
    header = ["workload"] + [f"{n} [{u}]" for n, u in columns]
    rows = [header]
    for name, result in run["workloads"].items():
        values = result["metrics"]
        rows.append([name] + [f"{values[n]:.4g}" if n in values else "-" for n, _u in columns])
    _print_rows(rows)
    layered = {n: r["per_layer"] for n, r in run["workloads"].items() if "per_layer" in r}
    if layered:
        print()
        rows = [["per-layer metric [unit]"] + list(layered)]
        for metric, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
            rows.append([f"{metric} [{unit}]"] + [f"{v[metric]:.4g}" for v in layered.values()])
        _print_rows(rows)
    for name, result in run["workloads"].items():
        for message in result["messages"][:5]:
            print(f"FAILED {name}: {message}")


def _print_rows(rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def contract_line(run: dict, spec: dict, trace: bool) -> str:
    """The one-object result line for a single-workload run."""
    (result,) = run["workloads"].values()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def write_out(path: Path, run: dict) -> None:
    """Append the run to a result file; spans go to a sibling file."""
    spans = {n: r.pop("spans") for n, r in run["workloads"].items() if "spans" in r}
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(run)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    if spans:
        path.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------
def _side(runs: list[dict], workload: str, metric: str) -> list[float]:
    """One value per run; a single run contributes its repetitions."""
    present = [r["workloads"][workload] for r in runs if workload in r["workloads"]]
    if len(present) == 1 and metric in present[0]["per_rep"]:
        return present[0]["per_rep"][metric]
    return [p["metrics"][metric] for p in present if metric in p["metrics"]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Per (workload, metric): medians, quartiles, and a verdict against
    the metric's bound.  Exit status 1 when some metric got worse."""
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]
    workloads = [w for w in runs_a[0]["workloads"] if any(w in r["workloads"] for r in runs_b)]
    rows = [["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict"]]
    worse = 0
    for w in workloads:
        for m in spec["end_to_end"] + [{"name": "failed_frac", "better": "lower", "bound": 0.0}]:
            a, b = _side(runs_a, w, m["name"]), _side(runs_b, w, m["name"])
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
            change = (bm - am) / am if am else (0.0 if bm == am else float("inf"))
            loss = change if m["better"] == "lower" else -change
            if m["name"] == "failed_frac":
                verdict = "same" if a == b or (am == bm == 0) else "WORSE"
            elif (a3 - a1) / am > m["bound"] or (b3 - b1) / bm > m["bound"]:
                verdict = "unresolved"
            elif loss > m["bound"]:
                verdict = "WORSE"
            else:
                verdict = f"within {m['bound']:.0%}"
            worse += verdict == "WORSE"
            rows.append([w, m["name"], f"{am:.4g} [{a1:.4g}, {a3:.4g}]",
                         f"{bm:.4g} [{b1:.4g}, {b3:.4g}]", f"{change:+.1%}", verdict])
    _print_rows(rows)
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(float(argv[1]))
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload and end with the JSON result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the job sample, job order and input values")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload at the reference host speed, "
                             "run as whole cycles (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced repetition and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="one short repetition per workload on small inputs (smoke test)")
    parser.add_argument("--out", type=Path, help="append this run to a JSON result file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two result files written with --out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)

    use_library()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    run = run_suite(names, args.seed, args.seconds, bool(args.trace), args.quick)
    print_tables(run, spec)
    recorded = {n: r["spans"] for n, r in run["workloads"].items() if "spans" in r}
    if args.out:
        write_out(args.out, run)
        print(f"wrote {args.out}")
    elif recorded:
        WORK.mkdir(exist_ok=True)
        path = WORK / f"spans-{'+'.join(names)}-seed{args.seed}.json"
        path.write_text(json.dumps(recorded) + "\n")
        print(f"wrote spans to {path.relative_to(ROOT)}")
    failed = any(r["failed"] for r in run["workloads"].values())
    if args.workload:
        print(contract_line(run, spec, bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
