#!/usr/bin/env python3
"""Regenerate the frozen benchmark inputs under ``bench/data``.

    python bench/make_data.py [--only designs,pool,campaigns,golden]

* ``designs.json`` -- the four paper designs (Appendices D and E): source
  text plus the design JSON (``step``, ``place``, ``loading``, ``name``).
* ``novel_pool.json`` -- the 600 ``compile-novel`` programs:
  ``generate_instance(seed)`` for seeds 0, 1, 2, ... in order, skipping a
  seed that yields no instance or whose program disagrees with the oracle
  on pygen.  The pool is sorted by cold compile cost (mean of two passes,
  each in a fresh interpreter, one in reverse order); the benchmark cuts
  that order into strata.  ``cost_ms`` records the measurement.
* ``fuzz_campaigns.json`` -- ``fuzz-campaign`` seeds: candidates 10000,
  10001, ... each run as ``fuzz_run(seed, iterations=50)`` twice, each in
  a fresh interpreter with a time limit.  A candidate that fails or times
  out is dropped; of the rest, the ones closest to the median time are
  kept, so that every campaign the benchmark draws does similar work.
* ``golden_explore_e2_n4.json`` -- a copy of the repository's golden
  ranked table for the E.2 design space at n=4.

Workloads read only these files, so they stay fixed when the fuzz
generator or the paper designs change.  Regenerating takes minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
POOL_SIZE = 600
CAMPAIGN_ITERATIONS = 50
CAMPAIGN_CANDIDATES = 36
CAMPAIGNS_KEPT = 12
CAMPAIGN_TIMEOUT_S = 60


def _library():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))


def _design_json(array) -> dict:
    return {
        "step": [list(r) for r in array.step.rows],
        "place": [list(r) for r in array.place.rows],
        "loading": {k: [int(c) for c in v] for k, v in sorted(array.loading_vectors.items())},
        "name": array.name,
    }


def make_designs() -> None:
    from repro import all_paper_designs

    designs = {
        exp_id: {"source": program.to_source(), "design": _design_json(array)}
        for exp_id, program, array in all_paper_designs()
    }
    _write("designs.json", designs)


def _time_compiles(entries: list) -> list[float]:
    """Cold compile + render time of each (source, design), in order."""
    from repro import (
        build_target_program,
        compile_systolic,
        parse_program,
        render_paper,
        render_python,
        validate_program,
    )
    from workloads import array_from_json

    times = []
    for source, design in entries:
        array = array_from_json(design)
        t0 = time.perf_counter()
        program = parse_program(source)
        validate_program(program)
        sp = compile_systolic(program, array)
        render_python(sp)
        render_paper(build_target_program(sp))
        times.append(time.perf_counter() - t0)
    return times


def _in_fresh_interpreter(mode: str, payload, timeout=None):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), mode],
        input=json.dumps(payload).encode(),
        capture_output=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout)


def make_pool() -> None:
    from repro import compile_systolic, generate_instance
    from repro.fuzz.corpus import instance_to_json
    from repro.target.pygen import execute_python
    from repro.util.errors import ReproError
    from workloads import array_from_json, mismatches, random_inputs, reference, rng_for

    programs, seed = [], 0
    while len(programs) < POOL_SIZE:
        instance = generate_instance(seed)
        seed += 1
        if instance is None:
            continue
        data = instance_to_json(instance)
        inputs = random_inputs(instance.program, instance.env, rng_for("make_data", data["seed"]))
        try:
            sp = compile_systolic(instance.program, array_from_json(data["design"]))
            got = execute_python(sp, instance.env, inputs)
        except ReproError as exc:
            print(f"skip seed {data['seed']}: {exc}", file=sys.stderr)
            continue
        if mismatches(got, reference(instance.program, instance.env, inputs)):
            print(f"skip seed {data['seed']}: pygen disagrees with the oracle", file=sys.stderr)
            continue
        programs.append({k: data[k] for k in ("seed", "source", "design", "env")})
    entries = [(p["source"], p["design"]) for p in programs]
    forward = _in_fresh_interpreter("--time-compiles", entries)
    backward = _in_fresh_interpreter("--time-compiles", entries[::-1])[::-1]
    for p, a, b in zip(programs, forward, backward):
        p["cost_ms"] = round(500.0 * (a + b), 3)
    programs.sort(key=lambda p: (p["cost_ms"], p["seed"]))
    _write("novel_pool.json", {
        "generator_seeds": f"generate_instance(seed) for seed in 0..{seed - 1}, "
                           "skipping seeds without a clean instance",
        "programs": programs,
    })


def _time_campaign(seed: int) -> dict:
    from repro import fuzz_run

    t0 = time.perf_counter()
    summary = fuzz_run(seed=seed, iterations=CAMPAIGN_ITERATIONS, shrink=False, jobs=1)
    return {"ok": summary.ok, "seconds": time.perf_counter() - t0}


def make_campaigns() -> None:
    measured = {}
    for seed in range(10000, 10000 + CAMPAIGN_CANDIDATES):
        runs = []
        for _ in range(2):
            try:
                runs.append(_in_fresh_interpreter("--time-campaign", seed, CAMPAIGN_TIMEOUT_S))
            except subprocess.TimeoutExpired:
                runs.append({"ok": False, "seconds": None})
            if not runs[-1]["ok"]:
                break
        ok = all(r["ok"] for r in runs)
        measured[seed] = {
            "ok": ok,
            "seconds": round(statistics.mean(r["seconds"] for r in runs), 3) if ok else None,
        }
        print(f"campaign {seed}: {measured[seed]}", file=sys.stderr)
    clean = {s: m["seconds"] for s, m in measured.items() if m["ok"]}
    middle = statistics.median(clean.values())
    kept = sorted(sorted(clean, key=lambda s: abs(clean[s] - middle))[:CAMPAIGNS_KEPT])
    _write("fuzz_campaigns.json", {
        "iterations": CAMPAIGN_ITERATIONS,
        "seeds": kept,
        "candidates": [{"seed": s, **m} for s, m in measured.items()],
    })


def make_golden() -> None:
    shutil.copyfile(ROOT / "benchmarks" / "golden_explore_e2_n4.json",
                    DATA / "golden_explore_e2_n4.json")


def _write(name: str, payload: dict) -> None:
    """One top-level key, or one list element, per line: regenerated data
    then diffs record by record."""
    parts = []
    for key, value in payload.items():
        if isinstance(value, list):
            rows = ",\n  ".join(json.dumps(v) for v in value)
            parts.append(f"{json.dumps(key)}: [\n  {rows}\n ]")
        else:
            parts.append(f"{json.dumps(key)}: {json.dumps(value)}")
    (DATA / name).write_text("{\n " + ",\n ".join(parts) + "\n}\n")
    print(f"wrote {DATA / name}")


STEPS = {"designs": make_designs, "pool": make_pool, "campaigns": make_campaigns,
         "golden": make_golden}


def main() -> int:
    _library()
    if sys.argv[1:2] == ["--time-compiles"]:
        print(json.dumps(_time_compiles(json.load(sys.stdin))))
        return 0
    if sys.argv[1:2] == ["--time-campaign"]:
        print(json.dumps(_time_campaign(json.load(sys.stdin))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", default=",".join(STEPS),
                        help="comma-separated subset of: %(default)s")
    args = parser.parse_args()
    DATA.mkdir(exist_ok=True)
    for step in args.only.split(","):
        STEPS[step]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
