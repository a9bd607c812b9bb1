#!/usr/bin/env python3
"""Benchmark the compiled Python backend against the coroutine simulator.

Writes ``BENCH_pygen.json`` at the repository root: for every paper design
and size, the simulator's build+run time, the generated program's cold
(render + compile + run) and warm (run only) times, the speedup, and an
oracle-equality verdict.  When NumPy is installed each row also carries
``npgen_warm_s`` (the vectorized wavefront backend, schedule already
cached), so the comparison table reads simulator / pygen warm / npgen warm
side by side; the key is simply absent on NumPy-less installs, and all
pre-existing keys keep their meaning for downstream consumers.  A
``sim_scaling`` section records simulator build+run times over a size
sweep for tracking hot-path regressions.

Usage:
    PYTHONPATH=src python tools/bench_pygen.py [--check] [-o OUT.json]

``--check`` exits non-zero unless every size >= 4 shows the generated
program beating the simulator (the acceptance bar for the fast path).
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:  # for `benchmarks.conftest` from any cwd
    sys.path.insert(0, str(_ROOT))

from benchmarks.conftest import inputs_for
from repro import compile_systolic, run_sequential
from repro.runtime import execute
from repro.systolic import all_paper_designs
from repro.target import execute_python, render_python
from repro.target.npgen import HAVE_NUMPY, execute_numpy
from repro.target.pygen import MODULE_CACHE, module_key

SIZES = (2, 3, 4, 5, 6)
SCALING_SIZES = (2, 4, 6, 8)
REPEATS = 3


def _best(fn, *args, repeats=REPEATS):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail unless pygen beats the simulator at n >= 4")
    parser.add_argument("-o", "--output",
                        default=str(pathlib.Path(__file__).resolve().parent.parent
                                    / "BENCH_pygen.json"))
    args = parser.parse_args(argv)

    rows = []
    for exp_id, prog, arr in all_paper_designs():
        sp = compile_systolic(prog, arr)
        for n in SIZES:
            env = {"n": n}
            inputs = inputs_for(exp_id, n)
            oracle = run_sequential(prog, env, inputs)
            want = {v: {tuple(k): x for k, x in m.items()}
                    for v, m in oracle.items()}

            sim_s, (sim_final, _stats) = _best(execute, sp, env, inputs)
            sim_ok = {v: {tuple(k): x for k, x in m.items()}
                      for v, m in sim_final.items()} == want

            MODULE_CACHE.discard(module_key(render_python(sp)))  # force a cold run
            cold_s, cold_final = _best(execute_python, sp, env, inputs,
                                       repeats=1)
            warm_s, warm_final = _best(execute_python, sp, env, inputs)
            pygen_ok = cold_final == want and warm_final == want

            row = {
                "design": exp_id, "n": n,
                "simulator_s": round(sim_s, 6),
                "pygen_cold_s": round(cold_s, 6),
                "pygen_warm_s": round(warm_s, 6),
                "speedup_warm": round(sim_s / warm_s, 2),
                "oracle_match": bool(sim_ok and pygen_ok),
            }
            np_cell = "      n/a"
            if HAVE_NUMPY:
                execute_numpy(sp, env, inputs)  # warm the schedule cache
                npgen_s, npgen_final = _best(execute_numpy, sp, env, inputs)
                row["npgen_warm_s"] = round(npgen_s, 6)
                row["oracle_match"] = bool(
                    row["oracle_match"] and npgen_final == want
                )
                np_cell = f"{npgen_s:.4f}s"
            rows.append(row)
            print(f"{exp_id} n={n}: sim {sim_s:.4f}s  "
                  f"pygen {warm_s:.4f}s (cold {cold_s:.4f}s)  "
                  f"npgen {np_cell}  "
                  f"{sim_s / warm_s:5.1f}x  "
                  f"{'ok' if rows[-1]['oracle_match'] else 'MISMATCH'}")

    print("\nbackend comparison (warm, seconds):")
    header = f"{'design':>6} {'n':>3} {'simulator':>10} {'pygen':>10} {'npgen':>10}"
    print(header)
    for r in rows:
        npgen = f"{r['npgen_warm_s']:.6f}" if "npgen_warm_s" in r else "n/a"
        print(f"{r['design']:>6} {r['n']:>3} {r['simulator_s']:>10.6f} "
              f"{r['pygen_warm_s']:>10.6f} {npgen:>10}")

    scaling = []
    for exp_id in ("D1", "E2"):
        prog, arr = next((p, a) for e, p, a in all_paper_designs()
                         if e == exp_id)
        sp = compile_systolic(prog, arr)
        for n in SCALING_SIZES:
            sim_s, _ = _best(execute, sp, {"n": n}, inputs_for(exp_id, n))
            scaling.append({"design": exp_id, "n": n,
                            "simulator_s": round(sim_s, 6)})

    report = {
        "units": "seconds (best of %d)" % REPEATS,
        "comparison": rows,
        "sim_scaling": scaling,
    }
    out = pathlib.Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    if not all(r["oracle_match"] for r in rows):
        print("FAIL: oracle mismatch", file=sys.stderr)
        return 1
    if args.check:
        slow = [r for r in rows if r["n"] >= 4 and r["speedup_warm"] <= 1.0]
        if slow:
            print(f"FAIL: pygen not faster at {slow}", file=sys.stderr)
            return 1
        print("check passed: pygen beats the simulator at every n >= 4")
    return 0


if __name__ == "__main__":
    sys.exit(main())
