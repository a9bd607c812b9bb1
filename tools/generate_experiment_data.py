"""Regenerate the EXPERIMENTS.md data tables (paper-vs-measured).

:func:`experiment_tables` returns the rows of each table, with exactly the
columns EXPERIMENTS.md shows; ``tests/test_docs.py`` compares them with the
document's fenced blocks, so a stale number fails the test suite.  Makespans
are virtual time, so every number is deterministic.

Run:  PYTHONPATH=src python tools/generate_experiment_data.py
"""

from repro import compile_systolic, execute, run_sequential
from repro.analysis import format_table, parallelism_profile
from repro.extensions import partitioned_execute
from repro.systolic import all_paper_designs
from repro.verify import check_all_theorems, random_inputs

#: the X2 columns EXPERIMENTS.md shows (the profile also has ``efficiency``)
PROFILE_COLUMNS = (
    "exp",
    "n",
    "seq_ops",
    "sync_makespan",
    "observed_makespan",
    "processes",
    "messages",
    "speedup",
)


def experiment_tables() -> dict[str, list[dict]]:
    """Title -> rows of each table; raises if a run disagrees with the oracle."""
    designs = all_paper_designs()
    theorems, profile = [], []
    for exp, prog, arr in designs:
        proved = check_all_theorems(prog, arr, {"n": 3})
        theorems.append({"exp": exp, "theorems_verified": ",".join(map(str, proved))})
        sp = compile_systolic(prog, arr)
        for n in (2, 4, 8) if exp.startswith("D") else (2, 3, 4):
            inputs = random_inputs(prog, {"n": n}, seed=1)
            final, stats = execute(sp, {"n": n}, inputs)
            if final != run_sequential(prog, {"n": n}, inputs):
                raise AssertionError(f"{exp} n={n} disagrees with the oracle")
            row = {"exp": exp, **parallelism_profile(sp, {"n": n}, stats).row()}
            profile.append({c: row[c] for c in PROFILE_COLUMNS})
    _exp, prog, arr = designs[2]
    sp = compile_systolic(prog, arr)
    inputs = random_inputs(prog, {"n": 4}, seed=1)
    partition = []
    for w in (1, 2, 4, 8, 16, 64):
        _final, stats = partitioned_execute(sp, {"n": 4}, inputs, shape=(w,))
        partition.append({"workers": w, "makespan": stats.makespan})
    return {
        "theorems": theorems,
        "per-design execution profile": profile,
        "E1 n=4 folded onto shape (w,)": partition,
    }


if __name__ == "__main__":
    for title, rows in experiment_tables().items():
        print(format_table(rows, title=f"## {title}"))
        print()
