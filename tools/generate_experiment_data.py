"""Regenerate the EXPERIMENTS.md data tables (paper-vs-measured)."""
from repro import compile_systolic, execute, run_sequential
from repro.analysis import parallelism_profile, format_table
from repro.systolic import all_paper_designs
from repro.verify import random_inputs, check_all_theorems
from repro.extensions import partitioned_execute

rows = []
for exp, prog, arr in all_paper_designs():
    sp = compile_systolic(prog, arr)
    sizes = (2, 4, 8) if exp.startswith("D") else (2, 3, 4)
    for n in sizes:
        inputs = random_inputs(prog, {"n": n}, seed=1)
        final, stats = execute(sp, {"n": n}, inputs)
        ok = final == run_sequential(prog, {"n": n}, inputs)
        p = parallelism_profile(sp, {"n": n}, stats)
        rows.append({"exp": exp, **p.row(), "oracle": "OK" if ok else "FAIL"})
print(format_table(rows, title="## per-design execution profile"))
print()
t = []
for exp, prog, arr in all_paper_designs():
    nums = check_all_theorems(prog, arr, {"n": 3})
    t.append({"exp": exp, "theorems_verified": ",".join(map(str, nums))})
print(format_table(t, title="## theorems"))
print()
part = []
exp, prog, arr = all_paper_designs()[2]
sp = compile_systolic(prog, arr)
inputs = random_inputs(prog, {"n": 4}, seed=1)
for w in (1, 2, 4, 8, 16, 64):
    final, stats = partitioned_execute(sp, {"n": 4}, inputs, shape=(w,))
    part.append({"workers": w, "makespan": stats.makespan})
print(format_table(part, title="## E1 n=4 folded onto shape (w,)"))
