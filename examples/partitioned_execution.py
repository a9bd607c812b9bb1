#!/usr/bin/env python3
"""Folding a systolic program onto a machine with few processors.

The abstract programs spawn one process per process-space point; real 1991
machines had 4 transputers or 24 Symult nodes (paper, Section 8).  This
example folds the Kung-Leiserson matrix-product array onto fixed physical
arrays -- 1-d shapes ``(p,)`` (bands of the leading place coordinate) and
2-d shapes ``(p, q)`` (tiles) -- and reports the folded makespans: results
are bit-identical at every shape, only time changes.

It then folds the one compiled design onto a fixed 2x2 array at several
problem sizes: each size is folded once, and the fold cache's counters
show every later lookup of that size is a hit.

Run:  python examples/partitioned_execution.py
"""

from repro import compile_systolic, matrix_product_program, run_sequential
from repro.analysis import format_table
from repro.extensions import partitioned_execute, partitioned_schedule
from repro.extensions.partition import PARTITION_CACHE
from repro.systolic import matmul_design_e2
from repro.verify import random_inputs

SHAPES = ((1,), (2,), (4,), (8,), (16,), (2, 2), (4, 4), (16, 16))


def main() -> None:
    program = matrix_product_program()
    design = matmul_design_e2()
    systolic = compile_systolic(program, design)

    n = 4
    inputs = random_inputs(program, {"n": n}, seed=42)
    oracle = run_sequential(program, {"n": n}, inputs)

    rows = []
    for shape in SHAPES:
        schedule = partitioned_schedule(systolic, {"n": n}, shape)
        final, stats = partitioned_execute(systolic, {"n": n}, inputs, shape)
        assert final == oracle, "the fold must never change results"
        rows.append(
            {
                "shape": "x".join(map(str, shape)),
                "workers": schedule.workers,
                "makespan": stats.makespan,
                "processes": stats.process_count,
            }
        )

    print(format_table(rows, title=f"Kung-Leiserson n={n} on fixed arrays"))
    print()
    print("All runs verified against the sequential oracle.  The makespan")
    print("falls as the array grows; a shape wider than the process space")
    print("clamps to one band (or tile) per cell column, which the workers")
    print("column shows.")

    # -- one compiled design, one fixed array, many problem sizes ---------
    shape = (2, 2)
    print()
    print(f"One compiled design on a fixed {shape[0]}x{shape[1]} array:")
    PARTITION_CACHE.clear()
    for size in (3, 4, 5):
        sized_inputs = random_inputs(program, {"n": size}, seed=7)
        sized_oracle = run_sequential(program, {"n": size}, sized_inputs)
        schedule = partitioned_schedule(systolic, {"n": size}, shape)
        final, stats = partitioned_execute(
            systolic, {"n": size}, sized_inputs, shape
        )
        assert final == sized_oracle, "the banded fold must not change results"
        print(f"  n={size}: makespan {stats.makespan}, "
              f"soak {schedule.soak}, drain {schedule.drain}")
    print(f"  fold cache: {PARTITION_CACHE.stats()} --")
    print("  one miss per new size; the run at that size reuses the fold.")


if __name__ == "__main__":
    main()
