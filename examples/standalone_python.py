#!/usr/bin/env python3
"""Generate a standalone Python systolic program and run it.

The paper validated its scheme by hand-translating the abstract programs
to occam and C; this library also performs a *mechanical* translation to a
runnable language: a self-contained Python module in which every process
is a generator communicating over channels that hold one value each (the
paper's target model).  ``run`` drives them cooperatively: a process that
receives from an empty channel, or sends to a full one, parks until its
neighbour moves.  The emitted file needs nothing but the standard library
-- you can ship it.

Run:  python examples/standalone_python.py
(the generated module is written next to this script as
 generated_matmul_systolic.py and then imported and executed)
"""

import pathlib
import runpy

import numpy as np

from repro import compile_systolic, matrix_product_program, render_python
from repro.systolic import matmul_design_e2


def main() -> None:
    program = matrix_product_program()
    systolic = compile_systolic(program, matmul_design_e2())
    source = render_python(systolic)

    out_path = pathlib.Path(__file__).with_name("generated_matmul_systolic.py")
    out_path.write_text(source)
    print(f"wrote {out_path.name}: {len(source.splitlines())} lines, "
          "standard library only")

    module = runpy.run_path(str(out_path))

    n = 3
    rng = np.random.default_rng(0)
    a = rng.integers(-5, 6, size=(n + 1, n + 1))
    b = rng.integers(-5, 6, size=(n + 1, n + 1))
    inputs = {
        "a": {(i, k): int(a[i, k]) for i in range(n + 1) for k in range(n + 1)},
        "b": {(k, j): int(b[k, j]) for k in range(n + 1) for j in range(n + 1)},
        "c": {(i, j): 0 for i in range(n + 1) for j in range(n + 1)},
    }
    final = module["run"]({"n": n}, inputs)

    got = np.array(
        [[final["c"][(i, j)] for j in range(n + 1)] for i in range(n + 1)]
    )
    assert (got == a @ b).all()
    print(f"generated program multiplied two {n+1}x{n+1} matrices; "
          "agrees with numpy")
    print(got)


if __name__ == "__main__":
    main()
