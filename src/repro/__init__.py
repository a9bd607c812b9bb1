"""repro -- a reproduction of Barnett & Lengauer's systolizing compilation
scheme (ECS-LFCS-91-134 / ICPP 1991).

The library compiles nested-loop source programs plus linear systolic-array
specifications (``step``/``place``) into abstract distributed-memory
programs, renders them in three target notations, and executes them on a
deterministic asynchronous simulator, verifying against a sequential
oracle.

Quickstart::

    from repro import (
        parse_program, SystolicArray, compile_systolic, verify_design,
    )
    from repro.geometry import Matrix, Point

    program = parse_program('''
        size n
        var a[0..n], b[0..n], c[0..2*n]
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n
            c[i+j] := c[i+j] + a[i] * b[j]
    ''')
    array = SystolicArray(
        step=Matrix([[2, 1]]), place=Matrix([[1, 0]]),
        loading_vectors={"a": Point.of(1)},
    )
    systolic = compile_systolic(program, array)
    print(systolic.summary())
    report = verify_design(program, array, {"n": 8}, compiled=systolic)
    assert report.matched
"""

from repro.compilation import Compilation
from repro.core.program import StreamPlan, SystolicProgram
from repro.core.scheme import compile_systolic
from repro.fuzz import FuzzInstance, FuzzSummary, fuzz_run, generate_instance
from repro.lang.interpreter import run_sequential
from repro.lang.parser import parse_affine, parse_program
from repro.lang.program import Loop, SourceProgram
from repro.lang.validate import validate_program
from repro.parallel import SweepResult, SweepTimings, sweep_designs
from repro.runtime.network import build_network, execute
from repro.systolic.designs import (
    all_paper_designs,
    matmul_design_e1,
    matmul_design_e2,
    matrix_product_program,
    polynomial_product_program,
    polyprod_design_d1,
    polyprod_design_d2,
)
from repro.systolic.explore import DesignCost, explore_designs
from repro.systolic.schedule import synthesize_array, synthesize_places, synthesize_step
from repro.systolic.spec import SystolicArray
from repro.target.build import build_target_program
from repro.target.cgen import render_c
from repro.target.occam import render_occam
from repro.target.pretty import render_paper
from repro.target.pygen import render_python
from repro.verify.equivalence import random_inputs, verify_design
from repro.verify.theorems import check_all_theorems

__version__ = "1.0.0"

__all__ = [
    "Compilation",
    "StreamPlan",
    "SystolicProgram",
    "compile_systolic",
    "FuzzInstance",
    "FuzzSummary",
    "fuzz_run",
    "generate_instance",
    "run_sequential",
    "parse_affine",
    "parse_program",
    "Loop",
    "SourceProgram",
    "validate_program",
    "build_network",
    "execute",
    "SweepResult",
    "SweepTimings",
    "sweep_designs",
    "DesignCost",
    "explore_designs",
    "all_paper_designs",
    "matmul_design_e1",
    "matmul_design_e2",
    "matrix_product_program",
    "polynomial_product_program",
    "polyprod_design_d1",
    "polyprod_design_d2",
    "synthesize_array",
    "synthesize_places",
    "synthesize_step",
    "SystolicArray",
    "build_target_program",
    "render_c",
    "render_occam",
    "render_paper",
    "render_python",
    "random_inputs",
    "verify_design",
    "check_all_theorems",
    "__version__",
]
