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

from repro.util.lazy import lazy_exports

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

#: public names by defining module; each module is imported on first access,
#: so ``import repro`` loads neither NumPy nor the fuzz stack
__getattr__ = lazy_exports(
    __name__,
    {
        "repro.compilation": ("Compilation",),
        "repro.core.program": ("StreamPlan", "SystolicProgram"),
        "repro.core.scheme": ("compile_systolic",),
        "repro.fuzz.driver": ("FuzzSummary", "fuzz_run"),
        "repro.fuzz.generator": ("FuzzInstance", "generate_instance"),
        "repro.lang.interpreter": ("run_sequential",),
        "repro.lang.parser": ("parse_affine", "parse_program"),
        "repro.lang.program": ("Loop", "SourceProgram"),
        "repro.lang.validate": ("validate_program",),
        "repro.parallel": ("SweepResult", "SweepTimings", "sweep_designs"),
        "repro.runtime.network": ("build_network", "execute"),
        "repro.systolic.designs": (
            "all_paper_designs",
            "matmul_design_e1",
            "matmul_design_e2",
            "matrix_product_program",
            "polynomial_product_program",
            "polyprod_design_d1",
            "polyprod_design_d2",
        ),
        "repro.systolic.explore": ("DesignCost", "explore_designs"),
        "repro.systolic.schedule": (
            "synthesize_array",
            "synthesize_places",
            "synthesize_step",
        ),
        "repro.systolic.spec": ("SystolicArray",),
        "repro.target.build": ("build_target_program",),
        "repro.target.cgen": ("render_c",),
        "repro.target.occam": ("render_occam",),
        "repro.target.pretty": ("render_paper",),
        "repro.target.pygen": ("render_python",),
        "repro.verify.equivalence": ("random_inputs", "verify_design"),
        "repro.verify.theorems": ("check_all_theorems",),
    },
)
