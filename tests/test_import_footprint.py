"""What each entry point imports, measured in fresh interpreters.

A process pays for every module it loads, so ``import repro`` and the
compile path load neither NumPy nor the fuzz stack, the compile service
or the worker pool.  The other half of the rule: an entry point imports up
front every layer its timed work uses, so a first call imports nothing.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.target.npgen import HAVE_NUMPY

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: loaded only by the entry points that run them
HEAVY = (
    "numpy",
    "repro.target.npgen",
    "repro.fuzz",
    "repro.service",
    "repro.parallel",
)
#: a first call may import none of these
WATCHED = ("repro", "numpy", "multiprocessing")

COMPILE_PATH = (
    "from repro import parse_program, validate_program, compile_systolic, "
    "render_python, render_paper, build_target_program, execute"
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it binds ``result`` (JSON).

    ``modules(prefixes)`` lists the loaded modules under ``prefixes``.
    """
    prelude = textwrap.dedent(
        """
        import json, sys

        def modules(prefixes):
            return sorted(
                m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in prefixes)
            )

        """
    )
    epilogue = "\nprint(json.dumps(result))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *sys.path]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code) + epilogue],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def first_call(setup: str, call: str) -> list[str]:
    """Modules under :data:`WATCHED` that ``call`` imports after ``setup``."""
    return fresh(
        textwrap.dedent(setup)
        + f"\nbefore = set(modules({WATCHED!r}))\n"
        + call
        + f"\nresult = sorted(set(modules({WATCHED!r})) - before)\n"
    )


class TestLightEntryPoints:
    def test_import_repro_loads_no_heavy_layer(self):
        assert fresh(f"import repro\nresult = modules({HEAVY!r})") == []

    def test_the_compile_and_simulate_path_loads_no_heavy_layer(self):
        assert fresh(f"{COMPILE_PATH}\nresult = modules({HEAVY!r})") == []

    def test_a_cli_compile_loads_no_heavy_layer(self):
        code = f"""
        from repro.cli import main
        main(["compile", "examples/specs/polyprod.src", "examples/specs/d1.json"])
        result = modules({HEAVY!r})
        """
        assert fresh(code) == []

    def test_the_cli_parser_needs_no_fuzz_stack(self):
        code = f"""
        from repro.cli import build_parser
        build_parser()
        result = modules({HEAVY!r})
        """
        assert fresh(code) == []


class TestHeavyEntryPoints:
    @needs_numpy
    def test_fuzz_run_loads_numpy(self):
        code = "from repro import fuzz_run\nresult = modules(['numpy'])"
        assert "numpy" in fresh(code)

    @needs_numpy
    def test_execute_numpy_batch_loads_numpy(self):
        code = "from repro.target import execute_numpy_batch\n"
        assert "numpy" in fresh(code + "result = modules(['numpy'])")

    def test_the_daemon_lists_every_section_before_its_first_request(self):
        code = """
        from repro import profiling
        from repro.service import CompileService, ServiceConfig
        CompileService(ServiceConfig(port=0))
        result = sorted(profiling.snapshot()["counters"])
        """
        assert fresh(code) == [
            "derivation_memo",
            "design_store",
            "fm_feasible",
            "linalg_inverse",
            "linalg_null",
            "linalg_rank",
            "network_plans",
            "parsed_programs",
            "partition_schedules",
            "place_searches",
            "pygen_modules",
            "stream_flows",
            "symbolic",
            "wavefront_schedules",
        ]


class TestFirstCallImportsNothing:
    DESIGN = textwrap.dedent(
        """
        from repro import (
            compile_systolic, polynomial_product_program, polyprod_design_d1,
            random_inputs,
        )
        program = polynomial_product_program()
        sp = compile_systolic(program, polyprod_design_d1())
        inputs = random_inputs(program, {"n": 3})
        """
    )

    def test_fuzz_run(self):
        new = first_call(
            "from repro import fuzz_run",
            "fuzz_run(seed=0, iterations=2, shrink=False, jobs=1)",
        )
        assert new == []

    def test_sweep_designs(self):
        setup = """
        from repro import sweep_designs
        from repro import polynomial_product_program, polyprod_design_d1
        program = polynomial_product_program()
        step = polyprod_design_d1().step
        """
        new = first_call(
            setup, "sweep_designs(program, step, [{'n': 3}], bound=1, jobs=1)"
        )
        assert new == []

    def test_execute(self):
        new = first_call(
            "from repro import execute" + self.DESIGN,
            "execute(sp, {'n': 3}, inputs)",
        )
        assert new == []

    @needs_numpy
    def test_execute_numpy_batch(self):
        new = first_call(
            "from repro.target import execute_numpy_batch" + self.DESIGN,
            "execute_numpy_batch(sp, {'n': 3}, [inputs], shape=(2,))",
        )
        assert new == []

    @needs_numpy
    def test_compilation_run_loads_npgen_before_its_timer(self):
        code = """
        import repro.compilation as compilation
        from repro import polynomial_product_program, polyprod_design_d1

        loaded = []
        engine = compilation.run_backend

        def spy(*args, **kwargs):
            loaded.append("numpy" in sys.modules)
            return engine(*args, **kwargs)

        compilation.run_backend = spy
        handle = compilation.Compilation.compile(
            polynomial_product_program(), polyprod_design_d1()
        )
        assert "numpy" not in sys.modules
        handle.run({"n": 3}, backend="npgen")
        result = loaded
        """
        assert fresh(code) == [True]


class TestPublicNames:
    ALL = [
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

    def test_all_is_unchanged(self):
        assert repro.__all__ == self.ALL

    @pytest.mark.parametrize(
        "package",
        [repro, *map(importlib.import_module, ("repro.target", "repro.fuzz"))],
        ids=lambda p: p.__name__,
    )
    def test_each_name_is_its_defining_modules_object(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            home = getattr(value, "__module__", None)  # functions and classes
            if home is not None:
                assert getattr(sys.modules[home], name) is value, name

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.no_such_name  # noqa: B018
        from repro import profiling  # a submodule still imports

        assert profiling.__name__ == "repro.profiling"
