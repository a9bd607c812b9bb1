"""End-to-end correctness of the executable Python backend.

``execute_python`` must be bit-for-bit equal to the sequential oracle and
to the coroutine simulator on every paper design -- the generated module
is a compiled fast path, not an approximation.
"""

import pytest

from repro import compile_systolic, run_sequential
from repro.runtime import execute
from repro.fuzz.generator import generate_instance
from repro.systolic import all_paper_designs
from repro.target import execute_python
from repro.verify import random_inputs

ALL = list(all_paper_designs())
IDS = [exp for exp, _, _ in ALL]


def _tupled(state):
    return {var: {tuple(k): v for k, v in m.items()} for var, m in state.items()}


@pytest.fixture(scope="module", params=range(len(ALL)), ids=IDS)
def design(request):
    exp, prog, arr = ALL[request.param]
    return exp, prog, compile_systolic(prog, arr)


class TestAgainstOracle:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_matches_run_sequential(self, design, size):
        exp, prog, sp = design
        inputs = random_inputs(prog, {"n": size}, seed=size * 17 + 3)
        oracle = run_sequential(prog, {"n": size}, inputs)
        assert execute_python(sp, {"n": size}, inputs) == _tupled(oracle)

    def test_default_inputs(self, design):
        """inputs=None means the interpreter's defaults, as everywhere."""
        exp, prog, sp = design
        got = execute_python(sp, {"n": 2})
        oracle = run_sequential(prog, {"n": 2})
        assert got == _tupled(oracle)


class TestAgainstSimulator:
    def test_matches_runtime_execute(self, design):
        exp, prog, sp = design
        inputs = random_inputs(prog, {"n": 3}, seed=11)
        final, _stats = execute(sp, {"n": 3}, inputs)
        assert execute_python(sp, {"n": 3}, inputs) == _tupled(final)


class TestThreadedEngine:
    def test_engines_agree(self, design):
        """Kahn determinism: threads + bounded queues give the same result."""
        exp, prog, sp = design
        inputs = random_inputs(prog, {"n": 2}, seed=5)
        fast = execute_python(sp, {"n": 2}, inputs)
        threaded = execute_python(sp, {"n": 2}, inputs, threaded=True)
        assert fast == threaded

    @pytest.mark.parametrize("seed", [10002030019, 10018030067])
    def test_round_robin_soak_and_drain(self, seed):
        """Fuzz instances on which soaking and draining one moving stream at
        a time deadlocked the threaded engine's bounded queues."""
        instance = generate_instance(seed)
        prog, env = instance.program, instance.env
        sp = compile_systolic(prog, instance.array)
        inputs = random_inputs(prog, env, seed=0)
        oracle = _tupled(run_sequential(prog, env, inputs))
        assert execute_python(sp, env, inputs, threaded=True) == oracle
