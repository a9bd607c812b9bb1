"""End-to-end correctness of the executable Python backend.

``execute_python`` must be bit-for-bit equal to the sequential oracle and
to the coroutine simulator on every paper design -- the generated module
is a compiled fast path, not an approximation.
"""

import threading

import pytest

from repro import compile_systolic, run_sequential
from repro.fuzz.generator import generate_instance
from repro.fuzz.harness import apply_mutation
from repro.runtime import execute
from repro.systolic import all_paper_designs
from repro.systolic.designs import polynomial_product_program, polyprod_design_d1
from repro.target import execute_python, pygen
from repro.util.errors import DeadlockError
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


    def test_one_space_evaluation_per_variable(self, design, monkeypatch):
        """Each variable's space is worked out once per run, by the input
        check, not again for the generated module's tuple keys."""
        from repro.lang.variables import IndexedVariable

        exp, prog, sp = design
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=5)
        source = pygen.render_python(sp)
        real = IndexedVariable.space
        calls = []

        def space(self, env):
            calls.append(self.name)
            return real(self, env)

        monkeypatch.setattr(IndexedVariable, "space", space)
        pygen.run_rendered(source, sp, env, inputs)
        assert sorted(calls) == sorted(v.name for v in prog.variables)

class TestAgainstSimulator:
    def test_matches_runtime_execute(self, design):
        exp, prog, sp = design
        inputs = random_inputs(prog, {"n": 3}, seed=11)
        final, _stats = execute(sp, {"n": 3}, inputs)
        assert execute_python(sp, {"n": 3}, inputs) == _tupled(final)


class TestCapacityOne:
    """The generated engine runs the paper's capacity-1 channels."""

    def test_resume_order_does_not_matter(self, design):
        """Kahn determinism: starting the processes in reverse order parks
        them on different channels first, yet gives the same contents."""
        exp, prog, sp = design
        inputs = random_inputs(prog, {"n": 2}, seed=5)
        module = pygen._exec_module(pygen.render_python(sp))
        build = module["_build"]

        def reversed_build(*args):
            procs, final = build(*args)
            return procs[::-1], final

        module["_build"] = reversed_build
        got = module["run"]({"n": 2}, _tupled(inputs))
        assert got == execute_python(sp, {"n": 2}, inputs)

    @pytest.mark.parametrize("seed", [10002030019, 10018030067])
    def test_round_robin_soak_and_drain(self, seed):
        """Fuzz instances on which soaking and draining one moving stream at
        a time deadlocks capacity-1 channels."""
        instance = generate_instance(seed)
        prog, env = instance.program, instance.env
        sp = compile_systolic(prog, instance.array)
        inputs = random_inputs(prog, env, seed=0)
        oracle = _tupled(run_sequential(prog, env, inputs))
        assert execute_python(sp, env, inputs) == oracle


class TestDeadlock:
    """A planted deadlock fails by name, at once."""

    @pytest.fixture(scope="class")
    def d1(self):
        return compile_systolic(polynomial_product_program(), polyprod_design_d1())

    @pytest.fixture(scope="class")
    def stuck(self, d1):
        return apply_mutation(d1, "soak_plus_one")

    def test_threaded_deadlock_is_detected_at_once(self, stuck):
        """The name dates from the thread-per-process engine. A planted
        deadlock still ends the run within seconds, naming the same ten
        processes, and the run starts and leaves behind no threads."""
        box = {}

        def run():
            try:
                execute_python(stuck, {"n": 3})
            except Exception as exc:
                box["error"] = exc

        before = threading.active_count()
        watchdog = threading.Thread(target=run, daemon=True)
        watchdog.start()
        watchdog.join(5.0)
        assert not watchdog.is_alive(), "still running after 5 s"
        err = box.get("error")
        assert isinstance(err, DeadlockError)
        assert "10 process(es) blocked" in str(err)
        assert "IN:c(0,), OUT:c(3,), P(0,)" in str(err)
        assert threading.active_count() == before

    def test_cooperative_deadlock_is_named(self, stuck):
        """Capacity-1 channels block the feeder too: the ten processes the
        former one-thread-per-process engine named, not nine."""
        with pytest.raises(DeadlockError, match="10 process") as err:
            execute_python(stuck, {"n": 3})
        assert "IN:c(0,), OUT:c(3,), P(0,)" in str(err.value)

    def test_process_error_is_raised(self, d1, monkeypatch):
        """A process that raises ends the run with its own error."""
        source = pygen.render_python(d1).replace(
            "def _body(values, env):",
            "def _body(values, env):\n    raise KeyError('planted')",
            1,
        )
        monkeypatch.setattr(pygen, "render_python", lambda _sp: source)
        with pytest.raises(KeyError, match="planted"):
            execute_python(d1, {"n": 3})
