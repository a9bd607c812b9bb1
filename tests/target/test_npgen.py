"""The vectorized NumPy wavefront backend (npgen).

Bit-equality against the sequential oracle and the pygen module for every
paper design, batch-axis equivalence, wavefront-schedule cache behaviour,
value-domain guards, NumPy optionality, and corpus replay with npgen in
the differential engine set.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from repro import compile_systolic, run_sequential
from repro.lang.expr import BinOp, Body, Const, StreamRead
from repro.lang.interpreter import initial_state
from repro.systolic import all_paper_designs
from repro.util.cache import BoundedLRU
from repro.util.errors import (
    BackendUnsupportedError,
    MissingDependencyError,
    ReproError,
)
from repro.verify import random_inputs, verify_design

numpy = pytest.importorskip("numpy")

from repro.analysis import wavefront  # noqa: E402  (needs numpy)
from repro.analysis.wavefront import (  # noqa: E402
    SCHEDULE_CACHE,
    wavefront_schedule,
)
from repro.target.npgen import (  # noqa: E402
    HAVE_NUMPY,
    execute_numpy_batch,
)
from repro.target.pygen import execute_python  # noqa: E402

DESIGNS = {e: (p, a) for e, p, a in all_paper_designs()}


def compiled(exp_id):
    prog, arr = DESIGNS[exp_id]
    return prog, compile_systolic(prog, arr)


def oracle_state(prog, env, inputs):
    return {
        v: {tuple(k): x for k, x in m.items()}
        for v, m in run_sequential(prog, env, inputs).items()
    }


@pytest.fixture(autouse=True)
def _fresh_schedule_cache():
    SCHEDULE_CACHE.clear()
    yield
    SCHEDULE_CACHE.clear()


class TestBitEquality:
    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_all_designs_vs_oracle_and_pygen(self, exp_id, n):
        prog, sp = compiled(exp_id)
        env = {"n": n}
        inputs = random_inputs(prog, env, seed=n)
        want = oracle_state(prog, env, inputs)
        assert execute_numpy_batch(sp, env, [inputs])[0] == want
        assert execute_python(sp, env, inputs) == want

    def test_verify_design_backend_npgen(self):
        prog, arr = DESIGNS["D2"]
        report = verify_design(prog, arr, {"n": 4}, backend="npgen")
        assert report.matched
        assert report.stats is None
        assert "npgen" in str(report)

    def test_exact_fraction_inputs_use_object_dtype(self):
        """Non-integer inputs fall back to exact object arrays."""
        prog, sp = compiled("D1")
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=7)
        inputs["a"] = {
            p: v + Fraction(1, 3) for p, v in inputs["a"].items()
        }
        want = oracle_state(prog, env, inputs)
        got = execute_numpy_batch(sp, env, [inputs])[0]
        assert got == want
        assert any(
            isinstance(v, Fraction)
            for m in got.values()
            for v in m.values()
        )


class TestBatchExecution:
    def test_batch_slices_equal_single_runs(self):
        prog, sp = compiled("E1")
        env = {"n": 3}
        batch = [random_inputs(prog, env, seed=s) for s in range(8)]
        together = execute_numpy_batch(sp, env, batch)
        for inputs, got in zip(batch, together):
            assert got == execute_numpy_batch(sp, env, [inputs])[0]
            assert got == oracle_state(prog, env, inputs)

    def test_empty_batch_rejected(self):
        _, sp = compiled("D1")
        from repro.util.errors import CompilationError

        with pytest.raises(CompilationError):
            execute_numpy_batch(sp, {"n": 2}, [])


class TestScheduleCache:
    def test_hit_on_repeat_miss_on_new_size(self):
        _, sp = compiled("D1")
        wavefront_schedule(sp, {"n": 4})
        stats = SCHEDULE_CACHE.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        wavefront_schedule(sp, {"n": 4})
        assert SCHEDULE_CACHE.stats()["hits"] == 1
        wavefront_schedule(sp, {"n": 5})
        stats = SCHEDULE_CACHE.stats()
        assert stats["misses"] == 2 and stats["size"] == 2

    def test_executions_share_schedule_and_body_plan(self):
        prog, sp = compiled("D2")
        env = {"n": 4}
        inputs = random_inputs(prog, env, seed=0)
        execute_numpy_batch(sp, env, [inputs])[0]
        schedule = wavefront_schedule(sp, env)
        plan = schedule.runtime_cache.get("npgen_body_plan")
        assert plan is not None
        execute_numpy_batch(sp, env, [inputs])[0]
        assert schedule.runtime_cache["npgen_body_plan"] is plan
        assert SCHEDULE_CACHE.stats()["hits"] >= 2

    def test_distinct_designs_distinct_entries(self):
        _, d1 = compiled("D1")
        _, d2 = compiled("D2")
        a = wavefront_schedule(d1, {"n": 3})
        b = wavefront_schedule(d2, {"n": 3})
        assert a.fingerprint != b.fingerprint
        assert SCHEDULE_CACHE.stats()["size"] == 2

    def test_lru_eviction(self, monkeypatch):
        _, sp = compiled("D1")
        cache = BoundedLRU(2)
        monkeypatch.setattr(wavefront, "SCHEDULE_CACHE", cache)
        for n in (2, 3, 4):
            wavefront_schedule(sp, {"n": n})
        stats = cache.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1
        # n=2 was evicted; n=4 still resident
        wavefront_schedule(sp, {"n": 4})
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("bad", [4.5, True, "4"])
    def test_non_integral_size_is_not_keyed_onto_a_neighbour(self, bad):
        """``int()`` in the key once served the n=4 schedule for n=4.5."""
        _, sp = compiled("D1")
        wavefront_schedule(sp, {"n": 4})
        with pytest.raises(ReproError, match="problem size n="):
            wavefront_schedule(sp, {"n": bad})
        assert SCHEDULE_CACHE.stats()["size"] == 1

    def test_integral_non_int_size_shares_the_entry(self):
        _, sp = compiled("D1")
        first = wavefront_schedule(sp, {"n": 4})
        assert wavefront_schedule(sp, {"n": Fraction(4)}) is first


class TestValueDomain:
    def test_fractional_constant_unsupported(self):
        prog, arr = DESIGNS["D1"]
        frac_body = Body.single_assign(
            "c",
            BinOp(
                "+",
                BinOp("+", StreamRead("c"),
                      BinOp("*", StreamRead("a"), StreamRead("b"))),
                Const(Fraction(1, 2)),
            ),
        )
        frac_prog = replace(prog, body=frac_body)
        sp = compile_systolic(frac_prog, arr)
        with pytest.raises(BackendUnsupportedError, match="pygen"):
            execute_numpy_batch(
                sp, {"n": 2}, [random_inputs(frac_prog, {"n": 2})]
            )

    def test_missing_numpy_raises_install_hint(self, monkeypatch):
        _, sp = compiled("D1")
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(MissingDependencyError, match=r"repro\[np\]"):
            execute_numpy_batch(sp, {"n": 2}, [None])

    def test_have_numpy_flag(self):
        assert HAVE_NUMPY is True


class TestBoundary:
    """What npgen loads from ``initial_state`` and hands back."""

    @pytest.mark.parametrize("shift", [40, 70])
    def test_large_inputs_run_exact(self, shift):
        """int64 products once wrapped at 2**40 and overflowed at 2**70."""
        prog, sp = compiled("E1")
        env = {"n": 2}
        inputs = {
            v: {p: x << shift for p, x in m.items()}
            for v, m in random_inputs(prog, env, seed=0).items()
        }
        got = execute_numpy_batch(sp, env, [inputs])[0]
        assert got == oracle_state(prog, env, inputs)
        plan = wavefront_schedule(sp, env).runtime_cache["npgen_body_plan"]
        assert list(plan.int64_fits.values()) == [False]
        # read-only elements come back as the very objects passed in
        for p, x in inputs["a"].items():
            assert got["a"][tuple(p)] is x

    def test_growth_over_steps_runs_exact(self):
        """c := c * 9 + 1 over n + 1 updates reaches 9**25 / 8 at n = 24."""
        prog, arr = DESIGNS["D1"]
        body = Body.single_assign(
            "c",
            BinOp("+", BinOp("*", StreamRead("c"), StreamRead("a")), StreamRead("b")),
        )
        grow = replace(prog, body=body)
        sp = compile_systolic(grow, arr)
        inputs = {"a": 9, "b": 1}
        for n, fits in ((4, True), (24, False)):
            env = {"n": n}
            got = execute_numpy_batch(sp, env, [inputs])[0]
            assert got == oracle_state(grow, env, inputs)
            plan = wavefront_schedule(sp, env).runtime_cache["npgen_body_plan"]
            assert list(plan.int64_fits.values()) == [fits]

    def test_small_inputs_run_int64_with_python_values(self):
        prog, sp = compiled("E1")
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=1)
        got = execute_numpy_batch(sp, env, [inputs])[0]
        assert got == oracle_state(prog, env, inputs)
        plan = wavefront_schedule(sp, env).runtime_cache["npgen_body_plan"]
        assert list(plan.int64_fits.values()) == [True]
        for values in got.values():
            assert {type(k) for k in values} == {tuple}
            assert {type(v) for v in values.values()} == {int}

    def test_object_run_returns_identical_objects(self):
        prog, sp = compiled("D1")
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=2)
        inputs["a"] = {p: Fraction(2 * v + 1, 3) for p, v in inputs["a"].items()}
        got = execute_numpy_batch(sp, env, [inputs])[0]
        for values in got.values():
            assert {type(k) for k in values} == {tuple}
        for p, x in inputs["a"].items():
            assert got["a"][tuple(p)] is x

    def test_shuffled_inputs_load_in_layout_order(self):
        prog, sp = compiled("E2")
        env = {"n": 3}
        inputs = random_inputs(prog, env, seed=3)
        for name, values in inputs.items():
            items = list(values.items())
            random.Random(name).shuffle(items)
            inputs[name] = dict(items)
        got = execute_numpy_batch(sp, env, [inputs])[0]
        assert got == oracle_state(prog, env, inputs)
        keys = wavefront_schedule(sp, env).runtime_cache["npgen_keys"]
        state = initial_state(prog, env, inputs)
        for name, values in state.items():
            assert list(values) == list(keys[name])
            assert list(got[name]) == list(keys[name])


def assert_bit_identical(got, want):
    """Same elements, values and value types: ``1 == Fraction(1)`` and
    ``1 == 1.0`` would hide a value that changed representation."""
    assert got == want
    for name, values in want.items():
        assert [type(v) for v in got[name].values()] == [
            type(v) for v in values.values()
        ], name


GUARDED_POLYPROD = """
program guarded
size n
var a[0..n], b[0..n], c[0..2*n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    c[i+j] := c[i+j] + a[i] * b[j]
    if i - j >= 1 -> c[i+j] := c[i+j] * 2
    if j == 0 -> c[i+j] := c[i+j] - i
"""


class TestWaveKernel:
    """One ``take`` per wave over the ``(elements, B)`` buffer."""

    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_batch_sizes_match_oracle(self, exp_id, batch):
        prog, sp = compiled(exp_id)
        env = {"n": 3}
        sets = [
            random_inputs(prog, env, seed=k, zero_for_written=False)
            for k in range(batch)
        ]
        got = execute_numpy_batch(sp, env, sets)
        assert len(got) == batch
        for inputs, state in zip(sets, got):
            assert_bit_identical(state, oracle_state(prog, env, inputs))

    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    def test_object_dtype_large_integers(self, exp_id):
        prog, sp = compiled(exp_id)
        env = {"n": 2}
        sets = [
            {
                v: {p: x * 10**30 + k for p, x in m.items()}
                for v, m in random_inputs(
                    prog, env, seed=k, zero_for_written=False
                ).items()
            }
            for k in range(2)
        ]
        got = execute_numpy_batch(sp, env, sets)
        plan = wavefront_schedule(sp, env).runtime_cache["npgen_body_plan"]
        assert list(plan.int64_fits.values()) == [False]
        for inputs, state in zip(sets, got):
            assert_bit_identical(state, oracle_state(prog, env, inputs))

    @pytest.mark.parametrize("n", [2, 5])
    def test_masked_branches(self, n):
        from repro import parse_program

        prog = parse_program(GUARDED_POLYPROD)
        sp = compile_systolic(prog, DESIGNS["D1"][1])
        env = {"n": n}
        sets = [random_inputs(prog, env, seed=k) for k in range(3)]
        for inputs, state in zip(sets, execute_numpy_batch(sp, env, sets)):
            assert_bit_identical(state, oracle_state(prog, env, inputs))
        plan = wavefront_schedule(sp, env).runtime_cache["npgen_body_plan"]
        assert any(m is not None and not m.all() for ms in plan.step_masks for m in ms)

    def test_fuzz_bodies_writing_two_streams(self):
        from repro.fuzz.generator import generate_instance

        checked = 0
        for seed in range(6):
            inst = generate_instance(seed, feature="multi_branch")
            if inst is None:
                continue
            assert len(inst.program.body.streams_written()) == 2
            sp = compile_systolic(inst.program, inst.array)
            sets = [
                random_inputs(inst.program, inst.env, seed=k, zero_for_written=False)
                for k in range(2)
            ]
            got = execute_numpy_batch(sp, inst.env, sets)
            for inputs, state in zip(sets, got):
                assert_bit_identical(state, oracle_state(inst.program, inst.env, inputs))
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize(
        "exp_id, shape", [("D1", (2,)), ("D2", (2,)), ("E1", (2, 2)), ("E2", (2, 2))]
    )
    def test_banded_shapes(self, exp_id, shape):
        prog, sp = compiled(exp_id)
        env = {"n": 4}
        sets = [
            random_inputs(prog, env, seed=k, zero_for_written=False) for k in range(2)
        ]
        banded = execute_numpy_batch(sp, env, sets, shape=shape)
        for inputs, state in zip(sets, banded):
            assert_bit_identical(state, oracle_state(prog, env, inputs))
        schedule = wavefront_schedule(sp, env)
        waves = [v for k, v in schedule.runtime_cache.items() if k[0] == "npgen_band_cols"]
        assert len(waves) == 1 and len(waves[0]) > schedule.n_steps

    @pytest.mark.parametrize("shape", [(2,), (3,)])
    def test_banded_masked_branches(self, shape):
        """Guards and index values are cut with the same columns as the rows."""
        from repro import parse_program

        prog = parse_program(GUARDED_POLYPROD)
        sp = compile_systolic(prog, DESIGNS["D1"][1])
        env = {"n": 5}
        sets = [random_inputs(prog, env, seed=k) for k in range(2)]
        banded = execute_numpy_batch(sp, env, sets, shape=shape)
        for inputs, state in zip(sets, banded):
            assert_bit_identical(state, oracle_state(prog, env, inputs))

    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    def test_index_rows_are_one_array_without_copies(self, exp_id):
        """The rows replace per-stream index arrays: streams x points x 8
        bytes, all views of one array."""
        prog, sp = compiled(exp_id)
        schedule = wavefront_schedule(sp, {"n": 5})
        n_streams = len(schedule.streams)
        assert schedule.streams == tuple(sorted(s.name for s in prog.streams))
        assert sum(step.rows.nbytes for step in schedule.steps) == (
            n_streams * schedule.total_points * 8
        )
        (base,) = {id(step.rows.base) for step in schedule.steps}
        assert schedule.steps[0].rows.base.nbytes == (
            n_streams * schedule.total_points * 8
        )
        for step in schedule.steps:
            assert step.rows.dtype == numpy.int64
            assert step.rows.shape == (n_streams * step.width,)

    def test_index_rows_address_each_variables_block(self):
        prog, sp = compiled("E2")
        schedule = wavefront_schedule(sp, {"n": 3})
        bases = [layout.base for layout in schedule.layouts.values()]
        sizes = [layout.size for layout in schedule.layouts.values()]
        assert bases == [sum(sizes[:i]) for i in range(len(sizes))]
        assert schedule.elements == sum(sizes)
        for step in schedule.steps:
            w = step.width
            for k, name in enumerate(schedule.streams):
                layout = schedule.layouts[name]
                part = step.rows[k * w : (k + 1) * w]
                assert part.min() >= layout.base
                assert part.max() < layout.base + layout.size


class TestCorpusReplayWithNpgen:
    CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"

    def test_corpus_replays_clean_with_npgen_engine(self):
        from repro.fuzz.corpus import corpus_files, load_reproducer
        from repro.fuzz.harness import run_instance

        replayed = 0
        for path in corpus_files(self.CORPUS):
            instance, config, raw = load_reproducer(path)
            if raw.get("expect") != "pass":
                continue
            report = run_instance(instance, replace(config, check_npgen=True))
            assert "npgen" in report.checks_run, path.name
            assert report.ok, f"{path.name} with npgen: {report}"
            replayed += 1
        assert replayed > 0, "no expect-pass corpus pins found"
