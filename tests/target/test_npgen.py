"""The vectorized NumPy wavefront backend (npgen).

Bit-equality against the sequential oracle and the pygen module for every
paper design, batch-axis equivalence, wavefront-schedule cache behaviour,
value-domain guards, NumPy optionality, and corpus replay with npgen in
the differential engine set.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from repro import compile_systolic, run_sequential
from repro.lang.expr import BinOp, Body, Const, StreamRead
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
