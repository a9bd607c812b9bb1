"""Tests for the parallel/batched design-space sweep layer."""

import pickle

import pytest

from repro.geometry import Matrix
from repro.parallel import (
    SweepTimings,
    resolve_jobs,
    sweep_designs,
)
from repro.symbolic.affine import Affine
from repro.symbolic.guard import Constraint, Guard
from repro.symbolic.piecewise import Case, Piecewise
from repro.systolic import explore_designs
from repro.systolic.designs import polynomial_product_program
from repro.systolic.schedule import candidate_tasks
from repro.util.errors import InvalidArgumentError

POLY_STEP = Matrix([[2, 1]])


class TestPicklableSubstrate:
    """multiprocessing ships designs to workers and costs back: every
    immutable core class must round-trip through pickle."""

    def test_matrix(self):
        m = Matrix([[1, 2, -3], [0, 1, 7]])
        assert pickle.loads(pickle.dumps(m)) == m

    def test_affine(self):
        a = Affine({"n": 2, "m": -1}, 5)
        assert pickle.loads(pickle.dumps(a)) == a

    def test_guard_and_constraint(self):
        c = Constraint.ge(Affine.var("n"), 3)
        g = Guard([c])
        assert pickle.loads(pickle.dumps(c)) == c
        assert pickle.loads(pickle.dumps(g)) == g

    def test_piecewise(self):
        pw = Piecewise.with_null_default(
            [Case(Guard([Constraint.ge(Affine.var("n"), 0)]), Affine.var("n"))]
        )
        back = pickle.loads(pickle.dumps(pw))
        assert back.cases == pw.cases
        assert back.has_default and back.default is None

    def test_program_and_tasks(self):
        prog = polynomial_product_program()
        back = pickle.loads(pickle.dumps(prog))
        assert back.name == prog.name
        tasks = candidate_tasks(prog, POLY_STEP, bound=1)
        assert pickle.loads(pickle.dumps(tasks)) == tasks
        assert all(isinstance(rows, tuple) for rows in tasks)


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_negative_is_a_named_error(self):
        with pytest.raises(InvalidArgumentError, match="got -2"):
            resolve_jobs(-2)


class TestSweepDesigns:
    def test_single_size_matches_explore(self):
        prog = polynomial_product_program()
        serial = explore_designs(prog, POLY_STEP, {"n": 3}, bound=1)
        result = sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1)
        assert result.costs_at({"n": 3}) == serial

    def test_multi_size_shares_compilation(self, monkeypatch):
        import repro.systolic.explore as explore

        calls = []
        real = explore.compile_candidate

        def counting(program, step, place):
            calls.append(place.rows)
            return real(program, step, place)

        monkeypatch.setattr(explore, "compile_candidate", counting)
        prog = polynomial_product_program()
        sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1)
        one_size = len(calls)
        calls.clear()
        result = sweep_designs(prog, POLY_STEP, [{"n": 3}, {"n": 5}], bound=1)
        # each candidate is compiled once, however many sizes it is costed at
        assert one_size > 0 and len(calls) == one_size
        assert len(result.by_size) == 2
        per_size = {tuple(env.items()): costs for env, costs in result.by_size}
        assert per_size[(("n", 3),)] != per_size[(("n", 5),)]
        # each size ranked independently but over the same design set
        assert len(per_size[(("n", 3),)]) == len(per_size[(("n", 5),)])
        # and each equals its own serial exploration
        for n in (3, 5):
            assert result.costs_at({"n": n}) == explore_designs(
                prog, POLY_STEP, {"n": n}, bound=1
            )

    def test_timings_populated(self):
        prog = polynomial_product_program()
        result = sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1)
        t = result.timings
        assert isinstance(t, SweepTimings)
        assert t.total_s >= t.cost_s >= 0
        assert t.synthesis_s >= 0
        assert t.candidates >= t.compiled > 0
        assert t.jobs == 1
        assert set(t.row()) == {
            "synthesis_s",
            "cost_s",
            "total_s",
            "jobs",
            "candidates",
            "compiled",
        }

    def test_limit(self):
        prog = polynomial_product_program()
        result = sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1, limit=2)
        assert len(result.costs_at({"n": 3})) == 2

    def test_costs_at_unknown_size(self):
        prog = polynomial_product_program()
        result = sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1)
        with pytest.raises(KeyError):
            result.costs_at({"n": 99})

    def test_empty_envs_rejected(self):
        prog = polynomial_product_program()
        with pytest.raises(ValueError):
            sweep_designs(prog, POLY_STEP, [], bound=1)


class TestParallelMatchesSerial:
    """`--jobs N` must produce the same ranked table as serial, any N.

    These run with a real pool: ``os.cpu_count`` is patched to 2 so the
    1-CPU serial fallback cannot kick in on a single-core machine.
    """

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par.os, "cpu_count", lambda: 2)

    def test_polyprod_jobs2(self):
        prog = polynomial_product_program()
        serial = explore_designs(prog, POLY_STEP, {"n": 3}, bound=1)
        parallel = sweep_designs(
            prog, POLY_STEP, [{"n": 3}], bound=1, jobs=2
        ).costs_at({"n": 3})
        assert parallel == serial

    def test_explore_designs_jobs_kwarg(self):
        prog = polynomial_product_program()
        serial = explore_designs(prog, POLY_STEP, {"n": 3}, bound=1)
        assert explore_designs(prog, POLY_STEP, {"n": 3}, bound=1, jobs=2) == serial

    def test_parallel_sweep_multi_size(self):
        prog = polynomial_product_program()
        serial = sweep_designs(prog, POLY_STEP, [{"n": 2}, {"n": 4}], bound=1)
        parallel = sweep_designs(
            prog, POLY_STEP, [{"n": 2}, {"n": 4}], bound=1, jobs=2
        )
        assert parallel.by_size == serial.by_size
        assert parallel.timings.jobs == 2


class TestSerialFallback:
    """Degenerate parallelism must not pay pool overhead silently."""

    def test_single_cpu_falls_back_with_warning(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par.os, "cpu_count", lambda: 1)
        prog = polynomial_product_program()
        with pytest.warns(RuntimeWarning, match="only 1 CPU"):
            result = sweep_designs(prog, POLY_STEP, [{"n": 3}], bound=1, jobs=2)
        assert result.timings.jobs == 1
        assert result.costs_at({"n": 3}) == explore_designs(
            prog, POLY_STEP, {"n": 3}, bound=1
        )

    def test_jobs_clamped_to_candidate_count(self, monkeypatch):
        import repro.parallel as par

        monkeypatch.setattr(par.os, "cpu_count", lambda: 64)
        prog = polynomial_product_program()
        tasks = candidate_tasks(prog, POLY_STEP, bound=1)
        result = sweep_designs(
            prog, POLY_STEP, [{"n": 3}], bound=1, jobs=len(tasks) + 50
        )
        assert result.timings.jobs <= len(tasks)
