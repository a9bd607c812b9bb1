"""Tests for the wavefront visualisation and topology validation."""

from dataclasses import replace

import pytest

from repro import compile_systolic, run_sequential
from repro.analysis.wavefront import (
    activity_histogram,
    render_wavefront_film,
    render_wavefront_grid,
    synchronous_wavefronts,
)
from repro.geometry import Point
from repro.runtime import build_network
from repro.runtime.network import (
    PLAN_CACHE,
    NetworkPlan,
    _plan_key,
    execute,
    network_plan,
)
from repro.runtime.trace import Trace, trace_run
from repro.systolic import all_paper_designs
from repro.util.errors import ReproError, RuntimeSimulationError
from repro.verify import random_inputs

ALL = all_paper_designs()


class TestSynchronousWavefronts:
    def test_d1_wavefront_sizes(self):
        """step = 2i+j over [0,n]^2: front sizes ramp up and down."""
        exp, prog, arr = ALL[0]
        sp = compile_systolic(prog, arr)
        fronts = synchronous_wavefronts(sp, {"n": 2})
        assert set(fronts) == set(range(0, 7))  # steps 0..3n
        assert len(fronts[0]) == 1
        assert all(len(v) >= 1 for v in fronts.values())
        total = sum(len(v) for v in fronts.values())
        assert total == 9  # |IS| = (n+1)^2

    def test_e2_hexagon_wavefront(self):
        exp, prog, arr = ALL[3]
        sp = compile_systolic(prog, arr)
        fronts = synchronous_wavefronts(sp, {"n": 2})
        assert sum(len(v) for v in fronts.values()) == 27

    def test_each_front_is_antichain_in_place(self):
        """Two ops in one front never share a place (Eq. 1)."""
        exp, prog, arr = ALL[3]
        sp = compile_systolic(prog, arr)
        for front in synchronous_wavefronts(sp, {"n": 3}).values():
            assert len(front) == len(set(front))


class TestRenderGrid:
    def test_1d_grid(self):
        exp, prog, arr = ALL[0]
        sp = compile_systolic(prog, arr)
        art = render_wavefront_grid(sp, {"n": 4}, step=0)
        assert art.count("#") == 1
        assert len(art) == 5  # n+1 cells, single row

    def test_2d_grid_marks_buffers_blank(self):
        exp, prog, arr = ALL[3]  # E2: corners outside CS
        sp = compile_systolic(prog, arr)
        art = render_wavefront_grid(sp, {"n": 2}, step=0)
        lines = art.splitlines()
        assert len(lines) == 5  # 2n+1 rows
        assert any(" " in line for line in lines)  # blank corners
        assert sum(line.count("#") for line in lines) >= 1

    def test_film(self):
        exp, prog, arr = ALL[2]
        sp = compile_systolic(prog, arr)
        film = render_wavefront_film(sp, {"n": 2}, max_frames=3)
        assert film.count("step ") == 3

    def test_film_always_shows_the_final_wavefront(self):
        """Regression: stride sampling used to drop the last step whenever
        ``len(steps)`` was not a multiple of the stride."""
        exp, prog, arr = ALL[0]
        sp = compile_systolic(prog, arr)
        for n in (3, 4, 5):
            fronts = synchronous_wavefronts(sp, {"n": n})
            last = max(fronts)
            for max_frames in (2, 3, 4, 5):
                film = render_wavefront_film(sp, {"n": n}, max_frames=max_frames)
                assert f"step {last}:" in film
                assert film.count("step ") <= max(max_frames, 1)

    def test_3d_rejected(self):
        # build a 4-loop program? use coords length check via fake coords
        exp, prog, arr = ALL[2]
        sp = compile_systolic(prog, arr)
        # monkey trick: ask for an unsupported dimensionality explicitly
        with pytest.raises(ReproError):
            render_wavefront_grid(
                replace(sp, coords=("a", "b", "c")),
                {"n": 1},
                0,
            )


class TestActivityHistogram:
    def test_histogram_from_run(self):
        exp, prog, arr = ALL[0]
        sp = compile_systolic(prog, arr)
        net = build_network(sp, {"n": 3}, random_inputs(prog, {"n": 3}))
        _, trace = trace_run(net)
        hist = activity_histogram(trace, bins=5)
        assert hist.count("t=") == 5
        assert "#" in hist

    def test_empty_trace(self):
        assert "(no events)" in activity_histogram(Trace())


class TestValidateTopology:
    def test_all_designs_validate(self):
        for exp, prog, arr in ALL:
            NetworkPlan(compile_systolic(prog, arr), {"n": 2}).validate()

    def test_corrupted_totals_detected(self):
        """A fresh plan, not the cached one: the corruption stays here."""
        exp, prog, arr = ALL[0]
        plan = NetworkPlan(compile_systolic(prog, arr), {"n": 2})
        key = next(iter(plan.chain_totals))
        plan.chain_totals[key] += 1
        with pytest.raises(RuntimeSimulationError, match="conservation violated"):
            plan.validate()

    def test_corrupted_network_leaves_the_cached_plan_clean(self):
        """A network's tables once were the cached plan's own dicts, so
        writing into one failed the next execution of D1 n=2.  A network
        now reads its plan's tables through read-only views."""
        exp, prog, arr = ALL[0]
        sp = compile_systolic(prog, arr)
        env = {"n": 2}
        PLAN_CACHE.discard(_plan_key(sp, env))  # a plan not yet validated
        inputs = random_inputs(prog, env)
        net = build_network(sp, env, inputs)
        with pytest.raises(TypeError):
            net.node_counts["compute"] += 1
        count, per_stream = next(iter(net.plan.amounts.values()))
        with pytest.raises(TypeError):  # the processes read these per run
            per_stream["a"] = (count, count)
        final, _ = execute(sp, env, inputs)
        assert final == run_sequential(prog, env, inputs)
        plan = network_plan(sp, env)
        assert plan is net.plan
        assert plan.node_counts["compute"] == len(plan.amounts) == 3
