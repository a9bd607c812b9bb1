"""The differential harness and shrinker.

Three claims are load-bearing:

* the harness is *quiet* on honest designs (paper catalogue and generated
  instances alike) -- otherwise every campaign drowns in noise;
* each planted mutation is *caught* -- a detector that cannot see an
  off-by-one drain count is not a detector (``test_kill_matrix.py`` pins
  which checks catch which mutation);
* the shrinker minimizes a caught failure deterministically, down to a
  reproducer that still fails for the same reason, and the corpus
  round-trip replays it.
"""

from __future__ import annotations

import pytest

from repro.fuzz.corpus import (
    load_reproducer,
    reproducer_name,
    write_reproducer,
)
from repro.fuzz.driver import fuzz_run
from repro.fuzz.generator import FuzzInstance, generate_instance
from repro.fuzz.harness import (
    HarnessConfig,
    apply_mutation,
    run_instance,
)
from repro.fuzz.shrink import shrink_instance
from repro.systolic.designs import all_paper_designs
from repro.target.npgen import HAVE_NUMPY
from repro.util.errors import ReproError

ENGINE_CHECKS = {"simulator", "pygen", "cross_check"}

#: the fold's check runs the banded npgen executor
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")


def _skip_if_unschedulable(instance):
    if instance is None:
        pytest.skip("seed outside the schedulable space")
    return instance


class TestHarnessClean:
    @pytest.mark.parametrize(
        "exp_id,program,array",
        [(e, p, a) for e, p, a in all_paper_designs()],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_paper_designs_pass(self, exp_id, program, array):
        syms = set(program.size_symbols)
        for lp in program.loops:
            syms |= lp.lower.free_symbols | lp.upper.free_symbols
        instance = FuzzInstance(
            program=program, array=array, env={s: 3 for s in syms}
        )
        report = run_instance(
            instance,
            HarnessConfig(check_capacity=True, check_partition=True),
        )
        assert report.ok, str(report)
        assert ("partition_npgen" in report.checks_run) == HAVE_NUMPY

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_instances_pass(self, seed):
        instance = _skip_if_unschedulable(generate_instance(seed))
        report = run_instance(instance, HarnessConfig())
        assert report.ok, str(report)
        assert {"compile", "oracle"} | ENGINE_CHECKS <= set(report.checks_run)

    @needs_numpy
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_instances_pass_partitioned(self, seed):
        """The symbolic 2-band fold stays bit-identical on fuzz-generated
        programs through banded npgen."""
        instance = _skip_if_unschedulable(generate_instance(seed))
        report = run_instance(instance, HarnessConfig(check_partition=True))
        assert report.ok, str(report)
        assert "partition_npgen" in report.checks_run

    @needs_numpy
    def test_partition_catches_planted_bug(self):
        """The banded npgen fold catches a planted index-map shear."""
        for seed in range(6):
            instance = generate_instance(seed)
            if instance is None:
                continue
            report = run_instance(
                instance,
                HarnessConfig(mutate="map_shear", check_partition=True),
            )
            if "partition_npgen" in report.failed_checks:
                return
        pytest.skip("no seed produced a partition-visible shear")


class TestMutationsCaught:
    def test_mutation_changes_the_program(self):
        from repro.core.scheme import compile_systolic

        instance = _skip_if_unschedulable(generate_instance(0))
        sp = compile_systolic(instance.program, instance.array)
        mutated = apply_mutation(sp, "drain_plus_one")
        assert mutated is not sp
        assert apply_mutation(sp, None) is sp
        with pytest.raises(ValueError):
            apply_mutation(sp, "no_such_mutation")

    def test_harness_records_instead_of_raising(self):
        instance = _skip_if_unschedulable(generate_instance(0))
        report = run_instance(instance, HarnessConfig(mutate="drain_plus_one"))
        assert not report.ok
        assert report.failures and all(f.message for f in report.failures)


class TestShrinker:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shrinks_to_two_loops_and_replays(self, seed, tmp_path):
        config = HarnessConfig(mutate="drain_plus_one")
        instance = _skip_if_unschedulable(generate_instance(seed))
        original = run_instance(instance, config)
        assert not original.ok

        shrunk, report = shrink_instance(instance, config)
        assert shrunk.program.r <= 2
        assert report.failed_checks & original.failed_checks

        # deterministic: shrinking again yields the identical reproducer
        shrunk2, _ = shrink_instance(instance, config)
        assert shrunk2.program.to_source() == shrunk.program.to_source()
        assert shrunk2.env == shrunk.env

        # corpus round-trip replays the same failure kinds
        path = write_reproducer(shrunk, report, tmp_path, config=config)
        loaded, loaded_config, raw = load_reproducer(path)
        assert raw["expect"] == "fail"
        assert loaded_config.mutate == "drain_plus_one"
        replayed = run_instance(loaded, loaded_config)
        assert replayed.failed_checks & report.failed_checks

    def test_shrinks_planted_map_shear_to_tiny(self):
        # The acceptance bar for index-map shrinking: a planted index-map
        # corruption must come out at <= 2 loops and <= 2 streams.
        config = HarnessConfig(mutate="map_shear")
        instance = _skip_if_unschedulable(generate_instance(0))
        original = run_instance(instance, config)
        assert not original.ok

        shrunk, report = shrink_instance(instance, config)
        assert shrunk.program.r <= 2
        assert len(shrunk.program.streams) <= 2
        assert report.failed_checks & original.failed_checks

    def test_bound_variants_collapse_extrema(self):
        from repro.fuzz.shrink import _bound_variants
        from repro.lang.program import Loop
        from repro.symbolic.affine import Affine
        from repro.symbolic.minmax import extremum

        n, m = Affine.var("n"), Affine.var("m")
        lp = Loop.of(
            "i",
            extremum("max", (Affine.constant(0), n - m)),
            extremum("min", (n, m + 1)),
            -1,
        )
        variants = list(_bound_variants(lp))
        # one step flip + one per upper argument + one per lower argument
        assert len(variants) == 5
        assert any(v.step == 1 for v in variants)
        uppers = {str(v.upper) for v in variants if v.step == lp.step}
        lowers = {str(v.lower) for v in variants if v.step == lp.step}
        assert {"n", "m + 1"} <= uppers
        assert {"0", "-m + n"} <= lowers

    def test_reproducer_filename_is_content_addressed(self):
        data = {"source": "p", "design": {"step": [[1]]}, "env": {"n": 2}}
        assert reproducer_name(data) == reproducer_name(dict(data))
        assert reproducer_name(data) != reproducer_name({**data, "env": {"n": 3}})


class TestDriver:
    def test_small_clean_campaign(self):
        summary = fuzz_run(seed=0, iterations=8, shrink=False)
        assert summary.ok
        assert summary.iterations == 8
        assert summary.generated + summary.skipped == 8
        assert summary.check_counts.get("compile", 0) == summary.generated
        # each sub-phase is timed inside its phase
        phases = summary.phase_seconds
        assert 0 < phases["synthesize"] + phases["trial_compile"] <= phases["generate"]
        assert 0 < phases["build_network"] + phases["execute"] <= phases["check"]

    def test_campaign_catches_and_shrinks(self, tmp_path):
        summary = fuzz_run(
            seed=0,
            iterations=2,
            config=HarnessConfig(mutate="drain_plus_one"),
            corpus_dir=tmp_path,
            max_failures=2,
        )
        assert not summary.ok
        for failure in summary.failures:
            assert failure.reproducer is not None
            loaded, cfg, raw = load_reproducer(failure.reproducer)
            assert loaded.program.r <= 2
            assert not run_instance(loaded, cfg).ok

    def test_sampled_check_failure_replays(self, tmp_path, monkeypatch):
        """A failure only a sampled check sees is shrunk with that check on,
        and its reproducer records the flag, so the replay stays red."""
        from repro.verify import equivalence

        real_execute = equivalence.execute

        def capacity_fault(sp, env, inputs, **kwargs):
            final, stats = real_execute(sp, env, inputs, **kwargs)
            if kwargs.get("channel_capacity") == 3:
                values = next(iter(final.values()))
                element = next(iter(values))
                values[element] += 1
            return final, stats

        monkeypatch.setattr(equivalence, "execute", capacity_fault)
        summary = fuzz_run(seed=0, iterations=5, corpus_dir=tmp_path)
        assert [f.checks for f in summary.failures] == [["capacity"]]
        loaded, cfg, raw = load_reproducer(summary.failures[0].reproducer)
        assert raw["expect"] == "fail"
        assert raw["failure"]["checks"] == ["capacity"]
        assert raw["harness"]["check_capacity"] is True
        assert run_instance(loaded, cfg).failed_checks == {"capacity"}

    def test_jobs_do_not_change_the_campaign(self, tmp_path, monkeypatch):
        """A pooled campaign equals the serial one, the failure cap is exact
        for every ``jobs`` value, and no worker outlives the call."""
        import multiprocessing

        import repro.parallel as par

        monkeypatch.setattr(par.os, "cpu_count", lambda: 2)
        clean, capped = {}, {}
        for jobs in (1, 2):
            summary = fuzz_run(seed=0, iterations=12, shrink=False, jobs=jobs)
            assert summary.jobs == jobs
            clean[jobs] = (
                summary.generated,
                summary.skipped,
                summary.check_counts,
                summary.feature_counts,
            )
            assert not multiprocessing.active_children()
            corpus = tmp_path / f"jobs{jobs}"
            summary = fuzz_run(
                seed=0,
                iterations=30,
                config=HarnessConfig(mutate="drain_plus_one"),
                max_failures=2,
                corpus_dir=corpus,
                jobs=jobs,
            )
            assert summary.stopped_early
            assert len(list(corpus.iterdir())) == 2
            capped[jobs] = [
                (f.iteration, f.instance_seed, f.checks) for f in summary.failures
            ]
            assert not multiprocessing.active_children()
        assert clean[1] == clean[2]
        assert len(capped[1]) == 2
        assert capped[1] == capped[2]

    def test_time_budget_stops_early(self):
        summary = fuzz_run(seed=0, iterations=500, time_budget=0.0, shrink=False)
        assert summary.stopped_early
        assert summary.iterations < 500

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"iterations": 0}, "iterations"),
            ({"iterations": -1}, "iterations"),
            ({"config": HarnessConfig(input_sets=0)}, "input sets"),
        ],
    )
    def test_vacuous_campaign_rejected(self, kwargs, needle):
        with pytest.raises(ReproError, match=needle):
            fuzz_run(seed=0, shrink=False, **kwargs)
