"""The kill matrix: every planted fault x every harness check.

Rows are the five :data:`~repro.fuzz.harness.MUTATIONS` plus three faults
in the cache layers the derived program passes through.  The faults are
functions local to this file that monkeypatch one cache, not mutations: ``repro fuzz --mutate``
offers no way to plant them.  Columns are every check ``run_instance`` can
run except ``pool_sweep``, whose process pool is out of this budget.

The pinned counts decide which checks stay.  An engine check (one engine
each) stays because it is its engine's only check.  Any other check must
be the only catcher of some planted fault; a check that catches nothing
another check does not catch is deleted, as the memo on/off A/B, the
repeated execution and the on-disk render-cache checks were.  Known blind spot:
skipping the re-interning on unpickle changes identity and speed, never
values, so no check can see it and it is not planted.
"""

from __future__ import annotations

import pytest

from repro.analysis import wavefront
from repro.core.memo import MEMO, DerivationMemo
from repro.extensions import partition
from repro.fuzz.generator import generate_instance
from repro.fuzz.harness import MUTATIONS, HarnessConfig, run_instance
from repro.runtime import network
from repro.symbolic.affine import Affine
from repro.target import pygen

pytest.importorskip("numpy")  # the npgen and partition_npgen columns

#: generator seeds of the matrix: seed 8 is the one map_shear cannot
#: perturb, seed 15 the one only cross_check sees count_plus_one on
SEEDS = range(8, 16)

#: every check run with all sampled extras on, pool_sweep aside
COLUMNS = (
    "compile",
    "oracle",
    "simulator",
    "pygen",
    "cross_check",
    "npgen",
    "pickle_reintern",
    "threaded",
    "capacity",
    "partition",
    "partition_npgen",
)

ENGINE_CHECKS = {
    "simulator",
    "pygen",
    "npgen",
    "threaded",
    "capacity",
    "partition",
    "partition_npgen",
}

CONFIG = dict(
    check_threaded=True,
    check_npgen=True,
    check_capacity=True,
    check_partition=True,
)


def _clear_caches() -> None:
    """Every process-wide cache a harness run reads, so each row starts
    cold and leaves nothing of its fault behind."""
    MEMO.clear()
    pygen.MODULE_CACHE.clear()
    network.PLAN_CACHE.clear()
    wavefront.SCHEDULE_CACHE.clear()
    partition.PARTITION_CACHE.clear()


def memo_collision(mp):
    """The derivation memo keys soak, drain, pass amount and i/o endpoints
    by their first key component alone: the program fingerprint (the
    ``first_s`` form for ``pass_amount``, whose key carries none).  Streams
    of one program, and first/last endpoints, then share entries."""
    real = DerivationMemo.get

    def get(self, table, key, compute):
        if table in ("soak", "drain", "pass_amount", "io_endpoint"):
            key = key[:1]
        return real(self, table, key, compute)

    mp.setattr(DerivationMemo, "get", get)


def module_collision(mp):
    """Every generated source maps to one module-cache entry."""
    mp.setattr(pygen, "module_key", lambda source: "collision")


def pickle_corrupt(mp):
    """Unpickling adds one to the constant of every non-constant affine."""

    def reduce(self):
        const = self.const + 1 if self.coeffs else self.const
        return (Affine, (self.coeffs, const))

    mp.setattr(Affine, "__reduce__", reduce)


FAULTS = {f.__name__: f for f in (memo_collision, module_collision, pickle_corrupt)}
ROWS = ("honest", *sorted(MUTATIONS), *FAULTS)

#: row -> {column: instances caught}; columns not listed catch nothing
EXPECTED = {
    "honest": {},
    "count_plus_one": {
        "simulator": 7,
        "pygen": 7,
        "cross_check": 8,
        "threaded": 7,
        "capacity": 7,
    },
    "drain_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "threaded": 8,
        "capacity": 8,
        "partition": 8,
    },
    "map_shear": {
        "simulator": 7,
        "pygen": 7,
        "npgen": 7,
        "threaded": 7,
        "capacity": 7,
        "partition": 7,
        "partition_npgen": 7,
    },
    "pass_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "threaded": 8,
        "capacity": 8,
        "partition": 8,
    },
    "soak_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "threaded": 8,
        "capacity": 8,
        "partition": 8,
    },
    "memo_collision": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "threaded": 8,
        "capacity": 8,
        "partition": 8,
    },
    # the first module cached is the right one for its own instance
    "module_collision": {"pygen": 7, "threaded": 7},
    "pickle_corrupt": {"pickle_reintern": 8},
}


@pytest.fixture(scope="module")
def matrix():
    """row -> list of (checks run, checks failed), one pair per seed."""
    instances = [generate_instance(seed) for seed in SEEDS]
    assert all(instances), "a matrix seed fell outside the schedulable space"
    out = {}
    for row in ROWS:
        config = HarnessConfig(mutate=row if row in MUTATIONS else None, **CONFIG)
        _clear_caches()
        try:
            with pytest.MonkeyPatch.context() as mp:
                if row in FAULTS:
                    FAULTS[row](mp)
                reports = [run_instance(inst, config) for inst in instances]
        finally:
            _clear_caches()
        out[row] = [(set(r.checks_run), r.failed_checks) for r in reports]
    return out


def _counts(results) -> dict:
    counts: dict = {}
    for _run, failed in results:
        for check in failed:
            counts[check] = counts.get(check, 0) + 1
    return counts


class TestKillMatrix:
    def test_every_column_runs(self, matrix):
        for row, results in matrix.items():
            for run, _failed in results:
                assert run == set(COLUMNS), row

    def test_honest_row_is_clean(self, matrix):
        assert _counts(matrix["honest"]) == {}

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS) + sorted(FAULTS))
    def test_planted_bug_is_caught(self, matrix, mutation):
        assert _counts(matrix[mutation]) == EXPECTED[mutation]

    def test_every_other_check_is_a_sole_catcher(self, matrix):
        """A check that is not its engine's only check must be the only
        check to fail on some (row, seed) cell, or it earns nothing."""
        sole = {
            next(iter(failed))
            for results in matrix.values()
            for _run, failed in results
            if len(failed) == 1
        }
        for check in set(COLUMNS) - ENGINE_CHECKS - {"compile", "oracle"}:
            assert check in sole, f"{check} catches nothing on its own"
