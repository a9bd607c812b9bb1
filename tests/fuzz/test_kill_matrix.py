"""The kill matrix: every planted fault x every harness check.

Rows are the five :data:`~repro.fuzz.harness.MUTATIONS` plus five faults:
three in the cache layers the derived program passes through, one in the
simulator's channels that only a capacity above 1 can reach and one in
the band splitter of the 2-band fold.  The faults are functions local to
this file that monkeypatch one component, not mutations: ``repro fuzz
--mutate`` offers no way to plant them.  Columns are every check
``run_instance`` can run.

The pinned counts decide which checks stay.  An engine check that is its
engine's only check stays for that reason.  Any other check must be the
only catcher of some planted fault; a check that catches nothing another
check does not catch is deleted, as the memo on/off A/B, the repeated
execution, the on-disk render-cache, the pool-vs-serial sweep and the
folded-simulator checks were (the thread-per-process pygen check went
with its engine once pygen itself ran capacity-1 channels; a fold changes
placement and timing, never values, so the folded simulator caught
exactly what the simulator caught).  Known blind spot: skipping the
re-interning on unpickle changes identity and speed, never values, so no
check can see it and it is not planted.

:class:`TestChannelDiscipline` plants a fault in the generated module's
own runner; it fires on two corpus pins and on no matrix seed.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import pytest

from repro.analysis import wavefront
from repro.core.memo import MEMO, DerivationMemo
from repro.extensions import partition
from repro.fuzz.corpus import load_reproducer
from repro.fuzz.generator import generate_instance
from repro.fuzz.harness import MUTATIONS, HarnessConfig, run_instance
from repro.runtime import network
from repro.runtime.channel import Channel
from repro.symbolic.affine import Affine
from repro.target import pygen

pytest.importorskip("numpy")  # the npgen and partition_npgen columns

#: generator seeds of the matrix: seed 8 is the one map_shear cannot
#: perturb, seed 15 the one only cross_check sees count_plus_one on
SEEDS = range(8, 16)

#: corpus pins of fuzz instances on which soaking and draining one moving
#: stream at a time deadlocks capacity-1 channels (no matrix seed does)
ROUND_ROBIN_PINS = ("seed_1e31eacfe4c2", "seed_7551259922cb")
CORPUS = Path(__file__).resolve().parent.parent / "fuzz_corpus"

#: every check run with all sampled extras on
COLUMNS = (
    "compile",
    "oracle",
    "simulator",
    "pygen",
    "cross_check",
    "npgen",
    "pickle_reintern",
    "capacity",
    "partition_npgen",
)

#: checks that are their engine's only check
ENGINE_CHECKS = {"simulator", "pygen", "npgen"}

CONFIG = dict(
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


class _NewestFirst(deque):
    """A channel queue whose receive takes the newest queued message."""

    popleft = deque.pop


def newest_first(mp):
    """Every simulator receive takes the newest of the queued messages:
    invisible while a channel holds at most one."""
    real = Channel.__init__

    def init(self, name, capacity=1):
        real(self, name, capacity)
        self.queue = _NewestFirst()

    mp.setattr(Channel, "__init__", init)


def band_edges_short(mp):
    """The band splitter's last edge is one short, so no band owns the
    last leading column."""
    real = partition.band_edges

    def short(lo, hi, bands):
        *edges, last = real(lo, hi, bands)
        return (*edges, last - 1)

    mp.setattr(partition, "band_edges", short)


FAULTS = {
    f.__name__: f
    for f in (
        memo_collision,
        module_collision,
        pickle_corrupt,
        newest_first,
        band_edges_short,
    )
}
ROWS = ("honest", *sorted(MUTATIONS), *FAULTS)

#: row -> {column: instances caught}; columns not listed catch nothing
EXPECTED = {
    "honest": {},
    "count_plus_one": {
        "simulator": 7,
        "pygen": 7,
        "cross_check": 8,
        "capacity": 7,
    },
    "drain_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "capacity": 8,
    },
    "map_shear": {
        "simulator": 7,
        "pygen": 7,
        "npgen": 7,
        "capacity": 7,
        "partition_npgen": 7,
    },
    "pass_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "capacity": 8,
    },
    "soak_plus_one": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "capacity": 8,
    },
    "memo_collision": {
        "simulator": 8,
        "pygen": 8,
        "cross_check": 8,
        "capacity": 8,
    },
    # the first module cached is the right one for its own instance
    "module_collision": {"pygen": 7},
    "pickle_corrupt": {"pickle_reintern": 8},
    # a channel holds two messages only above capacity 1
    "newest_first": {"capacity": 7},
    "band_edges_short": {"partition_npgen": 6},
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


def one_stream_at_a_time(mp):
    """The generated compute processes soak and drain each moving stream
    in full before the next one, instead of round-robin."""
    head, rest = pygen._RUNNER.split("def _round_robin(", 1)
    tail = rest[rest.index("\n\n\ndef _compute(") :]
    serial = (
        "def _round_robin(moving_io, counts):\n"
        "    return [(cin, cout) for (_n, cin, cout), c in zip(moving_io, counts)"
        " for _ in range(c)]"
    )
    mp.setattr(pygen, "_RUNNER", head + serial + tail)
    mp.setattr(pygen, "_RUNNER_CODE", None)


class TestChannelDiscipline:
    """The generated code's own channel discipline: only pygen runs it."""

    @pytest.mark.parametrize("pin", ROUND_ROBIN_PINS)
    def test_pygen_catches_one_stream_at_a_time(self, pin):
        instance, config, _raw = load_reproducer(CORPUS / f"{pin}.json")
        assert run_instance(instance, config).ok
        _clear_caches()
        try:
            with pytest.MonkeyPatch.context() as mp:
                one_stream_at_a_time(mp)
                report = run_instance(instance, config)
        finally:
            _clear_caches()
        assert report.failed_checks == {"pygen"}
        assert "deadlocked" in str(report)
