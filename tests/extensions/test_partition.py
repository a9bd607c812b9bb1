"""The LSGP fold: per-band wavefront activity, the banded NumPy executor,
and folds through ``verify_design`` and ``Compilation.run`` on fuzz-generated
programs.

The fold itself is pure Python; only the npgen cases need NumPy.
"""

import pytest

from repro import compile_systolic
from repro.analysis.wavefront import synchronous_wavefronts
from repro.extensions import TileBand, partitioned_schedule
from repro.systolic import all_paper_designs
from repro.target.npgen import HAVE_NUMPY
from repro.util.errors import SystolicSpecError

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs NumPy")

DESIGNS = {e: (p, a) for e, p, a in all_paper_designs()}


def compiled(exp_id):
    prog, arr = DESIGNS[exp_id]
    return compile_systolic(prog, arr)


def bands_of(exp_id, n, bands):
    sp = compiled(exp_id)
    return partitioned_schedule(sp, {"n": n}, (bands,)).bands


class TestWavefrontTileBands:
    """``partitioned_schedule(...).bands`` against the wavefronts."""

    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    @pytest.mark.parametrize("bands", [1, 2, 3])
    def test_bands_tile_the_schedule(self, exp_id, bands):
        """Bands are contiguous, disjoint, and account for every statement."""
        sp = compiled(exp_id)
        env = {"n": 4}
        tiles = partitioned_schedule(sp, env, (bands,)).bands
        assert 1 <= len(tiles) <= bands
        # contiguous and disjoint along the leading coordinate
        for a, b in zip(tiles, tiles[1:]):
            assert b.lo == a.hi + 1
        fronts = list(synchronous_wavefronts(sp, env).values())
        for t in tiles:
            # per step, a band's work is the cells of its leading interval
            assert t.work == tuple(
                sum(1 for cell in cells if t.lo <= cell[0] <= t.hi)
                for cells in fronts
            )
            # masks agree with counts
            assert all((w > 0) == a for w, a in zip(t.work, t.active_steps))
        # per step, band works sum to the wavefront width
        for s, cells in enumerate(fronts):
            assert sum(t.work[s] for t in tiles) == len(cells)
        # all statements accounted for exactly once
        assert sum(t.total_work for t in tiles) == sum(map(len, fronts))

    def test_single_band_is_the_whole_schedule(self):
        (tile,) = bands_of("D1", 4, 1)
        fronts = synchronous_wavefronts(compiled("D1"), {"n": 4})
        assert tile.work == tuple(len(cells) for cells in fronts.values())
        assert all(tile.active_steps)
        assert tile.busy_steps == len(fronts)

    def test_band_wavefront_sweeps_through(self):
        """On D1 the wavefront enters low bands before it leaves high ones."""
        tiles = bands_of("D1", 6, 3)
        firsts = [t.active_steps.index(True) for t in tiles]
        assert firsts == sorted(firsts)

    def test_more_bands_than_cells_clamps(self):
        tiles = bands_of("D1", 2, 100)
        spans = [t.hi - t.lo for t in tiles]
        assert all(s == 0 for s in spans)  # one cell column per band

    def test_str_and_errors(self):
        tiles = bands_of("D1", 3, 2)
        assert isinstance(tiles[0], TileBand)
        assert "band 0" in str(tiles[0])
        with pytest.raises(SystolicSpecError):
            partitioned_schedule(compiled("D1"), {"n": 3}, (0,))

    @needs_numpy
    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    @pytest.mark.parametrize("bands", [2, 3])
    def test_bands_agree_with_partitioned_schedule(self, exp_id, bands):
        """The NumPy wavefront schedule, cut at the symbolic
        specialization's edges, gives the identical per-step band work."""
        from repro.analysis.wavefront import wavefront_schedule

        sp = compiled(exp_id)
        env = {"n": 4}
        schedule = partitioned_schedule(sp, env, (bands,))
        lead = [step.cells[0] for step in wavefront_schedule(sp, env).steps]
        for b in schedule.bands:
            assert b.work == tuple(
                int(((c >= b.lo) & (c <= b.hi)).sum()) for c in lead
            )


@needs_numpy
class TestBandedNpgen:
    @pytest.mark.parametrize("exp_id", sorted(DESIGNS))
    @pytest.mark.parametrize("n", [2, 4])
    def test_banded_bit_identical_to_unbounded(self, exp_id, n):
        from repro.target.npgen import execute_numpy_batch
        from repro.verify import random_inputs

        prog, arr = DESIGNS[exp_id]
        sp = compiled(exp_id)
        batch = [random_inputs(prog, {"n": n}, seed=s) for s in range(3)]
        want = execute_numpy_batch(sp, {"n": n}, batch)
        shapes = [(2,), (3,)]
        if len(sp.coords) >= 2:
            shapes.append((2, 2))
        for shape in shapes:
            got = execute_numpy_batch(sp, {"n": n}, batch, shape=shape)
            assert got == want, shape

    def test_banded_matches_oracle(self):
        from repro import run_sequential
        from repro.target.npgen import execute_numpy_batch
        from repro.verify import random_inputs

        prog, arr = DESIGNS["E2"]
        sp = compiled("E2")
        inputs = random_inputs(prog, {"n": 3}, seed=5)
        oracle = run_sequential(prog, {"n": 3}, inputs)
        got = execute_numpy_batch(sp, {"n": 3}, [inputs], shape=(2, 2))[0]
        for var, expected in oracle.items():
            for element, value in expected.items():
                assert got[var][tuple(element)] == value

    def test_band_cols_cached_per_shape(self):
        from repro.analysis.wavefront import wavefront_schedule
        from repro.target.npgen import execute_numpy_batch
        from repro.verify import random_inputs

        prog, arr = DESIGNS["D1"]
        sp = compiled("D1")
        inputs = random_inputs(prog, {"n": 3}, seed=0)
        execute_numpy_batch(sp, {"n": 3}, [inputs], shape=(2,))
        schedule = wavefront_schedule(sp, {"n": 3})
        keys = [k for k in schedule.runtime_cache if isinstance(k, tuple)
                and k and k[0] == "npgen_band_cols"]
        assert keys  # banded slicing survives for the next run
        execute_numpy_batch(sp, {"n": 3}, [inputs], shape=(3,))
        keys = [k for k in schedule.runtime_cache if isinstance(k, tuple)
                and k and k[0] == "npgen_band_cols"]
        assert len(keys) == 2  # one slicing per band-edge vector

    def test_empty_batch_rejected(self):
        from repro.target.npgen import execute_numpy_batch
        from repro.util.errors import CompilationError

        sp = compiled("D1")
        with pytest.raises(CompilationError):
            execute_numpy_batch(sp, {"n": 3}, [], shape=(2,))


class TestVerifyDesignPartition:
    @pytest.mark.parametrize(
        "backend", ["sim", pytest.param("npgen", marks=needs_numpy)]
    )
    def test_verify_partitioned_backends(self, backend):
        from repro.verify import verify_design

        prog, arr = DESIGNS["E1"]
        report = verify_design(
            prog, arr, {"n": 3}, backend=backend, partition=(2,)
        )
        assert report.matched

    def test_pygen_has_no_partitioned_mode(self):
        from repro.util.errors import VerificationError
        from repro.verify import verify_design

        prog, arr = DESIGNS["D1"]
        with pytest.raises(VerificationError):
            verify_design(prog, arr, {"n": 3}, backend="pygen", partition=(2,))


@pytest.fixture(scope="module")
def fuzz_handles():
    """The fuzz instances of seeds 0-119 (unschedulable seeds skipped),
    each compiled once."""
    from repro.compilation import Compilation
    from repro.fuzz.generator import generate_instance

    instances = filter(None, map(generate_instance, range(120)))
    return [(Compilation.compile(i.program, i.array), i.env) for i in instances]


def _fold_onto_two_bands(handles, backend):
    for handle, env in handles:
        execution = handle.run(env, backend=backend, shape=(2,))
        assert execution.mismatched == 0, (handle.program.name, execution.mismatches)


class TestFuzzFolds:
    """Generated programs folded onto a 2-band array, each equal to the
    sequential oracle on every element of every variable."""

    def test_fuzz_programs_fold_onto_two_bands(self, fuzz_handles):
        assert len(fuzz_handles) == 120  # every seed is schedulable
        _fold_onto_two_bands(fuzz_handles, "sim")

    @needs_numpy
    def test_fuzz_programs_fold_onto_two_bands_npgen(self, fuzz_handles):
        _fold_onto_two_bands(fuzz_handles, "npgen")
