"""Tests for design-space exploration."""

import json
import pathlib

import pytest

from repro.core.memo import DerivationMemo
from repro.geometry import Matrix, Point
from repro.systolic import (
    DesignCost,
    cost_candidate,
    cost_of,
    explore_designs,
    loading_candidates,
    matmul_design_e1,
    matmul_design_e2,
    matrix_product_program,
    polynomial_product_program,
    polyprod_design_d1,
)
from repro.systolic.designs import tensor_contraction_program
from repro.systolic.spec import SystolicArray
from repro.util.errors import ReproError

GOLDEN_E2_N4 = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "golden_explore_e2_n4.json"
)


class TestCostOf:
    def test_e1_cost(self):
        prog = matrix_product_program()
        cost = cost_of(prog, matmul_design_e1(), {"n": 4})
        assert cost.processes == 25  # (n+1)^2
        assert cost.null_processes == 0
        assert cost.stationary_streams == 1
        assert cost.latch_buffers == 0

    def test_e2_cost(self):
        prog = matrix_product_program()
        cost = cost_of(prog, matmul_design_e2(), {"n": 4})
        assert cost.processes == 81  # (2n+1)^2
        assert cost.null_processes == 20  # square minus hexagon
        assert cost.stationary_streams == 0

    def test_d1_latches(self):
        prog = polynomial_product_program()
        cost = cost_of(prog, polyprod_design_d1(), {"n": 4})
        assert cost.latch_buffers == 5  # one per process for stream b

    def test_total_cells(self):
        prog = matrix_product_program()
        cost = cost_of(prog, matmul_design_e1(), {"n": 2})
        assert cost.total_cells == cost.processes + cost.io_processes


class TestExplore:
    def test_matmul_space(self):
        prog = matrix_product_program()
        costs = explore_designs(prog, Matrix([[1, 1, 1]]), {"n": 3}, bound=1)
        assert len(costs) > 50  # a real design space
        # sorted by total cells ascending
        totals = [c.total_cells for c in costs]
        assert totals == sorted(totals)

    def test_paper_designs_present(self):
        prog = matrix_product_program()
        costs = explore_designs(prog, Matrix([[1, 1, 1]]), {"n": 3}, bound=1)
        row_sets = {frozenset(c.place.rows) for c in costs}
        assert frozenset({(1, 0, 0), (0, 1, 0)}) in row_sets  # E.1
        assert frozenset({(1, 0, -1), (0, 1, -1)}) in row_sets  # E.2

    def test_polyprod_paper_designs_present(self):
        prog = polynomial_product_program()
        costs = explore_designs(prog, Matrix([[2, 1]]), {"n": 4}, bound=1)
        row_sets = {frozenset(c.place.rows) for c in costs}
        assert frozenset({(1, 0)}) in row_sets  # D.1
        assert frozenset({(1, 1)}) in row_sets  # D.2

    def test_e1_family_beats_e2_family(self):
        """The compact grid with a stationary accumulator costs fewer cells
        than the Kung-Leiserson hexagon -- the trade-off the paper's two
        appendix E designs illustrate, quantified."""
        prog = matrix_product_program()
        costs = explore_designs(prog, Matrix([[1, 1, 1]]), {"n": 3}, bound=1)
        by_rows = {frozenset(c.place.rows): c for c in costs}
        e1 = by_rows[frozenset({(1, 0, 0), (0, 1, 0)})]
        e2 = by_rows[frozenset({(1, 0, -1), (0, 1, -1)})]
        assert e1.total_cells < e2.total_cells
        assert e2.stationary_streams == 0 < e1.stationary_streams

    def test_limit(self):
        prog = polynomial_product_program()
        costs = explore_designs(prog, Matrix([[2, 1]]), {"n": 3}, bound=1, limit=2)
        assert len(costs) == 2

    def test_every_cost_is_designcost(self):
        prog = polynomial_product_program()
        costs = explore_designs(prog, Matrix([[2, 1]]), {"n": 3}, bound=1)
        assert all(isinstance(c, DesignCost) for c in costs)
        assert all("place" in c.row() for c in costs)

    @pytest.mark.parametrize("memo", ["on", "off"])
    def test_e2_ranked_table_matches_golden(self, memo, monkeypatch):
        """The full E2 ranked table at n=4 equals the committed golden one,
        with the derivation memo in use and bypassed: every caching layer
        must leave the table bit-for-bit unchanged."""
        if memo == "off":
            monkeypatch.setattr(
                DerivationMemo, "get", lambda self, table, key, compute: compute()
            )
        golden = json.loads(GOLDEN_E2_N4.read_text())
        prog = matrix_product_program()
        costs = explore_designs(
            prog, Matrix([[1, 1, 1]]), {"n": golden["n"]}, bound=1
        )
        assert [c.row() for c in costs] == golden["table"]


class TestLoadingAxisFallback:
    """Regression: ``_default_loading`` looped ``for axis in range(dim)``
    but unconditionally broke after axis 0, so designs whose stationary
    streams only load along another axis were silently dropped."""

    # A tensor-contraction design (r = 4) whose stationary stream ``a``
    # shifts element identities non-integrally along axis 0 but loads
    # fine along axes 1 and 2.
    STEP = Matrix([[1, 1, 1, 1]])
    PLACE = Matrix([(-1, -1, 0, 0), (-1, -1, 0, 1), (-1, 0, 0, -1)])

    def test_axis0_alone_fails(self):
        prog = tensor_contraction_program()
        axis0 = SystolicArray(
            step=self.STEP,
            place=self.PLACE,
            loading_vectors={"a": Point.unit(3, 0)},
        )
        with pytest.raises(ReproError):
            cost_of(prog, axis0, {"n": 2})

    def test_costable_with_nonzero_axis(self):
        prog = tensor_contraction_program()
        cost = cost_candidate(prog, self.STEP, self.PLACE, {"n": 2})
        assert isinstance(cost, DesignCost)
        assert cost.stationary_streams == 1

    def test_candidates_cover_every_axis(self):
        prog = tensor_contraction_program()
        cands = list(loading_candidates(prog, self.STEP, self.PLACE))
        assert [c["a"] for c in cands] == [
            Point.unit(3, 0),
            Point.unit(3, 1),
            Point.unit(3, 2),
        ]

    def test_moving_design_yields_single_empty_assignment(self):
        prog = matrix_product_program()
        e2 = matmul_design_e2()
        cands = list(loading_candidates(prog, e2.step, e2.place))
        assert cands == [{}]

    def test_all_axes_failing_raises_last_error(self):
        prog = matrix_product_program()
        # every axis violates a restriction for this stationary design
        place = Matrix([(-1, -1, 0), (-1, 1, 0)])
        with pytest.raises(ReproError):
            cost_candidate(prog, Matrix([[1, 1, 1]]), place, {"n": 2})
