"""The derivation memo and the size-free memos are bounded LRUs."""

import dataclasses

import pytest

from repro.core.memo import MEMO, DerivationMemo
from repro.core.scheme import compile_systolic
from repro.fuzz.harness import apply_mutation
from repro.geometry import linalg
from repro.geometry.linalg import Matrix
from repro.geometry.point import Point
from repro.systolic import flow
from repro.systolic.designs import polynomial_product_program, polyprod_design_d1
from repro.systolic.spec import SystolicArray
from repro.util.errors import (
    CompilationError,
    InconsistentDistributionError,
    SingularMatrixError,
    SystolicSpecError,
)


def _fill(memo, table, keys):
    for key in keys:
        memo.get(table, key, lambda key=key: f"{table}:{key}")


class TestDerivationMemo:
    def test_past_capacity_only_the_least_recent_entry_of_one_table_goes(self):
        memo = DerivationMemo()
        capacity = 4096
        _fill(memo, "a", range(capacity))
        _fill(memo, "b", range(3))
        memo.get("a", 0, lambda: pytest.fail("key 0 is cached"))  # now recent
        _fill(memo, "a", [capacity])
        a, b = memo.tables["a"], memo.tables["b"]
        assert len(a) == capacity and len(b) == 3
        assert 0 in a and capacity in a
        assert 1 not in a  # the least recent entry of "a" went
        assert all(key in b for key in range(3))
        assert a.stats()["evictions"] == 1 and b.stats()["evictions"] == 0

    def test_totals_are_the_sum_over_the_tables(self):
        memo = DerivationMemo()
        _fill(memo, "a", [1, 2, 1, 1])
        _fill(memo, "b", [1, 1, 3])
        snap = memo.stats_snapshot()
        tables = memo.counters_snapshot()
        assert tables == {"a": (2, 2), "b": (1, 2)}
        assert snap["hits"] == sum(h for h, _ in tables.values()) == 3
        assert snap["misses"] == sum(m for _, m in tables.values()) == 4
        assert (snap["table_a"], snap["table_a_hits"], snap["table_a_misses"]) == (
            2,
            2,
            2,
        )
        assert memo.table_counters("b") == (1, 2)
        assert memo.table_counters("absent") == (0, 0)
        memo.clear()
        assert memo.stats_snapshot() == {"hits": 0, "misses": 0}

    def test_imported_state_answers_with_hits(self):
        warm = DerivationMemo()
        _fill(warm, "a", [1, 2])
        _fill(warm, "b", [3])
        cold = DerivationMemo()
        cold.import_state(warm.export_state())
        assert cold.get("a", 1, lambda: pytest.fail("imported")) == "a:1"
        assert cold.get("a", 2, lambda: pytest.fail("imported")) == "a:2"
        assert cold.get("b", 3, lambda: pytest.fail("imported")) == "b:3"
        assert cold.counters_snapshot() == {"a": (2, 0), "b": (1, 0)}

    def test_a_failed_derivation_is_not_cached(self):
        memo = DerivationMemo()

        def fails():
            raise SystolicSpecError("no such design")

        for _ in range(2):
            with pytest.raises(SystolicSpecError):
                memo.get("a", "k", fails)
        assert len(memo.tables["a"]) == 0
        assert memo.table_counters("a") == (0, 2)
        assert memo.get("a", "k", lambda: "derived") == "derived"


class TestSizeFreeMemos:
    def test_flow_violating_eq1_raises_on_every_call(self):
        program = polynomial_product_program()
        a = next(s for s in program.streams if s.name == "a")
        # a[i] is read along j: step (1, 0) gives its null direction step 0
        array = SystolicArray(step=Matrix([[1, 0]]), place=Matrix([[0, 1]]))
        size = len(flow.FLOW_CACHE)
        misses = flow.FLOW_CACHE.misses
        for _ in range(2):
            with pytest.raises(SystolicSpecError, match="Eq. 1"):
                flow.stream_flow(array, a)
        assert len(flow.FLOW_CACHE) == size
        assert flow.FLOW_CACHE.misses == misses + 2

    def test_singular_inverse_raises_every_time_and_is_not_cached(self):
        singular = Matrix([[1, 2], [2, 4]])
        size = len(linalg.INVERSE_CACHE)
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                singular.inverse()
        assert len(linalg.INVERSE_CACHE) == size
        assert singular.rows not in linalg.INVERSE_CACHE


class TestDesignMemo:
    """``compile_systolic`` is memoized whole under the ``design`` table."""

    def test_a_repeat_compile_is_one_design_hit(self):
        program, array = polynomial_product_program(), polyprod_design_d1()
        sp = compile_systolic(program, array)
        before = MEMO.counters_snapshot()
        assert compile_systolic(program, array) is sp
        after = MEMO.counters_snapshot()
        assert after["design"] == (before["design"][0] + 1, before["design"][1])
        assert {name: misses for name, (_, misses) in after.items()} == {
            name: misses for name, (_, misses) in before.items()
        }

    def test_each_part_of_the_design_key_gives_its_own_entry(self):
        program, d1 = polynomial_product_program(), polyprod_design_d1()
        variants = [
            d1,
            dataclasses.replace(d1, name="renamed"),
            dataclasses.replace(d1, loading_vectors={"a": Point.of(-1)}),
        ]
        sps = [compile_systolic(program, array) for array in variants]
        sps.append(compile_systolic(program, d1, coords=("p",)))
        sps.append(compile_systolic(program, d1, prune=False))
        sps.append(compile_systolic(program, d1, validate=False))
        assert len({id(sp) for sp in sps}) == len(sps)
        assert sps[1].array.name == "renamed"
        assert sps[2].array.loading_vector("a") == Point.of(-1)
        assert sps[3].coords == ("p",)

    def test_an_unchecked_compile_does_not_answer_a_checked_one(self):
        program = polynomial_product_program()
        # step (1, 2) orders the accumulation of c backwards
        array = SystolicArray(
            step=Matrix([[1, 2]]),
            place=Matrix([[1, 0]]),
            loading_vectors={"a": Point.of(1)},
        )
        compile_systolic(program, array, validate=False)
        with pytest.raises(SystolicSpecError, match="dependence"):
            compile_systolic(program, array)

    def test_an_eq1_violation_raises_on_every_call_and_inserts_nothing(self):
        program = polynomial_product_program()
        # step (1, 0) vanishes on null.place = (0, 1)
        array = SystolicArray(step=Matrix([[1, 0]]), place=Matrix([[1, 0]]))
        compile_systolic(program, polyprod_design_d1())  # the table exists
        size = len(MEMO.tables["design"])
        for _ in range(2):
            with pytest.raises(InconsistentDistributionError, match="Eq. 1"):
                compile_systolic(program, array)
        assert len(MEMO.tables["design"]) == size

    def test_clear_empties_the_table(self):
        compile_systolic(polynomial_product_program(), polyprod_design_d1())
        assert len(MEMO.tables["design"]) >= 1
        MEMO.clear()
        assert "design" not in MEMO.tables

    def test_a_mutation_leaves_the_memoized_program_alone(self):
        program, array = polynomial_product_program(), polyprod_design_d1()
        sp = compile_systolic(program, array)
        count = sp.count
        mutant = apply_mutation(sp, "count_plus_one")
        assert mutant.count != count
        assert compile_systolic(program, array) is sp
        assert sp.count is count

    def test_a_non_program_or_non_array_is_refused(self):
        program, array = polynomial_product_program(), polyprod_design_d1()
        with pytest.raises(CompilationError, match="needs a SourceProgram, got str"):
            compile_systolic("x", array)
        with pytest.raises(CompilationError, match="needs a SystolicArray, got NoneType"):
            compile_systolic(program, None)
