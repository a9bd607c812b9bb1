"""The derivation memo and the size-free memos are bounded LRUs."""

import pytest

from repro.core.memo import DerivationMemo
from repro.geometry import linalg
from repro.geometry.linalg import Matrix
from repro.systolic import flow
from repro.systolic.designs import polynomial_product_program
from repro.systolic.spec import SystolicArray
from repro.util.errors import SingularMatrixError, SystolicSpecError


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
