"""Tests for the pygen compile cache: the bounded in-process LRU of
compiled namespaces, and the design fingerprint."""

import pytest

from repro import compile_systolic
from repro.systolic.designs import (
    all_paper_designs,
    matmul_design_e1,
    matrix_product_program,
    polynomial_product_program,
    polyprod_design_d1,
    polyprod_design_d2,
)
from repro.target import pygen
from repro.target.pygen import (
    MODULE_CACHE,
    design_fingerprint,
    execute_python,
    module_for,
    module_key,
    render_python,
)
from repro.util.cache import BoundedLRU
from repro.util.errors import ReproError


@pytest.fixture
def module_cache(monkeypatch):
    """Install a fresh module cache of the given capacity for one test."""

    def install(capacity: int) -> BoundedLRU:
        cache = BoundedLRU(capacity)
        monkeypatch.setattr(pygen, "MODULE_CACHE", cache)
        return cache

    return install


def cached(cache: BoundedLRU, source: str) -> bool:
    return module_key(source) in cache


class TestModuleCacheLRU:
    def test_miss_then_hit(self, module_cache):
        cache = module_cache(4)
        ns1 = module_for("X = 1")
        assert (cache.hits, cache.misses) == (0, 1)
        ns2 = module_for("X = 1")
        assert (cache.hits, cache.misses) == (1, 1)
        assert ns1 is ns2
        assert ns1["X"] == 1

    def test_eviction_at_capacity(self, module_cache):
        cache = module_cache(2)
        module_for("X = 1")
        module_for("X = 2")
        assert len(cache) == 2 and cache.evictions == 0
        module_for("X = 3")  # evicts the oldest ("X = 1")
        assert len(cache) == 2
        assert cache.evictions == 1
        assert not cached(cache, "X = 1")
        assert cached(cache, "X = 2") and cached(cache, "X = 3")

    def test_lru_order_respects_hits(self, module_cache):
        cache = module_cache(2)
        module_for("X = 1")
        module_for("X = 2")
        module_for("X = 1")  # refresh: "X = 2" is now oldest
        module_for("X = 3")
        assert cached(cache, "X = 1")
        assert not cached(cache, "X = 2")

    def test_identical_namespace_after_eviction(self, module_cache):
        cache = module_cache(1)
        first = dict(module_for("VALUE = [1, 2, 3]"))
        module_for("VALUE = 'other'")  # evicts
        assert cache.evictions == 1
        again = module_for("VALUE = [1, 2, 3]")
        assert again["VALUE"] == first["VALUE"]
        assert cache.misses == 3 and cache.hits == 0

    def test_discard_and_clear(self, module_cache):
        cache = module_cache(4)
        module_for("X = 1")
        cache.discard(module_key("X = 1"))
        assert len(cache) == 0
        cache.discard(module_key("X = 1"))  # absent: no error
        module_for("X = 1")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_invalid_capacity(self):
        with pytest.raises(ReproError):
            BoundedLRU(0)

    def test_stats_shape(self):
        assert MODULE_CACHE.capacity == 64
        assert BoundedLRU(2).stats() == {
            "capacity": 2,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }

    def test_key_is_source_hash(self):
        assert module_key("a") != module_key("b")
        assert module_key("a") == module_key("a")


class TestExecuteThroughBoundedCache:
    """Generated-program results must be byte-identical before and after
    eviction: eviction costs a recompile, never correctness."""

    def test_results_stable_across_eviction(self, module_cache):
        exp_id, prog, arr = all_paper_designs()[0]
        sp = compile_systolic(prog, arr)
        source = render_python(sp)
        before = execute_python(sp, {"n": 3})
        # exercise the module through a capacity-1 cache: each foreign
        # compile evicts it
        cache = module_cache(1)
        execute_python(sp, {"n": 3})
        module_for("X = 1")
        assert not cached(cache, source)
        after = execute_python(sp, {"n": 3})
        assert after == before
        assert cache.misses == 3

    def test_global_cache_hit_counter_moves(self):
        exp_id, prog, arr = all_paper_designs()[0]
        sp = compile_systolic(prog, arr)
        execute_python(sp, {"n": 2})
        hits = MODULE_CACHE.hits
        execute_python(sp, {"n": 2})
        assert MODULE_CACHE.hits == hits + 1


class TestDesignFingerprint:
    def test_deterministic(self):
        prog = matrix_product_program()
        sp1 = compile_systolic(prog, matmul_design_e1())
        sp2 = compile_systolic(matrix_product_program(), matmul_design_e1())
        assert design_fingerprint(sp1) == design_fingerprint(sp2)

    def test_distinguishes_designs(self):
        prog = polynomial_product_program()
        d1 = compile_systolic(prog, polyprod_design_d1())
        d2 = compile_systolic(prog, polyprod_design_d2())
        assert design_fingerprint(d1) != design_fingerprint(d2)

    def test_distinguishes_programs(self):
        poly = compile_systolic(polynomial_product_program(), polyprod_design_d1())
        mat = compile_systolic(matrix_product_program(), matmul_design_e1())
        assert design_fingerprint(poly) != design_fingerprint(mat)
