"""The one bounded LRU every size-specialised cache is built on."""

import threading
from fractions import Fraction

import pytest

from repro.util.cache import BoundedLRU, size_key
from repro.util.errors import ReproError


class TestBoundedLRU:
    def test_get_put_and_recency(self):
        cache = BoundedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the oldest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get("b", "absent") == "absent"
        assert cache.stats() == {
            "capacity": 2, "size": 2, "hits": 1, "misses": 1, "evictions": 1
        }

    def test_peek_touches_neither_recency_nor_counters(self):
        cache = BoundedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1 and cache.peek("z") is None
        cache.put("c", 3)  # "a" was not refreshed: it goes
        assert "a" not in cache
        assert (cache.hits, cache.misses) == (0, 0)

    def test_get_or_build_builds_once_per_key(self):
        cache = BoundedLRU(4)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or object())
        assert len(calls) == 1
        assert cache.get("k") is value
        assert (cache.hits, cache.misses) == (3, 1)

    def test_racing_builds_share_the_first_insert(self):
        cache = BoundedLRU(4)
        inside = threading.Barrier(6, timeout=10)
        results = []

        def build():
            inside.wait()  # every caller has missed and is building
            return object()

        def worker():
            results.append(cache.get_or_build("k", build))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        assert all(r is results[0] for r in results)
        assert len(cache) == 1 and cache.misses == 6

    def test_failed_build_inserts_nothing(self):
        cache = BoundedLRU(2)

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", fail)
        assert "k" not in cache and len(cache) == 0

    def test_discard_and_clear(self):
        cache = BoundedLRU(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.discard("b")
        cache.discard("b")  # absent: no error
        assert len(cache) == 0
        cache.get("a")
        cache.clear()
        assert cache.stats() == {
            "capacity": 1, "size": 0, "hits": 0, "misses": 0, "evictions": 0
        }

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one(self, capacity):
        with pytest.raises(ReproError, match="capacity"):
            BoundedLRU(capacity)


class TestSizeKey:
    def test_sorted_int_pairs(self):
        assert size_key({"n": 4, "m": Fraction(2), "k": 3.0}) == (
            ("k", 3), ("m", 2), ("n", 4)
        )
        assert all(type(v) is int for _, v in size_key({"n": Fraction(6, 2)}))

    @pytest.mark.parametrize(
        "value", [4.5, Fraction(9, 2), True, False, "4", None,
                  float("nan"), float("inf")]
    )
    def test_non_integral_or_boolean_is_named(self, value):
        with pytest.raises(ReproError, match=r"problem size n=.* must be an integer"):
            size_key({"n": value})
