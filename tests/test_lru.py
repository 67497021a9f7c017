"""The package's one bounded LRU (:class:`repro.lru.LRU`) and the
caches that are instances of it."""

from repro.core.jit import PROGRAM_BLOCKS, SHARED_BLOCKS
from repro.lang.compiler import COMPILE_CACHE
from repro.lru import LRU
from repro.serve.server import SpecIndex, SweepServer


def test_evicts_the_least_recently_used_and_counts_gets():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes "a"
    cache.put("c", 3)                   # evicts "b", the least recent
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    cache.put("a", 4)                   # a re-put replaces and refreshes
    cache.put("d", 5)                   # evicts "c"
    assert "c" not in cache and list(cache._entries) == ["a", "d"]
    assert cache.counters() == {"hits": 3, "misses": 1, "size": 2}
    assert len(cache) == 2 == cache.capacity
    cache.clear()                       # the counters keep running
    assert len(cache) == 0 and cache.get("a") is None
    assert (cache.hits, cache.misses) == (3, 2)


def test_membership_moves_neither_recency_nor_counters():
    cache = LRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert "a" in cache and "z" not in cache
    cache.put("c", 3)                   # "a" is still the least recent
    assert list(cache._entries) == ["b", "c"]
    assert (cache.hits, cache.misses) == (0, 0)


def test_capacity_zero_stores_nothing():
    cache = LRU(0)
    cache.put("a", 1)
    assert len(cache) == 0 and cache.get("a") is None
    assert LRU(-3).capacity == 0


def test_the_process_caches_are_the_one_class():
    server = SweepServer(socket_path="unused.sock", cache=None,
                         hot_entries=0, dispatcher=object())
    for cache in (SHARED_BLOCKS, PROGRAM_BLOCKS, COMPILE_CACHE, server.hot,
                  server.specs, SpecIndex(4)):
        assert isinstance(cache, LRU)
    assert server.hot.capacity == 0
