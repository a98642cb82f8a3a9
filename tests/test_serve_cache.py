"""Cache-correctness tests: LRU mechanics and structural-hash keying.

Two layers. The :class:`~repro.cache.LRUCache` unit tests pin the
mechanics the service leans on — hard capacity bound under churn,
recency refresh on ``get`` (and *not* on ``peek``), eviction counters,
capacity-0 disablement. The :class:`~repro.serve.service.YieldService`
tests then pin the semantics built on top: the result and compiled
caches evict independently (losing a compiled design never drops its
cached results), and a mutated circuit — a new structural hash — can
never be served a stale entry while the original stays cached.
"""

import pytest

from repro.cache import MISSING, LRUCache, hit_rate
from repro.core.circuit import fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.serialize import circuit_to_json
from repro.designs import min_max
from repro.serve import YieldService


# -- LRUCache mechanics ------------------------------------------------
def test_lru_bound_holds_under_churn():
    cache = LRUCache(4)
    for i in range(100):
        cache.put(i, i * 10)
    assert len(cache) == 4
    assert list(cache.keys()) == [96, 97, 98, 99]
    stats = cache.stats()
    assert stats["size"] == 4
    assert stats["capacity"] == 4
    assert stats["evictions"] == 96


def test_lru_get_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "a" is now most recent
    cache.put("c", 3)  # evicts "b", the least recently used
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache


def test_lru_peek_touches_neither_recency_nor_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    before = cache.stats()
    assert cache.peek("a") == 1
    assert cache.peek("nope") is MISSING
    assert cache.stats() == before  # no hit/miss recorded
    cache.put("c", 3)  # peek did not refresh "a": it is the LRU entry
    assert "a" not in cache
    assert "b" in cache


def test_lru_update_moves_to_front_without_eviction():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # update, not insert: nothing evicted
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 0
    cache.put("c", 3)  # now "b" is the LRU entry
    assert cache.get("a") == 10
    assert "b" not in cache


def test_lru_counters_and_hit_rate():
    cache = LRUCache(8)
    assert hit_rate(cache.stats()) is None
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert hit_rate(stats) == pytest.approx(2 / 3)


def test_lru_capacity_zero_disables():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is MISSING


def test_lru_rejects_bad_capacity():
    for capacity in (-1, 2.5, "big", True):
        with pytest.raises(PylseError):
            LRUCache(capacity)


# -- service-level keying ----------------------------------------------
def _minmax_text(a_time=60.0, b_time=25.0):
    with fresh_circuit() as circuit:
        a = inp_at(a_time, name="A")
        b = inp_at(b_time, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit_to_json(circuit)


def test_result_and_compiled_caches_evict_independently():
    """Evicting a compiled design must not drop its cached results."""
    service = YieldService(workers=1, cache_size=8, compiled_cache_size=1)
    request = {"design": "JTL", "sigma": 0.5, "n_seeds": 4}
    _, cached = service.yield_(dict(request))
    assert cached is False
    # Resolving a second design evicts JTL from the 1-entry compiled cache.
    service.yield_({"design": "AND", "sigma": 0.5, "n_seeds": 4})
    compiled_stats = service.compiled_cache.stats()
    assert compiled_stats["size"] == 1
    assert compiled_stats["evictions"] == 1
    # JTL's *result* survived: the repeat is a hit, no new computation.
    _, cached = service.yield_(dict(request))
    assert cached is True
    assert service.computations == 2
    assert service.result_cache.stats()["size"] == 2


def test_result_cache_churn_leaves_compiled_cache_alone():
    """Result-cache eviction must not drop the compiled design."""
    service = YieldService(workers=1, cache_size=2, compiled_cache_size=8)
    for i in range(4):  # 4 distinct sigmas churn the 2-entry result cache
        service.yield_({"design": "JTL", "sigma": 0.25 * (i + 1),
                        "n_seeds": 3})
    result_stats = service.result_cache.stats()
    assert result_stats["size"] == 2
    assert result_stats["evictions"] == 2
    compiled_stats = service.compiled_cache.stats()
    assert compiled_stats["size"] == 1
    assert compiled_stats["evictions"] == 0
    # The evicted sigma recomputes (a genuine miss, not a stale hit) ...
    _, cached = service.yield_({"design": "JTL", "sigma": 0.25,
                                "n_seeds": 3})
    assert cached is False
    # ... from the still-resolved compiled entry, untouched by the churn.
    assert service.compiled_cache.stats()["size"] == 1
    assert service.compiled_cache.stats()["evictions"] == 0


def test_mutated_circuit_never_hits_stale_entry():
    """A changed circuit gets a new structural hash, hence a fresh miss."""
    service = YieldService(workers=1)
    original = _minmax_text(a_time=60.0)
    mutated = _minmax_text(a_time=80.0)  # same topology, new schedule

    params = {"sigma": 0.4, "n_seeds": 4}
    first, cached = service.yield_({"circuit": original, **params})
    assert cached is False
    repeat, cached = service.yield_({"circuit": original, **params})
    assert cached is True
    assert repeat == first

    changed, cached = service.yield_({"circuit": mutated, **params})
    assert cached is False, "a mutated circuit must never hit a stale entry"
    assert changed["structural_hash"] != first["structural_hash"]
    assert service.computations == 2

    # The original entry is untouched by the mutated submission.
    again, cached = service.yield_({"circuit": original, **params})
    assert cached is True
    assert again == first


def test_distinct_parameters_are_distinct_keys():
    """Every measurement parameter participates in the cache key."""
    service = YieldService(workers=1)
    base = {"design": "JTL", "sigma": 0.5, "n_seeds": 4, "seed0": 0}
    service.yield_(dict(base))
    variants = [
        {**base, "sigma": 0.6},
        {**base, "n_seeds": 5},
        {**base, "seed0": 1},
        {**base, "batch": 2},
    ]
    for variant in variants:
        _, cached = service.yield_(variant)
        assert cached is False, variant
    # batch=None (the default) and batch="auto" are the same computation
    # by the determinism contract, so they share one key.
    _, cached = service.yield_({**base, "batch": "auto"})
    assert cached is True
