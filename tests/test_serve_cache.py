"""Cache-correctness tests: LRU mechanics and structural-hash keying.

Three layers. The :class:`~repro.cache.LRUCache` unit tests pin the
mechanics the service leans on — hard capacity bound under churn,
recency refresh on ``get`` (and *not* on ``peek``), eviction counters,
capacity-0 disablement. The :class:`~repro.serve.service.YieldService`
tests then pin the semantics built on top: the result and compiled
caches evict independently (losing a compiled design never drops its
cached results), and a mutated circuit — a new structural hash — can
never be served a stale entry while the original stays cached. Last, the
:class:`~repro.exp.measure.Measurer` contract through both front-ends
(serve and explore): results equal direct ``measure_yield`` calls, every
``batch`` spec shares one entry, one stats schema, and a serialized
registry design keeps its digest, so it hits its named entry.
"""

import json

import pytest

from repro.cache import MISSING, LRUCache, hit_rate
from repro.core.circuit import fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.ir import structural_hash
from repro.core.montecarlo import measure_yield
from repro.core.serialize import (
    circuit_from_json,
    circuit_to_json,
    yield_result_to_jsonable,
)
from repro.core.simulation import Simulation
from repro.designs import min_max
from repro.exp.registry import (
    PulseCountPredicate,
    RegistryFactory,
    build_in_fresh_circuit,
    registry,
    registry_entry,
)
from repro.explore import ExploreEngine, FamilyFactory
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
    compiled_stats = service.stats()["cache"]["compiled"]
    assert compiled_stats["size"] == 1
    assert compiled_stats["evictions"] == 1
    # JTL's *result* survived: the repeat is a hit, no new computation.
    _, cached = service.yield_(dict(request))
    assert cached is True
    assert service.computations == 2
    assert service.stats()["cache"]["result"]["size"] == 2


def test_result_cache_churn_leaves_compiled_cache_alone():
    """Result-cache eviction must not drop the compiled design."""
    service = YieldService(workers=1, cache_size=2, compiled_cache_size=8)
    for i in range(4):  # 4 distinct sigmas churn the 2-entry result cache
        service.yield_({"design": "JTL", "sigma": 0.25 * (i + 1),
                        "n_seeds": 3})
    result_stats = service.stats()["cache"]["result"]
    assert result_stats["size"] == 2
    assert result_stats["evictions"] == 2
    compiled_stats = service.stats()["cache"]["compiled"]
    assert compiled_stats["size"] == 1
    assert compiled_stats["evictions"] == 0
    # The evicted sigma recomputes (a genuine miss, not a stale hit) ...
    _, cached = service.yield_({"design": "JTL", "sigma": 0.25,
                                "n_seeds": 3})
    assert cached is False
    # ... from the still-resolved compiled entry, untouched by the churn.
    compiled_stats = service.stats()["cache"]["compiled"]
    assert compiled_stats["size"] == 1
    assert compiled_stats["evictions"] == 0


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
    """Every parameter that determines the result is part of the key;
    ``batch`` only picks the drain, so its variants share the entry."""
    service = YieldService(workers=1)
    base = {"design": "JTL", "sigma": 0.5, "n_seeds": 4, "seed0": 0}
    service.yield_(dict(base))
    variants = [
        {**base, "sigma": 0.6},
        {**base, "n_seeds": 5},
        {**base, "seed0": 1},
    ]
    for variant in variants:
        _, cached = service.yield_(variant)
        assert cached is False, variant
    # Batched and per-seed drains give identical documents (the
    # determinism contract), so every batch spec is the same entry.
    for batch in (2, "auto", 0):
        _, cached = service.yield_({**base, "batch": batch})
        assert cached is True, batch
    assert service.computations == 4


# -- the measurer contract, through both front-ends --------------------
def _direct(name, sigma, n_seeds, seed0=0):
    factory = RegistryFactory(name)
    baseline = Simulation(factory()).simulate()
    return measure_yield(factory, PulseCountPredicate(baseline), sigma,
                         seeds=range(seed0, seed0 + n_seeds))


def test_serve_measure_equals_direct_measure_yield():
    service = YieldService(workers=1)
    for name in ("Min-Max", "DRO", "Adder (Sync)"):
        direct = _direct(name, 1.5, 9, seed0=3)
        for _ in range(2):  # cold, then warm
            served, _ = service.yield_(
                {"design": name, "sigma": 1.5, "n_seeds": 9, "seed0": 3}
            )
            assert served["result"] == yield_result_to_jsonable(direct)


def test_explore_measure_equals_direct_measure_yield():
    engine = ExploreEngine()
    for family, params in (("racetree", {"depth": 2}), ("bitonic", {"n": 4})):
        factory = FamilyFactory(family, params)
        baseline = Simulation(factory()).simulate()
        direct = measure_yield(factory, PulseCountPredicate(baseline), 1.5,
                               seeds=range(3, 12))
        for _ in range(2):  # cold, then warm
            point = engine.measure(family, params, sigma=1.5, n_seeds=9,
                                   seed0=3)
            assert point.result == direct
            assert point.result.failures == direct.failures


def test_batch_variants_share_one_entry_in_both_front_ends():
    service = YieldService(workers=1)
    request = {"design": "Bitonic Sort 4", "sigma": 6.0, "n_seeds": 8}
    documents = set()
    for batch in (0, "auto", 2):
        body, _ = service.yield_({**request, "batch": batch})
        documents.add(json.dumps(body, sort_keys=True))
    assert len(documents) == 1
    assert service.computations == 1
    assert service.stats()["cache"]["result"]["size"] == 1

    engine = ExploreEngine()
    points = [engine.measure("bitonic", {"n": 4}, sigma=6.0, n_seeds=8,
                             batch=batch) for batch in (0, "auto", 2)]
    assert engine.computations == 1
    assert [p.cached for p in points] == [False, True, True]
    assert points[0].result == points[1].result == points[2].result


def test_invalid_batch_is_rejected_even_on_a_hit():
    engine = ExploreEngine()
    engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=4)
    with pytest.raises(PylseError, match="batch"):
        engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=4, batch=-1)


def test_stats_schema_is_shared():
    service = YieldService(workers=1)
    service.yield_({"design": "JTL", "sigma": 0.5, "n_seeds": 3})
    engine = ExploreEngine()
    engine.measure("racetree", {"depth": 1}, sigma=0.5, n_seeds=3)
    served = service.stats()
    explored = engine.stats()
    assert set(explored) == {"computations", "elaborations", "coalesced",
                             "cache"}
    assert set(explored) <= set(served)
    assert set(explored["cache"]) == set(served["cache"]) == {
        "result", "compiled",
    }
    for stats in (served, explored):
        assert stats["computations"] == stats["elaborations"] == 1


def test_stats_schema_with_a_store_is_shared(tmp_path):
    service = YieldService(workers=1, cache_dir=tmp_path / "serve")
    service.yield_({"design": "JTL", "sigma": 0.5, "n_seeds": 3})
    engine = ExploreEngine(cache_dir=tmp_path / "explore")
    engine.measure("racetree", {"depth": 1}, sigma=0.5, n_seeds=3)
    served = service.stats()
    explored = engine.stats()
    assert set(explored["cache"]) == set(served["cache"]) == {
        "result", "compiled", "result_disk", "resolution_disk",
    }
    for stats in (served, explored):
        block = stats["cache"]["resolution_disk"]
        assert {"hits", "misses", "writes", "write_errors",
                "quarantined"} <= set(block)
        assert (block["misses"], block["writes"]) == (1, 1)


# -- the response echoes the request, not the cache --------------------
def test_submitted_circuit_echoes_no_name_after_a_named_request():
    """A circuit document is answered with ``design: None`` even when the
    same circuit was resolved by name first."""
    service = YieldService(workers=1)
    params = {"sigma": 0.5, "n_seeds": 4}
    named, _ = service.yield_({"design": "JTL", **params})
    assert named["design"] == "JTL"
    text = circuit_to_json(build_in_fresh_circuit(registry_entry("JTL")))
    submitted, cached = service.yield_({"circuit": text, **params})
    assert cached is True
    assert submitted["design"] is None
    assert submitted["structural_hash"] == named["structural_hash"]


# -- a serialize round trip keeps the digest ---------------------------
@pytest.mark.parametrize("name", [entry.name for entry in registry()])
def test_round_trip_keeps_digest_and_events(name):
    circuit = build_in_fresh_circuit(registry_entry(name))
    rebuilt = circuit_from_json(circuit_to_json(circuit))
    assert structural_hash(rebuilt) == structural_hash(circuit)
    # Identical events, the auto-named ``_k`` wires included.
    assert Simulation(rebuilt).simulate() == Simulation(circuit).simulate()


@pytest.mark.parametrize("name", [entry.name for entry in registry()])
def test_named_then_submitted_design_costs_one_computation(name):
    service = YieldService(workers=1)
    params = {"sigma": 0.5, "n_seeds": 3}
    named, _ = service.yield_({"design": name, **params})
    text = circuit_to_json(build_in_fresh_circuit(registry_entry(name)))
    submitted, cached = service.yield_({"circuit": json.loads(text),
                                        **params})
    assert cached is True
    assert service.computations == 1
    assert submitted["result"] == named["result"]
