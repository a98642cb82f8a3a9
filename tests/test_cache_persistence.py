"""Cross-process persistence and the disk-hit identity contract.

The caching subsystem's hard invariant: a result served from the
persistent tier is **element-wise identical** to a fresh computation.
These tests rebuild each consumer (service, explorer, reach lint) from
scratch against a populated ``cache_dir`` — the in-memory tiers start
empty, exactly like a restarted process — and compare disk hits against
direct ``measure_yield``/``analyze_reach`` calls. The layering test pins
the dependency fix that motivated :mod:`repro.cache`: lint and explore
no longer import anything from :mod:`repro.serve`.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    LINT_NAMESPACE,
    RESULTS_NAMESPACE,
    DiskCache,
    store_stats,
)
from repro.core.ir import (
    _EXPLORER_VERSION,
    _HASH_VERSION,
    _NOISE_VERSION,
    result_cache_key,
)
from repro.core.montecarlo import YieldResult, measure_yield
from repro.core.serialize import (
    circuit_to_json,
    yield_result_from_jsonable,
    yield_result_to_jsonable,
)
from repro.exp.measure import Measurer
from repro.exp.registry import RegistryFactory, build_in_fresh_circuit, registry
from repro.explore import FamilyFactory
from repro.explore.engine import ExploreEngine
from repro.lint.reach_rules import (
    analyze_reach,
    clear_reach_cache,
    reach_analysis_from_jsonable,
    reach_analysis_to_jsonable,
)
from repro.serve import YieldService

from test_batchsim import hole_factory
from test_hash_stability import eager_v1_hash

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


# -- layering: the dependency inversion is fixed -----------------------
@pytest.mark.parametrize("package", ["lint", "explore"])
def test_no_serve_imports_outside_serve(package):
    """`repro.lint` and `repro.explore` must not import from `repro.serve`.

    Caching lives in `repro.cache` now; a lint or explore import of the
    serving layer would reintroduce the inverted dependency this refactor
    removed (and drag HTTP machinery into analysis-only processes).
    """
    offenders = []
    for path in (SRC / package).rglob("*.py"):
        text = path.read_text()
        if "from ..serve" in text or "from repro.serve" in text:
            offenders.append(str(path))
    assert offenders == []


def test_measurer_sits_below_serve_and_explore():
    """`repro.exp.measure` is the layer both front-ends build on, so it
    imports neither of them."""
    text = (SRC / "exp" / "measure.py").read_text()
    for package in ("serve", "explore"):
        assert f"from ..{package}" not in text
        assert f"from repro.{package}" not in text
        assert f"import repro.{package}" not in text


# -- serve: results survive a service restart --------------------------
def test_serve_restart_serves_identical_result_from_disk(tmp_path):
    payload = {"design": "Min-Max", "sigma": 0.6, "n_seeds": 12}
    cold = YieldService(cache_dir=tmp_path)
    first, cached = cold.yield_(payload)
    assert not cached and cold.computations == 1

    warm = YieldService(cache_dir=tmp_path)  # fresh process stand-in
    second, cached = warm.yield_(payload)
    assert cached and warm.computations == 0
    assert second == first

    stats = warm.stats()
    assert stats["cache"]["result_disk"]["hits"] == 1
    assert stats["cache_dir"] == str(tmp_path)


def test_serve_disk_hit_matches_direct_measurement(tmp_path):
    entry = next(e for e in registry() if e.name == "Min-Max")
    service = YieldService(cache_dir=tmp_path)
    service.yield_({"design": "Min-Max", "sigma": 0.7, "n_seeds": 9})

    warm = YieldService(cache_dir=tmp_path)
    served, cached = warm.yield_(
        {"design": "Min-Max", "sigma": 0.7, "n_seeds": 9}
    )
    assert cached

    resolved = service._resolve_design("Min-Max")
    direct = measure_yield(
        resolved.factory, resolved.predicate, 0.7, seeds=range(9)
    )
    assert served["result"] == yield_result_to_jsonable(direct)


def test_serve_critical_sigma_persists(tmp_path):
    """A warm bisection in a fresh process is pure disk hits: every
    sample persisted, so the answer costs zero computations."""
    payload = {"design": "Min-Max", "n_seeds": 6, "iterations": 3}
    cold = YieldService(cache_dir=tmp_path)
    first, cached = cold.critical_sigma(payload)
    assert not cached
    samples = cold.computations
    assert samples >= 2

    warm = YieldService(cache_dir=tmp_path)
    second, cached = warm.critical_sigma(payload)
    assert cached
    assert second == first
    assert warm.computations == 0
    assert warm.stats()["cache"]["result_disk"]["hits"] == samples


def test_critical_sigma_cached_iff_every_sample_hit(tmp_path):
    payload = {"design": "Min-Max", "n_seeds": 6, "iterations": 2,
               "sigma_hi": 30.0}
    service = YieldService(cache_dir=tmp_path)
    service.critical_sigma(payload)
    before = service.computations
    assert before == 4  # both ends plus two bisection steps
    # One more iteration: the shared prefix hits, the last sample misses.
    _, cached = service.critical_sigma({**payload, "iterations": 3})
    assert not cached
    assert service.computations == before + 1


# -- explore: a fresh-process sweep recomputes nothing -----------------
def test_explore_rerun_in_fresh_engine_computes_zero(tmp_path):
    grid = {"n": [2, 4]}
    cold = ExploreEngine(cache_dir=tmp_path)
    first = cold.sweep("bitonic", grid, sigma=0.4, n_seeds=8)
    assert cold.computations == len(first.points)

    warm = ExploreEngine(cache_dir=tmp_path)
    second = warm.sweep("bitonic", grid, sigma=0.4, n_seeds=8)
    assert warm.computations == 0
    assert all(point.cached for point in second.points)
    for a, b in zip(first.points, second.points):
        assert a.result == b.result  # element-wise identity, not proximity


def test_explore_disk_hit_matches_direct_measurement(tmp_path):
    cold = ExploreEngine(cache_dir=tmp_path)
    cold.measure("bitonic", {"n": 4}, sigma=0.5, n_seeds=7)

    warm = ExploreEngine(cache_dir=tmp_path)
    point = warm.measure("bitonic", {"n": 4}, sigma=0.5, n_seeds=7)
    assert point.cached

    resolved = warm.resolve("bitonic", {"n": 4})
    direct = measure_yield(
        resolved.factory, resolved.predicate, 0.5, seeds=range(7)
    )
    assert point.result == direct


def test_explore_sweep_warms_the_serve_store(tmp_path):
    """Serve and explore share the results namespace: one store, one key
    contract, one stored form, so a sweep pre-warms the service for the
    same circuits."""
    engine = ExploreEngine(cache_dir=tmp_path)
    point = engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=5)
    resolved = engine.resolve("bitonic", {"n": 2})
    digest = resolved.digest

    key = result_cache_key(
        digest, resolved.fingerprint, sigma=0.5, n_seeds=5
    )
    stored = DiskCache(tmp_path, RESULTS_NAMESPACE).get(key)
    assert stored == yield_result_to_jsonable(point.result)

    service = YieldService(cache_dir=tmp_path)
    text = circuit_to_json(FamilyFactory("bitonic", {"n": 2})())
    served, cached = service.yield_(
        {"circuit": text, "sigma": 0.5, "n_seeds": 5}
    )
    assert cached and service.computations == 0
    assert served["structural_hash"] == digest
    assert served["result"] == stored


# -- results stored under the previous noise are misses ----------------
def test_result_under_pre_noise_version_key_is_recomputed(tmp_path):
    """Hole designs' yields changed when every noisy run moved to the
    counter streams, so a document stored under the key tuple that had
    no noise version must never be served: it is a miss, recomputed."""
    resolved = Measurer().resolve(hole_factory)
    sigma, n_seeds = 4.0, 6
    stale = YieldResult(
        sigma=sigma, runs=n_seeds, passed=0, mis_behaved=n_seeds,
        violations=0, failures=dict.fromkeys(range(n_seeds), "mis-behaved"),
    )
    old_key = (_HASH_VERSION, resolved.digest, sigma, n_seeds, 0)
    DiskCache(tmp_path, RESULTS_NAMESPACE).put(
        old_key, yield_result_to_jsonable(stale)
    )

    measurer = Measurer(cache_dir=tmp_path)
    document, cached, _ = measurer.measure(resolved, sigma, n_seeds)
    assert not cached and measurer.computations == 1
    direct = measure_yield(
        resolved.factory, resolved.predicate, sigma, seeds=range(n_seeds)
    )
    assert document == yield_result_to_jsonable(direct) != (
        yield_result_to_jsonable(stale)
    )


# -- documents stored under the previous hash recipe are misses --------
def test_result_under_v1_hash_key_is_recomputed(tmp_path):
    """A store written under ``repro-ir-v1`` keys its documents by the v1
    digest; under v2 neither the recipe tag nor the digest matches, so a
    document planted there for the same design is never served."""
    entry = next(e for e in registry() if e.name == "Min-Max")
    v1_digest = eager_v1_hash(build_in_fresh_circuit(entry))
    resolved = Measurer().resolve(RegistryFactory("Min-Max"))
    assert resolved.digest != v1_digest
    sigma, n_seeds = 0.5, 6
    stale = YieldResult(
        sigma=sigma, runs=n_seeds, passed=0, mis_behaved=n_seeds,
        violations=0, failures=dict.fromkeys(range(n_seeds), "mis-behaved"),
    )
    old_key = ("repro-ir-v1", _NOISE_VERSION, v1_digest, sigma, n_seeds, 0)
    DiskCache(tmp_path, RESULTS_NAMESPACE).put(
        old_key, yield_result_to_jsonable(stale)
    )

    measurer = Measurer(cache_dir=tmp_path)
    document, cached, _ = measurer.measure(resolved, sigma, n_seeds)
    assert not cached and measurer.computations == 1
    direct = measure_yield(
        resolved.factory, resolved.predicate, sigma, seeds=range(n_seeds)
    )
    assert document == yield_result_to_jsonable(direct) != (
        yield_result_to_jsonable(stale)
    )
    assert store_stats(tmp_path)["namespaces"][RESULTS_NAMESPACE]["entries"] == 2


def test_reach_analysis_under_v1_hash_key_is_recomputed(tmp_path):
    entry = next(e for e in registry() if e.name == "AND")
    v1_digest = eager_v1_hash(build_in_fresh_circuit(entry))
    direct, _ = analyze_reach(build_in_fresh_circuit(entry), use_cache=False)
    assert direct.digest != v1_digest
    stale = dataclasses.replace(direct, states_explored=1)
    budget = direct.budget
    old_key = ("repro-ir-v1", _EXPLORER_VERSION, v1_digest, direct.rules,
               budget.max_states, float(budget.time_limit))
    DiskCache(tmp_path, LINT_NAMESPACE).put(
        old_key, reach_analysis_to_jsonable(stale)
    )

    clear_reach_cache()
    served, cached = analyze_reach(
        build_in_fresh_circuit(entry), cache_dir=tmp_path
    )
    assert not cached
    untimed = dict(elapsed_seconds=0.0)
    assert dataclasses.replace(served, **untimed) == dataclasses.replace(
        direct, **untimed)
    assert store_stats(tmp_path)["namespaces"][LINT_NAMESPACE]["entries"] == 2


# -- foreign documents in the store are quarantined, never served ------
def _plant_foreign(tmp_path, resolved, sigma, n_seeds):
    key = result_cache_key(
        resolved.digest, resolved.fingerprint, sigma=sigma, n_seeds=n_seeds
    )
    DiskCache(tmp_path, RESULTS_NAMESPACE).put(key, {"format": "bogus"})


def test_serve_quarantines_a_foreign_document(tmp_path):
    resolved = YieldService()._resolve_design("Min-Max")
    _plant_foreign(tmp_path, resolved, 0.6, 7)

    service = YieldService(cache_dir=tmp_path)
    served, cached = service.yield_(
        {"design": "Min-Max", "sigma": 0.6, "n_seeds": 7}
    )
    assert not cached and service.computations == 1
    resolved = service._resolve_design("Min-Max")
    direct = measure_yield(
        resolved.factory, resolved.predicate, 0.6, seeds=range(7)
    )
    assert served["result"] == yield_result_to_jsonable(direct)
    assert service.stats()["cache"]["result_disk"]["quarantined"] == 1
    assert store_stats(tmp_path)["quarantined"] == 1


def test_explore_quarantines_a_foreign_document(tmp_path):
    resolved = ExploreEngine().resolve("bitonic", {"n": 4})
    _plant_foreign(tmp_path, resolved, 0.6, 7)

    engine = ExploreEngine(cache_dir=tmp_path)
    point = engine.measure("bitonic", {"n": 4}, sigma=0.6, n_seeds=7)
    assert not point.cached and engine.computations == 1
    resolved = engine.resolve("bitonic", {"n": 4})
    direct = measure_yield(
        resolved.factory, resolved.predicate, 0.6, seeds=range(7)
    )
    assert point.result == direct
    assert engine.stats()["cache"]["result_disk"]["quarantined"] == 1
    # The recomputed document replaced the foreign one: a fresh engine hits.
    again = ExploreEngine(cache_dir=tmp_path)
    assert again.measure("bitonic", {"n": 4}, sigma=0.6, n_seeds=7).cached


# -- lint: finished reach analyses survive restarts --------------------
def test_reach_analysis_persists_and_is_identical(tmp_path):
    entry = next(e for e in registry() if e.name == "Min-Max")
    circuit = build_in_fresh_circuit(entry)
    fresh, cached = analyze_reach(circuit, cache_dir=tmp_path)
    assert not cached

    clear_reach_cache()  # fresh-process stand-in: memory tier empty
    circuit2 = build_in_fresh_circuit(entry)
    warm, cached = analyze_reach(circuit2, cache_dir=tmp_path)
    assert cached
    assert warm == fresh
    assert store_stats(tmp_path)["namespaces"][LINT_NAMESPACE]["entries"] == 1


# -- analyses stored by the previous zone explorer are misses ----------
def test_reach_analysis_under_pre_explorer_version_key_is_recomputed(
        tmp_path):
    """Active-clock zones changed the explorer's state counts (AND: 30 →
    27, quoted in every PL401 message), so an analysis stored under the
    key tuple that had no explorer version must never be served."""
    entry = next(e for e in registry() if e.name == "AND")
    direct, _ = analyze_reach(build_in_fresh_circuit(entry), use_cache=False)
    stale = dataclasses.replace(direct, states_explored=30)
    budget = direct.budget
    old_key = (_HASH_VERSION, direct.digest, direct.rules,
               budget.max_states, float(budget.time_limit))
    DiskCache(tmp_path, LINT_NAMESPACE).put(
        old_key, reach_analysis_to_jsonable(stale)
    )

    clear_reach_cache()
    served, cached = analyze_reach(
        build_in_fresh_circuit(entry), cache_dir=tmp_path
    )
    assert not cached
    assert served.states_explored == 27
    untimed = dict(elapsed_seconds=0.0)
    assert dataclasses.replace(served, **untimed) == dataclasses.replace(
        direct, **untimed)
    assert store_stats(tmp_path)["namespaces"][LINT_NAMESPACE]["entries"] == 2


def test_reach_analysis_round_trips_through_json():
    entry = next(e for e in registry() if e.name == "Min-Max")
    circuit = build_in_fresh_circuit(entry)
    analysis, _ = analyze_reach(circuit, use_cache=False)
    doc = json.loads(json.dumps(reach_analysis_to_jsonable(analysis)))
    assert reach_analysis_from_jsonable(doc) == analysis


# -- the yield-result codec: differential + property -------------------
def test_yield_result_round_trip_on_real_measurement():
    entry = next(e for e in registry() if e.name == "Min-Max")
    circuit = build_in_fresh_circuit(entry)
    from repro.core.simulation import Simulation
    from repro.exp.registry import PulseCountPredicate, RegistryFactory

    baseline = Simulation(circuit).simulate()
    result = measure_yield(
        RegistryFactory("Min-Max"),
        PulseCountPredicate(baseline),
        1.5,
        seeds=range(10),
    )
    doc = json.loads(json.dumps(yield_result_to_jsonable(result)))
    assert yield_result_from_jsonable(doc) == result


@settings(max_examples=50, deadline=None)
@given(
    sigma=st.floats(
        min_value=0.0, max_value=16.0,
        allow_nan=False, allow_infinity=False,
    ),
    outcomes=st.lists(
        st.sampled_from(["pass", "mis_behaved", "violation"]),
        min_size=0, max_size=40,
    ),
)
def test_yield_result_round_trip_property(sigma, outcomes):
    """Any constructible result survives the JSON round trip unchanged."""
    failures = {}
    passed = mis = vio = 0
    for seed, kind in enumerate(outcomes):
        if kind == "pass":
            passed += 1
        elif kind == "mis_behaved":
            mis += 1
            failures[seed] = "mis_behaved"
        else:
            vio += 1
            failures[seed] = "timing violation"
    result = YieldResult(
        sigma=sigma, runs=len(outcomes), passed=passed,
        mis_behaved=mis, violations=vio, failures=failures,
    )
    doc = json.loads(json.dumps(yield_result_to_jsonable(result)))
    assert yield_result_from_jsonable(doc) == result


def test_yield_result_decode_rejects_foreign_formats():
    from repro.core.errors import PylseError

    with pytest.raises(PylseError, match="format"):
        yield_result_from_jsonable({"format": "something-else"})
    with pytest.raises(PylseError):
        yield_result_from_jsonable({"format": "repro-yield-result-v1"})


# -- the store namespaces stay separate --------------------------------
def test_consumers_write_disjoint_namespaces(tmp_path):
    YieldService(cache_dir=tmp_path).yield_(
        {"design": "Min-Max", "sigma": 0.5, "n_seeds": 5}
    )
    entry = next(e for e in registry() if e.name == "AND")
    clear_reach_cache()
    analyze_reach(build_in_fresh_circuit(entry), cache_dir=tmp_path)
    stats = store_stats(tmp_path)
    assert stats["namespaces"][RESULTS_NAMESPACE]["entries"] == 1
    assert stats["namespaces"][LINT_NAMESPACE]["entries"] == 1
