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

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LINT_NAMESPACE, RESULTS_NAMESPACE, store_stats
from repro.core.montecarlo import YieldResult, measure_yield
from repro.core.serialize import (
    yield_result_from_jsonable,
    yield_result_to_jsonable,
)
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.explore.engine import ExploreEngine
from repro.lint.reach_rules import (
    analyze_reach,
    clear_reach_cache,
    reach_analysis_from_jsonable,
    reach_analysis_to_jsonable,
)
from repro.serve import YieldService

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
    payload = {"design": "Min-Max", "n_seeds": 6, "iterations": 3}
    cold = YieldService(cache_dir=tmp_path)
    first, cached = cold.critical_sigma(payload)
    assert not cached

    warm = YieldService(cache_dir=tmp_path)
    second, cached = warm.critical_sigma(payload)
    assert cached
    assert second == first
    assert warm.computations == 0


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
    contract, so a sweep pre-warms the service for the same circuits."""
    engine = ExploreEngine(cache_dir=tmp_path)
    engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=5)
    digest = engine.resolve("bitonic", {"n": 2}).digest

    from repro.core.ir import result_cache_key

    service = YieldService(cache_dir=tmp_path)
    key = result_cache_key(digest, sigma=0.5, n_seeds=5)
    hit = service.result_store.get(key)
    from repro.cache import MISSING

    assert hit is not MISSING
    assert hit == yield_result_to_jsonable(
        engine.result_store.get(key)
    )


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
