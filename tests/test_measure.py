"""The measurement layer's resolution: one elaboration per design.

:meth:`repro.exp.measure.Measurer.resolve` elaborates a design once and
keeps the circuit on its :class:`~repro.exp.measure.Resolved` entry, so a
result miss sweeps that circuit instead of calling the factory again.
These tests count factory calls through both front-ends, pin how the
entry's factory behaves and pickles, pin that the static cost stays
each name's own although names with one digest share one entry, and
check every registry design and CI explore grid point against a direct
``measure_yield`` on a fresh factory.
"""

import pickle
from collections import Counter

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.energy import circuit_cost
from repro.core.helpers import inp_at
from repro.core.montecarlo import measure_yield
from repro.core.serialize import yield_result_to_jsonable
from repro.core.simulation import Simulation
from repro.exp.measure import Measurer, ResolvedFactory
from repro.exp.registry import PulseCountPredicate, RegistryFactory, registry
from repro.explore import ExploreEngine, FamilyFactory
from repro.serve import YieldService
from repro.sfq import jtl


def _jtl(jjs=None):
    with fresh_circuit() as circuit:
        a = inp_at(10.0, name="A")
        if jjs is None:
            jtl(a, name="Q")
        else:
            jtl(a, jjs=jjs, name="Q")
    return circuit


def _plain_jtl():
    return _jtl()


def _heavy_jtl():
    return _jtl(jjs=9)


@pytest.fixture
def calls(monkeypatch):
    """Counts factory calls by the factory's repr."""
    counter = Counter()
    for cls in (FamilyFactory, RegistryFactory):
        original = cls.__call__

        def counted(self, _original=original):
            counter[repr(self)] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__call__", counted)
    return counter


# -- factory calls -------------------------------------------------------
def test_cold_explore_sweep_elaborates_each_point_once(calls):
    engine = ExploreEngine(workers=1)
    engine.sweep("bitonic", {"n": [2, 4]}, sigma=3.0, n_seeds=6)
    engine.sweep("racetree", {"depth": [1, 2]}, sigma=3.0, n_seeds=6)
    assert engine.computations == 4
    assert len(calls) == 4
    assert set(calls.values()) == {1}


def test_cold_served_yield_elaborates_once(calls):
    service = YieldService(workers=1)
    service.yield_({"design": "Min-Max", "sigma": 3.0, "n_seeds": 6})
    assert service.computations == 1
    assert calls == {"RegistryFactory('Min-Max')": 1}


def test_served_yield_curve_elaborates_once(calls):
    service = YieldService(workers=1)
    service.yield_curve({"design": "Race Tree", "sigmas": [1.0, 3.0, 8.0],
                         "n_seeds": 6})
    assert service.computations == 3
    assert calls == {"RegistryFactory('Race Tree')": 1}


def test_pooled_miss_elaborates_once_in_the_parent(calls):
    service = YieldService(workers=2)
    body, _ = service.yield_({"design": "Min-Max", "sigma": 8.0,
                              "n_seeds": 300})
    assert body["result"]["runs"] == 300
    assert calls == {"RegistryFactory('Min-Max')": 1}


# -- the entry's factory -------------------------------------------------
def test_resolved_factory_returns_the_resolved_circuit():
    resolved = Measurer().resolve(RegistryFactory("Min-Max"), "Min-Max")
    factory = resolved.factory
    assert isinstance(factory, ResolvedFactory)
    assert factory() is factory() is factory.circuit


def test_resolved_factory_pickles_as_the_original_factory():
    resolved = Measurer().resolve(FamilyFactory("bitonic", {"n": 4}))
    clone = pickle.loads(pickle.dumps(resolved.factory))
    assert isinstance(clone, FamilyFactory)
    assert clone.params == (("n", 4),)
    assert clone() is not resolved.factory.circuit


# -- cost is per name, the computation per digest ------------------------
def test_cost_is_the_callers_own_circuit():
    """A ``jjs`` override is not hashed: two names, one digest, two costs."""
    measurer = Measurer()
    plain = measurer.resolve(_plain_jtl, "plain")
    heavy = measurer.resolve(_heavy_jtl, "heavy")
    assert plain.digest == heavy.digest
    assert circuit_cost(_plain_jtl()).jjs == 2
    assert circuit_cost(_heavy_jtl()).jjs == 9
    assert plain.cost.jjs == 2
    assert heavy.cost.jjs == 9
    # Memo hits keep each name's cost; an unnamed submission costs its own.
    assert measurer.resolve(_plain_jtl, "plain").cost.jjs == 2
    assert measurer.resolve(_heavy_jtl, "heavy").cost.jjs == 9
    assert measurer.resolve(_heavy_jtl).cost.jjs == 9
    assert measurer.elaborations == 3
    # One digest, one Monte-Carlo computation for both names.
    first, cached, _ = measurer.measure(plain, 2.0, 5)
    assert cached is False
    second, cached, _ = measurer.measure(heavy, 2.0, 5)
    assert cached is True
    assert first == second
    assert measurer.computations == 1


# -- documents equal direct measure_yield on a fresh factory ---------------
@pytest.mark.parametrize("batch", [None, 0])
def test_every_registry_design_serves_the_direct_result(batch):
    service = YieldService(workers=1)
    for entry in registry():
        factory = RegistryFactory(entry.name)
        predicate = PulseCountPredicate(Simulation(factory()).simulate())
        direct = yield_result_to_jsonable(measure_yield(
            factory, predicate, 3.0, seeds=range(2, 14), batch=batch,
        ))
        for _ in range(2):  # cold, then warm
            body, _ = service.yield_({"design": entry.name, "sigma": 3.0,
                                      "n_seeds": 12, "seed0": 2,
                                      "batch": batch})
            assert body["result"] == direct, entry.name


#: The CI explore smoke grids.
GRID_POINTS = [
    ("racetree", {"depth": d}) for d in (1, 2, 3)
] + [("bitonic", {"n": n}) for n in (2, 4, 8)] + [
    ("adder_xsfq", {"n": n}) for n in (1, 2, 4)
] + [("memory", {"words": w, "bits": 4}) for w in (4, 8)]


@pytest.mark.parametrize("batch", [None, 0])
def test_every_grid_point_explores_the_direct_result(batch):
    engine = ExploreEngine(workers=1)
    for family, params in GRID_POINTS:
        factory = FamilyFactory(family, params)
        predicate = PulseCountPredicate(Simulation(factory()).simulate())
        direct = measure_yield(factory, predicate, 3.0, seeds=range(10),
                               batch=batch)
        for _ in range(2):  # cold, then warm
            point = engine.measure(family, params, sigma=3.0, n_seeds=10,
                                   batch=batch)
            assert point.result == direct, (family, params)
            assert list(point.result.failures) == list(direct.failures)
