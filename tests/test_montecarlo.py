"""Tests for Monte-Carlo timing-yield analysis."""

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import default_engine
from repro.core.simulation import Simulation
from repro.designs import min_max
from repro.exp.registry import PulseCountPredicate, RegistryFactory
from repro.obs import Observer
from repro.sfq import dro


def minmax_factory() -> Circuit:
    with fresh_circuit() as circuit:
        a = inp_at(60.0, name="A")
        b = inp_at(25.0, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit


def minmax_ok(events) -> bool:
    return (
        len(events["low"]) == 1
        and len(events["high"]) == 1
        and events["low"][0] < events["high"][0]
    )


class TestMeasureYield:
    def test_perfect_yield_without_noise(self):
        result = measure_yield(minmax_factory, minmax_ok, sigma=0.0,
                               seeds=range(5))
        assert result.yield_fraction == 1.0
        assert result.failures == {}

    def test_large_noise_degrades_yield(self):
        # 200 seeds: wide enough that sigma=12 deterministically produces
        # mis-ordered runs under the counter noise scheme (the batched
        # drain's per-(seed, node) streams; see repro.core.batchsim).
        clean = measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(200))
        noisy = measure_yield(minmax_factory, minmax_ok, 12.0,
                              seeds=range(200))
        assert noisy.yield_fraction < clean.yield_fraction
        assert noisy.failures     # and the failing seeds are recorded

    def test_violations_counted_separately(self):
        """A DRO with data right at the clock edge violates under noise."""
        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(46.0, name="A")       # 4 ps before the clock
                clk = inp_at(50.0, name="CLK")
                dro(a, clk, name="Q")
            return circuit

        result = measure_yield(factory, lambda e: len(e["Q"]) == 1,
                               sigma=0.0, seeds=range(3))
        assert result.yield_fraction == 1.0

    def test_needs_seeds(self):
        with pytest.raises(PylseError):
            measure_yield(minmax_factory, minmax_ok, 0.0, seeds=())


class SameCircuit:
    """A factory that returns one circuit on every call (picklable)."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

    def __call__(self) -> Circuit:
        return self.circuit


def simulated_circuit(factory) -> Circuit:
    """A circuit after a nominal, a noisy and an observed recorded run."""
    circuit = factory()
    Simulation(circuit).simulate()
    try:
        Simulation(circuit).simulate(variability=True, seed=7)
    except PylseError:  # a noisy run may end in a timing violation
        pass
    Simulation(circuit).simulate(record=True, observer=Observer())
    return circuit


class TestReusedCircuit:
    """A run never mutates a circuit, so a factory need not build a fresh
    one: sweeping one already-simulated circuit gives the fresh result."""

    # Adder (Sync) mixes passes, mis-behaved runs and violations on the
    # per-seed drain; Min-Max at sigma 12 mixes batched lanes, replays
    # and mis-ordered outputs.
    CASES = {
        "adder": (RegistryFactory("Adder (Sync)"), None, 3.0),
        "minmax": (minmax_factory, minmax_ok, 12.0),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("collect_stats", [False, True])
    @pytest.mark.parametrize("batch", [None, 0])
    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_fresh_factory(self, name, batch, collect_stats, workers):
        fresh, predicate, sigma = self.CASES[name]
        if predicate is None:
            predicate = PulseCountPredicate(Simulation(fresh()).simulate())
        reused = SameCircuit(simulated_circuit(fresh))
        results = []
        for factory in (fresh, reused, reused):
            results.append(measure_yield(
                factory, predicate, sigma, seeds=range(300),
                workers=workers, collect_stats=collect_stats, batch=batch,
            ))
            if workers > 1:
                assert default_engine(workers).last_backend == "pool"
        expected = results[0]
        assert expected.failures and expected.passed
        for result in results[1:]:
            assert result == expected
            assert list(result.failures) == list(expected.failures)
            assert result.fallback_seeds == expected.fallback_seeds
            assert result.batched_lanes == expected.batched_lanes
            assert result.divergence == expected.divergence


class TestYieldCurve:
    def test_monotone_trend(self):
        curve = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 15.0), seeds=range(10)
        )
        assert curve[0].yield_fraction >= curve[1].yield_fraction
        assert [r.sigma for r in curve] == [0.0, 15.0]


class TestCriticalSigma:
    def test_finds_a_threshold(self):
        sigma = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(8), iterations=4,
        )
        assert sigma is not None
        assert 0.0 < sigma <= 16.0

    def test_functionally_broken_design_returns_none(self):
        sigma = critical_sigma(
            minmax_factory, lambda events: False, seeds=range(3)
        )
        assert sigma is None

    def test_very_robust_design_returns_upper_bound(self):
        """A lone JTL never mis-orders anything: yield stays 1."""
        from repro.sfq import jtl

        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                jtl(a, name="Q")
            return circuit

        sigma = critical_sigma(
            factory, lambda e: len(e["Q"]) == 1,
            sigma_hi=4.0, seeds=range(5),
        )
        assert sigma == 4.0

    def test_bad_target_rejected(self):
        with pytest.raises(PylseError):
            critical_sigma(minmax_factory, minmax_ok, target_yield=0.0)


class TestHtmlWaveforms:
    def test_html_structure(self):
        from repro.core.htmlwave import events_to_html

        html = events_to_html({"A": [10.0, 30.0], "Q": [15.0]}, title="demo")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "</svg>" in html
        assert html.count('class="pulse"') == 3
        assert "A @ 10 ps" in html

    def test_empty_rejected(self):
        from repro.core.htmlwave import events_to_html

        with pytest.raises(PylseError):
            events_to_html({})

    def test_save_roundtrip(self, tmp_path):
        from repro.core.htmlwave import save_html

        path = tmp_path / "wave.html"
        save_html({"A": [5.0]}, str(path))
        assert "<svg" in path.read_text()

    def test_escapes_names(self):
        from repro.core.htmlwave import events_to_html

        html = events_to_html({"<evil>": [1.0]})
        assert "<evil>" not in html
        assert "&lt;evil&gt;" in html
