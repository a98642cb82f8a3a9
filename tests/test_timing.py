"""Tests for delay distributions and the variability machinery."""

import pytest

from repro.core.batchsim import CounterNoise
from repro.core.circuit import working_circuit
from repro.core.errors import PylseError
from repro.core.functional import hole
from repro.core.helpers import inp_at
from repro.core.ir import compile_circuit
from repro.core.simulation import Simulation
from repro.core.timing import (
    Distribution,
    Normal,
    Uniform,
    VariabilitySpec,
    nominal_delay,
)
from repro.sfq import jtl


def seeded_delays(delay, seeds):
    """The firing delay a JTL took in a seeded nominal run, per seed."""
    jtl(inp_at(10.0, name="A"), firing_delay=delay, name="Q")
    sim = Simulation()
    return [sim.simulate(seed=seed)["Q"][0] - 10.0 for seed in seeds]


class Triangular(Distribution):
    """A user distribution: not one of the supported delay kinds."""

    mean = 5.0


class TestDistributions:
    def test_normal_nominal_is_mean(self):
        assert Normal(9.2, 0.5).nominal() == 9.2

    def test_normal_sampling_varies(self):
        samples = seeded_delays(Normal(10.0, 1.0), range(10))
        assert len(set(samples)) > 1
        assert all(s >= 0 for s in samples)

    def test_normal_truncates_at_zero(self):
        samples = seeded_delays(Normal(0.1, 100.0), range(50))
        assert all(s >= 0 for s in samples)
        assert 0.0 in samples   # about half the draws fall below zero

    def test_normal_rejects_negative_params(self):
        with pytest.raises(PylseError):
            Normal(-1.0, 1.0)
        with pytest.raises(PylseError):
            Normal(1.0, -1.0)

    def test_uniform_mean_and_bounds(self):
        dist = Uniform(2.0, 4.0)
        assert dist.mean == 3.0
        samples = seeded_delays(dist, range(50))
        assert all(2.0 <= s <= 4.0 for s in samples)
        assert len(set(samples)) == 50

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(PylseError):
            Uniform(4.0, 2.0)

    def test_nominal_delay_validates(self):
        assert nominal_delay(5) == 5.0
        with pytest.raises(PylseError):
            nominal_delay(-1.0)
        with pytest.raises(PylseError):
            nominal_delay(float("nan"))
        with pytest.raises(PylseError):
            nominal_delay(float("inf"))

    @pytest.mark.parametrize("bad", [
        [1.0], "1.0", True, None, Triangular(),
    ], ids=["list", "string", "bool", "none", "custom-distribution"])
    def test_nominal_delay_rejects_other_kinds(self, bad):
        with pytest.raises(PylseError, match="Normal or Uniform, got"):
            nominal_delay(bad, "X")

    def test_seeded_runs_reproduce_samples(self):
        delays = [Normal(5.0, 1.0), Uniform(2.0, 4.0), 3.0]
        for i, delay in enumerate(delays):
            jtl(inp_at(10.0, name=f"A{i}"), firing_delay=delay, name=f"Q{i}")
        sim = Simulation()
        first = sim.simulate(seed=11)
        assert sim.simulate(seed=11) == first
        assert first["Q2"] == [13.0]   # constants pass through unsampled
        assert sim.simulate(seed=12) != first


class TestVariabilitySpec:
    def test_false_is_disabled(self):
        spec = VariabilitySpec.normalize(False)
        assert not spec.enabled
        assert not spec.applies_to("JTL", "jtl0")

    def test_true_applies_everywhere(self):
        spec = VariabilitySpec.normalize(True)
        assert spec.applies_to("JTL", "jtl0")
        assert spec.applies_to("AND", "and3")

    def test_dict_cell_types_filter(self):
        spec = VariabilitySpec.normalize({"cell_types": ["JTL"]})
        assert spec.applies_to("JTL", "jtl0")
        assert not spec.applies_to("AND", "and0")

    def test_dict_instances_filter(self):
        spec = VariabilitySpec.normalize({"instances": ["jtl1"]})
        assert spec.applies_to("JTL", "jtl1")
        assert not spec.applies_to("JTL", "jtl0")

    def test_applies_by_node_is_memoised_per_selection(self):
        from repro.core.circuit import fresh_circuit
        from repro.core.helpers import inp_at
        from repro.core.ir import compile_circuit
        from repro.sfq import jtl

        with fresh_circuit() as circuit:
            jtl(jtl(inp_at(5.0, name="A")), name="Q")
        compiled = compile_circuit(circuit)
        spec = VariabilitySpec.normalize({"instances": ["jtl1"]})
        applies = spec.applies_by_node(compiled)
        assert applies == tuple(
            not nd.is_input and spec.applies_to(nd.cell, nd.name)
            for nd in compiled.dispatch
        )
        assert applies == (False, False, True)
        again = VariabilitySpec.normalize({"instances": ["jtl1"]})
        assert again.applies_by_node(compiled) is applies
        everywhere = VariabilitySpec.normalize(True).applies_by_node(compiled)
        assert everywhere == (False, True, True)
        assert not any(VariabilitySpec.normalize(False).applies_by_node(
            compiled
        ))

    def test_unknown_key_rejected(self):
        with pytest.raises(PylseError, match="Unknown variability"):
            VariabilitySpec.normalize({"bogus": 1})

    def test_scheme_key_rejected(self):
        """Every noisy run uses the counter streams; no key picks noise."""
        with pytest.raises(PylseError, match="Unknown variability keys"):
            VariabilitySpec.normalize({"scheme": "counter"})

    def test_bad_type_rejected(self):
        with pytest.raises(PylseError):
            VariabilitySpec.normalize(42)  # type: ignore[arg-type]

    def test_callable_used_directly(self):
        spec = VariabilitySpec.normalize(lambda d, node: d + 1.0)
        assert spec.perturb(4.0, None) == 5.0

    def test_perturb_never_negative(self):
        spec = VariabilitySpec.normalize(lambda d, node: -10.0)
        assert spec.perturb(4.0, None) == 0.0

    def test_stddev_controls_spread(self):
        a = inp_at(10.0, name="A")
        q = jtl(a)
        jtl(q, name="Q")
        events = Simulation().simulate(variability={"stddev": 0.0}, seed=1)
        assert events["Q"] == [20.0]     # sigma 0 leaves delays unchanged


class TestSimulationVariability:
    def test_deterministic_without_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        assert Simulation().simulate() == Simulation().simulate()

    def test_variability_perturbs_delays(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(variability=True, seed=3)
        assert events["Q"] != [15.0]
        assert 10.0 < events["Q"][0] < 20.0

    def test_seed_makes_variability_reproducible(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        sim = Simulation()
        first = sim.simulate(variability=True, seed=42)
        second = sim.simulate(variability=True, seed=42)
        assert first == second

    def test_cell_type_scoped_variability(self):
        a = inp_at(10.0, name="A")
        q = jtl(a)
        jtl(q, name="Q")
        events = Simulation().simulate(
            variability={"cell_types": ["AND"]}, seed=1
        )
        assert events["Q"] == [20.0]     # JTLs untouched

    def test_custom_function_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(
            variability=lambda delay, node: delay * 2, seed=1
        )
        assert events["Q"] == [20.0]     # 10 + 5*2

    def test_normal_delay_under_callable_draws_counter_stream(self):
        """A callable perturbs constant delays; a ``Normal`` delay still
        draws from its node's counter stream."""
        a = inp_at(10.0, name="A")
        q = jtl(a, firing_delay=Normal(5.0, 1.0), name="Q")
        jtl(q, name="R")
        events = Simulation().simulate(
            variability=lambda delay, node: delay * 2, seed=7
        )
        compiled = compile_circuit(working_circuit())
        index = next(
            i for i, node in enumerate(compiled.nodes)
            if "Q" in [w.name for w in node.output_wires.values()]
        )
        z = CounterNoise.for_seeds([7]).normal(index)[0].item()
        assert events["Q"] == [10.0 + max(0.0, 5.0 + 1.0 * z)]
        assert events["R"] == [events["Q"][0] + 10.0]

    @pytest.mark.parametrize("variability", [False, True])
    def test_negative_custom_distribution_rejected(self, variability):
        """Only ``Normal`` and ``Uniform`` are delay distributions: a custom
        subclass, even one whose samples would be negative, fails when the
        cell is placed, naming it, so no nominal or noisy run sees it."""

        class Negative(Distribution):
            mean = -1.0

        a = inp_at(10.0, name="A")
        with pytest.raises(PylseError, match=r"^JTL: .*negative.*got <"):
            jtl(a, firing_delay=Negative(), name="Q")
        events = Simulation().simulate(variability=variability, seed=1)
        assert events == {"A": [10.0]}

    def test_distribution_delay_samples_even_without_variability(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Normal(5.0, 1.0), name="Q")
        events = Simulation().simulate(seed=5)
        assert events["Q"] != [15.0]

    def test_distribution_delay_nominal_in_machine(self):
        a = inp_at(10.0, name="A")
        jtl(a, firing_delay=Normal(5.0, 0.0), name="Q")
        events = Simulation().simulate(seed=5)
        assert events["Q"] == [15.0]

    def test_unseeded_constant_run_builds_no_streams(self, monkeypatch):
        """Only a seeded or noisy run, or a design that samples a delay,
        builds counter streams; whether a design samples is read once per
        compile."""
        built = []
        original = CounterNoise.for_run.__func__

        def for_run(cls, seed, *args):
            built.append(seed)
            return original(cls, seed, *args)

        monkeypatch.setattr(CounterNoise, "for_run", classmethod(for_run))
        jtl(jtl(inp_at(10.0, name="A")), name="Q")
        compiled = compile_circuit(working_circuit())
        assert Simulation().simulate()["Q"] == [20.0]
        assert built == [] and compiled._cache["has_distributions"] is False
        Simulation().simulate(seed=4)
        assert built == [4]

    def test_hole_distribution_delay_is_sampled(self):
        @hole(delay=Uniform(1.0, 3.0), inputs=["a"], outputs=["q"])
        def passthrough(a, time):
            return a

        passthrough(inp_at(10.0, name="A"), names="Q")
        compiled = compile_circuit(working_circuit())
        assert compiled.has_distributions
        runs = [Simulation().simulate(seed=seed)["Q"] for seed in range(8)]
        assert all(11.0 <= q <= 13.0 for (q,) in runs)
        assert len({q for (q,) in runs}) == 8
