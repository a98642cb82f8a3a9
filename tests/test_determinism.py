"""Determinism guarantees of the seeded simulator.

The fast-path/general-path split in ``Simulation.simulate`` and the flat
pulse heap must not change the reference semantics: the same seed must give
bit-identical events under variability, and simultaneous pulses must be
dispatched in the same (seeded) order every run.
"""

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.designs import bitonic_sorter
from repro.sfq.functions import c, xor_s

SORT_TIMES = (20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0)


def named(events):
    """Only user-named wires: auto ``_N`` labels shift between separate
    elaborations (the global wire counter keeps counting), so cross-circuit
    comparisons are meaningful on observed names only."""
    return {k: v for k, v in events.items() if not k.startswith("_")}


def build_bitonic():
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(SORT_TIMES)]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(8)])
    return circuit


def build_simultaneous():
    """Two pulses arriving at the same instant on one C element."""
    with fresh_circuit() as circuit:
        a = inp_at(10.0, 40.0, name="A")
        b = inp_at(10.0, 40.0, name="B")
        c(a, b, name="Q")
    return circuit


class TestSeededVariability:
    def test_same_seed_identical_events(self):
        run = lambda: Simulation(build_bitonic()).simulate(
            variability={"stddev": 1.0}, seed=7
        )
        first, second = run(), run()
        assert named(first) == named(second)

    def test_resimulating_one_circuit_is_stable(self):
        circuit = build_bitonic()
        sim = Simulation(circuit)
        first = sim.simulate(variability=True, seed=3)
        second = sim.simulate(variability=True, seed=3)
        assert first == second

    def test_different_seeds_differ(self):
        base = Simulation(build_bitonic()).simulate(
            variability={"stddev": 1.0}, seed=1
        )
        other = Simulation(build_bitonic()).simulate(
            variability={"stddev": 1.0}, seed=2
        )
        assert named(base) != named(other)

    def test_variability_matches_trace_recording_run(self):
        """record=True must not change pulse times (same RNG draw order)."""
        plain = Simulation(build_bitonic()).simulate(
            variability={"stddev": 0.5}, seed=11
        )
        sim = Simulation(build_bitonic())
        traced = sim.simulate(variability={"stddev": 0.5}, seed=11, record=True)
        assert named(plain) == named(traced)
        assert sim.trace


class TestSimultaneousTieBreak:
    def test_seeded_dispatch_order_is_reproducible(self):
        def run():
            sim = Simulation(build_simultaneous())
            events = sim.simulate(seed=5, record=True)
            order = [(entry.time, entry.node, entry.ports) for entry in sim.trace]
            return events, order

        (events_a, order_a), (events_b, order_b) = run(), run()
        assert events_a == events_b
        assert order_a == order_b

    def test_unseeded_dispatch_is_deterministic(self):
        runs = [
            Simulation(build_simultaneous()).simulate() for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_fast_and_general_paths_agree(self):
        """A plain run and a record=True run (trace bookkeeping on)
        must produce identical events for the same circuit."""
        with_trace = Simulation(build_simultaneous()).simulate(record=True)
        without = Simulation(build_simultaneous()).simulate()
        assert with_trace == without

    def test_fanin_tie_from_two_cells(self):
        """Pulses from distinct upstream cells landing simultaneously."""
        def build():
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                b = inp_at(10.0, name="B")
                clk = inp_at(30.0, 80.0, name="CLK")
                xor_s(a, b, clk, name="Q")
            return circuit

        runs = [Simulation(build()).simulate(seed=9) for _ in range(2)]
        assert runs[0] == runs[1]
