"""Randomized whole-stack tests: generated circuits through every backend.

A hypothesis strategy builds random acyclic networks of the asynchronous
cells (JTL, S, M, C, InvC) with widely spaced single-pulse inputs, then
checks cross-cutting invariants:

* simulation completes without timing violations and is deterministic;
* JSON serialization round-trips to identical events;
* pulse conservation: mergers/splitters/JTLs neither create nor lose
  pulses beyond their cell semantics (checked via activity counters);
* for small instances, the TA translation + model checker agrees with the
  simulation (Queries 1 + 2 satisfied).
"""

import random as stdlib_random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.serialize import circuit_from_json, circuit_to_json
from repro.core.simulation import Simulation
from repro.mc import verify_design
from repro.sfq import c, c_inv, dro, jtl, m, s


ASYNC_KINDS = ("jtl", "s", "m", "c", "c_inv")


def build_random_circuit(seed: int, n_inputs: int, n_cells: int,
                         kinds=ASYNC_KINDS, jtl_delays: bool = False,
                         spacing: float = 120.0):
    """Deterministically build a random acyclic circuit.

    ``kinds`` may also name ``"dro"``, whose second operand drives its clk
    port; ``jtl_delays`` gives every JTL a random firing delay. Input ``k``
    pulses once at ``40 + spacing * k`` ps: the default keeps every pulse
    clear of every setup and hold window, a spacing of a few ps lands
    pulses inside them.
    """
    rng = stdlib_random.Random(seed)
    with fresh_circuit() as circuit:
        pool = [
            inp_at(40.0 + spacing * k, name=f"in{k}")
            for k in range(n_inputs)
        ]
        for _ in range(n_cells):
            kind = rng.choice(kinds)
            if kind in ("m", "c", "c_inv", "dro") and len(pool) < 2:
                kind = "jtl"
            if kind == "jtl":
                wire = pool.pop(rng.randrange(len(pool)))
                if jtl_delays:
                    pool.append(jtl(wire, firing_delay=rng.uniform(0.5, 12.0)))
                else:
                    pool.append(jtl(wire))
            elif kind == "s":
                wire = pool.pop(rng.randrange(len(pool)))
                left, right = s(wire)
                pool += [left, right]
            else:
                first = pool.pop(rng.randrange(len(pool)))
                second = pool.pop(rng.randrange(len(pool)))
                builder = {"m": m, "c": c, "c_inv": c_inv, "dro": dro}[kind]
                pool.append(builder(first, second))
        for k, wire in enumerate(pool):
            wire.observe(f"out{k}")
    return circuit


class TestRandomCircuits:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_simulation_completes_and_is_deterministic(
        self, seed, n_inputs, n_cells
    ):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        first = Simulation(circuit).simulate()
        second = Simulation(circuit).simulate()
        assert first == second

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_serialization_roundtrip_preserves_events(
        self, seed, n_inputs, n_cells
    ):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        rebuilt = circuit_from_json(circuit_to_json(circuit))
        assert Simulation(rebuilt).simulate() == Simulation(circuit).simulate()

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_activity_conservation(self, seed, n_inputs, n_cells):
        """Per cell type: outputs emitted match the cell's contract."""
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        sim = Simulation(circuit)
        sim.simulate()
        for node in circuit.cells():
            pulses_in, pulses_out = sim.activity[node.name]
            cell = node.element.name
            if cell == "JTL":
                assert pulses_out == pulses_in
            elif cell == "S":
                assert pulses_out == 2 * pulses_in
            elif cell == "M":
                assert pulses_out == pulses_in
            elif cell == "C":
                assert pulses_out <= pulses_in // 2
            elif cell == "C_INV":
                # Fires on firsts: at most one per pulse, at least one if
                # any pulse arrived.
                assert (pulses_out >= 1) == (pulses_in >= 1)

    @given(
        seed=st.integers(0, 500),
        n_cells=st.integers(1, 3),
    )
    @settings(max_examples=8, deadline=None)
    def test_small_instances_verify(self, seed, n_cells):
        circuit = build_random_circuit(seed, n_inputs=2, n_cells=n_cells)
        report = verify_design(circuit, max_states=60_000, time_limit=30)
        if report.result.completed:
            assert report.ok, report.result.violations[:3]
