"""Compile-cache effect: cold compile vs cached repeat simulation.

``compile_circuit`` memoizes its result on the circuit keyed by the
mutation version, so only the *first* ``simulate()`` after elaboration (or
after a structural change) pays for validation, dense-id assignment and the
dispatch tables. The structural hash and the analysis views are computed
on first read, which a plain ``simulate()`` never does. These benchmarks
measure four legs on the bitonic-8 sorter:

* ``test_compile_cold`` — the compile pass alone (memo invalidated each
  round);
* ``test_structural_hash_cold`` — the compile pass plus the first read of
  the structural hash, the cost a cache-keyed consumer (serve, explore,
  lint) pays on a cold design;
* ``test_simulate_cold`` — compile + simulate, the first-call cost;
* ``test_simulate_warm`` — simulate on a warm memo, the steady-state cost
  of every repeated ``simulate()`` / ``measure_yield()`` trial.

``tools/bench_guard.py`` records all four in ``BENCH_sim.json`` and fails
if the warm repeat does not beat the cold path — the cache's reason to
exist.
"""

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.ir import compile_circuit
from repro.core.simulation import Simulation
from repro.designs import bitonic_delay, bitonic_sorter

TIMES = [((k * 37) % 8) * 12.0 + 5.0 for k in range(8)]


def build_bitonic8():
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(TIMES)]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(8)])
    return circuit


def test_compile_cold(benchmark):
    circuit = build_bitonic8()

    def compile_cold():
        circuit._mutated()  # drop the memo: force a full compile pass
        return compile_circuit(circuit)

    compiled = benchmark(compile_cold)
    assert len(compiled) == len(circuit)


def test_structural_hash_cold(benchmark):
    circuit = build_bitonic8()

    def hash_cold():
        circuit._mutated()
        return compile_circuit(circuit).structural_hash

    digest = benchmark(hash_cold)
    assert len(digest) == 64


def test_simulate_cold(benchmark):
    circuit = build_bitonic8()

    def simulate_cold():
        circuit._mutated()
        return Simulation(circuit).simulate()

    events = benchmark(simulate_cold)
    firsts = [events[f"o{k}"][0] for k in range(8)]
    assert firsts == sorted(t + bitonic_delay(8) for t in TIMES)


def test_simulate_warm(benchmark):
    circuit = build_bitonic8()
    compile_circuit(circuit)  # prime the memo once

    events = benchmark(lambda: Simulation(circuit).simulate())
    firsts = [events[f"o{k}"][0] for k in range(8)]
    assert firsts == sorted(t + bitonic_delay(8) for t in TIMES)
