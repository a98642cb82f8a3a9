"""Vectorized multi-seed Monte-Carlo benchmarks (repro.core.batchsim).

One 200-seed drain per (design, mode) pair, on a pre-built Simulation
with a warm compiled-circuit memo so the comparison isolates the drain
itself (elaboration/compile cost is measured by ``bench_compile.py``,
and the end-to-end ``measure_yield`` path by ``bench_mc_scaling.py``):

* ``batched`` — the default vectorized drain (``batch=None``): all seeds
  advance through one event-loop pass as lanes of a structure-of-arrays
  batch, with diverging seeds replayed on the per-seed reference drain;
* ``perseed`` — ``batch=0``: the same counter-stream noise, one full
  event-loop drain per seed. This is the reference the batched drain is
  element-wise identical to (tests/test_differential.py), and the path
  every divergence replay takes.

Next to them, ``test_mc_perseed_nominal`` runs the same bitonic-8
per-seed drain with variability off: the floor a per-seed noisy run
adds its noise cost to.

Every body is timed over ``ROUNDS`` rounds after one warmup round, so
``tools/bench_guard.py`` compares medians, not single samples. It records
them per design in the ``mc_batched_200_seeds_s`` block of
``BENCH_sim.json`` and fails if the batched drain is less than 5x faster
than the per-seed reference, or if the bitonic-8 per-seed noisy run
costs more than 2.1x the nominal one.

Two designs bracket the divergence spectrum: the Min-Max pair (shallow,
fully conformant at this sigma — the pure vectorization win) and the
bitonic-8 sorter (deep, a few lanes diverge and pay the replay cost).
"""

import pytest

from bench_mc_scaling import MC_SIGMA, bitonic8_factory, bitonic8_ok
from repro.core.batchsim import _replay_seeds, run_batch
from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.designs import min_max

MC_BATCHED_SEEDS = 200

#: Timed rounds per body: the gates divide medians of this many samples.
ROUNDS = 9


def minmax_factory():
    """Fresh Min-Max comparator circuit (module-level: picklable)."""
    with fresh_circuit() as circuit:
        a = inp_at(60.0, name="A")
        b = inp_at(25.0, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit


def minmax_ok(events):
    return (
        len(events["low"]) == 1
        and len(events["high"]) == 1
        and events["low"][0] < events["high"][0]
    )


DESIGNS = {
    "minmax": (minmax_factory, minmax_ok),
    "bitonic8": (bitonic8_factory, bitonic8_ok),
}

#: ``None`` is the production default (auto lane width); ``0`` disables
#: batching and drains one seed at a time — the comparison baseline.
MODES = {"batched": None, "perseed": 0}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("design", list(DESIGNS))
def test_mc_batched(benchmark, design, mode):
    factory, predicate = DESIGNS[design]
    batch = MODES[mode]
    sim = Simulation(factory())  # compile once, outside the timed region

    def sweep():
        return run_batch(
            sim, predicate, MC_SIGMA, range(MC_BATCHED_SEEDS), batch=batch
        )

    # One warmup round absorbs first-touch numpy/ufunc setup; the timed
    # rounds then measure the steady-state drain the sweeps actually run.
    outcomes, _, report = benchmark.pedantic(
        sweep, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert len(outcomes) == MC_BATCHED_SEEDS
    if mode == "batched":
        # Every seed is accounted for: classified in a batch lane or
        # replayed on the reference drain.
        assert report.batched_lanes + len(report.fallback_seeds) \
            == MC_BATCHED_SEEDS
    else:
        assert report.batched_lanes == 0 and not report.fallback_seeds


def test_mc_perseed_nominal(benchmark):
    """Bitonic-8 per-seed drain with variability off, classified the way
    ``batch=0`` classifies its noisy runs."""
    factory, predicate = DESIGNS["bitonic8"]
    sim = Simulation(factory())

    def sweep():
        return _replay_seeds(
            sim, predicate, False, range(MC_BATCHED_SEEDS), False
        )

    outcomes, _ = benchmark.pedantic(
        sweep, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert len(outcomes) == MC_BATCHED_SEEDS
