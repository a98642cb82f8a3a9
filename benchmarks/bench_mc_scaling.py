"""MC scaling benchmarks: model checking and Monte-Carlo yield.

Three MC axes in one file:

* model-checker scaling — symbolic states vs input-schedule length on the
  AND cell (the paper's Table 3 'States' column, swept);
* Monte-Carlo yield scaling — a 512-seed Section 5.2 sweep of the bitonic-8
  sorter, sequential (``workers=1``, the reference path) vs the
  persistent-pool :class:`~repro.core.parallel.YieldEngine`
  (``workers=4``); results are bit-identical either way. 512 seeds are
  two 256-lane batched passes, so ``workers=4`` takes the pool;
* amortized multi-call scaling — the same 512 seeds swept at four sigma
  levels through one engine, the ``yield_curve`` / ``critical_sigma``
  usage pattern the engine exists for: pool startup is paid once and
  amortized over every call.

The ``workers=4`` variants are skipped on single-CPU hosts, where a pool
can only lose; ``tools/bench_guard.py`` records the skip explicitly
instead of a misleading ratio.
"""

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp, inp_at
from repro.core.montecarlo import measure_yield, yield_curve
from repro.core.parallel import available_cpus, shutdown_default_engines
from repro.designs import bitonic_sorter
from repro.mc import ModelChecker
from repro.sfq import and_s
from repro.ta import no_error_query, translate_circuit

MC_SORT_TIMES = (20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0)
MC_SIGMA = 0.5
MC_SEEDS = 512
MC_AMORTIZED_SIGMAS = (0.2, 0.4, 0.6, 0.8)

#: ``workers=4`` only makes sense with >= 2 CPUs; skipping keeps 1-CPU
#: containers from recording a pool-overhead number as if it were a
#: parallel speedup.
NEEDS_MULTI_CPU = pytest.mark.skipif(
    available_cpus() < 2, reason="parallel Monte-Carlo needs >= 2 CPUs"
)


def bitonic8_factory():
    """Fresh bitonic-8 circuit (module-level: picklable for the pool)."""
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(MC_SORT_TIMES)]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(8)])
    return circuit


def bitonic8_ok(events):
    """Every output pulsed once, in sorted arrival order."""
    if any(len(events[f"o{k}"]) != 1 for k in range(8)):
        return False
    firsts = [events[f"o{k}"][0] for k in range(8)]
    return firsts == sorted(firsts)


@pytest.mark.parametrize(
    "workers", [1, pytest.param(4, marks=NEEDS_MULTI_CPU)]
)
def test_mc_yield_workers(benchmark, workers):
    """One cold 512-seed call: includes pool startup for ``workers=4``."""

    def sweep():
        try:
            return measure_yield(
                bitonic8_factory, bitonic8_ok, sigma=MC_SIGMA,
                seeds=range(MC_SEEDS), workers=workers,
            )
        finally:
            shutdown_default_engines()

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert result.runs == MC_SEEDS
    assert result.passed + result.mis_behaved + result.violations == MC_SEEDS


@pytest.mark.parametrize(
    "workers", [1, pytest.param(4, marks=NEEDS_MULTI_CPU)]
)
def test_mc_amortized(benchmark, workers):
    """512 seeds x 4 sigma levels through one persistent engine.

    The multi-call pattern (``yield_curve``, ``critical_sigma``): one
    pool, created inside the timed region, reused by every sigma level.
    This is the number ``tools/bench_guard.py`` records as the amortized
    parallel speedup.
    """

    def sweep():
        try:
            return yield_curve(
                bitonic8_factory, bitonic8_ok, sigmas=MC_AMORTIZED_SIGMAS,
                seeds=range(MC_SEEDS), workers=workers,
            )
        finally:
            shutdown_default_engines()

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert [r.sigma for r in results] == list(MC_AMORTIZED_SIGMAS)
    assert all(r.runs == MC_SEEDS for r in results)


@pytest.mark.parametrize("n_clocks", [2, 4, 6])
def test_and_verification_scaling(benchmark, n_clocks):
    with fresh_circuit() as circuit:
        a = inp_at(*[30.0 + 100.0 * k for k in range(n_clocks // 2)], name="A")
        b = inp_at(*[65.0 + 100.0 * k for k in range(n_clocks // 2)], name="B")
        clk = inp(start=50, period=50, n=n_clocks, name="CLK")
        and_s(a, b, clk, name="Q")
    translation = translate_circuit(circuit)
    query = no_error_query(translation)
    result = benchmark.pedantic(
        lambda: ModelChecker(translation.network).run([query]),
        rounds=1, iterations=1,
    )
    assert result.satisfied
