"""Tests for the persistent YieldEngine (repro.core.parallel).

Covers the engine-specific contracts on top of ``test_parallel.py``'s
bit-identity suite: pool reuse (one pool across a whole bisection
search), the adaptive serial fallback, crash degradation back to the
sequential reference path, per-chunk retry-once, and stats determinism
under the chunked engine.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import (
    YieldEngine,
    _engine_chunk,
    _engine_worker_init,
    default_engine,
    shutdown_default_engines,
)
from repro.designs import min_max

from test_parallel import reference_chunk

#: Captured at import time in the parent; a forked pool worker inherits
#: this value but has a different pid — which is how ``crashing_predicate``
#: kills workers while staying harmless in the parent. (The injection
#: lives in the predicate because workers no longer run the factory at
#: all: the parent ships the compiled circuit via the pool initializer.)
_PARENT_PID = os.getpid()

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="worker-crash injection relies on fork inheritance",
)


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


def crashing_predicate(events) -> bool:
    """Judges fine in the parent, kills any pool worker that runs it."""
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return minmax_ok(events)


def unpicklable_hole_factory() -> Circuit:
    """Builds fine, but the hole's nested function defeats pickling."""
    from repro.core.functional import hole

    @hole(delay=5.0, inputs=["a", "b"], outputs=["lo", "hi"])
    def local_minmax(a, b, time):
        return (a and b) or None, a or b

    with fresh_circuit() as circuit:
        a = inp_at(60.0, name="A")
        b = inp_at(25.0, name="B")
        lo, hi = local_minmax(a, b)
        lo.observe("low")
        hi.observe("high")
    return circuit


@pytest.fixture(autouse=True)
def _clean_default_engines():
    yield
    shutdown_default_engines()


class TestPoolReuse:
    def test_critical_sigma_creates_exactly_one_pool(self):
        """The acceptance contract: every bisection iteration shares one
        warm pool."""
        with YieldEngine(workers=2, adaptive=False) as engine:
            value = critical_sigma(
                minmax_factory, minmax_ok, target_yield=0.9,
                sigma_hi=16.0, seeds=range(6), iterations=3,
                workers=2, engine=engine,
            )
            assert engine.pools_created == 1
            assert engine.last_backend == "pool"
        sequential = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
        )
        assert value == sequential

    def test_yield_curve_reuses_one_pool(self):
        with YieldEngine(workers=2, adaptive=False) as engine:
            curve = yield_curve(
                minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
                seeds=range(8), workers=2, engine=engine,
            )
            assert engine.pools_created == 1
        assert curve == yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
            seeds=range(8),
        )

    def test_task_change_recreates_pool(self):
        """A different factory/predicate means a different initializer
        payload, so the pool is rebuilt once."""
        from test_parallel import minmax_factory as other_factory

        with YieldEngine(workers=2, adaptive=False) as engine:
            measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(4),
                          engine=engine)
            measure_yield(other_factory, minmax_ok, 0.0, seeds=range(4),
                          engine=engine)
            assert engine.pools_created == 2

    def test_default_engine_cached_by_worker_count(self):
        assert default_engine(2) is default_engine(2)
        assert default_engine(2) is not default_engine(3)

    def test_default_engine_revived_after_shutdown(self):
        engine = default_engine(2)
        shutdown_default_engines()
        revived = default_engine(2)
        assert revived is not engine
        assert not revived.closed


class TestInitBlobProtocol:
    def test_compiled_circuit_shipped_when_picklable(self):
        """The pool initializer carries the parent's compiled circuit, so
        workers neither re-elaborate nor recompile."""
        from repro.core.ir import CompiledCircuit, compile_circuit

        task_blob = pickle.dumps((minmax_factory, minmax_ok))
        with YieldEngine(workers=2) as engine:
            blob = engine._task_init_blob(minmax_factory, minmax_ok, task_blob)
            kind, payload, predicate = pickle.loads(blob)
            assert kind == "compiled"
            assert isinstance(payload, CompiledCircuit)
            assert predicate is minmax_ok
            # The pickle cycle keeps the memo warm on the receiving side.
            assert compile_circuit(payload.circuit) is payload
            # One pickling per task: the blob is cached.
            assert engine._task_init_blob(
                minmax_factory, minmax_ok, task_blob
            ) is blob

    def test_factory_fallback_when_compiled_form_unpicklable(self):
        """Hole circuits wrap arbitrary callables; when the compiled form
        cannot pickle, the initializer falls back to shipping the factory
        and the worker elaborates once itself."""
        task_blob = pickle.dumps((unpicklable_hole_factory, minmax_ok))
        with YieldEngine(workers=2) as engine:
            blob = engine._task_init_blob(
                unpicklable_hole_factory, minmax_ok, task_blob
            )
            kind, payload, predicate = pickle.loads(blob)
            assert kind == "factory"
            assert payload is unpicklable_hole_factory
            assert predicate is minmax_ok


class TestAdaptiveFallback:
    def test_small_sweep_stays_serial(self):
        """Below the floor no pool is ever spawned."""
        with YieldEngine(workers=4) as engine:
            result = measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(4),
                engine=engine,
            )
            assert result.yield_fraction == 1.0
            assert engine.pools_created == 0
            assert engine.last_backend == "serial"

    def test_min_seeds_parallel_override(self):
        with YieldEngine(workers=2) as engine:
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(30),
                engine=engine, min_seeds_parallel=100,
            )
            assert engine.pools_created == 0

    def test_cheap_task_stays_serial_even_above_floor(self):
        """Min-Max costs ~0.2 ms/seed: 30 seeds cannot amortize a pool."""
        with YieldEngine(workers=2) as engine:
            result = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(30),
                engine=engine,
            )
            assert engine.pools_created == 0
            assert engine.last_backend == "serial"
        assert result == measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(30)
        )

    def test_forced_pool_policy_overrides_adaptive(self):
        with YieldEngine(workers=2) as engine:
            result = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
                engine=engine, min_seeds_parallel=0,
            )
            serial_pools = engine.pools_created
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(10), policy="pool"
            )
            assert engine.pools_created == serial_pools + 1
        assert outcomes == [
            result.failures.get(seed, "ok") for seed in range(10)
        ]

    def test_serial_policy_never_pools(self):
        with YieldEngine(workers=2, adaptive=False) as engine:
            result = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(20),
                engine=engine, workers=2,
            )
            assert engine.pools_created == 1
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(20), policy="serial"
            )
            assert engine.pools_created == 1  # unchanged
        assert outcomes == reference_chunk(minmax_factory, minmax_ok, 12.0,
                                           range(20))[0]
        assert result.runs == 20

    def test_bad_policy_rejected(self):
        with YieldEngine(workers=2) as engine:
            with pytest.raises(PylseError, match="policy"):
                engine.run(minmax_factory, minmax_ok, 0.0, range(4),
                           policy="warp")

    def test_bad_engine_string_rejected(self):
        with pytest.raises(PylseError, match="unknown engine"):
            measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(2),
                          engine="hyperdrive")


class TestStatsDeterminism:
    def test_stats_bit_identical_under_chunked_engine(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
            workers=1, collect_stats=True,
        )
        with YieldEngine(workers=2, adaptive=False,
                         chunks_per_worker=2) as engine:
            parallel = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
                workers=2, collect_stats=True, engine=engine,
            )
        assert parallel.stats.to_jsonable() == sequential.stats.to_jsonable()
        assert parallel.stats.runs == 12
        assert list(parallel.failures.items()) == list(
            sequential.failures.items()
        )

    def test_adaptive_serial_stats_match_reference(self):
        """The calibration-prefix + serial-rest path folds in seed order."""
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
            workers=1, collect_stats=True,
        )
        with YieldEngine(workers=2, min_seeds_parallel=0) as engine:
            adaptive = measure_yield(
                minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
                workers=2, collect_stats=True, engine=engine,
            )
            assert engine.last_backend == "serial"  # too cheap to pool
        assert adaptive.stats.to_jsonable() == sequential.stats.to_jsonable()


class TestDegradation:
    @FORK_ONLY
    def test_worker_crash_falls_back_to_identical_result(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(20), workers=1
        )
        with YieldEngine(workers=2, adaptive=False) as engine:
            with pytest.warns(RuntimeWarning, match="retrying once"):
                degraded = measure_yield(
                    minmax_factory, crashing_predicate, sigma=12.0,
                    seeds=range(20), workers=2, engine=engine,
                )
            assert engine.fallbacks == 1
            assert engine.parallel_disabled
            assert engine.last_backend == "degraded"
            # retry-once spawned a second pool before giving up
            assert engine.pools_created == 2
            assert degraded == sequential

            # Subsequent calls skip the pool entirely: no thrash.
            again = measure_yield(
                minmax_factory, crashing_predicate, sigma=12.0, seeds=range(20),
                workers=2, engine=engine,
            )
            assert engine.last_backend == "serial"
            assert engine.pools_created == 2
            assert again == sequential

    @FORK_ONLY
    def test_crash_degradation_with_stats(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
            workers=1, collect_stats=True,
        )
        with YieldEngine(workers=2, adaptive=False) as engine:
            with pytest.warns(RuntimeWarning):
                degraded = measure_yield(
                    minmax_factory, crashing_predicate, sigma=12.0,
                    seeds=range(10), workers=2, engine=engine,
                    collect_stats=True,
                )
        assert degraded.stats.to_jsonable() == sequential.stats.to_jsonable()

    def test_retry_once_recovers_without_degrading(self):
        """A transient failure costs one warning, not the pool."""
        from concurrent.futures.process import BrokenProcessPool

        engine = YieldEngine(workers=2, adaptive=False, chunks_per_worker=1)
        blob = pickle.dumps(("factory", minmax_factory, minmax_ok))
        # Run the worker initializer in-process so the fake pool can
        # execute chunk tasks inline.
        _engine_worker_init(blob)

        class FakeFuture:
            def __init__(self, fail, fn, args):
                self._fail = fail
                self._fn = fn
                self._args = args

            def result(self):
                if self._fail:
                    raise BrokenProcessPool("injected transient crash")
                return self._fn(*self._args)

        class FakePool:
            def __init__(self):
                self.rounds = 0

            def submit(self, fn, *args):
                # Every future of the first submission round fails; the
                # resubmitted round succeeds.
                return FakeFuture(self.rounds == 0, fn, args)

            def shutdown(self, **kwargs):
                self.rounds += 1

        fake = FakePool()

        def install_fake(task_blob, init_blob):
            # Mirror _ensure_pool: register the pool on the engine so the
            # failure path's _shutdown_pool() reaches fake.shutdown().
            engine._pool = fake
            engine._task_key = task_blob
            return fake

        engine._ensure_pool = install_fake
        with pytest.warns(RuntimeWarning, match="retrying once"):
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(12)
            )
        assert not engine.parallel_disabled
        assert engine.fallbacks == 0
        assert outcomes == reference_chunk(
            minmax_factory, minmax_ok, 12.0, range(12)
        )[0]

    def test_closed_engine_rejected(self):
        engine = YieldEngine(workers=2)
        engine.close()
        with pytest.raises(PylseError, match="closed"):
            engine.run(minmax_factory, minmax_ok, 0.0, range(4))


class TestWorkerReuseSemantics:
    def test_engine_chunk_matches_reference_chunk(self):
        """The reused-circuit worker task is bit-identical to fresh
        elaboration per seed, with and without per-seed metrics (run
        in-process via the initializer)."""
        blob = pickle.dumps(("factory", minmax_factory, minmax_ok))
        _engine_worker_init(blob)
        seeds = list(range(25))
        for collect_stats in (False, True):
            outcomes, stats, report = _engine_chunk(
                12.0, seeds, None, collect_stats
            )
            want_outcomes, want_stats = reference_chunk(
                minmax_factory, minmax_ok, 12.0, seeds, collect_stats
            )
            assert outcomes == want_outcomes
            assert [m.to_jsonable() for m in stats] == [
                m.to_jsonable() for m in want_stats
            ]
            assert report.batched_lanes + len(report.fallback_seeds) == len(
                seeds
            )

    def test_simulation_reset_allows_reuse(self):
        from repro.core.simulation import Simulation

        circuit = minmax_factory()
        sim = Simulation(circuit)
        first = sim.simulate(variability={"stddev": 3.0}, seed=7)
        snapshot = {k: list(v) for k, v in first.items()}
        sim.reset()
        assert sim.events == {}
        assert sim.pulses_processed == 0
        assert sim.activity == {}
        again = sim.simulate(variability={"stddev": 3.0}, seed=7)
        assert again == snapshot

    def test_engine_rejects_bad_chunks_per_worker(self):
        with pytest.raises(PylseError, match="chunks_per_worker"):
            YieldEngine(workers=2, chunks_per_worker=0)
