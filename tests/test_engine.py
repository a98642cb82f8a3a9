"""Tests for the persistent YieldEngine (repro.core.parallel).

Covers the engine-specific contracts on top of ``test_parallel.py``'s
bit-identity suite: pool reuse (one pool across a whole bisection
search, and across tasks), the backend rule (the pool only for sweeps that need more than
one batched pass), crash degradation back to the sequential reference
path, per-chunk retry-once, and stats determinism under the chunked
engine. Every test reaches the pool through the rule itself: a ``batch``
width below the seed count, or more seeds than one 256-lane pass.
"""

import hashlib
import multiprocessing
import os
import pickle
from functools import partial

import pytest

from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import (
    _TASK_CACHE_SIZE,
    YieldEngine,
    _engine_chunk,
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


#: The ``a_time`` of every ``shifted_minmax`` elaboration in this process.
_ELABORATIONS = []


def shifted_minmax(a_time: float) -> Circuit:
    """Min-Max with input A at ``a_time``: one distinct design per time."""
    _ELABORATIONS.append(a_time)
    with fresh_circuit() as circuit:
        low, high = min_max(inp_at(a_time, name="A"), inp_at(25.0, name="B"))
        low.observe("low")
        high.observe("high")
    return circuit


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
    # Tests read the cached default engine's counters: start each one
    # from a fresh engine, whatever earlier test modules left behind.
    shutdown_default_engines()
    yield
    shutdown_default_engines()


class TestPoolReuse:
    def test_critical_sigma_creates_exactly_one_pool(self):
        """The acceptance contract: every bisection iteration shares one
        warm pool."""
        value = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
            workers=2, batch=2,
        )
        engine = default_engine(2)
        assert engine.pools_created == 1
        assert engine.last_backend == "pool"
        sequential = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
        )
        assert value == sequential

    def test_yield_curve_reuses_one_pool(self):
        curve = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
            seeds=range(8), workers=2, batch=0,
        )
        assert default_engine(2).pools_created == 1
        assert curve == yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 6.0, 12.0),
            seeds=range(8),
        )

    def test_task_change_reuses_pool(self):
        """A different factory/predicate travels with its chunks: the
        workers switch tasks and the pool stays."""
        from test_parallel import minmax_factory as other_factory

        measure_yield(minmax_factory, minmax_ok, 0.0, seeds=range(4),
                      workers=2, batch=0)
        measure_yield(other_factory, minmax_ok, 0.0, seeds=range(4),
                      workers=2, batch=0)
        assert default_engine(2).pools_created == 1

    def test_registry_sweep_shares_one_pool(self):
        """Every design of the registry on one pool, each result equal to
        the in-process one: workers load each task, then switch back."""
        from repro.core.simulation import Simulation
        from repro.exp.registry import (
            PulseCountPredicate, RegistryFactory, registry,
        )

        tasks = []
        for entry in registry():
            factory = RegistryFactory(entry.name)
            tasks.append(
                (factory, PulseCountPredicate(Simulation(factory()).simulate()))
            )
        tasks.append(tasks[0])  # a task the workers loaded before
        for factory, predicate in tasks:
            pooled = measure_yield(factory, predicate, 3.0, seeds=range(300),
                                   workers=2)
            assert default_engine(2).last_backend == "pool"
            assert_identical(pooled, measure_yield(
                factory, predicate, 3.0, seeds=range(300)
            ))
        assert default_engine(2).pools_created == 1

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
            key, blob = engine._task(minmax_factory, minmax_ok, task_blob)
            assert key == hashlib.sha256(blob).hexdigest()
            kind, payload, predicate = pickle.loads(blob)
            assert kind == "compiled"
            assert isinstance(payload, CompiledCircuit)
            assert predicate is minmax_ok
            # The pickle cycle keeps the memo warm on the receiving side.
            assert compile_circuit(payload.circuit) is payload
            # One pickling per task: the blob is cached.
            assert engine._task(
                minmax_factory, minmax_ok, task_blob
            )[1] is blob

    def test_factory_fallback_when_compiled_form_unpicklable(self):
        """Hole circuits wrap arbitrary callables; when the compiled form
        cannot pickle, the initializer falls back to shipping the factory
        and the worker elaborates once itself."""
        task_blob = pickle.dumps((unpicklable_hole_factory, minmax_ok))
        with YieldEngine(workers=2) as engine:
            _, blob = engine._task(
                unpicklable_hole_factory, minmax_ok, task_blob
            )
            kind, payload, predicate = pickle.loads(blob)
            assert kind == "factory"
            assert payload is unpicklable_hole_factory
            assert predicate is minmax_ok


class TestTaskCache:
    """The engine keeps at most ``_TASK_CACHE_SIZE`` task payloads, least
    recently used first out, and never rebuilds one it still holds."""

    def test_payloads_are_bounded_and_pool_matches_serial(self):
        times = [40.0 + k for k in range(_TASK_CACHE_SIZE + 3)]
        with YieldEngine(workers=2) as engine:
            for a_time in times:
                factory = partial(shifted_minmax, a_time)
                pooled, _ = engine.run(factory, minmax_ok, 12.0, range(4),
                                       batch=0)
                assert engine.last_backend == "pool"
                assert pooled == reference_chunk(factory, minmax_ok, 12.0,
                                                 range(4))[0]
                assert len(engine._tasks) <= _TASK_CACHE_SIZE
            assert len(engine._tasks) == _TASK_CACHE_SIZE
            assert engine.pools_created == 1

    def test_repeated_task_inside_the_bound_is_not_rebuilt(self):
        built = []
        with YieldEngine(workers=2) as engine:
            for a_time in (50.0, 60.0, 50.0):
                calls = len(_ELABORATIONS)
                engine.run(partial(shifted_minmax, a_time), minmax_ok, 12.0,
                           range(4), batch=0)
                assert engine.last_backend == "pool"
                built.append(len(_ELABORATIONS) - calls)
        assert built == [1, 1, 0]

    def test_evicted_task_is_rebuilt(self):
        with YieldEngine(workers=2) as engine:
            for k in range(_TASK_CACHE_SIZE + 1):
                engine.run(partial(shifted_minmax, 40.0 + k), minmax_ok,
                           12.0, range(2), batch=0)
            calls = len(_ELABORATIONS)
            engine.run(partial(shifted_minmax, 40.0), minmax_ok, 12.0,
                       range(2), batch=0)
            assert len(_ELABORATIONS) == calls + 1


def assert_identical(got, want, collect_stats=False):
    """Outcomes, ``failures`` order and (optionally) stats JSON all match."""
    assert got == want
    assert list(got.failures.items()) == list(want.failures.items())
    if collect_stats:
        assert got.stats.to_jsonable() == want.stats.to_jsonable()


class TestAdaptiveFallback:
    """The backend adapts to the sweep size and nothing else: the pool
    runs only when ``workers > 1`` and the seeds need more than one
    batched pass (``len(seeds) > resolve_batch(batch, len(seeds))``);
    every other sweep runs in-process through ``run_chunk``."""

    def test_small_sweep_stays_serial(self):
        result = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=range(4), workers=4,
        )
        assert result.yield_fraction == 1.0
        engine = default_engine(4)
        assert engine.pools_created == 0
        assert engine.last_backend == "serial"

    def test_cheap_task_stays_serial_even_above_floor(self):
        """A sweep of exactly one full pass (256 seeds at the default
        width) stays in-process, however many workers are offered."""
        result = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(256),
            workers=2,
        )
        engine = default_engine(2)
        assert engine.pools_created == 0
        assert engine.last_backend == "serial"
        assert_identical(result, measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(256)
        ))

    def test_sweep_above_one_pass_uses_pool(self):
        """300 seeds need two 256-lane passes, so the pool runs them —
        bit-identical to ``workers=1``, stats included."""
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(300),
            workers=1, collect_stats=True,
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(300),
            workers=2, collect_stats=True,
        )
        engine = default_engine(2)
        assert engine.pools_created == 1
        assert engine.last_backend == "pool"
        assert sequential.failures  # the comparison covers real failures
        assert_identical(pooled, sequential, collect_stats=True)

    def test_unbatched_sweep_uses_pool(self):
        """With ``batch=0`` every seed is its own pass: two or more seeds
        take the pool."""
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(4),
            workers=1, collect_stats=True,
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(4),
            workers=2, collect_stats=True, batch=0,
        )
        assert default_engine(2).last_backend == "pool"
        assert_identical(pooled, sequential, collect_stats=True)

    def test_single_seed_never_pools(self):
        measure_yield(minmax_factory, minmax_ok, sigma=12.0, seeds=[3],
                      workers=2, batch=0)
        engine = default_engine(2)
        assert engine.pools_created == 0
        assert engine.last_backend == "serial"

    def test_forced_pool_policy_overrides_adaptive(self):
        """A lane width below the seed count is the way to put a small
        sweep on the pool; one at or above it keeps the sweep serial."""
        with YieldEngine(workers=2) as engine:
            serial, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(10), batch=10
            )
            assert (engine.pools_created, engine.last_backend) == (0, "serial")
            pooled, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(10), batch=9
            )
            assert (engine.pools_created, engine.last_backend) == (1, "pool")
        assert pooled == serial == reference_chunk(
            minmax_factory, minmax_ok, 12.0, range(10)
        )[0]

    def test_serial_policy_never_pools(self):
        """A one-pass sweep stays in-process even with a warm pool."""
        with YieldEngine(workers=2) as engine:
            engine.run(minmax_factory, minmax_ok, 12.0, range(20), batch=5)
            assert engine.pools_created == 1
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(20)
            )
            assert engine.pools_created == 1  # unchanged
            assert engine.last_backend == "serial"
        assert outcomes == reference_chunk(minmax_factory, minmax_ok, 12.0,
                                           range(20))[0]


class TestStatsDeterminism:
    def test_stats_bit_identical_under_chunked_engine(self):
        """Two chunks of two batched passes each, folded in seed order."""
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
            workers=1, collect_stats=True,
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(12),
            workers=2, collect_stats=True, batch=3,
        )
        assert default_engine(2).last_backend == "pool"
        assert parallel.stats.runs == 12
        assert_identical(parallel, sequential, collect_stats=True)

    def test_adaptive_serial_stats_match_reference(self):
        """The in-process side of the rule folds stats in seed order."""
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
            workers=1, collect_stats=True,
        )
        adaptive = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(10),
            workers=2, collect_stats=True,
        )
        assert default_engine(2).last_backend == "serial"  # one pass
        assert_identical(adaptive, sequential, collect_stats=True)


class TestDegradation:
    @FORK_ONLY
    def test_worker_crash_falls_back_to_identical_result(self):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=range(20), workers=1
        )
        with pytest.warns(RuntimeWarning, match="retrying once"):
            degraded = measure_yield(
                minmax_factory, crashing_predicate, sigma=12.0,
                seeds=range(20), workers=2, batch=0,
            )
        engine = default_engine(2)
        assert engine.fallbacks == 1
        assert engine.parallel_disabled
        assert engine.last_backend == "degraded"
        # retry-once spawned a second pool before giving up
        assert engine.pools_created == 2
        assert degraded == sequential

        # Subsequent calls skip the pool entirely: no thrash.
        again = measure_yield(
            minmax_factory, crashing_predicate, sigma=12.0, seeds=range(20),
            workers=2, batch=0,
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
        with pytest.warns(RuntimeWarning):
            degraded = measure_yield(
                minmax_factory, crashing_predicate, sigma=12.0,
                seeds=range(10), workers=2, batch=0, collect_stats=True,
            )
        assert degraded.stats.to_jsonable() == sequential.stats.to_jsonable()

    def test_retry_once_recovers_without_degrading(self):
        """A transient failure costs one warning, not the pool."""
        from concurrent.futures.process import BrokenProcessPool

        engine = YieldEngine(workers=2)

        # The fake pool executes chunk tasks inline, in this process.
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

        def install_fake():
            # Mirror _ensure_pool: register the pool on the engine so the
            # failure path's _shutdown_pool() reaches fake.shutdown().
            engine._pool = fake
            return fake

        engine._ensure_pool = install_fake
        with pytest.warns(RuntimeWarning, match="retrying once"):
            outcomes, _ = engine.run(
                minmax_factory, minmax_ok, 12.0, range(12), batch=0
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
        seeds = list(range(25))
        for collect_stats in (False, True):
            outcomes, stats, report = _engine_chunk(
                "minmax", blob, 12.0, seeds, None, collect_stats
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

    def test_worker_keeps_last_task_until_key_changes(self):
        """A chunk of the loaded task reuses the worker's circuit; a chunk
        of another task replaces it (run in-process)."""
        import repro.core.parallel as parallel
        from test_parallel import minmax_factory as other_factory

        first = pickle.dumps(("factory", minmax_factory, minmax_ok))
        second = pickle.dumps(("factory", other_factory, minmax_ok))
        _engine_chunk("first", first, 12.0, [0, 1])
        loaded = parallel._WORKER_CTX
        _engine_chunk("first", first, 12.0, [2, 3])
        assert parallel._WORKER_CTX is loaded
        outcomes, _, _ = _engine_chunk("second", second, 12.0, [4, 5])
        assert parallel._WORKER_CTX is not loaded
        assert parallel._WORKER_CTX.key == "second"
        assert outcomes == reference_chunk(other_factory, minmax_ok, 12.0,
                                           [4, 5])[0]
