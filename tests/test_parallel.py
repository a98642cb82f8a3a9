"""Tests for the Monte-Carlo chunk path and backends (repro.core.parallel).

Two headline contracts. ``run_chunk`` — the one in-process chunk function
every backend uses — equals the plain per-seed reference loop
(:func:`reference_chunk`: a fresh ``factory()`` and ``Simulation.simulate``
per seed). And ``measure_yield(..., workers=N)`` is bit-identical to the
sequential path for the same seed list — same counts, same ``failures``
dict, same insertion order.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchsim import MIS_BEHAVED, OK, VIOLATION, mc_variability
from repro.core.circuit import Circuit, fresh_circuit
from repro.core.errors import PylseError, SimulationError
from repro.core.helpers import inp_at
from repro.core.montecarlo import critical_sigma, measure_yield, yield_curve
from repro.core.parallel import (
    YieldEngine,
    chunk_seeds,
    resolve_workers,
    run_chunk,
)
from repro.core.simulation import Simulation
from repro.designs import min_max
from repro.sfq import dro, jtl
from repro.obs import Observer

from test_batchsim import hole_factory, hole_ok
from test_random_circuits import build_random_circuit


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


def reference_chunk(factory, predicate, sigma, seeds, collect_stats=False):
    """The per-seed reference: a fresh ``factory()`` and one plain
    ``Simulation.simulate`` per seed. Returns ``(outcomes, per_seed_stats)``;
    a run ending in a timing violation still yields its partial metrics."""
    outcomes, stats = [], []
    for seed in seeds:
        circuit = factory()
        observer = (
            Observer(provenance=False, metrics=True) if collect_stats else None
        )
        try:
            events = Simulation(circuit).simulate(
                variability=mc_variability(circuit, sigma), seed=seed,
                observer=observer,
            )
        except SimulationError:
            outcomes.append(VIOLATION)
        else:
            outcomes.append(OK if predicate(events) else MIS_BEHAVED)
        if collect_stats:
            stats.append(observer.metrics)
    return outcomes, stats


def _recording(store):
    """A predicate that records each judged event dict (bit-exact JSON)
    and passes an event-dependent half of the runs."""

    def predicate(events):
        store.append(json.dumps(events, sort_keys=True))
        return sum(len(times) for times in events.values()) % 2 == 0

    return predicate


def assert_chunk_matches_reference(factory, sigma, seeds, batch,
                                   collect_stats):
    got_events, want_events = [], []
    outcomes, stats, report = run_chunk(
        factory, _recording(got_events), sigma, seeds, batch=batch,
        collect_stats=collect_stats,
    )
    want_outcomes, want_stats = reference_chunk(
        factory, _recording(want_events), sigma, seeds, collect_stats
    )
    assert outcomes == want_outcomes
    # Batched and replayed lanes may reach the predicate in another order.
    assert sorted(got_events) == sorted(want_events)
    assert [m.to_jsonable() for m in stats] == [
        m.to_jsonable() for m in want_stats
    ]
    if batch == 0:
        assert report.batched_lanes == 0
    else:
        assert report.batched_lanes + len(report.fallback_seeds) == len(seeds)


BATCHES = pytest.mark.parametrize("batch", [0, "auto", 3])
COLLECT = pytest.mark.parametrize("collect_stats", [False, True])


class TestRunChunkMatchesReference:
    """``run_chunk`` == the per-seed reference loop, for every lane width
    and with or without per-seed metrics."""

    @BATCHES
    @COLLECT
    @given(
        circuit_seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
        sigma=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        n_seeds=st.integers(1, 12),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_circuits(self, batch, collect_stats, circuit_seed,
                             n_inputs, n_cells, sigma, n_seeds):
        def factory():
            return build_random_circuit(circuit_seed, n_inputs, n_cells)

        assert_chunk_matches_reference(
            factory, sigma, range(n_seeds), batch, collect_stats
        )

    @BATCHES
    @COLLECT
    @given(
        sigma=st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
        start=st.integers(0, 500),
        n_seeds=st.integers(1, 8),
    )
    @settings(max_examples=5, deadline=None)
    def test_hole_design(self, batch, collect_stats, sigma, start, n_seeds):
        """An ineligible (Functional hole) design: python-rng noise on
        every path, every seed reported as an ``ineligible`` fallback."""
        seeds = list(range(start, start + n_seeds))
        assert_chunk_matches_reference(
            hole_factory, sigma, seeds, batch, collect_stats
        )
        _outcomes, _stats, report = run_chunk(
            hole_factory, hole_ok, sigma, seeds, batch=batch
        )
        assert report.fallback_seeds == seeds
        assert report.divergence == {"ineligible": n_seeds}

    @BATCHES
    @COLLECT
    def test_violations_keep_partial_metrics(self, batch, collect_stats):
        """Data racing the clock into a DRO: violations, mis-behaved runs,
        batched and replayed lanes all in one chunk. A violating run
        still contributes its partial metrics."""
        seeds = list(range(30))
        outcomes, stats, _ = run_chunk(
            dro_race_factory, dro_race_ok, 2.0, seeds, batch=batch,
            collect_stats=collect_stats,
        )
        want_outcomes, want_stats = reference_chunk(
            dro_race_factory, dro_race_ok, 2.0, seeds, collect_stats
        )
        assert outcomes == want_outcomes
        assert {OK, MIS_BEHAVED, VIOLATION} <= set(outcomes)
        assert [m.to_jsonable() for m in stats] == [
            m.to_jsonable() for m in want_stats
        ]
        assert len(stats) == (len(seeds) if collect_stats else 0)

    def test_empty_chunk(self):
        outcomes, stats, report = run_chunk(
            minmax_factory, minmax_ok, 1.0, [], collect_stats=True
        )
        assert (outcomes, stats, report.batched_lanes) == ([], [], 0)


def dro_race_factory() -> Circuit:
    with fresh_circuit() as circuit:
        data = inp_at(38.0, name="A")
        clk = inp_at(50.0, name="CLK")
        dro(jtl(jtl(data)), clk, name="Q")
    return circuit


def dro_race_ok(events) -> bool:
    return len(events["Q"]) == 1


class TestChunking:
    def test_contiguous_cover(self):
        seeds = list(range(11))
        chunks = chunk_seeds(seeds, 4)
        assert [s for chunk in chunks for s in chunk] == seeds
        assert len(chunks) == 4
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_seeds(self):
        chunks = chunk_seeds([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_bad_chunk_count(self):
        with pytest.raises(PylseError):
            chunk_seeds([1], 0)

    def test_empty_seed_list(self):
        with YieldEngine(workers=2) as engine:
            assert engine.run(minmax_factory, minmax_ok, 0.0, []) == ([], None)
            assert engine.run(
                minmax_factory, minmax_ok, 0.0, [], collect_stats=True,
                policy="pool",
            ) == ([], None)
            assert engine.pools_created == 0


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_auto(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(PylseError):
            resolve_workers(-2)

    def test_bools_rejected(self):
        """Regression: ``True`` passed isinstance(int) and leaked through;
        ``False == 0`` silently meant one-per-CPU."""
        with pytest.raises(PylseError, match="bool"):
            resolve_workers(True)
        with pytest.raises(PylseError, match="bool"):
            resolve_workers(False)

    def test_bool_rejected_from_measure_yield(self):
        with pytest.raises(PylseError, match="bool"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(2),
                workers=True,
            )


class TestBitIdentical:
    def test_minmax_workers4_equals_sequential(self):
        """The acceptance contract: Min-Max, 4 workers vs reference."""
        seeds = range(40)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=4
        )
        assert parallel == sequential
        # dict equality ignores insertion order; the merge must not
        assert list(parallel.failures.items()) == list(sequential.failures.items())

    def test_clean_run_identical(self):
        seeds = range(10)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=seeds, workers=2
        )
        assert parallel == sequential
        assert parallel.yield_fraction == 1.0

    def test_noncontiguous_seed_list(self):
        seeds = [5, 3, 17, 2, 29, 11, 8]
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=1
        )
        parallel = measure_yield(
            minmax_factory, minmax_ok, sigma=12.0, seeds=seeds, workers=3
        )
        assert parallel == sequential

    def test_yield_curve_workers(self):
        curve_seq = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 12.0), seeds=range(10)
        )
        curve_par = yield_curve(
            minmax_factory, minmax_ok, sigmas=(0.0, 12.0), seeds=range(10),
            workers=2,
        )
        assert curve_par == curve_seq

    def test_critical_sigma_workers(self):
        seq = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3,
        )
        par = critical_sigma(
            minmax_factory, minmax_ok, target_yield=0.9,
            sigma_hi=16.0, seeds=range(6), iterations=3, workers=2,
        )
        assert par == seq


class TestErrors:
    def test_unpicklable_predicate_rejected(self):
        with pytest.raises(PylseError, match="picklable"):
            measure_yield(
                minmax_factory, lambda events: True,
                sigma=1.0, seeds=range(4), workers=2,
            )

    def test_lambda_fine_sequentially(self):
        result = measure_yield(
            minmax_factory, lambda events: True,
            sigma=1.0, seeds=range(3), workers=1,
        )
        assert result.yield_fraction == 1.0

    def test_negative_workers_rejected(self):
        with pytest.raises(PylseError):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=range(2),
                workers=-1,
            )

    def test_single_seed_stays_sequential(self):
        """One seed with many workers: no pool, still correct."""
        result = measure_yield(
            minmax_factory, minmax_ok, sigma=0.0, seeds=[0], workers=8
        )
        assert result.runs == 1 and result.passed == 1

    def test_duplicate_seeds_rejected(self):
        """Regression: duplicate seeds used to collide silently in the
        ``failures`` dict (the later outcome overwrote the earlier)."""
        with pytest.raises(PylseError, match="duplicate seed"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0, seeds=[1, 2, 3, 2]
            )

    def test_duplicate_seeds_named_in_error(self):
        with pytest.raises(PylseError, match=r"4.*7"):
            measure_yield(
                minmax_factory, minmax_ok, sigma=0.0,
                seeds=[4, 7, 4, 7, 9],
            )


class TestChunkLengthGuard:
    """Regression: ``zip(seeds, outcomes)`` silently truncated short
    worker results, shifting outcomes onto the wrong seeds."""

    def test_short_chunk_names_the_chunk(self):
        from repro.core.parallel import _check_chunk

        with pytest.raises(PylseError, match=r"chunk 3.*30\.\.39.*7"):
            _check_chunk(3, list(range(30, 40)), 7)

    def test_matching_chunk_passes(self):
        from repro.core.parallel import _check_chunk

        _check_chunk(0, [1, 2, 3], 3)  # no raise

    def test_measure_yield_backstop(self):
        """A backend returning the wrong outcome count is refused."""
        from repro.core.parallel import YieldEngine

        class ShortEngine(YieldEngine):
            def run(self, *args, **kwargs):
                return ["ok"], None  # one outcome for many seeds

        with ShortEngine(workers=2) as engine:
            with pytest.raises(PylseError, match="1 outcomes for 5 seeds"):
                measure_yield(
                    minmax_factory, minmax_ok, sigma=0.0, seeds=range(5),
                    engine=engine,
                )
