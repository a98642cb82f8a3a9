"""Warm-disk vs fully-cold benchmarks for the persistent cache tier.

Every timed round constructs a **fresh consumer** — an engine or service
whose in-memory tiers start empty, the restart scenario the disk tier
exists for:

* ``cold`` — a fresh consumer on a fresh (empty) store: every point pays
  elaboration, baseline simulation, and the full Monte-Carlo measurement;
* ``warm_disk`` — a fresh consumer on a pre-populated store: every
  design resolves from the ``resolutions`` namespace without elaborating,
  and every measurement is a disk read + JSON decode instead of a
  Monte-Carlo sweep.

``tools/bench_guard.py`` records both medians in the ``disk_cache`` block
of ``BENCH_sim.json`` and fails if warm-disk is less than 5x faster than
cold — the floor that makes ``--cache-dir`` worth a process's while. True
cross-process persistence (the same store read by a separate interpreter)
is covered by the CI cache-persistence smoke, which asserts *zero*
computations rather than a speedup.
"""

import pytest

from repro.explore import ExploreEngine
from repro.serve import YieldService

#: Mirrored in ``tools/bench_guard.py`` (the ``disk_cache`` block) —
#: keep the two definitions in sync. The cold path pays elaboration, the
#: baseline simulation and the Monte-Carlo sweeps; the warm path reads a
#: stored resolution and a stored result per point. The seed counts set
#: the cold cost, and so the margin over the 5x floor.
DISK_BENCH_FAMILY = "racetree"
DISK_BENCH_GRID = {"depth": [1, 2, 3]}
DISK_BENCH_SIGMA = 0.4
DISK_BENCH_SEEDS = 1000

DISK_BENCH_DESIGN = "Min-Max"
DISK_BENCH_SERVE_SIGMA = 0.5
DISK_BENCH_SERVE_SEEDS = 4000


def _sweep(engine: ExploreEngine):
    return engine.sweep(
        DISK_BENCH_FAMILY,
        DISK_BENCH_GRID,
        sigma=DISK_BENCH_SIGMA,
        n_seeds=DISK_BENCH_SEEDS,
    )


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store populated once by a throwaway engine (outside any timing)."""
    store = tmp_path_factory.mktemp("disk-cache-warm")
    filler = ExploreEngine(cache_dir=store)
    sweep = _sweep(filler)
    assert filler.computations == len(sweep.points)
    return store


def test_explore_fresh_process_cold(benchmark, tmp_path_factory):
    def round():
        # A brand-new store per round: nothing can hit, not even on disk.
        store = tmp_path_factory.mktemp("disk-cache-cold")
        return _sweep(ExploreEngine(cache_dir=store))

    sweep = benchmark.pedantic(round, rounds=3, iterations=1,
                               warmup_rounds=1)
    assert all(not point.cached for point in sweep.points)


def test_explore_fresh_process_warm_disk(benchmark, warm_store):
    def round():
        # Fresh engine = empty memory tiers; only the disk store is warm.
        return _sweep(ExploreEngine(cache_dir=warm_store))

    sweep = benchmark.pedantic(round, rounds=5, iterations=1,
                               warmup_rounds=1)
    assert all(point.cached for point in sweep.points)


@pytest.fixture(scope="module")
def warm_serve_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("disk-cache-serve-warm")
    service = YieldService(cache_dir=store)
    _, cached = service.yield_({
        "design": DISK_BENCH_DESIGN,
        "sigma": DISK_BENCH_SERVE_SIGMA,
        "n_seeds": DISK_BENCH_SERVE_SEEDS,
    })
    assert not cached
    return store


def test_serve_fresh_process_cold(benchmark, tmp_path_factory):
    def round():
        store = tmp_path_factory.mktemp("disk-cache-serve-cold")
        service = YieldService(cache_dir=store)
        result, cached = service.yield_({
            "design": DISK_BENCH_DESIGN,
            "sigma": DISK_BENCH_SERVE_SIGMA,
            "n_seeds": DISK_BENCH_SERVE_SEEDS,
        })
        assert not cached
        return result

    benchmark.pedantic(round, rounds=3, iterations=1, warmup_rounds=1)


def test_serve_fresh_process_warm_disk(benchmark, warm_serve_store):
    def round():
        service = YieldService(cache_dir=warm_serve_store)
        result, cached = service.yield_({
            "design": DISK_BENCH_DESIGN,
            "sigma": DISK_BENCH_SERVE_SIGMA,
            "n_seeds": DISK_BENCH_SERVE_SEEDS,
        })
        assert cached
        return result

    benchmark.pedantic(round, rounds=5, iterations=1, warmup_rounds=1)
