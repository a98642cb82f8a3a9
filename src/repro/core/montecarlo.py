"""Monte-Carlo timing-yield analysis.

Section 5.2's robustness evaluation, packaged as a library: re-run a design
many times under Gaussian delay variability and measure the *yield* — the
fraction of runs whose outputs still satisfy a user-supplied correctness
predicate and raise no timing violation. :func:`critical_sigma` then
bisects for the noise level at which yield first drops below a target,
giving a single robustness figure of merit per design.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from .batchsim import BatchReport
from .circuit import Circuit
from .errors import PylseError
from .parallel import (
    MIS_BEHAVED,
    OK,
    VIOLATION,
    YieldEngine,
    default_engine,
    merge_stats,
    resolve_workers,
    run_chunk,
)
from .simulation import Events

if TYPE_CHECKING:  # layering: core never imports repro.obs at runtime
    from ..obs.metrics import SimMetrics

#: A correctness predicate over simulation events.
Predicate = Callable[[Events], bool]

#: A builder that elaborates the design into a fresh circuit and returns it.
CircuitFactory = Callable[[], Circuit]


@dataclass
class YieldResult:
    """Outcome of one Monte-Carlo yield measurement."""

    sigma: float
    runs: int
    passed: int
    mis_behaved: int
    violations: int
    #: seed -> failure kind, for reproducing individual failures
    failures: Dict[int, str] = field(default_factory=dict)
    #: aggregated per-cell metrics over every seed, when the measurement
    #: ran with ``collect_stats=True`` (None otherwise).
    stats: Optional["SimMetrics"] = None
    # Vectorized-drain observability (repro.core.batchsim). Excluded from
    # equality: two backends producing the same outcomes are equal results
    # even if one batched more lanes (a pool groups seeds into different
    # batches than the serial path, and divergence is judged per batch).
    #: seeds classified entirely inside a vectorized batch.
    batched_lanes: int = field(default=0, compare=False)
    #: seeds replayed on the per-seed reference drain, in seed order.
    fallback_seeds: List[int] = field(default_factory=list, compare=False)
    #: divergence cause -> count, one per replayed seed.
    divergence: Dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def yield_fraction(self) -> float:
        return self.passed / self.runs if self.runs else 0.0


#: How to execute a sweep: an explicit :class:`YieldEngine`, a policy
#: string (``"auto"`` — adaptive engine when ``workers > 1``; ``"pool"``
#: — force the process pool; ``"serial"`` — force the in-process
#: reference path), or ``None`` (same as ``"auto"``).
EngineSpec = Union[YieldEngine, str, None]


def measure_yield(
    factory: CircuitFactory,
    predicate: Predicate,
    sigma: float,
    seeds: Sequence[int] = tuple(range(50)),
    workers: int = 1,
    collect_stats: bool = False,
    engine: EngineSpec = None,
    min_seeds_parallel: Optional[int] = None,
    batch: Union[int, str, None] = None,
) -> YieldResult:
    """Run the design once per seed at the given noise level.

    ``factory`` must build a *fresh* circuit each call (element state and
    instance naming are per-circuit); ``predicate`` judges the events of a
    completed run. Timing violations count as failures of kind
    "violation"; predicate failures as "mis-behaved".

    ``seeds`` must be unique: outcomes and the ``failures`` dict are keyed
    by seed, so a duplicate would silently overwrite an earlier outcome —
    duplicates are rejected up front instead.

    ``workers`` shards the seed list across a persistent process pool
    (:class:`repro.core.parallel.YieldEngine`): ``1`` (the default) is the
    in-process reference path, ``None``/``0`` means one worker per CPU.
    Repeated calls with the same worker count reuse one cached engine —
    and therefore one warm pool — so sweeps like :func:`yield_curve` and
    :func:`critical_sigma` amortize pool startup across calls. Parallel
    runs are bit-identical to sequential ones for the same seed list, but
    require ``factory`` and ``predicate`` to be picklable (module-level
    callables).

    ``engine`` selects the backend: a :class:`YieldEngine` instance (its
    pool is reused across calls; the ``workers`` argument is then
    ignored), ``"auto"``/``None`` (cached default engine, adaptive serial
    fallback for sweeps too small to amortize pool overhead), ``"pool"``
    (force the process pool), or ``"serial"`` (force the sequential
    reference path). ``min_seeds_parallel`` overrides the adaptive
    engine's floor: seed lists shorter than it never use the pool.

    ``collect_stats=True`` attaches a metrics-only observer
    (:mod:`repro.obs`) to every run and puts the seed-order aggregate on
    ``YieldResult.stats`` — per-cell dispatch counts, transition tallies,
    violation counts, and firing-delay histograms across the whole sweep.
    The aggregate is bit-identical whichever backend ran the sweep.

    ``batch`` controls the vectorized multi-seed drain
    (:mod:`repro.core.batchsim`): ``None``/``"auto"`` (default) picks a
    lane width automatically, a positive int fixes it, and ``0`` disables
    batching (per-seed reference drain). Batched results are element-wise
    identical to unbatched ones; ``YieldResult.batched_lanes``,
    ``fallback_seeds``, and ``divergence`` report how much of the sweep
    the batch covered and why any seeds were replayed individually.
    """
    seeds = list(seeds)
    if not seeds:
        raise PylseError("measure_yield needs at least one seed")
    duplicates = sorted(s for s, n in Counter(seeds).items() if n > 1)
    if duplicates:
        shown = ", ".join(map(repr, duplicates[:8]))
        more = ", ..." if len(duplicates) > 8 else ""
        raise PylseError(
            f"measure_yield got duplicate seed(s) {shown}{more}: outcomes "
            "and YieldResult.failures are keyed by seed, so each seed must "
            "appear at most once (a duplicate would silently overwrite an "
            "earlier outcome)"
        )
    workers = resolve_workers(workers)
    policy: Optional[str] = None
    resolved_engine: Optional[YieldEngine] = None
    if isinstance(engine, YieldEngine):
        resolved_engine = engine
    elif engine in (None, "auto", "pool"):
        policy = None if engine in (None, "auto") else "pool"
        if workers > 1 and len(seeds) > 1:
            resolved_engine = default_engine(workers)
    elif engine != "serial":
        raise PylseError(
            f"unknown engine {engine!r}: expected a YieldEngine instance, "
            "'auto', 'pool', 'serial', or None"
        )
    stats: Optional["SimMetrics"]
    report: BatchReport
    if resolved_engine is not None:
        outcomes, stats = resolved_engine.run(
            factory,
            predicate,
            sigma,
            seeds,
            collect_stats=collect_stats,
            policy=policy,
            min_seeds_parallel=min_seeds_parallel,
            batch=batch,
        )
        report = resolved_engine.last_report
    else:
        # Elaborate + compile once, then drain all seeds through the
        # vectorized batched loop (element-wise identical to per-seed
        # simulation — tests/test_differential.py). This is the
        # workers=1 production path.
        outcomes, per_seed, report = run_chunk(
            factory, predicate, sigma, seeds, batch=batch,
            collect_stats=collect_stats,
        )
        stats = merge_stats(per_seed)
    if len(outcomes) != len(seeds):
        # zip() would silently truncate and shift outcomes onto the wrong
        # seeds; the per-chunk guard in repro.core.parallel names the
        # offending chunk, this is the backstop for any backend.
        raise PylseError(
            f"Monte-Carlo backend returned {len(outcomes)} outcomes for "
            f"{len(seeds)} seeds; refusing to tally a truncated sweep"
        )
    passed = mis = viol = 0
    failures: Dict[int, str] = {}
    for seed, outcome in zip(seeds, outcomes):
        if outcome == OK:
            passed += 1
        elif outcome == VIOLATION:
            viol += 1
            failures[seed] = outcome
        else:
            mis += 1
            failures[seed] = MIS_BEHAVED
    return YieldResult(
        sigma=sigma,
        runs=len(seeds),
        passed=passed,
        mis_behaved=mis,
        violations=viol,
        failures=failures,
        stats=stats,
        batched_lanes=report.batched_lanes,
        fallback_seeds=list(report.fallback_seeds),
        divergence=dict(report.divergence),
    )


def yield_curve(
    factory: CircuitFactory,
    predicate: Predicate,
    sigmas: Sequence[float],
    seeds: Sequence[int] = tuple(range(25)),
    workers: int = 1,
    engine: EngineSpec = None,
    batch: Union[int, str, None] = None,
) -> List[YieldResult]:
    """Yield at each noise level, for plotting or tabulation.

    With ``workers > 1`` every sigma level reuses the same warm worker
    pool (one engine, one pool, many calls); pass an explicit ``engine``
    to control its lifetime. ``batch`` is forwarded to every
    :func:`measure_yield` (the vectorized-drain lane width).
    """
    return [
        measure_yield(factory, predicate, s, seeds, workers=workers,
                      engine=engine, batch=batch)
        for s in sigmas
    ]


def critical_sigma(
    factory: CircuitFactory,
    predicate: Predicate,
    target_yield: float = 0.9,
    sigma_hi: float = 8.0,
    seeds: Sequence[int] = tuple(range(20)),
    iterations: int = 6,
    workers: int = 1,
    engine: EngineSpec = None,
    batch: Union[int, str, None] = None,
    measure: Optional[Callable[..., YieldResult]] = None,
) -> Optional[float]:
    """Bisect for the smallest sigma at which yield drops below target.

    Returns None if the design already fails at sigma = 0 (a functional
    bug, not a robustness limit); returns ``sigma_hi`` if the design still
    meets the target there (more robust than the search range).
    ``workers`` and ``engine`` are forwarded to every underlying
    :func:`measure_yield`; with ``workers > 1`` all bisection iterations
    share one warm worker pool (exactly one pool is created for the whole
    search).

    ``measure`` swaps the per-sigma measurement for a drop-in replacement
    with :func:`measure_yield`'s signature. The yield service
    (:mod:`repro.serve`) passes its cached measurement here, so every
    bisection sample lands in — and is served from — the same
    structural-hash result cache as direct ``/yield`` requests.
    """
    if not 0 < target_yield <= 1:
        raise PylseError(f"target_yield must be in (0, 1], got {target_yield}")
    measure_fn = measure_yield if measure is None else measure

    def sample(sigma: float) -> float:
        return measure_fn(
            factory, predicate, sigma, seeds, workers=workers, engine=engine,
            batch=batch,
        ).yield_fraction

    if sample(0.0) < target_yield:
        return None
    if sample(sigma_hi) >= target_yield:
        return sigma_hi
    lo, hi = 0.0, sigma_hi
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if sample(mid) >= target_yield:
            lo = mid
        else:
            hi = mid
    return hi
