"""Monte-Carlo execution: one chunk path, run in-process or on a worker pool.

Section 5.2's yield sweeps classify each seed of a seed list. Every
backend does that through one computation: elaborate the design once and
drain a contiguous chunk of seeds through
:func:`repro.core.batchsim.run_batch` (the vectorized drain, with
per-seed replays for diverging lanes). :func:`run_chunk` is that
computation in-process; :func:`_engine_chunk` is the same ``run_batch``
inside a pool worker, against a circuit installed once per worker. Both
return ``run_batch``'s ``(outcomes, per_seed_stats, report)`` triple.

The pool lives inside a :class:`YieldEngine`, which is built to be
*reused*: one ``ProcessPoolExecutor`` is created lazily on the first
parallel run and kept warm across every subsequent ``measure_yield`` /
``yield_curve`` / ``critical_sigma`` call that uses the same engine (the
module-level :func:`default_engine` cache, keyed by worker count, makes
this automatic). Three costs are amortized away:

* ``factory`` and ``predicate`` are shipped to each worker **once**, via
  the pool ``initializer``, instead of being pickled into every chunk;
* each worker elaborates the circuit **once** and re-simulates it per
  seed through the :meth:`~repro.core.simulation.Simulation.reset` hook
  (element state is per-run, so a reset run is bit-identical to a fresh
  elaboration — ``tests/test_determinism.py`` locks this);
* an adaptive serial fallback runs small sweeps in-process when the
  estimated work (seeds x a per-task calibrated per-seed cost) cannot
  amortize pool overhead, so parallel mode is never a pessimization. The
  calibration seed is itself a one-seed :func:`run_chunk`, so its outcome
  is kept.

Robustness: a worker crash (``BrokenProcessPool``) triggers a loud
warning, one retry on a fresh pool, and — if that also fails — graceful
degradation to in-process :func:`run_chunk` calls for the remaining
chunks (and for subsequent calls on the same engine).

Determinism contract: chunks are contiguous slices of the caller's seed
list and results — outcomes and per-seed metrics alike — are merged back
in chunk order, so the outcome sequence and the seed-order stats fold
(:func:`merge_stats`) — and therefore every
:class:`~repro.core.montecarlo.YieldResult` field, including the
insertion order of the ``failures`` dict — are bit-identical on every
backend path (serial, warm pool, cold pool, calibration prefix, crash
degradation).

Process pools pickle their tasks, so ``factory`` and ``predicate`` must be
module-level callables (or otherwise picklable objects); lambdas and
closures are rejected up front with a clear error instead of a mid-pool
traceback.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .batchsim import (  # outcome tokens re-exported for montecarlo
    MIS_BEHAVED,
    OK,
    VIOLATION,
    BatchReport,
    run_batch,
)
from .errors import PylseError
from .ir import compile_circuit
from .simulation import Events, Simulation

if TYPE_CHECKING:  # layering: core never imports repro.obs at runtime
    from ..obs.metrics import SimMetrics


def run_chunk(
    factory: Callable[[], object],
    predicate: Callable[[Events], bool],
    sigma: float,
    seeds: Sequence[int],
    *,
    batch: Union[int, str, None] = None,
    collect_stats: bool = False,
) -> Tuple[List[str], List["SimMetrics"], BatchReport]:
    """Classify a contiguous chunk of seeds in-process.

    Elaborates and compiles the circuit once, then drains every seed
    through :func:`~repro.core.batchsim.run_batch`. Returns its
    ``(outcomes, per_seed_stats, report)`` triple: outcomes in seed
    order, one fresh ``SimMetrics`` per seed when ``collect_stats`` (empty
    otherwise), and the chunk's :class:`BatchReport`. This is the serial,
    calibration and degraded path of every Monte-Carlo backend; pool
    workers run the same ``run_batch`` against their pre-elaborated
    circuit (:func:`_engine_chunk`).

    Per-seed metrics are deliberately not pre-merged: histogram totals
    are float sums, so the merge association order matters for
    bit-determinism. The caller folds them in seed order
    (:func:`merge_stats`).
    """
    seeds = list(seeds)
    if not seeds:
        return [], [], BatchReport()
    return run_batch(
        Simulation(factory()), predicate, sigma, seeds,
        collect_stats=collect_stats, batch=batch,
    )


def merge_stats(stats: Sequence["SimMetrics"]) -> Optional["SimMetrics"]:
    """Fold per-run metrics left-to-right into a fresh aggregate (or None).

    Both Monte-Carlo backends aggregate through this helper, in seed
    order, which is what makes parallel stats bit-identical to sequential
    ones. The fold starts from a zeroed accumulator
    (:meth:`repro.obs.metrics.SimMetrics.fold`) so the caller's per-seed
    metrics objects are never mutated — important now that engine workers
    may be asked to re-ship metrics on a chunk retry.
    """
    items = list(stats)
    if not items:
        return None
    # Dispatch through the instance's class: core stays free of runtime
    # imports of repro.obs (layering), yet the fold lives with SimMetrics.
    return type(items[0]).fold(items)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` argument to a concrete positive count.

    ``None`` or ``0`` means "one per available CPU"; negative counts and
    booleans are rejected (``True`` would otherwise pass the ``int`` check
    and ``False`` would silently mean "one per CPU").
    """
    if isinstance(workers, bool):
        raise PylseError(
            f"workers must be a non-negative integer or None, got {workers!r} "
            "(a bool); use workers=0 or workers=None for one per CPU"
        )
    if workers is None or workers == 0:
        return available_cpus()
    if not isinstance(workers, int) or workers < 0:
        raise PylseError(
            f"workers must be a non-negative integer or None, got {workers!r}"
        )
    return workers


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity support
        return max(1, os.cpu_count() or 1)


def chunk_seeds(seeds: Sequence[int], chunks: int) -> List[Sequence[int]]:
    """Split ``seeds`` into at most ``chunks`` contiguous, near-equal slices.

    Contiguity is what keeps the merged outcome order identical to the
    sequential backend's.
    """
    if chunks < 1:
        raise PylseError(f"chunk count must be >= 1, got {chunks}")
    n = len(seeds)
    chunks = min(chunks, n) or 1
    size, extra = divmod(n, chunks)
    out: List[Sequence[int]] = []
    start = 0
    for index in range(chunks):
        stop = start + size + (1 if index < extra else 0)
        out.append(seeds[start:stop])
        start = stop
    return out


def _pickle_task(factory, predicate, required: bool) -> Optional[bytes]:
    """The task's pickle: the pool's identity key and the cost-model key.

    An unpicklable task still runs in-process (``None``: no cost memo),
    but is rejected up front with a clear error whenever the pool is a
    possibility, instead of failing mid-pool.
    """
    try:
        return pickle.dumps((factory, predicate))
    except Exception as err:
        if not required:
            return None
        raise PylseError(
            "Parallel Monte-Carlo needs a picklable factory and predicate "
            "(module-level functions, not lambdas or closures) so they can "
            f"be shipped to worker processes; pickling failed with: {err}"
        ) from None


def _check_chunk(
    index: int,
    seeds_chunk: Sequence[int],
    got: int,
    what: str = "outcomes",
) -> None:
    """Refuse short (or long) chunk results instead of mis-attributing them.

    ``zip(seeds, outcomes)`` would silently drop the tail of whichever
    side is shorter, shifting every later outcome onto the wrong seed;
    this names the offending chunk so the failure is diagnosable.
    """
    expected = len(seeds_chunk)
    if got != expected:
        raise PylseError(
            f"parallel Monte-Carlo chunk {index} (seeds "
            f"{seeds_chunk[0]}..{seeds_chunk[-1]}, {expected} seeds) "
            f"returned {got} {what}; refusing to mis-attribute results "
            "to seeds — this indicates a worker bug or truncated result"
        )


# ----------------------------------------------------------------------
# The persistent YieldEngine
# ----------------------------------------------------------------------

#: Estimated pool startup cost per worker process (interpreter fork/spawn
#: plus one circuit elaboration in the initializer). Deliberately
#: conservative: over-estimating keeps small sweeps on the serial path,
#: which is the "never slower than sequential" invariant.
POOL_STARTUP_PER_WORKER_S = 0.030

#: Estimated per-call dispatch overhead when the pool is already warm
#: (future plumbing + chunk/result pickling of outcome tokens).
WARM_DISPATCH_OVERHEAD_S = 0.005

#: Required predicted advantage before the pool is chosen: estimated pool
#: time must be below this fraction of the estimated serial time.
PARALLEL_MARGIN = 0.9

#: Weight of the newest per-seed cost sample in the per-task EWMA.
COST_EWMA_WEIGHT = 0.5


class _WorkerContext:
    """Per-worker-process task state, installed by the pool initializer."""

    __slots__ = ("predicate", "sim")

    def __init__(self, circuit, predicate):
        self.predicate = predicate
        self.sim = Simulation(circuit)


_WORKER_CTX: Optional[_WorkerContext] = None


def _engine_worker_init(init_blob: bytes) -> None:
    """Pool initializer: install the design once per worker process.

    ``init_blob`` is either ``("compiled", CompiledCircuit, predicate)`` —
    the parent elaborated and compiled the design exactly once and ships
    the frozen IR, so workers never re-run the factory or the compile
    pass (the unpickled circuit arrives with its compile memo warm) — or
    the fallback ``("factory", factory, predicate)`` for designs whose
    circuit does not pickle (e.g. closure-bodied holes), where each
    worker elaborates once. Afterwards every chunk task is just
    ``(sigma, seeds, batch, collect_stats)``.
    """
    global _WORKER_CTX
    kind, payload, predicate = pickle.loads(init_blob)
    if kind == "compiled":
        circuit = payload.circuit
    else:
        circuit = payload()  # elaborate once per worker
    _WORKER_CTX = _WorkerContext(circuit, predicate)


def _engine_chunk(
    sigma: float,
    seeds: Sequence[int],
    batch: Union[int, str, None] = None,
    collect_stats: bool = False,
) -> Tuple[List[str], List["SimMetrics"], BatchReport]:
    """The pool task: :func:`run_chunk` against the worker's circuit.

    Each worker drains its chunk as one (or a few) batched passes —
    multiplicative with the pool parallelism. ``Simulation.reset``
    restores the initial element configuration, so each seed sees exactly
    the state a fresh ``factory()`` circuit would have — the re-simulation
    stability locked by ``tests/test_determinism.py`` is what makes this
    bit-identical to :func:`run_chunk`.
    """
    ctx = _WORKER_CTX
    return run_batch(
        ctx.sim, ctx.predicate, sigma, seeds, collect_stats=collect_stats,
        batch=batch,
    )


class YieldEngine:
    """A persistent, reusable parallel Monte-Carlo backend.

    One process pool, created lazily on the first parallel run and kept
    warm for every later call with the same ``(factory, predicate)`` task
    (a different task tears the pool down and builds a fresh one, since
    the task is shipped through the pool initializer). Use as a context
    manager, or rely on the module-level :func:`default_engine` cache —
    ``measure_yield(..., workers=N)`` does the latter automatically::

        with YieldEngine(workers=4) as engine:
            for sigma in sigmas:
                measure_yield(factory, ok, sigma, seeds, engine=engine)

    ``adaptive=True`` (default) calibrates the per-seed cost on the first
    seed of each call (classified in-process, so its outcome is free) and
    falls back to in-process :func:`run_chunk` whenever the estimated
    pool time — startup or dispatch overhead plus work divided by worker
    count — is not comfortably below the estimated serial time. Pass
    ``adaptive=False`` (or ``policy="pool"`` per call) to force the pool.

    Concurrent :meth:`run` calls from different threads serialize on an
    internal lock (one pool, one in-flight sweep at a time), so a single
    engine — in particular the :func:`default_engine` cache — can safely
    be shared by the request-handler threads of :mod:`repro.serve`. The
    observability counters (``last_backend``, ``last_report``) describe
    the most recently *completed* run.

    Counters for observability and tests: ``pools_created``,
    ``fallbacks`` (crash degradations), ``last_backend`` (``"serial"`` /
    ``"pool"`` / ``"degraded"`` for the most recent run), and
    ``last_report`` (the merged :class:`~repro.core.batchsim.BatchReport`
    of the most recent run — batched lane count, replayed seeds, and
    per-cause divergence tallies).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        chunks_per_worker: int = 4,
        min_seeds_parallel: Optional[int] = None,
        adaptive: bool = True,
    ):
        self.workers = resolve_workers(workers)
        if chunks_per_worker < 1:
            raise PylseError(
                f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
            )
        self.chunks_per_worker = chunks_per_worker
        self.min_seeds_parallel = min_seeds_parallel
        self.adaptive = adaptive
        self.pools_created = 0
        self.fallbacks = 0
        self.last_backend: Optional[str] = None
        self.last_report = BatchReport()
        self.parallel_disabled = False
        self.closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Serializes run() across threads: the pool, the cost model, and
        #: the last_* observability fields are all single-sweep state.
        self._run_lock = threading.RLock()
        self._task_key: Optional[bytes] = None
        self._cost_by_task: Dict[bytes, float] = {}
        #: task blob -> pool-initializer payload (compiled design when the
        #: circuit pickles, factory fallback otherwise), built at most once
        #: per task so repeated runs never re-elaborate in the parent.
        self._init_blob_by_task: Dict[bytes, bytes] = {}

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "YieldEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and mark the engine unusable.

        Takes the run lock, so a close racing a sweep on another thread
        waits for the sweep to finish instead of killing its pool.
        """
        with self._run_lock:
            self._shutdown_pool()
            self.closed = True

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._task_key = None

    def _ensure_pool(
        self, task_blob: bytes, init_blob: bytes
    ) -> ProcessPoolExecutor:
        if self._pool is not None and self._task_key == task_blob:
            return self._pool
        self._shutdown_pool()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_engine_worker_init,
            initargs=(init_blob,),
        )
        self._task_key = task_blob
        self.pools_created += 1
        return self._pool

    def _task_init_blob(self, factory, predicate, task_blob: bytes) -> bytes:
        """The initializer payload for a task, built (at most) once.

        Prefers shipping the parent-compiled :class:`CompiledCircuit` —
        one elaboration + compile for the whole sweep, with every worker
        receiving the design pre-validated and its compile memo warm.
        Node placement ids are assigned per elaboration, but only their
        *relative* order matters for heap pop ordering, and a pickled
        circuit preserves it — so worker results stay bit-identical to
        the factory path. Falls back to shipping the factory when the
        circuit itself does not pickle.
        """
        blob = self._init_blob_by_task.get(task_blob)
        if blob is None:
            try:
                compiled = compile_circuit(factory())
                blob = pickle.dumps(("compiled", compiled, predicate))
            except Exception:
                blob = pickle.dumps(("factory", factory, predicate))
            self._init_blob_by_task[task_blob] = blob
        return blob

    # -- the run entry point -------------------------------------------
    def run(
        self,
        factory: Callable[[], object],
        predicate: Callable[[Events], bool],
        sigma: float,
        seeds: Sequence[int],
        collect_stats: bool = False,
        policy: Optional[str] = None,
        min_seeds_parallel: Optional[int] = None,
        batch: Union[int, str, None] = None,
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Classify every seed; returns ``(outcomes, merged_stats_or_None)``.

        ``policy`` overrides the adaptive choice for this call:
        ``"pool"`` forces the process pool, ``"serial"`` forces
        in-process :func:`run_chunk`, ``None`` lets the engine decide.
        ``min_seeds_parallel`` overrides the engine-level floor below
        which the pool is never considered. ``batch`` is the batched-drain
        lane width each worker uses per chunk (``None``/``"auto"`` picks
        it, ``0`` disables batching); the run's merged
        :class:`~repro.core.batchsim.BatchReport` lands on
        ``self.last_report``.
        """
        if policy not in (None, "pool", "serial"):
            raise PylseError(
                f"unknown engine policy {policy!r}: expected 'pool', "
                "'serial', or None"
            )
        with self._run_lock:
            if self.closed:
                raise PylseError("YieldEngine is closed; create a new one")
            seeds = list(seeds)
            self.last_report = BatchReport()
            if not seeds:
                return [], None
            serial = (
                policy == "serial"
                or self.workers <= 1
                or len(seeds) < 2
                or self.parallel_disabled
            )
            # Pickled once per run: the pool's task identity and the cost
            # model's key. Unpicklable tasks are rejected only when the
            # pool is a possibility.
            task_blob = _pickle_task(factory, predicate, required=not serial)
            if serial:
                return self._run_serial(task_blob, factory, predicate, sigma,
                                        seeds, collect_stats, batch)
            if policy == "pool" or not self.adaptive:
                return self._run_pool(task_blob, factory, predicate, sigma,
                                      seeds, collect_stats, batch)
            return self._run_adaptive(
                task_blob, factory, predicate, sigma, seeds, collect_stats,
                batch, min_seeds_parallel,
            )

    # -- backends ------------------------------------------------------
    def _serial_chunk(
        self, task_blob, factory, predicate, sigma, seeds, collect_stats,
        batch,
    ) -> Tuple[List[str], List["SimMetrics"]]:
        """In-process :func:`run_chunk`, timing fed to the cost model."""
        started = time.perf_counter()
        outcomes, per_seed, report = run_chunk(
            factory, predicate, sigma, seeds, batch=batch,
            collect_stats=collect_stats,
        )
        self.last_report.merge(report)
        self._update_cost(
            task_blob, (time.perf_counter() - started) / len(seeds)
        )
        return outcomes, per_seed

    def _run_serial(
        self, task_blob, factory, predicate, sigma, seeds, collect_stats,
        batch,
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        self.last_backend = "serial"
        outcomes, per_seed = self._serial_chunk(
            task_blob, factory, predicate, sigma, seeds, collect_stats, batch
        )
        return outcomes, merge_stats(per_seed)

    def _run_adaptive(
        self, task_blob, factory, predicate, sigma, seeds, collect_stats,
        batch, min_seeds_parallel,
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        floor = min_seeds_parallel
        if floor is None:
            floor = self.min_seeds_parallel
        if floor is None:
            floor = 2 * self.workers
        if len(seeds) < floor:
            return self._run_serial(task_blob, factory, predicate, sigma,
                                    seeds, collect_stats, batch)
        # Calibrate on the first seed, in-process. Its outcome (and
        # metrics) are kept, so calibration costs nothing extra and the
        # cost estimate tracks the actual design being swept.
        outcomes, per_seed = self._serial_chunk(
            task_blob, factory, predicate, sigma, seeds[:1], collect_stats,
            batch,
        )
        rest = seeds[1:]
        est_serial = self._cost_by_task[task_blob] * len(rest)
        warm = self._pool is not None and self._task_key == task_blob
        overhead = (
            WARM_DISPATCH_OVERHEAD_S
            if warm
            else POOL_STARTUP_PER_WORKER_S * self.workers
        )
        est_pool = overhead + est_serial / self.workers
        if est_pool < est_serial * PARALLEL_MARGIN:
            return self._run_pool(
                task_blob, factory, predicate, sigma, rest, collect_stats,
                batch, prefix_outcomes=outcomes, prefix_stats=per_seed,
            )
        self.last_backend = "serial"
        rest_outcomes, rest_per_seed = self._serial_chunk(
            task_blob, factory, predicate, sigma, rest, collect_stats, batch
        )
        # One fold over the full per-seed list keeps the association
        # order exactly seed order (prefix aggregate + rest aggregate
        # would associate the float sums differently).
        return outcomes + rest_outcomes, merge_stats(per_seed + rest_per_seed)

    def _run_pool(
        self,
        task_blob: bytes,
        factory,
        predicate,
        sigma: float,
        seeds: Sequence[int],
        collect_stats: bool,
        batch: Union[int, str, None],
        prefix_outcomes: Sequence[str] = (),
        prefix_stats: Sequence["SimMetrics"] = (),
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Pool execution with per-chunk retry-once and crash degradation."""
        self.last_backend = "pool"
        outcomes: List[str] = list(prefix_outcomes)
        per_seed: List["SimMetrics"] = list(prefix_stats)
        if not seeds:
            return outcomes, merge_stats(per_seed)
        chunks = chunk_seeds(seeds, self.workers * self.chunks_per_worker)
        retried = False
        index = 0
        futures: List = []
        need_submit = True  # (re)submit chunks[index:] before reading results
        while index < len(chunks):
            chunk = chunks[index]
            try:
                # A broken pool surfaces either at submit time (workers
                # already dead) or at result time, so both live under the
                # same failure handling.
                if need_submit:
                    pool = self._ensure_pool(
                        task_blob,
                        self._task_init_blob(factory, predicate, task_blob),
                    )
                    futures[index:] = [
                        pool.submit(_engine_chunk, sigma, c, batch,
                                    collect_stats)
                        for c in chunks[index:]
                    ]
                    need_submit = False
                chunk_outcomes, chunk_stats, chunk_report = (
                    futures[index].result()
                )
            except (BrokenProcessPool, OSError, pickle.PicklingError) as err:
                self._shutdown_pool()
                if not retried:
                    retried = True
                    need_submit = True
                    warnings.warn(
                        f"parallel Monte-Carlo worker failure on chunk "
                        f"{index} (seeds {chunk[0]}..{chunk[-1]}): {err!r}; "
                        "retrying once on a fresh pool",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    continue
                # Retry also failed: degrade to the in-process path for
                # this and every remaining chunk, and stop trying to
                # parallelize on this engine (the task evidently kills
                # workers; thrashing pools would be worse than serial).
                warnings.warn(
                    f"parallel Monte-Carlo worker failure persisted after "
                    f"retry ({err!r}); degrading to the sequential "
                    "reference path for the remaining "
                    f"{len(chunks) - index} chunk(s) and disabling the "
                    "pool on this engine",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.fallbacks += 1
                self.parallel_disabled = True
                self.last_backend = "degraded"
                for tail in chunks[index:]:
                    tail_outcomes, tail_stats, tail_report = run_chunk(
                        factory, predicate, sigma, tail, batch=batch,
                        collect_stats=collect_stats,
                    )
                    self.last_report.merge(tail_report)
                    outcomes.extend(tail_outcomes)
                    per_seed.extend(tail_stats)
                break
            _check_chunk(index, chunk, len(chunk_outcomes))
            if collect_stats:
                _check_chunk(index, chunk, len(chunk_stats), what="metrics")
            self.last_report.merge(chunk_report)
            outcomes.extend(chunk_outcomes)
            per_seed.extend(chunk_stats)
            index += 1
        return outcomes, merge_stats(per_seed)

    # -- cost model ----------------------------------------------------
    def _update_cost(self, task_blob: Optional[bytes], sample: float) -> float:
        """Fold a measured per-seed cost into the per-task EWMA."""
        if task_blob is None:
            return sample
        previous = self._cost_by_task.get(task_blob)
        cost = (
            sample
            if previous is None
            else (1 - COST_EWMA_WEIGHT) * previous + COST_EWMA_WEIGHT * sample
        )
        self._cost_by_task[task_blob] = cost
        return cost


# ----------------------------------------------------------------------
# Module-level default engines, keyed by worker count
# ----------------------------------------------------------------------
_DEFAULT_ENGINES: Dict[int, YieldEngine] = {}


def default_engine(workers: Optional[int] = None) -> YieldEngine:
    """The shared, cached engine for a worker count (created on demand).

    ``measure_yield(..., workers=N)`` routes through this cache, so
    repeated calls — a ``yield_curve`` sweep, every ``critical_sigma``
    bisection iteration — reuse one warm pool instead of spawning a pool
    per call. Engines are shut down at interpreter exit.
    """
    count = resolve_workers(workers)
    engine = _DEFAULT_ENGINES.get(count)
    if engine is None or engine.closed:
        engine = _DEFAULT_ENGINES[count] = YieldEngine(count)
    return engine


def shutdown_default_engines() -> None:
    """Close every cached default engine (used by tests and atexit)."""
    for engine in _DEFAULT_ENGINES.values():
        engine.close()
    _DEFAULT_ENGINES.clear()


atexit.register(shutdown_default_engines)


EnginePolicy = Union["YieldEngine", str, None]
