"""Monte-Carlo execution: one chunk path, run in-process or on a worker pool.

Section 5.2's yield sweeps classify each seed of a seed list. Every
backend does that through one computation: elaborate the design once and
drain a contiguous chunk of seeds through
:func:`repro.core.batchsim.run_batch` (the vectorized drain, with
per-seed replays for diverging lanes). :func:`run_chunk` is that
computation in-process; :func:`_engine_chunk` is the same ``run_batch``
inside a pool worker, against a circuit the worker installs once per
task. Both return ``run_batch``'s ``(outcomes, per_seed_stats, report)``
triple.

The pool lives inside a :class:`YieldEngine`, which is built to be
*reused*: one ``ProcessPoolExecutor`` is created lazily on the first
parallel run and kept warm across every subsequent ``measure_yield`` /
``yield_curve`` / ``critical_sigma`` call that uses the same engine,
whatever design it sweeps (the module-level :func:`default_engine`
cache, keyed by worker count, makes this automatic). Two costs are
amortized away:

* the parent elaborates and compiles each ``(factory, predicate)`` task
  **once** while it stays among the engine's ``_TASK_CACHE_SIZE`` most
  recent tasks; every chunk carries the task's key and its pickled
  compiled design, and a worker unpickles the design only when the key
  differs from the last task it loaded;
* each worker then re-simulates that circuit per seed (placed cells are
  immutable and every run's state lives in the drain, so a re-run is
  bit-identical to a fresh elaboration — ``tests/test_determinism.py``
  locks this).

One rule picks the backend: a sweep uses the pool only when
``workers > 1`` and its seeds need more than one batched pass — more
seeds than the lane width :func:`~repro.core.batchsim.resolve_batch`
gives (more than 256 seeds at the default width, or two or more seeds
with ``batch=0``). A sweep that fits one pass runs in-process, where it
is a single vectorized drain. The pool hands each worker one contiguous
chunk.

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
backend path (serial, warm pool, cold pool, crash degradation).

Process pools pickle their tasks, so ``factory`` and ``predicate`` must be
module-level callables (or otherwise picklable objects); lambdas and
closures are rejected up front with a clear error instead of a mid-pool
traceback.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
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
    resolve_batch,
    run_batch,
)
from .errors import PylseError
from .ir import compile_circuit
from .simulation import Events, Simulation

if TYPE_CHECKING:  # layering: core never imports repro.obs at runtime
    from ..obs.metrics import SimMetrics

#: How many tasks' worker payloads one engine keeps, least recently used
#: first out. It covers the 22-design registry, so a repeated registry
#: sweep never re-elaborates, while a long-lived engine (``repro serve``,
#: explore) stops growing with every distinct design it ever pooled.
_TASK_CACHE_SIZE = 32


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

    Calls ``factory`` once, then drains every seed through
    :func:`~repro.core.batchsim.run_batch`. The factory may return a
    circuit that earlier runs already simulated (its compile memo then
    warm): a run never mutates a circuit, so the outcomes equal those of a
    freshly elaborated one. Returns its
    ``(outcomes, per_seed_stats, report)`` triple: outcomes in seed
    order, one fresh ``SimMetrics`` per seed when ``collect_stats`` (empty
    otherwise), and the chunk's :class:`BatchReport`. This is the serial
    and degraded path of every Monte-Carlo backend; pool
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


def _pickle_task(factory, predicate) -> bytes:
    """The task's pickle: the pool's identity key.

    Taken whenever ``workers > 1``, even for a sweep small enough to run
    in-process, so an unpicklable task is rejected with a clear error at
    every sweep size instead of only once a sweep grows onto the pool.
    """
    try:
        return pickle.dumps((factory, predicate))
    except Exception as err:
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

class _WorkerContext:
    """Per-worker-process state of the last task the worker loaded."""

    __slots__ = ("key", "predicate", "sim")

    def __init__(self, key: str, circuit, predicate):
        self.key = key
        self.predicate = predicate
        self.sim = Simulation(circuit)


_WORKER_CTX: Optional[_WorkerContext] = None


def _engine_worker_init(key: str, init_blob: bytes) -> _WorkerContext:
    """Install a task's design in this worker process.

    ``init_blob`` is either ``("compiled", CompiledCircuit, predicate)`` —
    the parent elaborated and compiled the design exactly once and ships
    the frozen IR, so workers never re-run the factory or the compile
    pass (the unpickled circuit arrives with its compile memo warm) — or
    the fallback ``("factory", factory, predicate)`` for designs whose
    circuit does not pickle (e.g. closure-bodied holes), where each
    worker elaborates once per task.
    """
    global _WORKER_CTX
    kind, payload, predicate = pickle.loads(init_blob)
    if kind == "compiled":
        circuit = payload.circuit
    else:
        circuit = payload()  # elaborate once per worker and task
    _WORKER_CTX = _WorkerContext(key, circuit, predicate)
    return _WORKER_CTX


def _engine_chunk(
    key: str,
    init_blob: bytes,
    sigma: float,
    seeds: Sequence[int],
    batch: Union[int, str, None] = None,
    collect_stats: bool = False,
) -> Tuple[List[str], List["SimMetrics"], BatchReport]:
    """The pool task: :func:`run_chunk` against the worker's circuit.

    The worker keeps the last task it loaded; a chunk of another task
    (a different ``key``, the digest of ``init_blob``) installs its
    ``init_blob`` first. A digest key cannot name a stale design, not
    even one a forked worker inherited from its parent. Each worker
    drains its chunk as one (or a few) batched passes — multiplicative
    with the pool parallelism. Every drain starts each cell from its
    initial configuration, so each seed sees exactly the state a fresh
    ``factory()`` circuit would have — the re-simulation stability locked
    by ``tests/test_determinism.py`` is what makes this bit-identical to
    :func:`run_chunk`.
    """
    ctx = _WORKER_CTX
    if ctx is None or ctx.key != key:
        ctx = _engine_worker_init(key, init_blob)
    return run_batch(
        ctx.sim, ctx.predicate, sigma, seeds, collect_stats=collect_stats,
        batch=batch,
    )


class YieldEngine:
    """A persistent, reusable parallel Monte-Carlo backend.

    One process pool, created lazily on the first parallel run and kept
    warm for every later call, whatever ``(factory, predicate)`` task it
    runs: each chunk carries its task, and workers switch tasks in place.
    Use as a context manager, or rely on the module-level
    :func:`default_engine` cache —
    ``measure_yield(..., workers=N)`` does the latter automatically::

        with YieldEngine(workers=4) as engine:
            for sigma in sigmas:
                outcomes, stats = engine.run(factory, ok, sigma, seeds)

    :meth:`run` uses the pool only for a sweep that needs more than one
    batched pass (see the module docstring); smaller sweeps run
    in-process through :func:`run_chunk`.

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

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self.pools_created = 0
        self.fallbacks = 0
        self.last_backend: Optional[str] = None
        self.last_report = BatchReport()
        self.parallel_disabled = False
        self.closed = False
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Serializes run() across threads: the pool and the last_*
        #: observability fields are single-sweep state.
        self._run_lock = threading.RLock()
        # Imported here, not at module level: a process that never builds
        # an engine (a plain simulate) does not load repro.cache.
        from ..cache.lru import LRUCache

        #: task blob -> (payload digest, worker payload): the compiled design
        #: when the circuit pickles, the factory otherwise. Built once per
        #: task while it stays cached, so repeated runs never re-elaborate
        #: in the parent.
        self._tasks = LRUCache(_TASK_CACHE_SIZE)

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

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.pools_created += 1
        return self._pool

    def _task(self, factory, predicate, task_blob: bytes) -> Tuple[str, bytes]:
        """The task's ``(key, worker payload)``, built once while cached.

        Prefers shipping the parent-compiled :class:`CompiledCircuit` —
        one elaboration + compile for the whole sweep, with every worker
        receiving the design pre-validated and its compile memo warm.
        Node placement ids are assigned per elaboration, but only their
        *relative* order matters for heap pop ordering, and a pickled
        circuit preserves it — so worker results stay bit-identical to
        the factory path. Falls back to shipping the factory when the
        circuit itself does not pickle. The key is the payload's digest.
        """
        if task_blob not in self._tasks:
            try:
                compiled = compile_circuit(factory())
                blob = pickle.dumps(("compiled", compiled, predicate))
            except Exception:
                blob = pickle.dumps(("factory", factory, predicate))
            self._tasks.put(task_blob, (hashlib.sha256(blob).hexdigest(), blob))
        return self._tasks.get(task_blob)

    # -- the run entry point -------------------------------------------
    def run(
        self,
        factory: Callable[[], object],
        predicate: Callable[[Events], bool],
        sigma: float,
        seeds: Sequence[int],
        collect_stats: bool = False,
        batch: Union[int, str, None] = None,
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Classify every seed; returns ``(outcomes, merged_stats_or_None)``.

        ``batch`` is the batched-drain lane width (``None``/``"auto"``
        picks it, ``0`` disables batching). It also picks the backend: the
        pool runs a sweep of more seeds than one batched pass holds, on
        an engine with more than one worker; anything smaller runs
        in-process. The run's merged
        :class:`~repro.core.batchsim.BatchReport` lands on
        ``self.last_report``.
        """
        with self._run_lock:
            if self.closed:
                raise PylseError("YieldEngine is closed; create a new one")
            seeds = list(seeds)
            self.last_report = BatchReport()
            if not seeds:
                return [], None
            if self.workers > 1 and len(seeds) > 1:
                task_blob = _pickle_task(factory, predicate)
                if not self.parallel_disabled and len(seeds) > resolve_batch(
                    batch, len(seeds)
                ):
                    return self._run_pool(task_blob, factory, predicate,
                                          sigma, seeds, collect_stats, batch)
            self.last_backend = "serial"
            outcomes, per_seed, self.last_report = run_chunk(
                factory, predicate, sigma, seeds, batch=batch,
                collect_stats=collect_stats,
            )
            return outcomes, merge_stats(per_seed)

    # -- backends ------------------------------------------------------
    def _run_pool(
        self,
        task_blob: bytes,
        factory,
        predicate,
        sigma: float,
        seeds: Sequence[int],
        collect_stats: bool,
        batch: Union[int, str, None],
    ) -> Tuple[List[str], Optional["SimMetrics"]]:
        """Pool execution, one contiguous chunk per worker, with per-chunk
        retry-once and crash degradation."""
        self.last_backend = "pool"
        outcomes: List[str] = []
        per_seed: List["SimMetrics"] = []
        chunks = chunk_seeds(seeds, self.workers)
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
                    key, init_blob = self._task(factory, predicate,
                                                task_blob)
                    pool = self._ensure_pool()
                    futures[index:] = [
                        pool.submit(_engine_chunk, key, init_blob, sigma, c,
                                    batch, collect_stats)
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
