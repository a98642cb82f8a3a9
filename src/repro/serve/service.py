"""The yield-analysis service: cached, coalesced Monte-Carlo measurements.

:class:`YieldService` is the transport-independent core of ``python -m
repro serve`` (the HTTP layer in :mod:`repro.serve.http` is a thin shell
around it). A request names a design — either a registry entry (``{"design":
"Min-Max"}``) or a full serialized circuit (``{"circuit": {...}}``, the
``repro-circuit-v1`` format of :mod:`repro.core.serialize`) — plus the
measurement parameters ``sigma``, ``n_seeds``, ``seed0``, and ``batch``.

Two caches make repeated analysis of identical designs nearly free:

* the **compiled cache** maps a circuit's :func:`structural_hash` to its
  resolved form — a picklable factory, the noiseless-baseline
  :class:`~repro.exp.registry.PulseCountPredicate`, and the digest — so a
  re-submitted design skips elaboration, compilation, and the baseline
  simulation;
* the **result store** — a :class:`repro.cache.TieredCache` — maps
  :func:`repro.core.ir.result_cache_key` — the ``(structural_hash, sigma,
  n_seeds, seed0, batch)`` tuple — to the served result. Identical designs
  submitted by different clients (or the same design under a different
  name) hit the same entry, and a ``/critical_sigma`` bisection populates
  the same cache its ``/yield`` siblings read. With ``cache_dir`` set the
  store gains a persistent disk tier (:mod:`repro.cache.disk`): results
  survive restarts, and an ``repro explore --cache-dir`` sweep pointed at
  the same directory pre-warms the service (see docs/caching.md).

Computation is **single-lane**: one re-entrant lock serializes circuit
elaboration (the ambient working circuit is process-global) and every
engine run. Cache hits bypass the lock entirely, which is where the warm
throughput comes from (see docs/performance.md). Concurrent identical
requests *coalesce*: the first to miss takes the lock and computes;
followers queue on the lock, re-check the cache, and are served the
leader's freshly cached result — exactly one engine computation per
distinct key (``tests/test_serve.py`` locks this). Heavy sweeps scale out
via the shared persistent :class:`~repro.core.parallel.YieldEngine`
process pool (``workers > 1``), whose ``run`` is itself thread-safe.

Every served result is bit-identical to a direct
:func:`~repro.core.montecarlo.measure_yield` call with the same
parameters — the determinism contract of the Monte-Carlo backends is what
makes the cache key sound (``tests/test_serve_differential.py``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.errors import PylseError
from ..core.ir import compile_circuit, result_cache_key
from ..core.montecarlo import critical_sigma, measure_yield
from ..core.parallel import resolve_workers
from ..core.serialize import (
    SerializedCircuitFactory,
    circuit_from_json,
    yield_result_to_jsonable,
)
from ..core.simulation import Simulation
from ..cache import (
    DiskCache,
    LRUCache,
    MISSING,
    RESULTS_NAMESPACE,
    TieredCache,
)
from ..exp.registry import (
    PulseCountPredicate, RegistryFactory, registry, registry_entry,
)
from ..obs.serving import ServiceMetrics, cache_tiers_jsonable

#: Version tag reported by ``GET /healthz``.
SERVE_VERSION = "repro-serve-v1"

#: Default capacities (overridable via ``--cache-size`` and
#: ``--compiled-cache-size`` on the CLI).
DEFAULT_CACHE_SIZE = 1024
DEFAULT_COMPILED_CACHE_SIZE = 128

#: Request-parameter guard rails: a public endpoint must bound the work a
#: single request can demand.
MAX_SEEDS = 100_000
MAX_SIGMAS = 128
MAX_ITERATIONS = 32


class RequestError(PylseError):
    """A client error with an HTTP status and a stable machine-readable code."""

    status = 400
    code = "bad_request"


class BadRequest(RequestError):
    """Malformed payload, bad parameter, or an unserviceable circuit."""


class UnknownDesign(RequestError):
    """The named design is not in the registry."""

    status = 404
    code = "unknown_design"


@dataclass(frozen=True)
class ResolvedDesign:
    """A design reduced to what measurement needs, keyed by its digest."""

    digest: str
    factory: Callable
    predicate: Callable
    #: Registry name when resolved by name, None for submitted circuits.
    design: Optional[str]


class _YieldView:
    """Duck-typed stand-in for a YieldResult inside cached bisections."""

    __slots__ = ("yield_fraction",)

    def __init__(self, yield_fraction: float):
        self.yield_fraction = yield_fraction


def _require_mapping(payload) -> dict:
    if not isinstance(payload, dict):
        raise BadRequest(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _get_float(payload: dict, key: str, default: float, *,
               lo: Optional[float] = None,
               hi: Optional[float] = None) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"{key!r} must be a number, got {value!r}")
    value = float(value)
    if value != value:  # NaN never equals itself — reject, it poisons keys
        raise BadRequest(f"{key!r} must not be NaN")
    if lo is not None and value < lo:
        raise BadRequest(f"{key!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise BadRequest(f"{key!r} must be <= {hi}, got {value}")
    return value


def _get_int(payload: dict, key: str, default: int, *,
             lo: Optional[int] = None,
             hi: Optional[int] = None) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise BadRequest(f"{key!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise BadRequest(f"{key!r} must be <= {hi}, got {value}")
    return value


def _get_batch(payload: dict) -> Union[int, str, None]:
    batch = payload.get("batch")
    if batch in (None, "auto"):
        return batch
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 0:
        raise BadRequest(
            f"'batch' must be a non-negative integer, 'auto', or null, "
            f"got {batch!r}"
        )
    return batch


class YieldService:
    """See the module docstring; one instance serves one process."""

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        compiled_cache_size: int = DEFAULT_COMPILED_CACHE_SIZE,
        cache_dir=None,
    ):
        self.workers = resolve_workers(workers)
        #: Single compute lane: elaboration mutates the process-global
        #: working circuit and the shared YieldEngine runs one sweep at a
        #: time, so all cold work serializes here. Re-entrant because a
        #: /critical_sigma computation issues nested cached measurements.
        self._compute_lock = threading.RLock()
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.result_cache = LRUCache(cache_size)
        #: The tiered store fronting every measurement: the LRU above plus
        #: (with ``cache_dir``) the persistent disk tier that survives
        #: restarts and is shared with ``repro explore`` sweeps. The
        #: served documents are already canonical JSON, so no codec is
        #: needed; the compute lock doubles as the coalescing lane.
        self.result_store = TieredCache(
            self.result_cache,
            None if cache_dir is None
            else DiskCache(cache_dir, RESULTS_NAMESPACE),
            lock=self._compute_lock,
        )
        self.compiled_cache = LRUCache(compiled_cache_size)
        self.metrics = ServiceMetrics()
        #: Engine computations actually performed (cache misses that ran).
        self.computations = 0
        self.started = time.time()
        #: Registry-name -> digest memo so the hot path for named designs
        #: never elaborates. Entries are only ever added (the registry is
        #: static); the compiled cache holds the evictable heavy part.
        self._design_digest: Dict[str, str] = {}

    @property
    def coalesced(self) -> int:
        """Requests that missed, queued on the compute lock, and were then
        served another request's freshly cached computation."""
        return self.result_store.coalesced

    # -- design resolution ---------------------------------------------
    def _resolve(self, payload: dict) -> ResolvedDesign:
        has_design = "design" in payload
        has_circuit = "circuit" in payload
        if has_design == has_circuit:
            raise BadRequest(
                "specify exactly one of 'design' (a registry name) or "
                "'circuit' (a repro-circuit-v1 document)"
            )
        if has_design:
            return self._resolve_design(payload["design"])
        return self._resolve_circuit(payload["circuit"])

    def _resolve_design(self, name) -> ResolvedDesign:
        if not isinstance(name, str):
            raise BadRequest(f"'design' must be a string, got {name!r}")
        digest = self._design_digest.get(name)
        if digest is not None:
            resolved = self.compiled_cache.get(digest)
            if resolved is not MISSING:
                return resolved
        with self._compute_lock:
            # Re-check: another thread may have resolved it while we queued.
            digest = self._design_digest.get(name)
            if digest is not None:
                resolved = self.compiled_cache.get(digest)
                if resolved is not MISSING:
                    return resolved
            if registry_entry(name) is None:
                raise UnknownDesign(
                    f"unknown design {name!r}; GET /healthz lists the "
                    "registry size, `python -m repro list` the names"
                )
            factory = RegistryFactory(name)
            return self._build_resolved(factory, factory(), design=name)

    def _resolve_circuit(self, spec) -> ResolvedDesign:
        if isinstance(spec, str):
            text = spec
        elif isinstance(spec, dict):
            text = json.dumps(spec)
        else:
            raise BadRequest(
                "'circuit' must be a repro-circuit-v1 object or its JSON "
                f"text, got {type(spec).__name__}"
            )
        with self._compute_lock:
            try:
                circuit = circuit_from_json(text)
            except RequestError:
                raise
            except PylseError as err:
                raise BadRequest(f"invalid circuit: {err}") from None
            return self._build_resolved(
                SerializedCircuitFactory(text), circuit, design=None
            )

    def _build_resolved(
        self, factory: Callable, circuit, design: Optional[str]
    ) -> ResolvedDesign:
        """Compile, check the compiled cache, derive the baseline predicate.

        Called with the compute lock held and a freshly elaborated circuit.
        """
        try:
            digest = compile_circuit(circuit).structural_hash
        except PylseError as err:
            raise BadRequest(f"circuit failed validation: {err}") from None
        cached = self.compiled_cache.get(digest)
        if cached is not MISSING:
            return cached
        try:
            baseline = Simulation(circuit).simulate()
        except PylseError as err:
            raise BadRequest(
                f"baseline (sigma=0) simulation failed: {err}"
            ) from None
        resolved = ResolvedDesign(
            digest=digest,
            factory=factory,
            predicate=PulseCountPredicate(baseline),
            design=design,
        )
        self.compiled_cache.put(digest, resolved)
        if design is not None:
            self._design_digest[design] = digest
        return resolved

    # -- cached measurement --------------------------------------------
    def _cached(
        self, key, compute: Callable[[], object]
    ) -> Tuple[object, bool]:
        """Serve ``key`` from the result store, computing (once) on miss.

        Returns ``(value, served_from_cache)``. The store owns the
        double-checked-lock coalescing this service pioneered (see
        :meth:`repro.cache.tiered.TieredCache.get_or_compute`): concurrent
        misses on one key queue on the compute lock, find the leader's
        result on the re-check, and ``compute`` runs exactly once per
        distinct key (absent eviction churn).
        """
        return self.result_store.get_or_compute(key, compute)

    def _measure(
        self,
        resolved: ResolvedDesign,
        sigma: float,
        n_seeds: int,
        seed0: int,
        batch: Union[int, str, None],
    ) -> Tuple[dict, bool]:
        key = result_cache_key(
            resolved.digest, sigma=sigma, n_seeds=n_seeds, seed0=seed0,
            batch=batch,
        )

        def compute() -> dict:
            result = measure_yield(
                resolved.factory,
                resolved.predicate,
                sigma,
                seeds=range(seed0, seed0 + n_seeds),
                workers=self.workers,
                batch=batch,
            )
            self.computations += 1
            return yield_result_to_jsonable(result)

        return self._cached(key, compute)

    # -- endpoints ------------------------------------------------------
    def yield_(self, payload) -> Tuple[dict, bool]:
        """``POST /yield``: one cached yield measurement."""
        payload = _require_mapping(payload)
        resolved = self._resolve(payload)
        sigma = _get_float(payload, "sigma", 0.5, lo=0.0)
        n_seeds = _get_int(payload, "n_seeds", 50, lo=1, hi=MAX_SEEDS)
        seed0 = _get_int(payload, "seed0", 0, lo=0)
        batch = _get_batch(payload)
        result, cached = self._measure(resolved, sigma, n_seeds, seed0, batch)
        return {
            "design": resolved.design,
            "structural_hash": resolved.digest,
            "result": result,
        }, cached

    def yield_curve(self, payload) -> Tuple[dict, bool]:
        """``POST /yield_curve``: one cached measurement per sigma.

        Each point is cached under its own measurement key, so a curve
        re-uses (and back-fills) the entries ``/yield`` requests see.
        """
        payload = _require_mapping(payload)
        resolved = self._resolve(payload)
        sigmas = payload.get("sigmas")
        if (
            not isinstance(sigmas, list)
            or not sigmas
            or len(sigmas) > MAX_SIGMAS
        ):
            raise BadRequest(
                f"'sigmas' must be a non-empty list of at most "
                f"{MAX_SIGMAS} numbers, got {sigmas!r}"
            )
        n_seeds = _get_int(payload, "n_seeds", 25, lo=1, hi=MAX_SEEDS)
        seed0 = _get_int(payload, "seed0", 0, lo=0)
        batch = _get_batch(payload)
        results: List[dict] = []
        all_cached = True
        for index, sigma in enumerate(sigmas):
            if isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
                raise BadRequest(
                    f"'sigmas[{index}]' must be a number, got {sigma!r}"
                )
            if not float(sigma) >= 0.0:  # also rejects NaN
                raise BadRequest(
                    f"'sigmas[{index}]' must be >= 0, got {sigma!r}"
                )
            result, cached = self._measure(
                resolved, float(sigma), n_seeds, seed0, batch
            )
            results.append(result)
            all_cached = all_cached and cached
        return {
            "design": resolved.design,
            "structural_hash": resolved.digest,
            "sigmas": [float(s) for s in sigmas],
            "results": results,
        }, all_cached

    def critical_sigma(self, payload) -> Tuple[dict, bool]:
        """``POST /critical_sigma``: cached robustness bisection.

        The scalar answer is cached under an endpoint-level key, and every
        bisection sample flows through the shared measurement cache (the
        ``measure=`` hook of :func:`repro.core.montecarlo.critical_sigma`),
        so a later ``/yield`` at a probed sigma is a hit.
        """
        payload = _require_mapping(payload)
        resolved = self._resolve(payload)
        target = _get_float(payload, "target_yield", 0.9)
        if not 0.0 < target <= 1.0:
            raise BadRequest(
                f"'target_yield' must be in (0, 1], got {target}"
            )
        sigma_hi = _get_float(payload, "sigma_hi", 8.0)
        if not sigma_hi > 0.0:
            raise BadRequest(f"'sigma_hi' must be > 0, got {sigma_hi}")
        iterations = _get_int(payload, "iterations", 6, lo=1,
                              hi=MAX_ITERATIONS)
        n_seeds = _get_int(payload, "n_seeds", 20, lo=1, hi=MAX_SEEDS)
        seed0 = _get_int(payload, "seed0", 0, lo=0)
        batch = _get_batch(payload)
        measure_key = result_cache_key(
            resolved.digest, sigma=0.0, n_seeds=n_seeds, seed0=seed0,
            batch=batch,
        )
        key = ("critical_sigma", measure_key[1:], target, sigma_hi,
               iterations)

        def cached_measure(factory, predicate, sigma, seeds, **_kwargs):
            seeds = list(seeds)
            jsonable, _ = self._measure(
                resolved, sigma, len(seeds), seeds[0], batch
            )
            return _YieldView(jsonable["yield"])

        def compute() -> dict:
            return {
                "critical_sigma": critical_sigma(
                    resolved.factory,
                    resolved.predicate,
                    target_yield=target,
                    sigma_hi=sigma_hi,
                    seeds=range(seed0, seed0 + n_seeds),
                    iterations=iterations,
                    workers=self.workers,
                    batch=batch,
                    measure=cached_measure,
                )
            }

        value, cached = self._cached(key, compute)
        return {
            "design": resolved.design,
            "structural_hash": resolved.digest,
            "target_yield": target,
            "sigma_hi": sigma_hi,
            "iterations": iterations,
            "n_seeds": n_seeds,
            "seed0": seed0,
            **value,
        }, cached

    # -- introspection --------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz``: liveness plus the basics a probe wants."""
        return {
            "status": "ok",
            "version": SERVE_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "designs": len(registry()),
            "workers": self.workers,
        }

    def stats(self) -> dict:
        """``GET /stats``: caches, computations, per-endpoint counters."""
        payload = self.metrics.to_jsonable()
        return {
            "format": payload["format"],
            "uptime_s": round(time.time() - self.started, 3),
            "workers": self.workers,
            "computations": self.computations,
            "coalesced": self.coalesced,
            "cache_dir": self.cache_dir,
            "cache": cache_tiers_jsonable(
                self.result_store, self.compiled_cache
            ),
            "endpoints": payload["endpoints"],
        }
