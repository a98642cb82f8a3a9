"""The yield-analysis service: cached, coalesced Monte-Carlo measurements.

:class:`YieldService` is the transport-independent core of ``python -m
repro serve`` (the HTTP layer in :mod:`repro.serve.http` is a thin shell
around it). A request names a design — either a registry entry (``{"design":
"Min-Max"}``) or a full serialized circuit (``{"circuit": {...}}``, the
``repro-circuit-v1`` format of :mod:`repro.core.serialize`) — plus the
measurement parameters ``sigma``, ``n_seeds``, ``seed0``, and ``batch``.

The service validates requests and shapes responses; everything between
a request and :func:`~repro.core.montecarlo.measure_yield` is one
:class:`~repro.exp.measure.Measurer`, the layer ``repro explore`` uses
too. It resolves a design once per structural hash (elaboration, compile,
baseline run), keeps results under :func:`repro.core.ir.result_cache_key`
in memory and, with ``cache_dir``, on disk (shared with ``repro explore
--cache-dir``, see docs/caching.md), and coalesces concurrent identical
misses onto one computation on a single compute lane. Identical designs
submitted by different clients, or under different names, hit the same
entry, and a ``/critical_sigma`` bisection reads and fills the entries
its ``/yield`` siblings see.

Every served result is bit-identical to a direct
:func:`~repro.core.montecarlo.measure_yield` call with the same
parameters — the determinism contract of the Monte-Carlo backends is what
makes the cache key sound (``tests/test_serve_differential.py``).
"""

from __future__ import annotations

import json
import time
from typing import List, Optional, Tuple, Union

from ..core.errors import PylseError
from ..core.montecarlo import critical_sigma
from ..core.serialize import (
    SerializedCircuitFactory,
    yield_result_from_jsonable,
)
from ..exp.measure import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_COMPILED_CACHE_SIZE,
    Measurer,
    Resolved,
)
from ..exp.registry import RegistryFactory, registry, registry_entry
from ..obs.serving import ServiceMetrics

#: Version tag reported by ``GET /healthz``.
SERVE_VERSION = "repro-serve-v1"

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
        self.measurer = Measurer(workers, cache_size, compiled_cache_size,
                                 cache_dir)
        self.metrics = ServiceMetrics()
        self.started = time.time()

    @property
    def computations(self) -> int:
        """Engine computations actually performed (misses that ran)."""
        return self.measurer.computations

    # -- design resolution ---------------------------------------------
    def _resolve(self, payload: dict) -> Resolved:
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

    def _resolve_design(self, name) -> Resolved:
        if not isinstance(name, str):
            raise BadRequest(f"'design' must be a string, got {name!r}")
        if registry_entry(name) is None:
            raise UnknownDesign(
                f"unknown design {name!r}; GET /healthz lists the "
                "registry size, `python -m repro list` the names"
            )
        return self._resolved(RegistryFactory(name), memo_key=name)

    def _resolve_circuit(self, spec) -> Resolved:
        if isinstance(spec, str):
            text = spec
        elif isinstance(spec, dict):
            text = json.dumps(spec)
        else:
            raise BadRequest(
                "'circuit' must be a repro-circuit-v1 object or its JSON "
                f"text, got {type(spec).__name__}"
            )
        return self._resolved(SerializedCircuitFactory(text))

    def _resolved(self, factory, memo_key=None) -> Resolved:
        try:
            return self.measurer.resolve(factory, memo_key)
        except PylseError as err:
            raise BadRequest(str(err)) from None

    # -- endpoints ------------------------------------------------------
    def yield_(self, payload) -> Tuple[dict, bool]:
        """``POST /yield``: one cached yield measurement."""
        payload = _require_mapping(payload)
        resolved = self._resolve(payload)
        sigma = _get_float(payload, "sigma", 0.5, lo=0.0)
        n_seeds = _get_int(payload, "n_seeds", 50, lo=1, hi=MAX_SEEDS)
        seed0 = _get_int(payload, "seed0", 0, lo=0)
        batch = _get_batch(payload)
        result, cached, resolved = self.measurer.measure(
            resolved, sigma, n_seeds, seed0, batch
        )
        return {
            "design": payload.get("design"),
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
            result, cached, resolved = self.measurer.measure(
                resolved, float(sigma), n_seeds, seed0, batch
            )
            results.append(result)
            all_cached = all_cached and cached
        return {
            "design": payload.get("design"),
            "structural_hash": resolved.digest,
            "sigmas": [float(s) for s in sigmas],
            "results": results,
        }, all_cached

    def critical_sigma(self, payload) -> Tuple[dict, bool]:
        """``POST /critical_sigma``: a robustness bisection over cached
        samples.

        Every bisection sample is one measurement through the shared
        result store (the ``measure=`` hook of
        :func:`repro.core.montecarlo.critical_sigma`), so a warm bisection
        is pure cache hits — also after a restart, with ``cache_dir`` —
        and a later ``/yield`` at a probed sigma is a hit. The answer is
        ``cached`` iff every sample was.
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
        all_cached = True

        def sample(factory, predicate, sigma, seeds, **_kwargs):
            nonlocal all_cached, resolved
            document, cached, resolved = self.measurer.measure(
                resolved, sigma, n_seeds, seed0, batch
            )
            all_cached = all_cached and cached
            return yield_result_from_jsonable(document)

        value = critical_sigma(
            resolved.factory,
            resolved.predicate,
            target_yield=target,
            sigma_hi=sigma_hi,
            seeds=range(seed0, seed0 + n_seeds),
            iterations=iterations,
            measure=sample,
        )
        return {
            "design": payload.get("design"),
            "structural_hash": resolved.digest,
            "target_yield": target,
            "sigma_hi": sigma_hi,
            "iterations": iterations,
            "n_seeds": n_seeds,
            "seed0": seed0,
            "critical_sigma": value,
        }, all_cached

    # -- introspection --------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz``: liveness plus the basics a probe wants."""
        return {
            "status": "ok",
            "version": SERVE_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "designs": len(registry()),
            "workers": self.measurer.workers,
        }

    def stats(self) -> dict:
        """``GET /stats``: the measurer's counters and caches, plus the
        per-endpoint serving counters."""
        payload = self.metrics.to_jsonable()
        return {
            "format": payload["format"],
            "uptime_s": round(time.time() - self.started, 3),
            "workers": self.measurer.workers,
            **self.measurer.stats(),
            "cache_dir": self.measurer.cache_dir,
            "endpoints": payload["endpoints"],
        }
