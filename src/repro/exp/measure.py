"""The measurement layer: resolution, the result store, coalescing, counters.

:class:`Measurer` is everything between a front-end's request and
:func:`~repro.core.montecarlo.measure_yield`. The yield service
(:mod:`repro.serve`) and the design-space explorer (:mod:`repro.explore`)
each own one and keep only what is theirs: request validation and HTTP in
serve; families, grids and the Pareto frontier in explore. It holds:

* a **memo** from a caller's name for a design (a registry name, a
  ``(family, params)`` pair) to its :func:`structural_hash` and static
  cost, so the hot path for a known design never elaborates;
* the **compiled cache** (digest -> :class:`Resolved`): the resolved
  circuit, baseline :class:`~repro.exp.registry.PulseCountPredicate` and
  latency, so two names for one circuit share one entry and one
  Monte-Carlo computation. Every result miss sweeps the kept circuit, whose
  compile memo and dispatch plan the baseline run already warmed, instead
  of elaborating the design again. The cost is not shared: the hash
  leaves out cost-only parameters (a ``jjs`` override), so two names with
  one digest may differ in cost;
* the **result store**, a :class:`repro.cache.TieredCache` keyed by
  :func:`~repro.core.ir.result_cache_key`. Every tier holds the canonical
  :func:`~repro.core.serialize.yield_result_to_jsonable` document. With
  ``cache_dir`` set, results persist in the ``results`` namespace, so a
  sweep pre-warms a server on the same directory and vice versa;
* one **re-entrant compute lock**: elaboration mutates the process-global
  working circuit and the Monte-Carlo engine runs one sweep at a time, so
  all cold work serializes here. Hits bypass it. Concurrent misses on one
  key coalesce: followers queue on the lock and are served the leader's
  result, so each distinct key is computed once.

Every document is identical to ``yield_result_to_jsonable`` of a direct
``measure_yield`` call with the same parameters; caching changes when a
result is computed, never its value.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, Hashable, Optional, Tuple, Union

from ..cache import DiskCache, LRUCache, MISSING, RESULTS_NAMESPACE, TieredCache
from ..core.batchsim import resolve_batch
from ..core.energy import CircuitCost, circuit_cost
from ..core.errors import PylseError
from ..core.ir import compile_circuit, result_cache_key
from ..core.montecarlo import measure_yield
from ..core.parallel import resolve_workers
from ..core.serialize import (
    yield_result_from_jsonable,
    yield_result_to_jsonable,
)
from ..core.simulation import Simulation
from .registry import PulseCountPredicate

#: Default LRU capacities (``--cache-size`` and ``--compiled-cache-size``
#: on ``repro serve``).
DEFAULT_CACHE_SIZE = 1024
DEFAULT_COMPILED_CACHE_SIZE = 128


def _factory(factory: Callable) -> Callable:
    """Unpickle a :class:`ResolvedFactory` as the factory it wraps."""
    return factory


class ResolvedFactory:
    """The factory of a :class:`Resolved`: it returns the resolved circuit.

    A run never mutates a circuit (placed cells are immutable and each
    run's state lives in the drain; ``tests/test_cell_state.py``), so a
    sweep of this one circuit is bit-identical to a sweep of a fresh
    ``factory()`` circuit. It pickles as the wrapped factory, so a pool
    task keeps its identity and a circuit that does not pickle still
    reaches the workers as its factory.
    """

    __slots__ = ("factory", "circuit")

    def __init__(self, factory: Callable, circuit):
        self.factory = factory
        self.circuit = circuit

    def __call__(self):
        return self.circuit

    def __reduce__(self):
        return _factory, (self.factory,)


@dataclass(frozen=True)
class Resolved:
    """A design reduced to what measurement needs, keyed by its digest."""

    digest: str
    factory: ResolvedFactory
    predicate: PulseCountPredicate
    #: Static cost model totals of the caller's circuit (no simulation).
    cost: CircuitCost
    #: Last pulse of the noiseless baseline run (ps): the design's makespan.
    latency_ps: float


def _costed(resolved: Resolved, cost: CircuitCost) -> Resolved:
    """``resolved`` as seen by a name whose own circuit costs ``cost``."""
    return resolved if resolved.cost == cost else replace(resolved, cost=cost)


def _validated(document: dict) -> dict:
    """Disk-tier decode: a stored document must parse as a yield result.

    Anything else (a foreign or damaged payload) raises, and the tiered
    cache quarantines the file and recomputes.
    """
    yield_result_from_jsonable(document)
    return document


class Measurer:
    """See the module docstring; one instance per front-end."""

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        compiled_cache_size: int = DEFAULT_COMPILED_CACHE_SIZE,
        cache_dir=None,
    ):
        self.workers = resolve_workers(workers)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        #: The one compute lane: resolution and every result miss hold it.
        self._lock = threading.RLock()
        self.compiled = LRUCache(compiled_cache_size)
        self.results = TieredCache(
            LRUCache(cache_size),
            None if cache_dir is None
            else DiskCache(cache_dir, RESULTS_NAMESPACE),
            decode=_validated,
            lock=self._lock,
        )
        #: memo key -> (digest, the name's own cost); add-only (a named
        #: design never changes).
        self._memo: Dict[Hashable, Tuple[str, CircuitCost]] = {}
        #: Monte-Carlo measurements actually computed (result misses).
        self.computations = 0
        #: Factory calls made to resolve a design (memo misses).
        self.elaborations = 0

    def _memoized(self, memo_key) -> Optional[Resolved]:
        named = self._memo.get(memo_key)
        if named is None:
            return None
        resolved = self.compiled.get(named[0])
        return None if resolved is MISSING else _costed(resolved, named[1])

    def resolve(self, factory: Callable, memo_key=None) -> Resolved:
        """Elaborate, hash, and baseline a design, memoized by digest.

        The entry keeps the elaborated circuit for its result misses. Its
        ``cost`` is always that of the caller's own circuit, also when the
        digest was first resolved under another name.

        ``memo_key`` names the design for the caller (None for submitted
        circuits, which are not memoized). Raises :class:`PylseError` when
        the design fails to elaborate, validate or run its baseline.
        """
        if memo_key is not None:
            resolved = self._memoized(memo_key)
            if resolved is not None:
                return resolved
        with self._lock:
            if memo_key is not None:
                # Another thread may have resolved it while we queued.
                resolved = self._memoized(memo_key)
                if resolved is not None:
                    return resolved
            try:
                circuit = factory()
            except PylseError as err:
                raise PylseError(f"invalid circuit: {err}") from None
            self.elaborations += 1
            try:
                digest = compile_circuit(circuit).structural_hash
            except PylseError as err:
                raise PylseError(
                    f"circuit failed validation: {err}"
                ) from None
            cost = circuit_cost(circuit)
            if memo_key is not None:
                self._memo[memo_key] = (digest, cost)
            resolved = self.compiled.get(digest)
            if resolved is not MISSING:
                return _costed(resolved, cost)
            try:
                baseline = Simulation(circuit).simulate()
            except PylseError as err:
                raise PylseError(
                    f"baseline (sigma=0) simulation failed: {err}"
                ) from None
            resolved = Resolved(
                digest=digest,
                factory=ResolvedFactory(factory, circuit),
                predicate=PulseCountPredicate(baseline),
                cost=cost,
                latency_ps=max(
                    (times[-1] for times in baseline.values() if times),
                    default=0.0,
                ),
            )
            self.compiled.put(digest, resolved)
            return resolved

    def measure(
        self,
        resolved: Resolved,
        sigma: float,
        n_seeds: int,
        seed0: int = 0,
        batch: Union[int, str, None] = None,
    ) -> Tuple[dict, bool]:
        """One cached yield measurement: ``(document, served_from_cache)``.

        ``batch`` only picks the drain, so it is validated but not keyed:
        batched and per-seed runs give identical documents.
        """
        resolve_batch(batch, n_seeds)
        key = result_cache_key(
            resolved.digest, sigma=sigma, n_seeds=n_seeds, seed0=seed0
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

        return self.results.get_or_compute(key, compute)

    def stats(self) -> Dict[str, object]:
        """Counters plus the ``cache`` block: ``result`` and ``compiled``
        LRUs, and ``result_disk`` when a cache directory is attached."""
        tiers = self.results.stats()
        cache: Dict[str, object] = {
            "result": tiers["memory"],
            "compiled": self.compiled.stats(),
        }
        if tiers["disk"] is not None:
            cache["result_disk"] = tiers["disk"]
        return {
            "computations": self.computations,
            "elaborations": self.elaborations,
            "coalesced": tiers["coalesced"],
            "cache": cache,
        }
