"""The measurement layer: resolution, the result store, coalescing, counters.

:class:`Measurer` is everything between a front-end's request and
:func:`~repro.core.montecarlo.measure_yield`. The yield service
(:mod:`repro.serve`) and the design-space explorer (:mod:`repro.explore`)
each own one and keep only what is theirs: request validation and HTTP in
serve; families, grids and the Pareto frontier in explore. It holds:

* a **memo** from a caller's name for a design (a registry name, a
  ``(family, params)`` pair) to its :func:`structural_hash`, order
  fingerprint and static cost, so the hot path for a known design never
  elaborates;
* the **compiled cache** (``(digest, order fingerprint)`` ->
  :class:`Resolved`): the resolved circuit, baseline
  :class:`~repro.exp.registry.PulseCountPredicate` and latency, so two
  names for one circuit in one node order share one entry and one
  Monte-Carlo computation. Every result miss sweeps the kept circuit,
  whose compile memo and dispatch plan the baseline run already warmed,
  instead of elaborating the design again. The cost is not shared: the
  hash leaves out cost-only parameters (a ``jjs`` override), so two names
  with one digest may differ in cost;
* the **result store**, a :class:`repro.cache.TieredCache` keyed by
  :func:`~repro.core.ir.result_cache_key`. Every tier holds the canonical
  :func:`~repro.core.serialize.yield_result_to_jsonable` document. With
  ``cache_dir`` set, results persist in the ``results`` namespace, so a
  sweep pre-warms a server on the same directory and vice versa;
* with ``cache_dir`` set, the **resolutions** namespace: a named design's
  digest, order fingerprint, cost, latency and baseline pulse counts,
  keyed by ``(hash version, source digest, memo key)``.
  :func:`source_digest` covers every file of the ``repro`` package by its
  path, inode, size, mtime and ctime, so any edit to the package, or a
  new copy of it, misses (coarse but sound); a process whose package was
  edited after it imported it stores nothing there. Only factories that
  declare ``source_defined`` (registry designs, family points) persist:
  their circuit is a function of the package source and the name. A
  fresh process resolves a stored name without elaborating it; the
  entry's first result miss elaborates it and checks the fresh
  resolution against the stored one. A mismatch quarantines the document
  and the miss is measured under the fresh resolution, which
  :class:`Measurement` hands back;
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

import functools
import hashlib
import os
import sys
import threading
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple, Union,
)

from .. import _IMPORTED_NS
from ..cache import (
    DiskCache,
    LRUCache,
    MISSING,
    RESOLUTIONS_NAMESPACE,
    RESULTS_NAMESPACE,
    TieredCache,
)
from ..core.batchsim import resolve_batch
from ..core.energy import CircuitCost, circuit_cost
from ..core.errors import PylseError
from ..core.ir import _HASH_VERSION, compile_circuit, result_cache_key
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

#: The ``repro`` package directory, every file of which
#: :func:`source_digest` covers.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PACKAGE = __name__.partition(".")[0]

#: A file changed this close before the import counts as changed after
#: it: a file system's timestamps may lag the clock by a scheduler tick.
_TIMESTAMP_SLACK_NS = 10_000_000

#: Package files no module had been loaded from when :func:`source_digest`
#: ran: the modules a process may still import later.
_unloaded: Tuple[str, ...] = ()


def _changed_ns(stat: os.stat_result) -> int:
    """When a file's content or inode last changed. ``st_ctime`` cannot be
    set back, so it catches an edit that restores the mtime."""
    return max(stat.st_mtime_ns, stat.st_ctime_ns)


def _package_files() -> List[Tuple[str, os.stat_result]]:
    """``(path relative to the package, stat)`` of every package file
    outside ``__pycache__``, sorted by path."""
    found = []
    pending = [""]
    while pending:
        prefix = pending.pop()
        with os.scandir(os.path.join(_PACKAGE_DIR, prefix)) as entries:
            for entry in entries:
                name = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    if entry.name != "__pycache__":
                        pending.append(name + "/")
                else:
                    found.append((name, entry.stat()))
    return sorted(found)


def _loaded(name: str) -> bool:
    """Whether a module has been loaded from the package file ``name``."""
    if not name.endswith(".py"):
        return False
    parts = [_PACKAGE, *name[:-3].split("/")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) in sys.modules


@functools.lru_cache(maxsize=None)
def source_digest() -> Optional[str]:
    """sha256 over the identity of every file of the ``repro`` package, or
    None.

    A resolution depends on the code of the design, its cells and the
    simulator, and no narrower key covers that code, so a stored
    resolution is keyed by all of it. Each file counts by its path, inode,
    size, mtime and ctime, as the import system itself trusts a cached
    module by its source's mtime and size: any write to a file changes
    its ctime, so any edit misses, and so does a new checkout or copy of
    the package (coarse but sound). Reading the files would cost about
    5 ms a process, more than a small sweep saves; the stat pass costs
    about 1 ms. ``__pycache__`` directories are left out. Computed on the
    first resolution-disk lookup, once per process, never at import.

    None, and the ``resolutions`` namespace skipped, when the package
    cannot be listed (a zipped install) or a file changed after the
    package was imported: a module loaded before the edit runs the old
    code, which the digest must describe.
    """
    global _unloaded
    cutoff = _IMPORTED_NS - _TIMESTAMP_SLACK_NS
    try:
        files = _package_files()
    except OSError:
        return None
    if not files or any(_changed_ns(stat) > cutoff for _, stat in files):
        return None
    _unloaded = tuple(
        os.path.join(_PACKAGE_DIR, name)
        for name, _ in files if not _loaded(name)
    )
    digest = hashlib.sha256()
    for name, stat in files:
        digest.update(
            f"{name}\0{stat.st_dev}\0{stat.st_ino}\0{stat.st_size}\0"
            f"{stat.st_mtime_ns}\0{stat.st_ctime_ns}\n".encode("utf-8")
        )
    return digest.hexdigest()


def _source_current() -> bool:
    """Whether this process still runs the code :func:`source_digest`
    described: no file that no module had been loaded from then has
    changed since the import (a module imported later would run it)."""
    cutoff = _IMPORTED_NS - _TIMESTAMP_SLACK_NS
    try:
        return all(_changed_ns(os.stat(path)) <= cutoff for path in _unloaded)
    except OSError:
        return False


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

    A disk-warm resolution holds no circuit yet. ``pending`` is then
    ``(disk key, memo key)`` until its first result miss checks the stored
    resolution against a fresh one and hands this holder the fresh
    circuit (:meth:`Measurer.measure`). A caller that sweeps the factory
    itself before that (``measure_yield(resolved.factory, ...)``) gets
    the circuit elaborated on its first call.
    """

    __slots__ = ("factory", "circuit", "pending")

    def __init__(self, factory: Callable, circuit=None, pending=None):
        self.factory = factory
        self.circuit = circuit
        self.pending = pending

    def __call__(self):
        if self.circuit is None:
            self.circuit = self.factory()
        return self.circuit

    def __reduce__(self):
        return _factory, (self.factory,)


@dataclass(frozen=True)
class Resolved:
    """A design reduced to what measurement needs, keyed by its digest."""

    digest: str
    #: :attr:`~repro.core.ir.CompiledCircuit.order_fingerprint`.
    fingerprint: str
    factory: ResolvedFactory
    predicate: PulseCountPredicate
    #: Static cost model totals of the caller's circuit (no simulation).
    cost: CircuitCost
    #: Last pulse of the noiseless baseline run (ps): the design's makespan.
    latency_ps: float


class Measurement(NamedTuple):
    """One cached yield measurement (:meth:`Measurer.measure`)."""

    document: dict
    served_from_cache: bool
    #: The resolution the document belongs to: the one passed in, or its
    #: fresh replacement when a stored resolution proved stale.
    resolved: Resolved


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


def _resolution_to_jsonable(resolved: Resolved) -> dict:
    """The stored form of a resolution (the ``resolutions`` namespace)."""
    return {
        "digest": resolved.digest,
        "fingerprint": resolved.fingerprint,
        "cost": asdict(resolved.cost),
        "latency_ps": resolved.latency_ps,
        "expected": resolved.predicate.expected,
    }


_STORED_FIELDS = frozenset(
    ("digest", "fingerprint", "cost", "latency_ps", "expected")
)
_COST_FIELDS = frozenset(field.name for field in fields(CircuitCost))
_HEX = frozenset("0123456789abcdef")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"stored resolution: bad {what}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _counts(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(label, str) and _is_int(count) and count >= 0
        for label, count in value.items()
    )


def _resolution_from_jsonable(
    document, factory: Callable, pending: tuple
) -> Resolved:
    """Disk decode of a stored resolution: a disk-warm :class:`Resolved`.

    Every field is type-checked; anything else (a damaged or foreign
    document) raises, and :meth:`Measurer.resolve` quarantines it.
    """
    _require(isinstance(document, dict)
             and set(document) == _STORED_FIELDS, "shape")
    for name in ("digest", "fingerprint"):
        value = document[name]
        _require(isinstance(value, str) and len(value) == 64
                 and set(value) <= _HEX, name)
    cost = document["cost"]
    _require(isinstance(cost, dict) and set(cost) == _COST_FIELDS
             and _is_int(cost["cells"]) and _is_int(cost["jjs"])
             and all(_is_number(cost[name]) for name in
                     ("bias_current_a", "static_power_w", "area_um2"))
             and _counts(cost["by_cell_type"]), "cost")
    _require(_is_number(document["latency_ps"]), "latency_ps")
    _require(_counts(document["expected"]), "expected counts")
    return Resolved(
        digest=document["digest"],
        fingerprint=document["fingerprint"],
        factory=ResolvedFactory(factory, pending=pending),
        predicate=PulseCountPredicate.from_counts(document["expected"]),
        cost=CircuitCost(**cost),
        latency_ps=float(document["latency_ps"]),
    )


class _Stale(Exception):
    """A stored resolution disagreed with a fresh one (internal)."""

    def __init__(self, fresh: Resolved):
        super().__init__()
        self.fresh = fresh


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
        #: Stored resolutions by name, or None without a cache directory.
        self.resolutions = (
            None if cache_dir is None
            else DiskCache(cache_dir, RESOLUTIONS_NAMESPACE)
        )
        #: memo key -> ((digest, fingerprint), the name's own cost);
        #: add-only (a named design never changes).
        self._memo: Dict[Hashable, Tuple[Tuple[str, str], CircuitCost]] = {}
        #: memo key -> a disk-warm resolution no result miss has checked.
        self._warm: Dict[Hashable, Resolved] = {}
        #: Monte-Carlo measurements actually computed (result misses).
        self.computations = 0
        #: Factory calls made to resolve a design (memo and disk misses,
        #: and the check of a disk-warm resolution at its first miss).
        self.elaborations = 0

    def _memoized(self, memo_key) -> Optional[Resolved]:
        warm = self._warm.get(memo_key)
        if warm is not None:
            return warm
        named = self._memo.get(memo_key)
        if named is None:
            return None
        resolved = self.compiled.get(named[0])
        return None if resolved is MISSING else _costed(resolved, named[1])

    def _disk_key(self, factory: Callable, memo_key) -> Optional[tuple]:
        """Where this name's resolution persists, or None if it may not."""
        if (
            self.resolutions is None
            or memo_key is None
            or not getattr(factory, "source_defined", False)
        ):
            return None
        source = source_digest()
        return None if source is None else (_HASH_VERSION, source, memo_key)

    def resolve(self, factory: Callable, memo_key=None) -> Resolved:
        """Elaborate, hash, and baseline a design, memoized by digest.

        The entry keeps the elaborated circuit for its result misses. Its
        ``cost`` is always that of the caller's own circuit, also when the
        digest was first resolved under another name. A name stored in
        the ``resolutions`` namespace resolves without elaborating (see
        the module docstring).

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
            disk_key = self._disk_key(factory, memo_key)
            if disk_key is not None:
                stored = self.resolutions.get(disk_key)
                if stored is not MISSING:
                    try:
                        resolved = _resolution_from_jsonable(
                            stored, factory, (disk_key, memo_key)
                        )
                    except Exception:
                        # Damaged or foreign: quarantined like a result
                        # document the tiered cache fails to decode.
                        self.resolutions.invalidate(disk_key)
                    else:
                        self._warm[memo_key] = resolved
                        return resolved
            resolved = self._elaborate(factory, memo_key)
            if disk_key is not None and _source_current():
                self.resolutions.put(
                    disk_key, _resolution_to_jsonable(resolved)
                )
            return resolved

    def _elaborate(self, factory: Callable, memo_key) -> Resolved:
        """Resolve a design from its factory (the compute lock is held)."""
        try:
            circuit = factory()
        except PylseError as err:
            raise PylseError(f"invalid circuit: {err}") from None
        self.elaborations += 1
        try:
            compiled = compile_circuit(circuit)
            key = (compiled.structural_hash, compiled.order_fingerprint)
        except PylseError as err:
            raise PylseError(
                f"circuit failed validation: {err}"
            ) from None
        cost = circuit_cost(circuit)
        if memo_key is not None:
            self._memo[memo_key] = (key, cost)
        resolved = self.compiled.get(key)
        if resolved is not MISSING:
            return _costed(resolved, cost)
        try:
            baseline = Simulation(circuit).simulate()
        except PylseError as err:
            raise PylseError(
                f"baseline (sigma=0) simulation failed: {err}"
            ) from None
        resolved = Resolved(
            digest=key[0],
            fingerprint=key[1],
            factory=ResolvedFactory(factory, circuit),
            predicate=PulseCountPredicate(baseline),
            cost=cost,
            latency_ps=max(
                (times[-1] for times in baseline.values() if times),
                default=0.0,
            ),
        )
        self.compiled.put(key, resolved)
        return resolved

    def _check(self, resolved: Resolved) -> None:
        """Check a disk-warm resolution against a fresh one at its first
        result miss (the compute lock is held).

        On agreement the entry takes the fresh circuit and counts as
        checked. Otherwise :class:`_Stale` carries the fresh resolution to
        :meth:`measure`, and the stored document is quarantined and the
        fresh one stored in its place, unless this process no longer runs
        the code the source digest describes (then the fresh one may be
        what is wrong).
        """
        holder = resolved.factory
        disk_key, memo_key = holder.pending
        if self._warm.get(memo_key) is resolved:
            del self._warm[memo_key]
        fresh = self._elaborate(holder.factory, memo_key)
        stored = _resolution_to_jsonable(fresh)
        if stored != _resolution_to_jsonable(resolved):
            if _source_current():
                self.resolutions.invalidate(disk_key)
                self.resolutions.put(disk_key, stored)
            raise _Stale(fresh)
        holder.circuit = fresh.factory.circuit
        holder.pending = None

    def measure(
        self,
        resolved: Resolved,
        sigma: float,
        n_seeds: int,
        seed0: int = 0,
        batch: Union[int, str, None] = None,
    ) -> Measurement:
        """One cached yield measurement (document, hit, resolution).

        ``batch`` only picks the drain, so it is validated but not keyed:
        batched and per-seed runs give identical documents.
        """
        resolve_batch(batch, n_seeds)
        key = result_cache_key(
            resolved.digest, resolved.fingerprint,
            sigma=sigma, n_seeds=n_seeds, seed0=seed0,
        )

        def compute() -> dict:
            if resolved.factory.pending is not None:
                self._check(resolved)
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

        try:
            document, cached = self.results.get_or_compute(key, compute)
        except _Stale as stale:
            return self.measure(stale.fresh, sigma, n_seeds, seed0, batch)
        return Measurement(document, cached, resolved)

    def stats(self) -> Dict[str, object]:
        """Counters plus the ``cache`` block: ``result`` and ``compiled``
        LRUs, and ``result_disk`` and ``resolution_disk`` when a cache
        directory is attached. The disk blocks hold the counters alone:
        they are read per ``/stats`` request and twice per explore pass,
        and an entry count would walk the namespace (``repro cache
        stats`` lists them)."""
        tiers = self.results.stats()
        cache: Dict[str, object] = {
            "result": tiers["memory"],
            "compiled": self.compiled.stats(),
        }
        if tiers["disk"] is not None:
            cache["result_disk"] = tiers["disk"]
        if self.resolutions is not None:
            cache["resolution_disk"] = self.resolutions.counters()
        return {
            "computations": self.computations,
            "elaborations": self.elaborations,
            "coalesced": tiers["coalesced"],
            "cache": cache,
        }
