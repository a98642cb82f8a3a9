"""Memory-LRU front + optional disk back, with request coalescing.

:class:`TieredCache` is the one implementation of the pattern the yield
service, the design-space explorer, and the reachability lint each used
to hand-roll:

1. probe the in-memory :class:`~repro.cache.lru.LRUCache` (nanoseconds);
2. on miss, probe the optional :class:`~repro.cache.disk.DiskCache` —
   a hit is decoded, *promoted* into memory, and served;
3. on a full miss, take the compute lock, **re-check** (another thread
   may have computed while we queued — the double-checked-lock
   coalescing extracted from ``repro.serve.service``), compute once, and
   write through to both tiers.

Values can be arbitrary Python objects in memory; the disk tier stores
canonical JSON, so a cache with a disk back takes an ``encode``/
``decode`` codec pair (defaulting to identity for values that already
are JSON-able). A disk payload that fails to decode is quarantined and
treated as a miss — the same never-crash contract the disk tier itself
keeps for corrupt files.

Counter semantics mirror the service's originals: a request probes each
tier at most once (the locked re-check uses non-counting ``peek``), so
cache-level counters stay one-probe-per-request and waiting on another
request's computation shows up only in ``coalesced``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from .disk import DiskCache
from .lru import LRUCache, MISSING


class TieredCache:
    """See the module docstring; one instance fronts one computation."""

    def __init__(
        self,
        memory: LRUCache,
        disk: Optional[DiskCache] = None,
        encode: Optional[Callable[[object], object]] = None,
        decode: Optional[Callable[[object], object]] = None,
        lock=None,
    ):
        self.memory = memory
        self.disk = disk
        self._encode = encode
        self._decode = decode
        #: The compute lane. Callers whose computation needs a wider
        #: critical section (the service serializes elaboration under the
        #: same lock) pass their own — re-entrant locks work.
        self._lock = lock if lock is not None else threading.Lock()
        #: Requests that missed, queued on the lock, and were then served
        #: a result computed (or disk-written) while they waited.
        self.coalesced = 0

    # -- tier plumbing -------------------------------------------------
    def _from_disk(self, key, *, count: bool) -> object:
        if self.disk is None:
            return MISSING
        raw = self.disk.get(key) if count else self.disk.peek(key)
        if raw is MISSING:
            return MISSING
        if self._decode is None:
            return raw
        try:
            return self._decode(raw)
        except Exception:
            # A validly-stored document our codec rejects (e.g. written
            # by a newer payload shape): quarantine like any corruption.
            self.disk.invalidate(key)
            return MISSING

    # -- mapping interface ---------------------------------------------
    def get(self, key) -> object:
        """Probe memory then disk; promotes a disk hit into memory."""
        value = self.memory.get(key)
        if value is not MISSING:
            return value
        value = self._from_disk(key, count=True)
        if value is not MISSING:
            self.memory.put(key, value)
        return value

    def put(self, key, value) -> None:
        """Write through: memory always, disk when attached."""
        self.memory.put(key, value)
        if self.disk is not None:
            encoded = value if self._encode is None else self._encode(value)
            self.disk.put(key, encoded)

    def get_or_compute(
        self, key, compute: Callable[[], object]
    ) -> Tuple[object, bool]:
        """Serve ``key`` from either tier, computing (once) on a miss.

        Returns ``(value, served_from_cache)``. Concurrent misses on the
        same key coalesce: followers queue on the compute lock, find the
        leader's result on the re-check, and never run ``compute`` —
        exactly one computation per distinct key (absent eviction churn).
        """
        value = self.get(key)
        if value is not MISSING:
            return value, True
        with self._lock:
            # peek, not get: this request already took its one miss
            # above; a coalesced wait must not distort the per-tier
            # counters (see the module docstring).
            value = self.memory.peek(key)
            if value is MISSING:
                value = self._from_disk(key, count=False)
                if value is not MISSING:
                    self.memory.put(key, value)
            if value is not MISSING:
                self.coalesced += 1
                return value, True
            value = compute()
            self.put(key, value)
            return value, False

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; optionally the disk tier too."""
        self.memory.clear()
        if disk and self.disk is not None:
            self.disk.clear()

    def stats(self) -> Dict[str, object]:
        """Per-tier counters plus the coalescing total. The disk tier
        reports its counters alone: an entry count would walk the whole
        namespace on every call (``repro cache stats`` lists them)."""
        return {
            "memory": self.memory.stats(),
            "disk": None if self.disk is None else self.disk.counters(),
            "coalesced": self.coalesced,
        }
