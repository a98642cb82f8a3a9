"""``repro.cache``: the caching subsystem every expensive backend shares.

The compiled IR gives every heavy artifact a stable identity — the
structural hash and the key tuples built from it
(:func:`repro.core.ir.result_cache_key`,
:func:`repro.core.ir.lint_cache_key`) — and this package turns that
identity into one layered cache implementation instead of three ad-hoc
ones:

* :mod:`repro.cache.lru` — the thread-safe in-memory LRU with observable
  counters;
* :mod:`repro.cache.disk` — a content-addressed, versioned on-disk store
  with atomic multi-process-safe writes, quarantine of corrupt entries,
  and a size-bounded access-time ``gc()``;
* :mod:`repro.cache.tiered` — :class:`TieredCache`, composing the memory
  front with an optional disk back and owning the double-checked-lock
  request-coalescing logic the yield service pioneered.

Consumers: :mod:`repro.serve` (``--cache-dir`` persists served results
across restarts), :mod:`repro.explore` (a re-run sweep in a fresh process
recomputes nothing), and :mod:`repro.lint` (warm PL4xx re-lint across
processes). ``python -m repro cache stats|gc|clear`` manages a store
written by any of them. See docs/caching.md for the key contracts and the
persistence model.
"""

from .disk import (
    LINT_NAMESPACE,
    RESOLUTIONS_NAMESPACE,
    RESULTS_NAMESPACE,
    STORE_FORMAT,
    DiskCache,
    canonical_key,
    clear_store,
    gc_store,
    key_digest,
    store_stats,
)
from .lru import LRUCache, MISSING, hit_rate
from .tiered import TieredCache

__all__ = [
    "DiskCache",
    "LINT_NAMESPACE",
    "LRUCache",
    "MISSING",
    "RESOLUTIONS_NAMESPACE",
    "RESULTS_NAMESPACE",
    "STORE_FORMAT",
    "TieredCache",
    "canonical_key",
    "clear_store",
    "gc_store",
    "hit_rate",
    "key_digest",
    "store_stats",
]
