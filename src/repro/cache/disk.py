"""A content-addressed, versioned on-disk cache store.

One :class:`DiskCache` is the persistent back tier of a
:class:`~repro.cache.tiered.TieredCache`: entries survive process
restarts and are shared by every process pointed at the same directory
(multiple servers behind a balancer, CI re-runs, a sweep warming the
cache a later serve reads).

**Addressing.** An entry is keyed by the same tuples the in-memory caches
use (:func:`repro.core.ir.result_cache_key`,
:func:`repro.core.ir.lint_cache_key`). The key is rendered to canonical
JSON and SHA-256 hashed into the file name
(``<root>/<namespace>/<hh>/<digest>.json``); the full key is stored
inside the entry and verified on every read, so a digest collision or a
foreign file can never be served as a hit. The key tuples already embed
the IR hash-recipe version, so a format bump self-invalidates every
stale entry — it simply stops being addressed.

**Writes** are atomic under concurrent multi-process writers: the
document is written to a temporary file in the entry's directory and
``os.replace``\\ d into place. Two processes racing on one key both
install a complete, valid document (and, by the determinism contract
that makes the keys sound, the *same* document — last writer wins
harmlessly). A write that fails (read-only disk, ENOSPC) is counted and
swallowed: a cache must never break the computation it memoizes.

**Reads** treat anything unexpected — truncated JSON, a garbage file, a
wrong format tag, a key mismatch — as a miss and *quarantine* the file
under ``<root>/quarantine/`` so it is never parsed again and remains
available for debugging. A hit bumps the entry's mtime, which is the
access clock :func:`gc_store` evicts by.

**gc** bounds a whole store: :func:`gc_store` removes entries
least-recently-accessed first, across every namespace, until the store
fits ``max_bytes``, and sweeps stale temp files from crashed writers.
``python -m repro cache stats|gc|clear`` runs :func:`store_stats`,
:func:`gc_store` and :func:`clear_store`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import PylseError
from .lru import MISSING

#: Format tag of every stored document; a mismatch quarantines the file.
STORE_FORMAT = "repro-cache-v1"

#: Namespace for Monte-Carlo yield measurements (shared by serve and
#: explore: both key by ``result_cache_key`` and store the canonical
#: ``yield_result_to_jsonable`` document, so a sweep warms the service).
RESULTS_NAMESPACE = "results"

#: Namespace for finished PL4xx reachability analyses.
LINT_NAMESPACE = "lint"

#: Namespace for design resolutions (digest, order fingerprint, cost,
#: latency, baseline pulse counts) keyed by the package source digest and
#: a design's name, so a fresh process skips elaborating stored points.
RESOLUTIONS_NAMESPACE = "resolutions"

#: Directory (under the store root) corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Temp files older than this are presumed orphaned by a crashed writer
#: and swept by ``gc`` (a live writer holds its temp file for
#: milliseconds).
STALE_TMP_SECONDS = 3600.0

_TMP_PREFIX = ".tmp-"


def canonical_key(key: object) -> object:
    """The key as the JSON-able value stored (and verified) on disk.

    Tuples become lists (JSON has no tuples); everything else must
    already be JSON-representable — the cache-key tuples are built from
    strings, numbers, and ``None`` only.
    """
    if isinstance(key, (tuple, list)):
        return [canonical_key(item) for item in key]
    return key


def _canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def key_digest(key: object) -> str:
    """SHA-256 of the canonical JSON rendering of ``key``."""
    try:
        text = _canonical_json(canonical_key(key))
    except (TypeError, ValueError) as err:
        raise PylseError(
            f"cache key is not JSON-representable: {err}"
        ) from None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskCache:
    """See the module docstring; one instance serves one namespace."""

    def __init__(self, root, namespace: str = RESULTS_NAMESPACE):
        if not namespace or not namespace.replace("_", "").isalnum():
            raise PylseError(
                f"cache namespace must be a non-empty alphanumeric "
                f"identifier, got {namespace!r}"
            )
        self.root = pathlib.Path(root)
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_errors = 0
        self.quarantined = 0
        try:
            (self.root / namespace).mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise PylseError(
                f"cannot create cache directory {self.root / namespace}: "
                f"{err}"
            ) from None

    # -- paths ---------------------------------------------------------
    def _dir(self) -> pathlib.Path:
        return self.root / self.namespace

    def path_for(self, key: object) -> pathlib.Path:
        """The entry file this key addresses (whether or not it exists)."""
        digest = key_digest(key)
        return self._dir() / digest[:2] / f"{digest}.json"

    # -- reads ---------------------------------------------------------
    def get(self, key: object) -> object:
        """The stored value, or :data:`MISSING`; bumps the access clock."""
        value = self._load(key)
        if value is MISSING:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, key: object) -> object:
        """Like :meth:`get` without touching the hit/miss counters.

        (Corrupt entries are still quarantined and the access clock still
        bumps — those reflect what actually happened on disk.)
        """
        return self._load(key)

    def _load(self, key: object) -> object:
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return MISSING
        try:
            doc = json.loads(raw)
            if not isinstance(doc, dict):
                raise ValueError("document is not an object")
            if doc.get("format") != STORE_FORMAT:
                raise ValueError(f"format {doc.get('format')!r}")
            if doc.get("key") != canonical_key(key):
                raise ValueError("stored key does not match its address")
            value = doc["value"]
        except (ValueError, KeyError, TypeError):
            # Truncated, garbage, foreign, or colliding: a miss, never a
            # crash, never partial data — and never parsed again.
            self._quarantine(path)
            return MISSING
        try:
            os.utime(path)  # access clock for gc's LRU eviction
        except OSError:
            pass
        return value

    # -- writes --------------------------------------------------------
    def put(self, key: object, value: object) -> None:
        """Atomically install ``value`` (a JSON-able object) for ``key``."""
        doc = {
            "format": STORE_FORMAT,
            "namespace": self.namespace,
            "key": canonical_key(key),
            "value": value,
        }
        try:
            data = _canonical_json(doc).encode("utf-8")
        except (TypeError, ValueError) as err:
            raise PylseError(
                f"cache value for namespace {self.namespace!r} is not "
                f"JSON-representable: {err}"
            ) from None
        path = self.path_for(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=_TMP_PREFIX, suffix=".json", dir=path.parent
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)  # atomic: readers see old, new, or none
            tmp = None
            self.writes += 1
        except OSError:
            self.write_errors += 1
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def invalidate(self, key: object) -> None:
        """Quarantine ``key``'s entry (e.g. its payload failed to decode)."""
        path = self.path_for(key)
        if path.exists():
            self._quarantine(path)

    def _quarantine(self, path: pathlib.Path) -> None:
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / f"{self.namespace}-{path.name}.{os.getpid()}"
            os.replace(path, target)
            self.quarantined += 1
        except OSError:
            # Racing quarantiners or a read-only store: removing the bad
            # entry is enough; failing that, it stays a repeated miss.
            try:
                os.unlink(path)
                self.quarantined += 1
            except OSError:
                pass

    # -- maintenance ---------------------------------------------------
    def entries(self) -> Iterator[Tuple[pathlib.Path, os.stat_result]]:
        """Every valid-looking entry file with its stat, unordered."""
        yield from _iter_entries(self._dir())

    def clear(self) -> int:
        """Remove every entry (counters kept); returns the removed count."""
        removed = 0
        for path, _stat in list(self.entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def counters(self) -> Dict[str, int]:
        """The lifetime counters alone (no directory walk)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "quarantined": self.quarantined,
        }

    def stats(self) -> Dict[str, object]:
        """Entry count/bytes plus the lifetime counters (walks the dir)."""
        entry_count = 0
        total = 0
        for _path, stat in self.entries():
            entry_count += 1
            total += stat.st_size
        return {
            "namespace": self.namespace,
            "entries": entry_count,
            "bytes": total,
            **self.counters(),
        }

    def __repr__(self) -> str:
        return (
            f"DiskCache({str(self._dir())!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


# ----------------------------------------------------------------------
# Store-level helpers (the `python -m repro cache` CLI's engine)
# ----------------------------------------------------------------------
def _iter_entries(scope: pathlib.Path):
    if not scope.is_dir():
        return
    for path in scope.rglob("*.json"):
        if path.name.startswith(_TMP_PREFIX):
            continue
        try:
            yield path, path.stat()
        except OSError:
            continue


def _sweep_stale_tmp(scope: pathlib.Path, now: float) -> int:
    swept = 0
    if not scope.is_dir():
        return swept
    for path in scope.rglob(f"{_TMP_PREFIX}*"):
        try:
            if now - path.stat().st_mtime > STALE_TMP_SECONDS:
                os.unlink(path)
                swept += 1
        except OSError:
            continue
    return swept


def _namespaces(root: pathlib.Path) -> List[str]:
    if not root.is_dir():
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.is_dir() and entry.name != QUARANTINE_DIR
    )


def store_stats(root) -> Dict[str, object]:
    """Per-namespace entry counts/bytes/ages for a whole store directory."""
    root = pathlib.Path(root)
    namespaces: Dict[str, object] = {}
    total_entries = 0
    total_bytes = 0
    for name in _namespaces(root):
        entries = 0
        size = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for _path, stat in _iter_entries(root / name):
            entries += 1
            size += stat.st_size
            mtime = stat.st_mtime
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        namespaces[name] = {
            "entries": entries,
            "bytes": size,
            "oldest_access": oldest,
            "newest_access": newest,
        }
        total_entries += entries
        total_bytes += size
    # Quarantined files carry a ``.<pid>`` suffix, so count raw files
    # rather than reusing the ``*.json`` entry walk.
    qdir = root / QUARANTINE_DIR
    quarantine = (
        sum(1 for path in qdir.rglob("*") if path.is_file())
        if qdir.is_dir()
        else 0
    )
    return {
        "format": STORE_FORMAT,
        "root": str(root),
        "namespaces": namespaces,
        "entries": total_entries,
        "bytes": total_bytes,
        "quarantined": quarantine,
    }


def gc_store(root, max_bytes: Optional[int]) -> Dict[str, object]:
    """Bound a whole store: global least-recently-accessed eviction.

    The bound applies across namespaces (one budget for the store, the
    way an operator thinks about a disk), so a hot namespace can displace
    a cold one.
    """
    root = pathlib.Path(root)
    now = time.time()
    swept_tmp = 0
    records: List[Tuple[float, int, pathlib.Path]] = []
    for name in _namespaces(root):
        scope = root / name
        swept_tmp += _sweep_stale_tmp(scope, now)
        records.extend(
            (stat.st_mtime, stat.st_size, path)
            for path, stat in _iter_entries(scope)
        )
    total = sum(size for _mtime, size, _path in records)
    removed = 0
    removed_bytes = 0
    if max_bytes is not None and total > max_bytes:
        for _mtime, size, path in sorted(records):
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            total -= size
            if total <= max_bytes:
                break
    return {
        "kept_entries": len(records) - removed,
        "kept_bytes": total,
        "removed_entries": removed,
        "removed_bytes": removed_bytes,
        "swept_tmp": swept_tmp,
    }


def clear_store(root, namespace: Optional[str] = None) -> int:
    """Remove every entry (of one namespace, or all); returns the count.

    Quarantined files are cleared too when clearing the whole store —
    ``clear`` means "give me my disk back", debugging artifacts included.
    """
    root = pathlib.Path(root)
    removed = 0
    scopes = (
        [root / namespace]
        if namespace is not None
        else [root / name for name in _namespaces(root)]
        + [root / QUARANTINE_DIR]
    )
    for scope in scopes:
        if not scope.is_dir():
            continue
        for path in list(scope.rglob("*")):
            if path.is_file():
                try:
                    os.unlink(path)
                    removed += 1
                except OSError:
                    pass
    return removed
