"""Disk-tier failure modes and store maintenance (:mod:`repro.cache.disk`).

The persistent tier's contract is "never worse than no cache": corrupt,
truncated, or foreign files are misses that get quarantined (and never
crash a consumer), concurrent same-key writers race harmlessly through
the atomic temp-file + rename protocol, and ``gc_store`` bounds the store
by evicting least-recently-accessed entries first. The store-level helpers
(`store_stats`/`gc_store`/`clear_store`) power ``python -m repro cache``.
"""

import json
import multiprocessing
import os

import pytest

from repro.cache import (
    DiskCache,
    MISSING,
    STORE_FORMAT,
    TieredCache,
    LRUCache,
    canonical_key,
    clear_store,
    gc_store,
    key_digest,
    store_stats,
)
from repro.cache.cli import parse_size
from repro.core.errors import PylseError

KEY = ("repro-ir-v1", "a" * 64, 0.5, 25, 0, "auto")
VALUE = {"yield": 0.8, "runs": 25, "failures": {"3": "timing"}}


# -- round trip and addressing -----------------------------------------
def test_put_get_round_trip(tmp_path):
    cache = DiskCache(tmp_path)
    assert cache.get(KEY) is MISSING
    cache.put(KEY, VALUE)
    assert cache.get(KEY) == VALUE
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["writes"] == 1


def test_entries_survive_a_fresh_instance(tmp_path):
    DiskCache(tmp_path).put(KEY, VALUE)
    assert DiskCache(tmp_path).get(KEY) == VALUE


def test_canonical_key_tuples_and_lists_address_the_same_entry(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put(KEY, VALUE)
    assert cache.get(list(KEY)) == VALUE
    assert canonical_key(KEY) == canonical_key(list(KEY))
    assert key_digest(KEY) == key_digest(list(KEY))


def test_unjsonable_key_raises(tmp_path):
    cache = DiskCache(tmp_path)
    with pytest.raises(PylseError, match="JSON-representable"):
        cache.put((object(),), VALUE)


def test_unjsonable_value_raises(tmp_path):
    cache = DiskCache(tmp_path)
    with pytest.raises(PylseError, match="JSON-representable"):
        cache.put(KEY, {"bad": object()})


def test_invalid_namespace_rejected(tmp_path):
    with pytest.raises(PylseError, match="namespace"):
        DiskCache(tmp_path, namespace="../escape")
    with pytest.raises(PylseError, match="namespace"):
        DiskCache(tmp_path, namespace="")


# -- corruption: always a miss, always quarantined, never a crash ------
@pytest.mark.parametrize(
    "payload",
    [
        "",                                 # empty file
        "{\"format\": \"repro-cache",       # truncated JSON
        "not json at all \x00\x01",         # garbage
        "[1, 2, 3]",                        # valid JSON, wrong shape
        json.dumps({"format": "other-v9", "key": list(KEY), "value": 1}),
    ],
    ids=["empty", "truncated", "garbage", "wrong-shape", "wrong-format"],
)
def test_corrupt_entry_is_quarantined_miss(tmp_path, payload):
    cache = DiskCache(tmp_path)
    cache.put(KEY, VALUE)
    cache.path_for(KEY).write_text(payload)
    assert cache.get(KEY) is MISSING
    assert cache.stats()["quarantined"] == 1
    # The bad file moved out of the namespace: a re-read is a plain miss,
    # not a second parse of the same corruption.
    assert not cache.path_for(KEY).exists()
    assert cache.get(KEY) is MISSING
    assert cache.stats()["quarantined"] == 1
    assert store_stats(tmp_path)["quarantined"] == 1


def test_key_mismatch_is_quarantined(tmp_path):
    """A file stored under the wrong address can never be served."""
    cache = DiskCache(tmp_path)
    other_key = ("repro-ir-v1", "b" * 64, 1.0, 10, 0, "auto")
    cache.put(other_key, VALUE)
    path = cache.path_for(KEY)
    path.parent.mkdir(parents=True, exist_ok=True)
    os.replace(cache.path_for(other_key), path)
    assert cache.get(KEY) is MISSING
    assert cache.stats()["quarantined"] == 1


def test_quarantine_after_reinstall_serves_again(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put(KEY, VALUE)
    cache.path_for(KEY).write_text("{")
    assert cache.get(KEY) is MISSING
    cache.put(KEY, VALUE)  # recompute-and-rewrite path
    assert cache.get(KEY) == VALUE


# -- concurrent writers ------------------------------------------------
def _writer(root, start, results):
    cache = DiskCache(root)
    start.wait()
    for i in range(20):
        cache.put(KEY, VALUE)
    results.put(cache.stats()["write_errors"])


def test_concurrent_same_key_writers_never_corrupt(tmp_path):
    """N processes hammering one key leave exactly one valid document."""
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Event()
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_writer, args=(str(tmp_path), start, results))
        for _ in range(4)
    ]
    for p in procs:
        p.start()
    start.set()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert sum(results.get() for _ in procs) == 0  # no write errors
    reader = DiskCache(tmp_path)
    assert reader.get(KEY) == VALUE
    assert reader.stats() == dict(reader.stats(), entries=1, quarantined=0)
    # No temp-file litter from the racing installs.
    leftovers = [
        p for p in tmp_path.rglob(".tmp-*") if p.is_file()
    ]
    assert leftovers == []


# -- gc: size bound, MRU survival --------------------------------------
def test_gc_respects_bound_and_keeps_mru(tmp_path):
    cache = DiskCache(tmp_path)
    keys = [("k", i) for i in range(10)]
    for i, key in enumerate(keys):
        cache.put(key, {"i": i, "pad": "x" * 50})
        # Strictly increasing access clock, robust to coarse mtime ticks.
        os.utime(cache.path_for(key), (i, i))
    entry_size = cache.path_for(keys[0]).stat().st_size
    # Touch the two *oldest* entries so recency, not insertion order,
    # decides survival.
    now = len(keys) + 10
    os.utime(cache.path_for(keys[0]), (now, now))
    os.utime(cache.path_for(keys[1]), (now + 1, now + 1))
    bound = entry_size * 4
    summary = gc_store(tmp_path, bound)
    assert summary["kept_bytes"] <= bound
    assert summary["removed_entries"] == 6
    assert cache.get(keys[0]) is not MISSING
    assert cache.get(keys[1]) is not MISSING
    assert cache.get(keys[2]) is MISSING  # oldest un-touched: evicted


def test_gc_noop_under_bound(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put(KEY, VALUE)
    summary = gc_store(tmp_path, 10**9)
    assert summary["removed_entries"] == 0
    assert cache.get(KEY) == VALUE


# -- store-level helpers (the `python -m repro cache` engine) ----------
def test_store_stats_and_clear_cover_namespaces(tmp_path):
    DiskCache(tmp_path, "results").put(KEY, VALUE)
    DiskCache(tmp_path, "lint").put(("lint-key",), {"states": 5})
    stats = store_stats(tmp_path)
    assert set(stats["namespaces"]) == {"results", "lint"}
    assert stats["entries"] == 2
    assert clear_store(tmp_path, namespace="lint") == 1
    assert store_stats(tmp_path)["entries"] == 1
    assert clear_store(tmp_path) == 1
    assert store_stats(tmp_path)["entries"] == 0


def test_gc_store_bounds_across_namespaces(tmp_path):
    results = DiskCache(tmp_path, "results")
    lint = DiskCache(tmp_path, "lint")
    for i in range(5):
        results.put(("r", i), {"i": i})
        lint.put(("l", i), {"i": i})
    total = store_stats(tmp_path)["bytes"]
    summary = gc_store(tmp_path, total // 2)
    assert summary["kept_bytes"] <= total // 2
    assert summary["removed_entries"] > 0
    assert store_stats(tmp_path)["bytes"] <= total // 2


def test_parse_size():
    assert parse_size("1048576") == 1024 ** 2
    assert parse_size("512K") == 512 * 1024
    assert parse_size("64M") == 64 * 1024 ** 2
    assert parse_size("1G") == 1024 ** 3
    assert parse_size("2kb") == 2048
    with pytest.raises(PylseError):
        parse_size("lots")
    with pytest.raises(PylseError):
        parse_size("-5M")


# -- tiered composition ------------------------------------------------
def test_tiered_promotes_disk_hit_into_memory(tmp_path):
    disk = DiskCache(tmp_path)
    disk.put(KEY, VALUE)
    tiered = TieredCache(LRUCache(4), DiskCache(tmp_path))
    assert tiered.get(KEY) == VALUE
    assert tiered.memory.peek(KEY) == VALUE  # promoted
    stats = tiered.stats()
    assert stats["memory"]["misses"] == 1
    assert stats["disk"]["hits"] == 1


def test_tiered_write_through_and_memory_only(tmp_path):
    tiered = TieredCache(LRUCache(4), DiskCache(tmp_path))
    tiered.put(KEY, VALUE)
    assert DiskCache(tmp_path).get(KEY) == VALUE
    memory_only = TieredCache(LRUCache(4))
    memory_only.put(KEY, VALUE)
    assert memory_only.get(KEY) == VALUE
    assert memory_only.stats()["disk"] is None


def test_tiered_get_or_compute_counts_one_computation(tmp_path):
    tiered = TieredCache(LRUCache(4), DiskCache(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        return VALUE

    value, cached = tiered.get_or_compute(KEY, compute)
    assert (value, cached) == (VALUE, False)
    value, cached = tiered.get_or_compute(KEY, compute)
    assert (value, cached) == (VALUE, True)
    assert len(calls) == 1


def test_tiered_decode_failure_quarantines_and_recomputes(tmp_path):
    def encode(value):
        return {"wrapped": value}

    def decode(doc):
        raise PylseError("pretend this document's shape is unknown")

    tiered = TieredCache(
        LRUCache(4), DiskCache(tmp_path), encode=encode, decode=decode
    )
    tiered.put(KEY, VALUE)
    tiered.memory.clear()  # force the disk path
    value, cached = tiered.get_or_compute(KEY, lambda: "recomputed")
    assert (value, cached) == ("recomputed", False)
    assert store_stats(tmp_path)["quarantined"] == 1


def test_stored_document_shape_is_versioned(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put(KEY, VALUE)
    doc = json.loads(cache.path_for(KEY).read_text())
    assert doc["format"] == STORE_FORMAT
    assert doc["namespace"] == "results"
    assert doc["key"] == canonical_key(KEY)
    assert doc["value"] == VALUE
