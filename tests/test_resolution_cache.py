"""The ``resolutions`` disk namespace: disk-warm resolution.

With a cache directory, :class:`~repro.exp.measure.Measurer` stores each
named design's resolution (digest, order fingerprint, cost, latency,
baseline pulse counts) under ``(hash version, source digest, memo key)``.
A fresh process then resolves a stored name without elaborating it; the
first result miss checks a fresh resolution against the stored one. These
tests pin the saving (no factory call on a warm pass), the invalidation
by any package edit (in a scratch copy, in a subprocess), quarantine of
damaged, foreign and forged documents, the equality of a hit with a fresh
resolution, and the store CLI over the namespace.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

from repro.__main__ import main
from repro.cache import RESOLUTIONS_NAMESPACE, DiskCache, store_stats
from repro.core.montecarlo import measure_yield
from repro.core.serialize import circuit_to_json, yield_result_to_jsonable
from repro.core.simulation import Simulation
from repro.exp import measure as measure_module
from repro.exp.measure import Measurer, source_digest
from repro.exp.registry import (
    PulseCountPredicate,
    RegistryFactory,
    build_in_fresh_circuit,
    registry,
    registry_entry,
)
from repro.explore import ExploreEngine, FamilyFactory
from repro.serve import YieldService

from test_hash_stability import EXPLORE_GRID

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture
def calls(monkeypatch):
    """Counts factory calls by the factory's repr."""
    counter = Counter()
    for cls in (FamilyFactory, RegistryFactory):
        original = cls.__call__

        def counted(self, _original=original):
            counter[repr(self)] += 1
            return _original(self)

        monkeypatch.setattr(cls, "__call__", counted)
    return counter


def _direct(factory, sigma, n_seeds, seed0=0):
    """``measure_yield`` on a fresh factory, as a stored document."""
    predicate = PulseCountPredicate(Simulation(factory()).simulate())
    return yield_result_to_jsonable(measure_yield(
        factory, predicate, sigma, seeds=range(seed0, seed0 + n_seeds)
    ))


def _stored_form(resolved):
    return (resolved.digest, resolved.fingerprint, resolved.cost,
            resolved.latency_ps, resolved.predicate.expected)


def _entry_file(store):
    (path,) = (pathlib.Path(store) / RESOLUTIONS_NAMESPACE).rglob("*.json")
    return path


# -- the saving -----------------------------------------------------------
def test_warm_explore_pass_elaborates_nothing(tmp_path, calls):
    grid = {"depth": [1, 2]}
    cold = ExploreEngine(cache_dir=tmp_path)
    first = cold.sweep("racetree", grid, sigma=0.5, n_seeds=6)
    assert cold.elaborations == 2
    assert cold.stats()["cache"]["resolution_disk"]["writes"] == 2
    calls.clear()

    warm = ExploreEngine(cache_dir=tmp_path)
    second = warm.sweep("racetree", grid, sigma=0.5, n_seeds=6)
    assert calls == {} and warm.elaborations == warm.computations == 0
    block = warm.stats()["cache"]["resolution_disk"]
    assert (block["hits"], block["misses"], block["writes"]) == (2, 0, 0)
    assert [(p.digest, p.cost, p.latency_ps, p.result) for p in second.points] \
        == [(p.digest, p.cost, p.latency_ps, p.result) for p in first.points]


def test_restarted_service_resolves_without_elaborating(tmp_path, calls):
    payload = {"design": "Race Tree", "sigma": 0.5, "n_seeds": 6}
    first, _ = YieldService(cache_dir=tmp_path).yield_(payload)
    calls.clear()
    warm = YieldService(cache_dir=tmp_path)
    second, cached = warm.yield_(payload)
    assert cached and calls == {}
    assert second == first
    stats = warm.stats()
    assert stats["elaborations"] == 0
    assert stats["cache"]["resolution_disk"]["hits"] == 1


def test_hit_then_miss_elaborates_once_and_checks(tmp_path, calls):
    ExploreEngine(cache_dir=tmp_path).measure("bitonic", {"n": 4},
                                              sigma=0.5, n_seeds=5)
    calls.clear()
    warm = ExploreEngine(cache_dir=tmp_path)
    point = warm.measure("bitonic", {"n": 4}, sigma=0.9, n_seeds=5)
    again = warm.measure("bitonic", {"n": 4}, sigma=1.3, n_seeds=5)
    assert not point.cached and not again.cached
    assert calls == {"FamilyFactory('bitonic', n=4)": 1}
    assert warm.elaborations == 1 and warm.computations == 2


# -- soundness: a hit is a fresh resolution --------------------------------
def test_disk_hit_equals_fresh_resolution(tmp_path):
    """Every registry name and CI explore grid point: the disk-warm entry
    carries the fresh digest, fingerprint, cost, latency and predicate."""
    names = [(RegistryFactory(e.name), e.name) for e in registry()]
    points = [
        (FamilyFactory(family, params),
         (family, FamilyFactory(family, params).params))
        for family, params in EXPLORE_GRID
    ]
    cold = Measurer(cache_dir=tmp_path)
    for factory, key in names + points:
        cold.resolve(factory, key)
    warm = Measurer(cache_dir=tmp_path)
    for factory, key in names + points:
        hit = warm.resolve(factory, key)
        assert hit.factory.pending is not None  # not elaborated
        fresh = Measurer().resolve(factory, key)
        assert _stored_form(hit) == _stored_form(fresh), key
    assert warm.elaborations == 0
    assert warm.stats()["cache"]["resolution_disk"]["hits"] == len(
        names + points)


@pytest.mark.parametrize("workers", [1, 2])
def test_hit_then_result_miss_equals_direct_measurement(tmp_path, workers):
    # 300 seeds take the process pool at workers=2.
    Measurer(cache_dir=tmp_path).resolve(RegistryFactory("Min-Max"),
                                         "Min-Max")
    warm = Measurer(workers, cache_dir=tmp_path)
    resolved = warm.resolve(RegistryFactory("Min-Max"), "Min-Max")
    document, cached, used = warm.measure(resolved, 40.0, 300)
    assert not cached and used is resolved
    assert document == _direct(RegistryFactory("Min-Max"), 40.0, 300)


# -- what does not persist ---------------------------------------------------
def test_unnamed_and_foreign_factories_do_not_persist(tmp_path):
    text = circuit_to_json(build_in_fresh_circuit(registry_entry("JTL")))
    service = YieldService(cache_dir=tmp_path)
    service.yield_({"circuit": text, "sigma": 0.5, "n_seeds": 3})
    measurer = Measurer(cache_dir=tmp_path)
    # A caller's own factory is not defined by the package source.
    measurer.resolve(lambda: build_in_fresh_circuit(registry_entry("S")), "S")
    assert store_stats(tmp_path)["namespaces"][RESOLUTIONS_NAMESPACE][
        "entries"] == 0


def test_unreadable_source_skips_the_namespace(tmp_path, monkeypatch):
    monkeypatch.setattr(measure_module, "source_digest", lambda: None)
    measurer = Measurer(cache_dir=tmp_path)
    measurer.resolve(RegistryFactory("JTL"), "JTL")
    again = Measurer(cache_dir=tmp_path)
    again.resolve(RegistryFactory("JTL"), "JTL")
    assert again.elaborations == 1
    block = again.stats()["cache"]["resolution_disk"]
    assert block["writes"] == block["hits"] == 0
    assert store_stats(tmp_path)["namespaces"][RESOLUTIONS_NAMESPACE][
        "entries"] == 0


def test_no_cache_dir_takes_no_new_path():
    before = source_digest.cache_info()
    measurer = Measurer()
    measurer.measure(measurer.resolve(RegistryFactory("JTL"), "JTL"), 0.5, 3)
    assert measurer.resolutions is None
    assert "resolution_disk" not in measurer.stats()["cache"]
    after = source_digest.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# -- damaged, foreign and forged documents -----------------------------------
def _truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def _foreign(path):
    document = json.loads(path.read_text())
    document["value"] = {"format": "bogus"}
    path.write_text(json.dumps(document))


def _bad_cost(path):
    document = json.loads(path.read_text())
    document["value"]["cost"]["jjs"] = "many"
    path.write_text(json.dumps(document))


@pytest.mark.parametrize("damage, disk_hits", [
    (_truncate, 0),  # unreadable: a miss
    (_foreign, 1),  # a stored value that fails to decode: a hit, as for
    (_bad_cost, 1),  # a result document the tiered cache rejects
])
def test_damaged_document_is_quarantined_and_recomputed(
    tmp_path, damage, disk_hits
):
    cold = ExploreEngine(cache_dir=tmp_path)
    expected = cold.measure("racetree", {"depth": 2}, sigma=0.5, n_seeds=5)
    damage(_entry_file(tmp_path))

    warm = ExploreEngine(cache_dir=tmp_path)
    point = warm.measure("racetree", {"depth": 2}, sigma=0.5, n_seeds=5)
    assert point == expected and point.cached
    assert warm.elaborations == 1
    block = warm.stats()["cache"]["resolution_disk"]
    assert (block["quarantined"], block["hits"], block["writes"]) == (
        1, disk_hits, 1)
    # The rewritten document serves the next process.
    again = ExploreEngine(cache_dir=tmp_path)
    again.resolve("racetree", {"depth": 2})
    assert again.elaborations == 0


@pytest.mark.parametrize("measured_cold", [False, True])
def test_forged_digest_is_caught_at_the_first_miss(tmp_path, measured_cold):
    """A document whose digest was rewritten still parses, so it is a hit.
    Its result key addresses nothing, so the measurement misses, the miss
    checks a fresh resolution, quarantines the forgery and measures under
    the true digest: from the store when the true result is there, else
    computed. The forged key is never served."""
    factory = RegistryFactory("Min-Max")
    cold = Measurer(cache_dir=tmp_path)
    true = cold.resolve(factory, "Min-Max")
    if measured_cold:
        cold.measure(true, 0.5, 8)
    path = _entry_file(tmp_path)
    document = json.loads(path.read_text())
    document["value"]["digest"] = "0" * 64
    path.write_text(json.dumps(document))

    warm = Measurer(cache_dir=tmp_path)
    forged = warm.resolve(factory, "Min-Max")
    assert forged.digest == "0" * 64 and warm.elaborations == 0
    document, cached, used = warm.measure(forged, 0.5, 8)
    assert cached is measured_cold
    assert warm.computations == (0 if measured_cold else 1)
    assert document == _direct(factory, 0.5, 8)
    assert used.digest == true.digest
    assert _stored_form(used) == _stored_form(true)
    assert warm.stats()["cache"]["resolution_disk"]["quarantined"] == 1
    # The memo now holds the fresh resolution; the store holds it too.
    assert warm.resolve(factory, "Min-Max").digest == true.digest
    assert Measurer(cache_dir=tmp_path).resolve(
        factory, "Min-Max").digest == true.digest


def test_forged_digest_is_corrected_in_the_served_response(tmp_path):
    YieldService(cache_dir=tmp_path).yield_(
        {"design": "Min-Max", "sigma": 0.5, "n_seeds": 4})
    path = _entry_file(tmp_path)
    document = json.loads(path.read_text())
    true_digest = document["value"]["digest"]
    document["value"]["digest"] = "f" * 64
    path.write_text(json.dumps(document))
    body, _ = YieldService(cache_dir=tmp_path).yield_curve(
        {"design": "Min-Max", "sigmas": [0.5, 0.7], "n_seeds": 4})
    assert body["structural_hash"] == true_digest
    assert body["results"] == [
        _direct(RegistryFactory("Min-Max"), sigma, 4) for sigma in (0.5, 0.7)
    ]


# -- invalidation: any package edit misses -----------------------------------
_PROBE = """
import json, sys
from repro.exp import measure
assert measure.source_digest.cache_info().currsize == 0  # not at import
from repro.explore import ExploreEngine
engine = ExploreEngine(cache_dir=sys.argv[1])
engine.resolve("racetree", {"depth": 1})
print(json.dumps(engine.stats()["cache"]["resolution_disk"]))
"""


def _settle():
    """Wait out the timestamp slack: a file changed this close before a
    process imports the package counts as changed after the import."""
    time.sleep(2 * measure_module._TIMESTAMP_SLACK_NS / 1e9)


def _copy_package(tmp_path):
    package = tmp_path / "src" / "repro"
    shutil.copytree(SRC, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _settle()
    return package


def _append_line(module):
    module.write_text(module.read_text() + "\n# edited\n")


def _same_size_old_mtime(module):
    """An edit the mtime and size do not show: only the ctime moves."""
    before = module.stat()
    text = module.read_text()
    at = text.index('"""') + 3
    module.write_text(text[:at] + text[at].swapcase() + text[at + 1:])
    os.utime(module, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = module.stat()
    assert (after.st_size, after.st_mtime_ns) == (
        before.st_size, before.st_mtime_ns)


@pytest.mark.parametrize("edit", [_append_line, _same_size_old_mtime])
def test_editing_a_design_module_misses(tmp_path, edit):
    package = _copy_package(tmp_path)
    store = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(package.parent),
               PYTHONDONTWRITEBYTECODE="1")

    def probe():
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(store)], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        block = json.loads(out)
        return block["hits"], block["misses"]

    assert probe() == (0, 1)
    assert probe() == (1, 0)
    edit(package / "designs" / "racetree.py")
    _settle()
    assert probe() == (0, 1)
    assert store_stats(store)["namespaces"][RESOLUTIONS_NAMESPACE][
        "entries"] == 2


_EDIT_AFTER_IMPORT = """
import json, pathlib, sys
from repro.exp import measure
from repro.explore import ExploreEngine
engine = ExploreEngine(cache_dir=sys.argv[1])
if sys.argv[3] == "after-digest":
    assert measure.source_digest() is not None
module = pathlib.Path(measure.__file__).parent.parent / sys.argv[2]
module.write_text(module.read_text() + "\\n# edited\\n")
engine.resolve("racetree", {"depth": 1})
print(json.dumps([measure.source_digest(),
                  engine.stats()["cache"]["resolution_disk"]]))
"""


@pytest.mark.parametrize("edited, when", [
    ("designs/racetree.py", "before-digest"),  # loaded: runs the old code
    ("__main__.py", "after-digest"),  # not loaded yet: may run the new code
])
def test_edit_after_import_stores_nothing(tmp_path, edited, when):
    """A process that imported the package and then saw it edited does not
    run the source it would hash: it stores no resolution, so a process
    on the edited code cannot be served one."""
    package = _copy_package(tmp_path)
    store = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(package.parent),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", _EDIT_AFTER_IMPORT, str(store), edited, when],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    digest, block = json.loads(out)
    assert (digest is None) is (when == "before-digest")
    assert block["writes"] == block["hits"] == 0
    assert store_stats(store)["namespaces"][RESOLUTIONS_NAMESPACE][
        "entries"] == 0


# -- the store CLI -----------------------------------------------------------
def test_cache_cli_lists_evicts_and_clears_resolutions(tmp_path, capsys):
    ExploreEngine(cache_dir=tmp_path).measure("racetree", {"depth": 1},
                                              sigma=0.5, n_seeds=3)
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "resolutions" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path),
                 "--namespace", RESOLUTIONS_NAMESPACE]) == 0
    capsys.readouterr()
    namespaces = store_stats(tmp_path)["namespaces"]
    assert namespaces[RESOLUTIONS_NAMESPACE]["entries"] == 0
    assert namespaces["results"]["entries"] == 1

    DiskCache(tmp_path, RESOLUTIONS_NAMESPACE)
    Measurer(cache_dir=tmp_path).resolve(RegistryFactory("JTL"), "JTL")
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-bytes", "0"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert store_stats(tmp_path)["entries"] == 0


# -- repro yield elaborates once ------------------------------------------
def test_cli_yield_elaborates_once(calls, capsys):
    assert main(["yield", "Min-Max", "--seeds", "20"]) == 0
    assert "Monte-Carlo yield for Min-Max" in capsys.readouterr().out
    assert calls == {"RegistryFactory('Min-Max')": 1}
