"""Incremental-lint benchmarks: cold vs warm PL4xx reachability analysis.

The PL4xx layer (``repro.lint.reach_rules``) memoizes a finished
:class:`ReachAnalysis` under ``lint_cache_key`` — the design's structural
hash plus the rule set and zone budget. A re-lint of an unchanged design
must therefore skip the zone exploration entirely and pay only circuit
compilation (itself memoized) plus a dictionary lookup.

* ``cold`` — the analysis cache is cleared inside every round, so each
  ``lint_circuit(reach=True)`` call pays the full DBM/zone exploration
  of Bitonic Sort 8 up to the ten-state budget;
* ``warm`` — the cache is primed once outside the timed region; every
  timed call is a pure hit.

``tools/bench_guard.py`` records both medians in the
``lint_incremental`` block of ``BENCH_sim.json`` and fails if the warm
re-lint is less than 10x the cold run — the incremental cache paying
for itself is the entire point of keying analyses by structural hash.
"""

import pytest

from repro.exp.registry import build_in_fresh_circuit, registry
from repro.lint import ReachBudget, clear_reach_cache, lint_circuit

LINT_BENCH_DESIGN = "Bitonic Sort 8"
ENTRIES = {entry.name: entry for entry in registry()}

#: Deterministic truncating budget: the exploration stops after ten
#: zone-graph states of Bitonic Sort 8 (a few seconds cold). A
#: ``max_states`` truncation is a pure function of the cache key, so the
#: analysis is cached; a ``time_limit`` truncation depends on machine load
#: and is never cached, so a time budget would leave the warm round cold.
LINT_BENCH_BUDGET = ReachBudget(max_states=10, time_limit=None)


@pytest.fixture(scope="module")
def bitonic8_circuit():
    return build_in_fresh_circuit(ENTRIES[LINT_BENCH_DESIGN])


def _lint_reach(circuit):
    return lint_circuit(circuit, design=LINT_BENCH_DESIGN, reach=True,
                        reach_budget=LINT_BENCH_BUDGET)


def test_lint_reach_cold(benchmark, bitonic8_circuit):
    def round():
        clear_reach_cache()
        return _lint_reach(bitonic8_circuit)

    report = benchmark.pedantic(round, rounds=3, iterations=1,
                                warmup_rounds=1)
    assert report.reach and report.reach["cached"] is False


def test_lint_reach_warm(benchmark, bitonic8_circuit):
    # Prime the cache: the one and only exploration happens outside the
    # timed region.
    _lint_reach(bitonic8_circuit)

    def round():
        return _lint_reach(bitonic8_circuit)

    report = benchmark.pedantic(round, rounds=5, iterations=1,
                                warmup_rounds=1)
    assert report.reach and report.reach["cached"] is True
