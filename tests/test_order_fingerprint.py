"""A cache key determines its value: the order fingerprint.

The structural hash ignores node declaration order by design
(``tests/test_hash_stability.py``), but a Monte-Carlo result does not: a
counter-noise draw is addressed by node index. Nor does a reach analysis:
the persistent-set reduction takes cells in automaton order. Both cache
keys therefore carry :attr:`~repro.core.ir.CompiledCircuit.order_fingerprint`
beside the digest. These tests pin the fingerprint's relation to the
digest, a served shuffled Adder (Sync) against its direct measurement,
and the property that equal keys give equal documents, at sigmas where
seeds fail.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ir import compile_circuit, lint_cache_key, result_cache_key
from repro.core.montecarlo import measure_yield
from repro.core.serialize import (
    circuit_from_json,
    circuit_to_json,
    yield_result_to_jsonable,
)
from repro.core.simulation import Simulation
from repro.exp.measure import Measurer
from repro.exp.registry import (
    PulseCountPredicate,
    RegistryFactory,
    build_in_fresh_circuit,
    registry,
    registry_entry,
)
from repro.lint import ReachBudget
from repro.lint.reach_rules import analyze_reach, reach_analysis_to_jsonable
from repro.serve import YieldService

from test_hash_stability import build_mixed, permuted

#: A small exploration budget: a ``max_states`` cut is deterministic and
#: part of the key, so it keeps the property cheap without weakening it.
BUDGET = ReachBudget(max_states=300)
SEEDS = 32


def _keys(circuit, sigma):
    compiled = compile_circuit(circuit)
    digest, fingerprint = compiled.structural_hash, compiled.order_fingerprint
    return (
        result_cache_key(digest, fingerprint, sigma=sigma, n_seeds=SEEDS),
        lint_cache_key(digest, fingerprint, rules=("PL401", "PL402",
                                                   "PL403", "PL404"),
                       max_states=BUDGET.max_states,
                       time_limit=BUDGET.time_limit),
    )


def _yield_document(circuit, sigma):
    predicate = PulseCountPredicate(Simulation(circuit).simulate())
    result = measure_yield(lambda: circuit, predicate, sigma,
                           seeds=range(SEEDS))
    return yield_result_to_jsonable(result)


def _reach_document(circuit):
    analysis, _ = analyze_reach(circuit, budget=BUDGET, use_cache=False)
    document = reach_analysis_to_jsonable(analysis)
    document.pop("elapsed_seconds")
    return document


# -- the fingerprint beside the digest ----------------------------------
def test_shuffle_keeps_every_digest_and_moves_the_fingerprint():
    moved = 0
    for k, entry in enumerate(registry()):
        plain = compile_circuit(build_in_fresh_circuit(entry))
        shuffled = compile_circuit(permuted(build_in_fresh_circuit(entry), k))
        assert shuffled.structural_hash == plain.structural_hash
        same_order = [n.name for n in shuffled.nodes] == [
            n.name for n in plain.nodes]
        assert (shuffled.order_fingerprint == plain.order_fingerprint) \
            == same_order
        moved += not same_order
    assert moved >= 20


def test_fingerprint_survives_rebuild_and_round_trip():
    for entry in registry():
        circuit = build_in_fresh_circuit(entry)
        again = build_in_fresh_circuit(entry)
        back = circuit_from_json(circuit_to_json(circuit))
        fingerprints = {
            compile_circuit(c).order_fingerprint for c in (circuit, again, back)
        }
        assert len(fingerprints) == 1


def test_registry_name_and_round_trip_share_one_compiled_entry():
    measurer = Measurer()
    named = measurer.resolve(RegistryFactory("Min-Max"), "Min-Max")
    text = circuit_to_json(build_in_fresh_circuit(registry_entry("Min-Max")))
    submitted = measurer.resolve(lambda: circuit_from_json(text))
    assert submitted is named
    assert len(measurer.compiled) == 1


# -- the regression: a served shuffled circuit --------------------------
def test_served_shuffled_adder_sync_equals_its_direct_measurement():
    """Adder (Sync) shuffled with ``random.Random(7)`` keeps its digest
    but draws other noise. Served after the named design, it must be
    measured in its own order, not served the named design's result."""
    params = {"sigma": 2.0, "n_seeds": 64}
    service = YieldService(workers=1)
    named, _ = service.yield_({"design": "Adder (Sync)", **params})
    shuffled = permuted(build_in_fresh_circuit(registry_entry("Adder (Sync)")), 7)
    served, cached = service.yield_({"circuit": circuit_to_json(shuffled),
                                     **params})
    predicate = PulseCountPredicate(Simulation(shuffled).simulate())
    direct = measure_yield(lambda: shuffled, predicate, 2.0, seeds=range(64))
    assert served["result"] == yield_result_to_jsonable(direct)
    assert served["structural_hash"] == named["structural_hash"]
    assert not cached and service.computations == 2
    # The two orders really differ, so the old shared key was wrong.
    assert served["result"] != named["result"]


# -- the property: equal keys, equal documents --------------------------
def test_equal_keys_imply_equal_documents():
    """Each case builds one design twice in one shuffled order, once in
    declaration order, and (registry designs) once through a
    ``circuit_to_json`` round trip; every pair with equal keys must give
    equal yield and reach documents. A registry example checks all 22
    designs under one order seed. The tally shows the property is not
    vacuous: equal-key pairs occur, and so do cases with failing seeds
    (Adder (Sync) fails seeds at both sigmas, Min-Max and some random
    netlists at 20 ps)."""
    tally = Counter()

    def check(build, order, sigma, round_trip):
        circuits = [permuted(build(), order), permuted(build(), order),
                    build()]
        if round_trip:
            circuits.append(circuit_from_json(circuit_to_json(circuits[0])))
        try:
            Simulation(circuits[0]).simulate()
        except Exception:
            tally["skipped"] += 1  # no noiseless baseline to compare with
            return
        keys = [_keys(c, sigma) for c in circuits]
        yields = [_yield_document(c, sigma) for c in circuits]
        reaches = [_reach_document(c) for c in circuits]
        tally["failing_seed_cases"] += yields[0]["passed"] < SEEDS
        for a in range(len(circuits)):
            for b in range(a + 1, len(circuits)):
                if keys[a][0] == keys[b][0]:
                    tally["equal_result_keys"] += 1
                    assert yields[a] == yields[b], (a, b)
                if keys[a][1] == keys[b][1]:
                    tally["equal_lint_keys"] += 1
                    assert reaches[a] == reaches[b], (a, b)

    @given(order=st.integers(0, 999), sigma=st.sampled_from([2.0, 20.0]))
    @settings(max_examples=3, deadline=None, derandomize=True)
    def registry_case(order, sigma):
        for entry in registry():
            check(lambda: build_in_fresh_circuit(entry), order, sigma, True)

    @given(seed=st.integers(0, 100_000), n_cells=st.integers(1, 12),
           order=st.integers(0, 999), sigma=st.sampled_from([6.0, 20.0]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def mixed_case(seed, n_cells, order, sigma):
        check(lambda: build_mixed(seed, n_cells), order, sigma, False)

    registry_case()
    mixed_case()
    print(f"order-fingerprint property: {dict(tally)}")
    assert tally["failing_seed_cases"] > 0
    assert tally["equal_result_keys"] > 0 and tally["equal_lint_keys"] > 0
