"""Active-clock zones against the frozen full-dimension explorer.

Active-clock reduction is exact for location reachability, so on every
network the production :class:`repro.mc.ModelChecker` and the frozen
full-dimension copy in ``tests/frozen_explorer.py`` must reach the same
location vectors and report the same violations (with their step
windows), the same races (with their windows) and the same coverage.
Only the number of symbolic states may differ, and only downwards.

The networks are every registry design whose exploration completes
within :data:`BUDGET` states, under the PL4xx queries (Query 2 and
deadlock) plus Query 1 where the design simulates, and the pinned cases
of ``tests/test_mc.py::TestExplorerIdentity``.
"""

import pytest

from frozen_explorer import FullDimensionChecker
from repro.core.circuit import working_circuit
from repro.core.errors import PriorInputViolation, PylseError
from repro.core.simulation import Simulation
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.mc import ModelChecker
from repro.ta import translate_circuit
from repro.ta.queries import correctness_query, deadlock_query, no_error_query
from test_mc import IDENTITY_CASES

#: State budget of both explorers. Race Tree, Adder (Sync) and the
#: bitonic sorters need more than this with active clocks already (and
#: far more, minutes' worth, without), so they are out of scope here.
BUDGET = 1000


def _recording(checker_class):
    """``checker_class`` that also records every stored location vector."""

    class Recording(checker_class):
        def run(self, *args, **kwargs):
            self.locvecs = set()
            return super().run(*args, **kwargs)

        def _note_visited(self, locvec, visited):
            self.locvecs.add(locvec)
            super()._note_visited(locvec, visited)

    return Recording


ActiveClocks = _recording(ModelChecker)
FullDimension = _recording(FullDimensionChecker)


def _queries(circuit, translation):
    queries = [no_error_query(translation), deadlock_query()]
    try:
        events = Simulation(circuit).simulate()
    except PriorInputViolation:
        pass
    else:
        queries.insert(0, correctness_query(circuit, translation, events))
    return queries


def _outcome(checker, queries):
    result = checker.run(queries, collect_races=True)
    return result, {
        "locvecs": checker.locvecs,
        "violations": [
            (v.query, v.automaton, v.location, v.detail, v.trace, v.steps,
             v.locations)
            for v in result.violations
            if v.query != "no_deadlock"
        ],
        # A deadlock is reported per dead-end *symbolic state*, and the
        # two explorers split a location vector into different zones; the
        # location-level fact (PL404's input) is the set of dead ends.
        "deadlocks": {
            tuple(v.locations)
            for v in result.violations
            if v.query == "no_deadlock"
        },
        "races": result.races,
        "fired_edges": result.coverage.fired_edges,
        "visited": result.coverage.visited_locations,
    }


def _assert_same(network, queries, use_inclusion=True):
    new, new_outcome = _outcome(
        ActiveClocks(network, max_states=BUDGET, use_inclusion=use_inclusion),
        queries,
    )
    if not new.completed:
        pytest.skip(f"needs more than {BUDGET} states")
    old, old_outcome = _outcome(
        FullDimension(network, max_states=BUDGET,
                      use_inclusion=use_inclusion),
        queries,
    )
    assert old.completed
    assert new.states_explored <= old.states_explored
    for key in old_outcome:
        assert new_outcome[key] == old_outcome[key], key


@pytest.mark.parametrize(
    "entry", registry(), ids=lambda entry: entry.name
)
def test_registry_design_matches_full_dimension(entry):
    circuit = build_in_fresh_circuit(entry)
    try:
        translation = translate_circuit(circuit)
    except PylseError as err:
        pytest.skip(str(err))
    _assert_same(translation.network, _queries(circuit, translation))


@pytest.mark.parametrize("use_inclusion", [True, False])
@pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
def test_identity_case_matches_full_dimension(name, use_inclusion):
    IDENTITY_CASES[name][0]()
    circuit = working_circuit()
    translation = translate_circuit(circuit)
    _assert_same(
        translation.network, _queries(circuit, translation), use_inclusion
    )
