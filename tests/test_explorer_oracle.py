"""The production explorer against the frozen full-dimension explorer.

Active-clock zones are exact for location reachability, and the
same-instant persistent sets fire one cell's internal steps where all
interleavings would reach the same locations. So on every network the
production :class:`repro.mc.ModelChecker` and the frozen full-dimension,
unreduced copy in ``tests/frozen_explorer.py`` must report the same
violations (with their step windows), the same races (with their
windows), the same coverage and the same dead ends. The production
explorer reaches a subset of the location vectors (the interleavings it
skips) in at most as many symbolic states.

The networks are every registry design whose unreduced exploration
completes within :data:`BUDGET` states, under the PL4xx queries (Query 2
and deadlock) plus Query 1 where the design simulates; the pinned cases
of ``tests/test_mc.py::TestExplorerIdentity``; random acyclic circuits
with coincident inputs on the 0.1 ps grid; and hand-built networks that
each break one fact the reduction relies on.
"""

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from frozen_explorer import FullDimensionChecker
from repro.core.circuit import working_circuit
from repro.core.errors import PylseError, SimulationError
from repro.core.simulation import Simulation
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.mc import ModelChecker
from repro.ta import translate_circuit
from repro.ta.automaton import Action, Constraint, TANetwork, TimedAutomaton
from repro.ta.queries import (
    Query,
    correctness_query,
    deadlock_query,
    no_error_query,
)
from test_mc import IDENTITY_CASES
from test_random_circuits import ASYNC_KINDS, build_random_circuit

#: State budget of the explorers. Race Tree, Adder (Sync) and the bitonic
#: sorters need more than this without the reduction (and far more,
#: minutes' worth, without active clocks), so they are out of scope here.
BUDGET = 1000


def _recording(checker_class):
    """``checker_class`` that also records every stored location vector."""

    class Recording(checker_class):
        def run(self, *args, **kwargs):
            self.locvecs = set()
            return super().run(*args, **kwargs)

        def _check_state(self, locvec, *args):
            self.locvecs.add(locvec)
            super()._check_state(locvec, *args)

    return Recording


Reduced = _recording(ModelChecker)
FullDimension = _recording(FullDimensionChecker)


class Unreduced(ModelChecker):
    """The production explorer with every state expanded fully. A case is
    in scope when it completes within :data:`BUDGET` states: the frozen
    explorer, far slower per state, then completes within it too."""

    def _persistent(self, *args):
        return None


def _queries(circuit, translation):
    queries = [no_error_query(translation), deadlock_query()]
    try:
        events = Simulation(circuit).simulate()
    except SimulationError:  # a timing violation stops the simulation
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


def _compare(network, queries, use_inclusion=True, traces=True):
    """Assert the oracle contracts; returns the two results, or None when
    the unreduced search needs more than :data:`BUDGET` states.

    With ``traces=False`` violations are compared as the set of what fails
    where — (query, automaton, location, detail) — and not as the list of
    violating states with their paths. A violation is reported for every
    violating symbolic state, with the breadth-first path to it; after an
    error the reduction visits fewer of those states, and it may reach one
    through another order of the same instant's steps (an invisible step of
    one cell before another cell's delivery), so path and count differ
    while every path is still a run of the network.
    """
    if not Unreduced(network, max_states=BUDGET,
                     use_inclusion=use_inclusion).run(queries).completed:
        return None
    new, new_outcome = _outcome(
        Reduced(network, max_states=BUDGET, use_inclusion=use_inclusion),
        queries,
    )
    old, old_outcome = _outcome(
        FullDimension(network, max_states=BUDGET,
                      use_inclusion=use_inclusion),
        queries,
    )
    assert new.completed and old.completed
    assert new.states_explored <= old.states_explored
    # The one contract the reduction changes: it skips interleavings.
    assert new_outcome.pop("locvecs") <= old_outcome.pop("locvecs")
    assert new.satisfied == old.satisfied
    if not traces:
        for outcome in (new_outcome, old_outcome):
            outcome["violations"] = {v[:4] for v in outcome["violations"]}
    for key in old_outcome:
        assert new_outcome[key] == old_outcome[key], key
    return new, old


def _assert_same(network, queries, use_inclusion=True):
    if _compare(network, queries, use_inclusion) is None:
        pytest.skip(f"needs more than {BUDGET} states unreduced")


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


# --------------------------------------------------------------------------
# random circuits: coincident and near-coincident inputs
# --------------------------------------------------------------------------
RANDOM_KINDS = ASYNC_KINDS + ("dro",)


def _random_case(seed, n_inputs, n_cells, tenths):
    """A random acyclic circuit whose inputs pulse ``tenths`` / 10 ps apart
    (0: all at once), with its network and queries."""
    circuit = build_random_circuit(seed, n_inputs, n_cells, kinds=RANDOM_KINDS,
                                   spacing=tenths / 10)
    translation = translate_circuit(circuit)
    return translation.network, _queries(circuit, translation)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(1, 4),
    n_cells=st.integers(1, 6),
    tenths=st.sampled_from([0, 0, 1, 5, 12, 37, 100, 250, 1200]),
)
def test_random_circuit_matches_full_dimension(seed, n_inputs, n_cells,
                                               tenths):
    outcome = _compare(*_random_case(seed, n_inputs, n_cells, tenths),
                       traces=False)
    if outcome is None:
        event("out of budget")
    else:
        new, old = outcome
        event("reduced" if new.states_explored < old.states_explored
              else "not reduced")


def test_random_circuits_are_reduced():
    """The reduction is exercised on random circuits, not only on the
    registry: a fixed sample with coincident inputs, compared in full."""
    compared = reduced = 0
    for seed in range(12):
        outcome = _compare(*_random_case(seed, 3, 5, 0), traces=False)
        if outcome is not None:
            compared += 1
            new, old = outcome
            reduced += new.states_explored < old.states_explored
    assert compared >= 10
    assert reduced > 0


# --------------------------------------------------------------------------
# hand-built networks, each breaking one fact the reduction relies on
# --------------------------------------------------------------------------
def _automaton(name, role, clocks, locations, edges):
    """``locations``: (name, invariant, is_error) triples, the first one
    initial; ``edges``: (source, target, action, guard, resets) with the
    action ``"ch!"``, ``"ch?"`` or None."""
    ta = TimedAutomaton(name=name, initial=locations[0][0], role=role,
                        clocks=list(clocks))
    for loc, invariant, error in locations:
        ta.add_location(loc, invariant=invariant, error=error)
    for source, target, action, guard, resets in edges:
        ta.add_edge(source, target,
                    action and Action(action[:-1], action[-1]), guard, resets)
    return ta


def _pulse(name, channel, at):
    """An input automaton sending on ``channel`` at time ``at``."""
    clock = f"c_{name}"
    return _automaton(
        name, "input", [clock],
        [("i0", [Constraint(clock, "<=", at)], False), ("i1", [], False)],
        [("i0", "i1", f"{channel}!", [Constraint(clock, "==", at)], [])],
    )


def _receive_overlapping_the_exit():
    """A wait location whose receive guard overlaps its exit guard: the
    receive reaches an error only if it comes before the exit."""
    h = "h"
    main = _automaton("M", "cell", [h], [
        ("idle", [], False), ("wait", [Constraint(h, "<=", 0)], False),
        ("done", [], False), ("err", [], True),
    ], [
        ("idle", "wait", "go?", [], [h]),
        ("wait", "done", None, [Constraint(h, "==", 0)], []),
        ("wait", "err", "x?", [Constraint(h, "<=", 0)], []),
    ])
    return TANetwork(automata=[main, _pulse("T", "go", 50),
                               _pulse("S", "x", 50)],
                     channels=["go", "x"])


def _clock_read_by_another_cell():
    """M's exit resets ``k``, which another automaton reads at the same
    instant to reach an error."""
    main = _automaton("M", "cell", ["h", "k"], [
        ("idle", [], False), ("q", [Constraint("h", "<=", 0)], False),
        ("wait", [Constraint("h", "<=", 0)], False), ("done", [], False),
    ], [
        ("idle", "q", "go?", [], ["h"]),
        ("q", "wait", "go2!", [Constraint("h", "==", 0)], []),
        ("wait", "done", None, [Constraint("h", "==", 0)], ["k"]),
    ])
    reader = _automaton("N", "cell", ["j"], [
        ("idle", [], False), ("n0", [Constraint("j", "<=", 0)], False),
        ("err", [], True),
    ], [
        ("idle", "n0", "go2?", [], ["j"]),
        ("n0", "err", None, [Constraint("k", "==", 50)], []),
    ])
    return TANetwork(automata=[main, reader, _pulse("T", "go", 50)],
                     channels=["go", "go2"])


def _spoke_emitting_while_the_hub_fires():
    """A firing automaton emits at the instant its hub fires again; only
    by returning to ``f0`` first can it take the message (into an error).
    The hub reaches its fire location by its own delayed exit, so no
    delivery at that instant lets the search order the emission first."""
    hub = _automaton("M", "cell", ["h"], [
        ("idle", [], False), ("wait", [Constraint("h", "<=", 10)], False),
        ("q", [Constraint("h", "<=", 0)], False), ("done", [], False),
    ], [
        ("idle", "wait", "go?", [], ["h"]),
        ("wait", "q", None, [Constraint("h", "==", 10)], ["h"]),
        ("q", "done", "f!", [Constraint("h", "==", 0)], []),
    ])
    busy = _automaton("F1", "firing", ["p"], [
        ("f1", [Constraint("p", "<=", 50)], False),
        ("fend", [Constraint("p", "<=", 50)], False),
        ("f0", [], False), ("err", [], True),
    ], [
        ("f1", "fend", "w!", [Constraint("p", "==", 50)], []),
        ("fend", "f0", None, [Constraint("p", "==", 50)], []),
        ("f0", "err", "f?", [], []),
    ])
    free = _automaton("F2", "firing", ["p2"], [
        ("f0", [], False), ("f1", [], False),
    ], [("f0", "f1", "f?", [], ["p2"])])
    sink = _automaton("sink", "sink", [], [("s0", [], False)],
                      [("s0", "s0", "w?", [], [])])
    return TANetwork(automata=[hub, busy, free, _pulse("T", "go", 40), sink],
                     channels=["go", "w"], internal_channels=["f"])


def _exit_that_need_not_be_taken_now():
    """M may stay in ``wait`` past the pinned instant (its exit is not
    urgent), and only by staying can it receive into an error."""
    main = _automaton("M", "cell", ["h"], [
        ("idle", [], False), ("wait", [Constraint("h", "<=", 10)], False),
        ("done", [], False), ("err", [], True),
    ], [
        ("idle", "wait", "go?", [], ["h"]),
        ("wait", "done", None, [Constraint("h", "<=", 2)], []),
        ("wait", "err", "x?", [Constraint("h", ">=", 3)], []),
    ])
    pinner = _automaton("P", "cell", ["r"], [
        ("idle", [], False), ("p0", [Constraint("r", "<=", 0)], False),
        ("p1", [], False),
    ], [
        ("idle", "p0", "go2?", [], ["r"]),
        ("p0", "p1", None, [Constraint("r", "==", 0)], []),
    ])
    return TANetwork(
        automata=[main, pinner, _pulse("T1", "go", 50),
                  _pulse("T2", "go2", 50), _pulse("S", "x", 53)],
        channels=["go", "go2", "x"],
    )


def _exit_enabled_on_part_of_the_zone():
    """M entered ``wait`` at some time in [40, 45], so at the instant 50
    its exit (``h == 10``) is enabled for one entry time only; for the
    others P's pulse, sent after P's own step at 50, arrives while M still
    waits."""
    main = _automaton("M", "cell", ["h"], [
        ("idle", [], False), ("wait", [Constraint("h", "<=", 10)], False),
        ("done", [], False), ("err", [], True),
    ], [
        ("idle", "wait", "go?", [], ["h"]),
        ("wait", "done", None, [Constraint("h", "==", 10)], []),
        ("wait", "err", "x?", [Constraint("h", "<", 10)], []),
    ])
    early = _automaton("T", "input", ["c"], [
        ("i0", [Constraint("c", "<=", 45)], False), ("i1", [], False),
    ], [("i0", "i1", "go!", [Constraint("c", ">=", 40)], [])])
    pinner = _automaton("P", "cell", ["r"], [
        ("idle", [], False), ("p0", [Constraint("r", "<=", 0)], False),
        ("p1", [Constraint("r", "<=", 0)], False), ("p2", [], False),
    ], [
        ("idle", "p0", "go2?", [], ["r"]),
        ("p0", "p1", None, [Constraint("r", "==", 0)], []),
        ("p1", "p2", "x!", [Constraint("r", "==", 0)], []),
    ])
    return TANetwork(
        automata=[main, pinner, early, _pulse("T2", "go2", 50)],
        channels=["go", "go2", "x"],
    )


@pytest.mark.parametrize("build", [
    _receive_overlapping_the_exit,
    _exit_enabled_on_part_of_the_zone,
    _clock_read_by_another_cell,
    _spoke_emitting_while_the_hub_fires,
    _exit_that_need_not_be_taken_now,
], ids=lambda build: build.__name__.strip("_"))
def test_network_breaking_a_fact_keeps_its_error(build):
    """The facts are checked on the network, not assumed from the
    translation: where one fails, the error the full search reaches is
    still reached."""
    outcome = _compare(build(), [Query(kind="no_errors"), deadlock_query()],
                       traces=False)
    assert outcome is not None
    new, old = outcome
    assert old.violations_for("query2")
