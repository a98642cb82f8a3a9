"""End-to-end model-checking tests (Section 5.3's Queries 1 and 2)."""

import hashlib
import json

import pytest

from repro.core.circuit import working_circuit
from repro.core.errors import PriorInputViolation
from repro.core.helpers import inp, inp_at
from repro.core.simulation import Simulation
from repro.core.wire import Wire
from repro.designs import min_max
from repro.mc import ModelChecker, verify_design
from repro.sfq import and_s, c, dro, jtl
from repro.sfq.dro_sr import DRO_SR
from repro.ta import (
    OutputTimesProperty,
    Query,
    correctness_query,
    no_error_query,
    translate_circuit,
)


class TestVerifyDesign:
    def test_jtl_satisfies_both_queries(self):
        a = inp_at(100.0, 200.0, name="A")
        jtl(a, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok
        assert report.result.states_explored > 0
        assert report.events["Q"] == [105.0, 205.0]

    def test_and_figure12_satisfies(self):
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        report = verify_design(time_limit=120)
        assert report.ok, report.result.violations

    def test_c_element_satisfies(self):
        a = inp_at(30.0, 110.0, name="A")
        b = inp_at(60.0, 140.0, name="B")
        c(a, b, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok

    def test_min_max_satisfies_with_paper_times(self):
        a = inp_at(115, 215, 315, name="A")
        b = inp_at(64, 184, 304, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
        report = verify_design(time_limit=300)
        assert report.ok
        assert report.events["low"] == [89.0, 209.0, 329.0]

    def test_budget_exhaustion_reports_incomplete(self):
        a = inp_at(115, 215, 315, name="A")
        b = inp_at(64, 184, 304, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
        report = verify_design(max_states=20)
        assert not report.result.completed
        assert not report.ok
        assert "INCOMPLETE" in report.summary()


class TestQueryViolations:
    def test_wrong_output_times_detected(self):
        a = inp_at(100.0, name="A")
        jtl(a, name="Q")
        translation = translate_circuit(working_circuit())
        bad = Query(
            kind="output_times",
            properties=[
                OutputTimesProperty(name, "fta_end", (9999,))
                for name in translation.firing_tas_by_channel["Q"]
            ],
        )
        result = ModelChecker(translation.network, time_limit=30).run([bad])
        assert result.completed
        assert result.violations_for("query1")

    def test_setup_violation_reaches_error_state(self):
        """Figure 13's stimulus makes an AND error location reachable."""
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(99, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=60).run(
            [no_error_query(translation)]
        )
        violations = result.violations_for("query2")
        assert violations
        assert any("AND_err_b" in v.location for v in violations)

    def test_hold_violation_reaches_error_state(self):
        a = inp_at(30.0, 51.0, name="A")      # 51 inside DRO's hold window
        clk = inp_at(50.0, name="CLK")
        dro(a, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=30).run(
            [no_error_query(translation)]
        )
        violations = result.violations_for("query2")
        assert violations
        assert any("_h" in v.location or "err" in v.location for v in violations)

    def test_clean_stimulus_has_unreachable_errors(self):
        a = inp_at(30.0, name="A")
        clk = inp_at(50.0, name="CLK")
        dro(a, clk, name="Q")
        translation = translate_circuit(working_circuit())
        result = ModelChecker(translation.network, time_limit=30).run(
            [no_error_query(translation)]
        )
        assert result.satisfied


class TestCheckerMechanics:
    def test_inclusion_pruning_explores_fewer_states(self):
        a = inp_at(100.0, 200.0, 300.0, name="A")
        jtl(a, name="Q")
        translation = translate_circuit(working_circuit())
        with_pruning = ModelChecker(translation.network).run([])
        without = ModelChecker(translation.network, use_inclusion=False).run([])
        assert with_pruning.states_explored <= without.states_explored

    def test_mc_agrees_with_simulation_timing(self):
        """Query 1 built from simulation events is satisfied: the TA
        semantics and the discrete-event semantics agree on output times."""
        a = inp_at(40.0, 90.0, name="A")
        b = inp_at(60.0, 120.0, name="B")
        c(a, b, name="Q")
        report = verify_design(time_limit=60)
        assert report.ok
        # and the query actually constrains something:
        assert any(p.allowed_times for p in report.query1.properties)

    def test_tctl_rendering(self):
        a = inp_at(100.0, name="A")
        jtl(a, name="Q")
        report = verify_design(time_limit=30)
        tctl1 = report.query1.to_tctl()
        assert tctl1.startswith("A[] (")
        assert "fta_end imply" in tctl1
        assert "global == 1050" in tctl1
        tctl2 = report.query2.to_tctl()
        assert tctl2.startswith("A[] not (")


# --------------------------------------------------------------------------
# explorer identity: pinned outcomes the DBM algorithms must reproduce
# --------------------------------------------------------------------------
def _ablation_and():
    """The network of benchmarks/bench_ablation_mc.py."""
    a = inp_at(30, 115, 230, name="A")
    b = inp_at(65, 130, 245, name="B")
    clk = inp(start=50, period=50, n=5, name="CLK")
    and_s(a, b, clk, name="Q")


def _figure13_and():
    """Figure 13's setup violation: B at 99 ps, one ps before CLK."""
    a = inp_at(125, 175, 225, 275, name="A")
    b = inp_at(99, 185, 225, 265, name="B")
    clk = inp(start=50, period=50, n=6, name="CLK")
    and_s(a, b, clk, name="Q")


def _min_max():
    a = inp_at(115, 215, 315, name="A")
    b = inp_at(64, 184, 304, name="B")
    low, high = min_max(a, b)
    low.observe("low")
    high.observe("high")


def _racy_dro_sr():
    """Set and reset at the same instant: a race and Query 1 violations."""
    circuit = working_circuit()
    circuit.add_node(
        DRO_SR(),
        [inp_at(30.0, name="A"), inp_at(30.0, name="RST"),
         inp_at(60.0, name="CLK")],
        [Wire("OUT_q")],
    )


def _explore(build, use_inclusion):
    """Query 1 (when the circuit simulates) and Query 2, races collected."""
    build()
    circuit = working_circuit()
    translation = translate_circuit(circuit)
    queries = [no_error_query(translation)]
    try:
        events = Simulation(circuit).simulate()
    except PriorInputViolation:     # Figure 13 stops the simulation
        pass
    else:
        queries.insert(0, correctness_query(circuit, translation, events))
    return ModelChecker(
        translation.network, use_inclusion=use_inclusion, max_states=100_000
    ).run(queries, collect_races=True)


def _digest(result):
    """sha256 over the violations (with steps), races and coverage."""
    doc = {
        "violations": [
            [v.query, v.automaton, v.location, v.detail, v.trace,
             [list(step) for step in v.steps],
             [list(pair) for pair in v.locations]]
            for v in result.violations
        ],
        "races": [
            [r.automaton, r.location, r.channel_a, r.channel_b,
             list(r.window)]
            for r in result.races
        ],
        "fired_edges": sorted(result.coverage.fired_edges),
        "visited": sorted(
            (name, sorted(locs))
            for name, locs in result.coverage.visited_locations.items()
        ),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


FIGURE13_STEPS = [
    ("input_CLK: i0 --CLK!--> i1 | and0: idle --CLK?--> q0_0", 500, 530),
    ("and0: q0_0 --tau--> idle", 530, 990),
    ("input_B: i0 --B!--> i1 | and0: idle --B?--> q0_2", 990, 990),
    ("and0: q0_2 --tau--> b_arr", 990, 1000),
    ("input_CLK: i1 --CLK!--> i2 | and0: b_arr --CLK?--> AND_err_b_29",
     1000, 1250),
]

#: name -> (network, (states with inclusion, states without), transitions,
#: violations as (query, automaton, location, step count), races,
#: :func:`_digest`). The digests were recorded with the textbook closure
#: (full Floyd–Warshall after every guard and invariant) over every clock
#: of the network; active-clock zones reproduce them exactly with fewer
#: states (ablation_and 122 → 47, racy_dro_sr 24 → 21 / 22), and so do the
#: same-instant persistent sets (min_max 395 → 156 states, 946 → 170
#: transitions).
IDENTITY_CASES = {
    "ablation_and": (
        _ablation_and, (47, 47), 52, [], [],
        "59915c8aef30dbfc65760b03fe17bcbe3ba81e4e6d8ab3c05b090ba4b78c786f",
    ),
    "figure13_and": (
        _figure13_and, (6, 6), 5,
        [("query2", "and0", "AND_err_b_29", 5)], [],
        "6e909cfda4e2a68aebf8d72d141618761bb213add99f8f55fd2386d386db2cfe",
    ),
    "min_max": (
        _min_max, (156, 156), 170, [], [],
        "a73396a0a287a19b8a4b84fa87c1b633cb1a0c2092449720d105877f869320b4",
    ),
    "racy_dro_sr": (
        _racy_dro_sr, (21, 22), 23,
        [("query1", f"firingauto{k}", "fta_end", 8) for k in range(3)],
        [("dro_sr0", "idle", "A", "RST", (300, 300))],
        "52105a7272d1cfd1116a8278d345deaf7b15bb9bc9a50c7d18008dc9c126e421",
    ),
}


class TestExplorerIdentity:
    @pytest.mark.parametrize("use_inclusion", [True, False])
    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_pinned_outcome(self, name, use_inclusion):
        build, states, fired, violations, races, digest = IDENTITY_CASES[name]
        result = _explore(build, use_inclusion)
        assert result.completed
        assert (result.states_explored, result.transitions_fired) == (
            states[0 if use_inclusion else 1], fired)
        assert [
            (v.query, v.automaton, v.location, len(v.steps))
            for v in result.violations
        ] == violations
        assert [
            (r.automaton, r.location, r.channel_a, r.channel_b, r.window)
            for r in result.races
        ] == races
        assert _digest(result) == digest

    @pytest.mark.parametrize("use_inclusion", [True, False])
    def test_figure13_counterexample_steps(self, use_inclusion):
        (violation,) = _explore(_figure13_and, use_inclusion).violations
        assert violation.steps == FIGURE13_STEPS
