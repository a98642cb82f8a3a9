"""Tests for timing-slack analysis and simulation trace recording."""

import math

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.errors import PylseError
from repro.core.helpers import inp, inp_at
from repro.core.simulation import Simulation
from repro.core.statictiming import (
    critical_path,
    slack_report,
    timing_margins,
    worst_slacks,
)
from repro.sfq import and_s, dro, dro_sr, jtl


def figure12_sim(record=True):
    with fresh_circuit() as circuit:
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
    sim = Simulation(circuit)
    sim.simulate(record=record)
    return sim


class TestTraceRecording:
    def test_trace_off_by_default(self):
        sim = figure12_sim(record=False)
        assert sim.trace == []
        with pytest.raises(PylseError):
            sim.render_trace()

    def test_trace_entries_cover_all_dispatches(self):
        sim = figure12_sim()
        # Every pulse group the AND consumed is one entry: 14 pulses, with
        # the simultaneous (a, b) pair at t=225 merged into one group.
        assert len(sim.trace) == 13
        assert all(entry.node == "and0" for entry in sim.trace)

    def test_trace_records_state_changes(self):
        sim = figure12_sim()
        first_b = next(e for e in sim.trace if e.ports == ("b",))
        assert first_b.state_before == "idle"
        assert first_b.state_after == "b_arr"

    def test_trace_records_firings(self):
        sim = figure12_sim()
        firing = [e for e in sim.trace if e.fired]
        assert [e.fired[0] for e in firing] == [
            ("q", 209.2), ("q", 259.2), ("q", 309.2),
        ]

    def test_render_trace_text(self):
        sim = figure12_sim()
        text = sim.render_trace()
        assert "and0(AND)" in text
        assert "q@209.2" in text


class TestTimingMargins:
    def test_requires_recorded_trace(self):
        sim = figure12_sim(record=False)
        with pytest.raises(PylseError, match="record=True"):
            timing_margins(sim)

    def test_figure12_worst_setup_slack(self):
        """B at 185 vs CLK at 200 is the tightest setup: 200-185-2.8."""
        sim = figure12_sim()
        records = timing_margins(sim)
        setups = [r for r in records if not math.isinf(r.setup_slack)]
        tightest = min(setups, key=lambda r: r.setup_slack)
        assert tightest.setup_slack == pytest.approx(12.2)
        assert tightest.port == "clk"

    def test_simultaneous_pulses_have_zero_hold_slack(self):
        """A and B both at 225: the second dispatch has zero hold margin."""
        sim = figure12_sim()
        records = timing_margins(sim)
        zero_hold = [r for r in records if r.hold_slack == 0.0]
        assert any(r.time == 225.0 for r in zero_hold)

    def test_unconstrained_cells_have_infinite_slack(self):
        with fresh_circuit() as circuit:
            a = inp_at(10.0, 30.0, name="A")
            jtl(a, name="Q")
        sim = Simulation(circuit)
        sim.simulate(record=True)
        records = timing_margins(sim)
        assert all(math.isinf(r.setup_slack) for r in records)
        # Hold: the second pulse vs tau_done of the first (tt = 0): finite.
        assert records[0].hold_slack == 10.0   # first pulse vs initial 0.0

    def test_slack_predicts_violation_boundary(self):
        """Shrinking the gap by more than the reported slack violates."""
        def run(b_first: float):
            with fresh_circuit() as circuit:
                a = inp_at(30.0, name="A")
                clk = inp_at(50.0, name="CLK")
                b = inp_at(b_first, name="B")
                del b
                dro(a, clk, name="Q")
            sim = Simulation(circuit)
            sim.simulate(record=True)
            return sim

        sim = run(5.0)
        records = timing_margins(sim)
        setup = min(r.setup_slack for r in records)
        assert setup == pytest.approx(50.0 - 30.0 - 1.2)   # DRO setup 1.2
        # Moving the data pulse later by exactly the slack is still legal...
        with fresh_circuit() as circuit:
            a = inp_at(30.0 + setup, name="A")
            clk = inp_at(50.0, name="CLK")
            dro(a, clk, name="Q")
        Simulation(circuit).simulate()      # no exception
        # ...but any further is a violation.
        with fresh_circuit() as circuit:
            a = inp_at(30.0 + setup + 0.1, name="A")
            clk = inp_at(50.0, name="CLK")
            dro(a, clk, name="Q")
        with pytest.raises(PylseError):
            Simulation(circuit).simulate()

    def test_replays_seeded_tie_break_order(self):
        """A seeded run breaks the a/rst tie from its counter stream.

        At seeds 3-5 the DRO_SR takes rst, then a, so Q fires on clk; the
        margins must describe that run, not declaration order's a, rst.
        """
        with fresh_circuit() as circuit:
            a = inp_at(10.0, name="A")
            rst = inp_at(10.0, name="RST")
            clk = inp_at(60.0, name="CLK")
            dro_sr(a, rst, clk, name="Q")
        sim = Simulation(circuit)
        events = sim.simulate(seed=3, record=True)
        assert events["Q"] == [65.3]
        records = timing_margins(sim)
        assert [(r.port, r.transition_id) for r in records] == [
            ("rst", 1), ("a", 0), ("clk", 5),
        ]
        assert sim.trace[0].order == ("rst", "a")


class TestReports:
    def test_worst_slacks_per_node(self):
        sim = figure12_sim()
        worst = worst_slacks(timing_margins(sim))
        assert set(worst) == {"and0"}
        assert worst["and0"].worst == 0.0     # the simultaneous 225 pair

    def test_slack_report_text(self):
        sim = figure12_sim()
        text = slack_report(sim)
        assert "timing slack report" in text
        assert "worst slack" in text

    def test_report_without_constraints(self):
        with fresh_circuit() as circuit:
            a = inp_at(10.0, name="A")
            jtl(a, name="Q")
        sim = Simulation(circuit)
        sim.simulate(record=True)
        text = slack_report(sim)
        assert "timing slack report" in text
