"""PL4xx reachability lint: witnesses, replay grading, budgets, caching.

The contract under test:

* every PL403 finding carries a concrete witness schedule extracted from
  the zone graph, and replaying the circuit through ``Simulation.simulate``
  reproduces the violation for ``confirmed`` findings (round-trip);
* findings whose witness the replay does *not* reproduce are downgraded to
  ``possible`` (warning instead of error);
* PL402 races are graded by a seed sweep of the simulator's simultaneous
  tie-break: outcome-changing races confirm, invisible ones stay possible;
* a state budget truncates the exploration **explicitly** — ``truncated``
  plus a reason — and withholds PL401 (absence is unproven on a partial
  exploration) while keeping the findings the explored prefix did prove;
* the analysis is served from an incremental cache keyed by structural
  hash, rule subset, and budget — never by the interval rules'
  ``tolerance`` — and an analysis cut short by the wall-clock time limit
  is never cached, in memory or on disk.
"""

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.errors import SimulationError
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.core.wire import Wire
from repro.lint import (
    ReachBudget,
    Severity,
    analyze_reach,
    clear_reach_cache,
    lint_circuit,
    reach_cache_stats,
)
from repro.sfq.and_s import AND
from repro.sfq.dro_sr import DRO_SR

BUDGET = ReachBudget(max_states=8000, time_limit=30.0)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_reach_cache()
    yield
    clear_reach_cache()


def build_broken_and():
    """Figure 13's scenario: clk 1 ps after 'a', inside the 2.8 ps setup."""
    with fresh_circuit() as circuit:
        a = inp_at(30.0, name="A")
        b = inp_at(10.0, name="B")
        clk = inp_at(31.0, name="CLK")
        circuit.add_node(AND(), [a, b, clk], [Wire("OUT_q")])
    return circuit


def build_two_broken_ands():
    """Two independently broken ANDs; the replay can only raise at one."""
    with fresh_circuit() as circuit:
        circuit.add_node(
            AND(),
            [inp_at(30.0, name="A0"), inp_at(10.0, name="B0"),
             inp_at(31.0, name="CLK0")],
            [Wire("OUT0")],
        )
        circuit.add_node(
            AND(),
            [inp_at(100.0, name="A1"), inp_at(80.0, name="B1"),
             inp_at(101.0, name="CLK1")],
            [Wire("OUT1")],
        )
    return circuit


def build_racy_dro_sr(with_clk=True):
    """DRO_SR with set and reset at the same instant (equal priority)."""
    with fresh_circuit() as circuit:
        a = inp_at(30.0, name="A")
        rst = inp_at(30.0, name="RST")
        clk = inp_at(*([60.0] if with_clk else []), name="CLK")
        circuit.add_node(DRO_SR(), [a, rst, clk], [Wire("OUT_q")])
    return circuit


class TestWitnessReplayRoundTrip:
    def test_pl403_finds_confirmed_setup_violation(self):
        analysis, cached = analyze_reach(build_broken_and(), budget=BUDGET)
        assert not cached and not analysis.truncated
        kinds = {(t.kind, t.symbol, t.confidence) for t in analysis.timing}
        assert ("setup", "a", "confirmed") in kinds, analysis.timing

    def test_every_confirmed_witness_reproduces_in_simulation(self):
        """Round-trip: the witness schedule IS the circuit's schedule, and
        simulating it raises the violation at the node the finding names."""
        circuit = build_broken_and()
        analysis, _ = analyze_reach(circuit, budget=BUDGET)
        confirmed = [t for t in analysis.timing if t.confidence == "confirmed"]
        assert confirmed
        for finding in confirmed:
            # The witness's input schedule matches the elaborated InGens.
            schedule = finding.witness.schedule()
            assert schedule == {"A": [30.0], "B": [10.0], "CLK": [31.0]}
            # Zone-graph steps end in the error location at a concrete time.
            assert finding.witness.steps
            assert finding.error_location in finding.witness.steps[-1].label
            with pytest.raises(SimulationError) as exc:
                Simulation(circuit).simulate()
            # The simulator names the failing cell by its output wire.
            assert finding.node == "and0"
            assert "OUT_q" in str(exc.value)

    def test_confirmed_findings_carry_provenance_chain(self):
        analysis, _ = analyze_reach(build_broken_and(), budget=BUDGET)
        confirmed = [t for t in analysis.timing if t.confidence == "confirmed"]
        assert confirmed and all(t.provenance for t in confirmed)

    def test_unreproduced_witness_downgrades_to_possible(self):
        """The replay raises at the *first* failing node; the other cell's
        reachable error stays a finding but is graded possible."""
        analysis, _ = analyze_reach(build_two_broken_ands(), budget=BUDGET)
        by_node = {}
        for t in analysis.timing:
            by_node.setdefault(t.node, set()).add(t.confidence)
        assert set(by_node) == {"and0", "and1"}
        assert by_node["and0"] == {"confirmed"}
        assert by_node["and1"] == {"possible"}

    def test_confidence_drives_severity(self):
        report = lint_circuit(build_two_broken_ands(), reach=True,
                              reach_budget=BUDGET)
        sev = {
            (f.location.node, f.severity)
            for f in report.findings if f.rule == "PL403"
        }
        assert ("and0", Severity.ERROR) in sev
        assert ("and1", Severity.WARNING) in sev

    def test_replay_does_not_disturb_later_simulation(self):
        """The lint-time replay resets element state, so a user simulating
        the same circuit afterwards sees the untouched initial state."""
        circuit = build_broken_and()
        analyze_reach(circuit, budget=BUDGET)
        with pytest.raises(SimulationError):
            Simulation(circuit).simulate()


class TestInputOrderRaces:
    def test_pl402_confirmed_by_seed_sweep(self):
        """set/rst at the same instant, clk later: which pulse wins decides
        whether q fires — distinct outcomes across tie-break seeds."""
        analysis, _ = analyze_reach(build_racy_dro_sr(with_clk=True),
                                    budget=BUDGET)
        races = [(r.port_a, r.port_b, r.state, r.confidence)
                 for r in analysis.races]
        assert ("a", "rst", "idle", "confirmed") in races, analysis.races

    def test_pl402_possible_when_outcomes_invisible(self):
        """Without a later clk the racing branch never differs observably:
        the zone-level race is real but replay cannot confirm it."""
        analysis, _ = analyze_reach(build_racy_dro_sr(with_clk=False),
                                    budget=BUDGET)
        races = [(r.port_a, r.port_b, r.confidence) for r in analysis.races]
        assert ("a", "rst", "possible") in races, analysis.races

    def test_race_window_is_the_common_instant(self):
        analysis, _ = analyze_reach(build_racy_dro_sr(), budget=BUDGET)
        (race,) = [r for r in analysis.races if r.state == "idle"]
        assert race.window == (30.0, 30.0)

    def test_race_severity_tracks_confidence(self):
        report = lint_circuit(build_racy_dro_sr(with_clk=True), reach=True,
                              reach_budget=BUDGET)
        confirmed = [f for f in report.findings if f.rule == "PL402"]
        assert confirmed and all(
            f.severity == Severity.WARNING for f in confirmed
        )
        report = lint_circuit(build_racy_dro_sr(with_clk=False), reach=True,
                              reach_budget=BUDGET)
        possible = [f for f in report.findings if f.rule == "PL402"]
        assert possible and all(
            f.severity == Severity.INFO for f in possible
        )


class TestBudgetTruncation:
    def test_truncated_analysis_reports_reason_and_partial_results(self):
        budget = ReachBudget(max_states=5, time_limit=None)
        analysis, _ = analyze_reach(build_broken_and(), budget=budget)
        assert analysis.truncated
        assert analysis.truncation_reason == "max_states"
        assert analysis.states_explored <= 5

    def test_truncation_withholds_pl401(self):
        """A partial exploration cannot prove a transition never fires."""
        budget = ReachBudget(max_states=5, time_limit=None)
        analysis, _ = analyze_reach(build_broken_and(), budget=budget)
        assert analysis.dead == ()
        full, _ = analyze_reach(build_broken_and(), budget=BUDGET)
        assert not full.truncated and full.dead  # the full run does prove some

    def test_truncation_is_explicit_in_report(self):
        report = lint_circuit(
            build_broken_and(), reach=True,
            reach_budget=ReachBudget(max_states=5, time_limit=None),
        )
        assert report.reach["truncated"] is True
        assert report.reach["truncation_reason"] == "max_states"
        assert "truncated (max_states)" in report.render_text()

    def test_prefix_property(self):
        """A bigger budget only ever adds findings — the BFS prefix is
        stable, so CI truncation on a slow machine cannot invent a new
        finding relative to a baseline built with a larger budget."""
        keys = []
        for max_states in (10, 100, 8000):
            analysis, _ = analyze_reach(
                build_broken_and(),
                budget=ReachBudget(max_states=max_states, time_limit=None),
            )
            keys.append({
                (t.node, t.kind, t.symbol) for t in analysis.timing
            })
        assert keys[0] <= keys[1] <= keys[2]


class TestIncrementalCache:
    def test_same_structure_hits_cache(self):
        stats0 = reach_cache_stats()
        a1, cached1 = analyze_reach(build_broken_and(), budget=BUDGET)
        # A fresh, structurally identical elaboration hits the cache.
        a2, cached2 = analyze_reach(build_broken_and(), budget=BUDGET)
        stats1 = reach_cache_stats()
        assert (cached1, cached2) == (False, True)
        assert a2 is a1
        assert stats1["hits"] == stats0["hits"] + 1
        assert stats1["misses"] == stats0["misses"] + 1

    def test_budget_is_part_of_the_key(self):
        """A truncated small-budget analysis must never serve a
        larger-budget request."""
        small = ReachBudget(max_states=5, time_limit=None)
        a1, _ = analyze_reach(build_broken_and(), budget=small)
        a2, cached = analyze_reach(build_broken_and(), budget=BUDGET)
        assert not cached
        assert a1.truncated and not a2.truncated

    def test_rule_subset_is_part_of_the_key(self):
        a1, _ = analyze_reach(build_broken_and(), budget=BUDGET,
                              rules=("PL403",))
        a2, cached = analyze_reach(build_broken_and(), budget=BUDGET,
                                   rules=("PL401", "PL403"))
        assert not cached
        assert a1.timing and not a1.dead

    def test_tolerance_is_not_part_of_the_key(self):
        """``tolerance`` only tunes the interval rules (PL302); the exact
        PL4xx analysis is shared across tolerances."""
        kwargs = dict(reach=True, reach_budget=BUDGET)
        first = lint_circuit(build_broken_and(), tolerance=0.0, **kwargs)
        again = lint_circuit(build_broken_and(), tolerance=5.0, **kwargs)
        assert first.reach["cached"] is False
        assert again.reach["cached"] is True

    def test_time_limit_truncation_is_never_cached(self, tmp_path):
        """Where a wall-clock cut lands depends on machine load, not on
        the key, so such an analysis (PL401 withheld) is stored in
        neither tier."""
        budget = ReachBudget(max_states=8000, time_limit=1e-9)
        first, cached1 = analyze_reach(build_broken_and(), budget=budget,
                                       cache_dir=tmp_path)
        assert first.truncation_reason == "time_limit"
        assert first.dead == ()
        second, cached2 = analyze_reach(build_broken_and(), budget=budget,
                                        cache_dir=tmp_path)
        assert (cached1, cached2) == (False, False)
        assert second.truncation_reason == "time_limit"
        assert [p for p in (tmp_path / "lint").rglob("*") if p.is_file()] == []

    def test_max_states_truncation_is_still_cached(self, tmp_path):
        """A state-budget cut is deterministic: cached in memory and on
        disk like a completed analysis."""
        budget = ReachBudget(max_states=5, time_limit=None)
        first, cached1 = analyze_reach(build_broken_and(), budget=budget,
                                       cache_dir=tmp_path)
        assert first.truncation_reason == "max_states"
        _, cached2 = analyze_reach(build_broken_and(), budget=budget,
                                   cache_dir=tmp_path)
        assert (cached1, cached2) == (False, True)
        assert [p for p in (tmp_path / "lint").rglob("*") if p.is_file()]
        clear_reach_cache()  # a fresh process: only the disk tier remains
        from_disk, cached3 = analyze_reach(build_broken_and(), budget=budget,
                                           cache_dir=tmp_path)
        assert cached3
        assert from_disk.truncation_reason == "max_states"

    def test_report_marks_cache_hits(self):
        kwargs = dict(reach=True, reach_budget=BUDGET)
        cold = lint_circuit(build_broken_and(), **kwargs)
        warm = lint_circuit(build_broken_and(), **kwargs)
        assert cold.reach["cached"] is False
        assert warm.reach["cached"] is True
        assert [f.to_jsonable() for f in warm.findings] == [
            f.to_jsonable() for f in cold.findings
        ]

    def test_selection_changes_the_key_and_the_findings(self):
        """Ignoring a PL4xx rule narrows the analyzed subset — a different
        cache entry (the rule-set is in the key, so a narrow analysis can
        never be served for a wider request) and no PL401 findings."""
        kwargs = dict(reach=True, reach_budget=BUDGET)
        full = lint_circuit(build_broken_and(), **kwargs)
        filtered = lint_circuit(build_broken_and(), ignore="PL401", **kwargs)
        assert any(f.rule == "PL401" for f in full.findings)
        assert not any(f.rule == "PL401" for f in filtered.findings)
        assert filtered.reach["cached"] is False
        assert filtered.reach["rules"] == ["PL402", "PL403", "PL404"]
        # Same selection again: served from cache.
        again = lint_circuit(build_broken_and(), ignore="PL401", **kwargs)
        assert again.reach["cached"] is True


class TestReachLayerPlumbing:
    def test_not_requested_by_default(self):
        report = lint_circuit(build_broken_and())
        assert not report.reach and report.reach_skipped is None
        assert not any(f.rule.startswith("PL4") for f in report.findings)

    def test_skipped_without_cells(self):
        with fresh_circuit() as circuit:
            inp_at(10.0, name="A")
        report = lint_circuit(circuit, reach=True)
        assert report.reach_skipped == "no cells to analyze"
        assert "reach: skipped" in report.render_text()

    def test_structural_hash_always_on_report(self):
        report = lint_circuit(build_broken_and())
        assert report.structural_hash

    def test_deadlock_of_exhausted_schedule_not_reported(self):
        """'Good' deadlock (Section 5.3): a finished finite schedule with
        every machine at rest is expected, not a PL404 finding."""
        with fresh_circuit() as circuit:
            a = inp_at(30.0, 115.0, name="A")
            b = inp_at(65.0, 130.0, name="B")
            clk = inp_at(50.0, 100.0, 150.0, name="CLK")
            circuit.add_node(AND(), [a, b, clk], [Wire("OUT_q")])
        analysis, _ = analyze_reach(circuit, budget=BUDGET)
        assert not analysis.truncated
        assert analysis.stuck == ()
