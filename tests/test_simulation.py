"""Tests for the discrete-event simulator (Section 4.3)."""

import random as stdlib_random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import fresh_circuit, working_circuit
from repro.core.errors import (
    PriorInputViolation,
    PylseError,
    SimulationError,
    TransitionTimeViolation,
)
from repro.core.functional import hole
from repro.core.helpers import inp, inp_at
from repro.core.ir import compile_circuit
from repro.core.simulation import Simulation, render_waveforms
from repro.core.transitional import Transitional
from repro.core.wire import Wire
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.sfq import JTL, M, S, and_s, c, dro, jtl, m, s


class TestBasics:
    def test_events_include_inputs_and_outputs(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate()
        assert events["A"] == [10.0]
        assert events["Q"] == [15.0]

    def test_anonymous_wires_keyed_by_auto_name(self):
        a = inp_at(10.0, name="A")
        q = jtl(a)
        events = Simulation().simulate()
        assert events[q.name] == [15.0]

    def test_pulses_processed_counter(self):
        a = inp_at(10.0, 20.0, name="A")
        jtl(a, name="Q")
        sim = Simulation()
        sim.simulate()
        assert sim.pulses_processed == 2

    def test_simulation_is_repeatable(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        sim = Simulation()
        first = sim.simulate()
        second = sim.simulate()
        assert first == second

    def test_until_cuts_off_processing(self):
        a = inp_at(10.0, 100.0, name="A")
        jtl(a, name="Q")
        events = Simulation().simulate(until=50.0)
        assert events["Q"] == [15.0]

    def test_plot_requires_simulation(self):
        inp_at(10.0, name="A")
        with pytest.raises(PylseError, match="simulate"):
            Simulation().plot()

    def test_empty_circuit_rejected(self):
        with pytest.raises(PylseError, match="empty"):
            Simulation().simulate()


class TestSemantics:
    def test_figure12_and_gate(self):
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        events = Simulation().simulate()
        assert events["Q"] == [209.2, 259.2, 309.2]

    def test_figure13_error_message(self):
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(99, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
        with pytest.raises(PriorInputViolation) as exc:
            Simulation().simulate()
        message = str(exc.value)
        assert "Error while sending input(s) 'clk'" in message
        assert "transition '7'" in message
        assert "It was last seen at 99.0" in message

    def test_transition_time_violation_detected(self):
        a = inp_at(30.0, name="A")
        clk = inp_at(31.0, name="CLK")  # inside the 2.5 ps hold window? no:
        # DRO hold starts when clk arrives; send a second 'a' pulse inside it.
        a2 = None
        dro(a, clk, name="Q")
        del a2
        with pytest.raises(PriorInputViolation):
            Simulation().simulate()

    def test_hold_window_violation(self):
        a = inp_at(30.0, 51.0, name="A")   # 51 is inside clk@50's 2.5 hold
        clk = inp_at(50.0, name="CLK")
        dro(a, clk, name="Q")
        with pytest.raises(TransitionTimeViolation):
            Simulation().simulate()

    def test_simultaneous_inputs_on_one_cell(self):
        a = inp_at(50.0, name="A")
        b = inp_at(50.0, name="B")
        c(a, b, name="Q")               # both arrive at once: C element fires
        events = Simulation().simulate()
        assert events["Q"] == [62.0]

    def test_merger_passes_everything(self):
        a = inp_at(10.0, 30.0, name="A")
        b = inp_at(20.0, name="B")
        m(a, b, name="Q")
        events = Simulation().simulate()
        assert events["Q"] == [18.2, 28.2, 38.2]

    def test_deep_chain_accumulates_delay(self):
        w = inp_at(0.0, name="A")
        for _ in range(10):
            w = jtl(w)
        w.observe("Q")
        events = Simulation().simulate()
        assert events["Q"] == [50.0]

    def test_splitter_fans_out_both_sides(self):
        a = inp_at(10.0, name="A")
        left, right = s(a, names="L R")
        del left, right
        events = Simulation().simulate()
        assert events["L"] == [21.0]
        assert events["R"] == [21.0]


class TestFeedbackLoop:
    def test_ring_needs_until(self):
        """A pulse circulating in a merger+splitter ring runs forever;
        the ``until`` horizon bounds it (the paper's loop use case)."""
        a = inp_at(10.0, name="A")
        circuit = working_circuit()
        from repro.core.wire import Wire
        from repro.sfq import M, S

        loop_back = Wire("loop")
        merged = Wire("merged")
        circuit.add_node(M(), [a, loop_back], [merged])
        out = Wire("OUT")
        circuit.add_node(S(), [merged], [out, loop_back])
        events = Simulation().simulate(until=100.0)
        assert len(events["OUT"]) >= 4          # one lap every 19.2 ps
        laps = [t2 - t1 for t1, t2 in zip(events["OUT"], events["OUT"][1:])]
        assert all(abs(lap - 19.2) < 1e-9 for lap in laps)


class TestRenderWaveforms:
    def test_render_contains_all_series(self):
        text = render_waveforms({"A": [1.0, 2.0], "B": []}, width=20)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("A")
        assert "2 pulses" in lines[0]
        assert "no pulses" in lines[1]

    def test_render_marks_pulses(self):
        text = render_waveforms({"A": [0.0, 100.0]}, width=10)
        row = text.splitlines()[0]
        assert row.count("|") == 2

    def test_plot_returns_rendering(self, capsys):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        sim = Simulation()
        sim.simulate()
        rendering = sim.plot()
        captured = capsys.readouterr()
        assert rendering in captured.out
        assert "A" in rendering and "Q" in rendering


# ----------------------------------------------------------------------
# Pure-delay hops: folded at the push, fired statelessly at the pop
# ----------------------------------------------------------------------
def _outcome(circuit, **kwargs):
    """A run's events (or its error: type, message, node), activity and
    pulse count."""
    sim = Simulation(circuit)
    try:
        result = sim.simulate(**kwargs)
    except SimulationError as err:
        result = (type(err), str(err), getattr(err, "node", None))
    return result, sim.activity, sim.pulses_processed


def assert_matches_record(circuit, **kwargs):
    """The plain run equals the ``record=True`` run, which dispatches
    every hop from the heap; returns the plain outcome."""
    plain = _outcome(circuit, **kwargs)
    assert plain == _outcome(circuit, record=True, **kwargs)
    return plain


@pytest.fixture
def fold_runs(monkeypatch):
    """The ``fold`` flag of every run attempt ``simulate()`` makes."""
    calls = []
    original = Simulation._run

    def spy(self, *args, fold):
        calls.append(fold)
        return original(self, *args, fold=fold)

    monkeypatch.setattr(Simulation, "_run", spy)
    return calls


class Stagger(Transitional):
    """Fires ``q`` after 7, 3, then 3 ps, cycling: a root whose delay on
    one port differs by transition."""

    name = "STAGGER"
    inputs = ["a"]
    outputs = ["q"]
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "one", "firing": {"q": 7.0}},
        {"src": "one", "trigger": "a", "dst": "two", "firing": {"q": 3.0}},
        {"src": "two", "trigger": "a", "dst": "idle", "firing": {"q": 3.0}},
    ]


def _ring(circuit):
    """A pulse from A circulating M -> S -> JTL -> JTL -> M forever."""
    loop_back = Wire("loop")
    merged = Wire("merged")
    circuit.add_node(M(), [circuit.find_wire("A"), loop_back], [merged])
    split = Wire("split")
    circuit.add_node(S(), [merged], [split, Wire("OUT")])
    circuit.add_node(JTL(), [jtl(split)], [loop_back])


class TestPureDelayFold:
    def test_pure_delay_cells(self):
        left, right = s(inp_at(10.0, name="A"))
        m(jtl(left, firing_delay=0.0), jtl(right))
        compiled = compile_circuit(working_circuit())
        kinds = sorted(
            compiled.nodes[i].element.name for i in compiled.pure_delay
        )
        # The zero-delay JTL and the merger are not pure delays.
        assert kinds == ["JTL", "S"]

    def test_plain_and_seeded_nominal_runs_fold(self, fold_runs):
        a = inp_at(10.0, 40.0, name="A")
        left, right = s(a)
        jtl(jtl(left), name="L")
        jtl(right, name="R")
        circuit = working_circuit()
        events, activity, _ = assert_matches_record(circuit)
        assert events["L"] == [31.0, 61.0] and events["R"] == [26.0, 56.0]
        assert activity["s0"] == [2, 4]
        assert_matches_record(circuit, seed=7)
        # Folded twice; record runs and noisy runs never fold.
        assert fold_runs == [True, False, True, False]
        fold_runs.clear()
        Simulation(circuit).simulate(variability={"stddev": 0.5}, seed=1)
        assert fold_runs == [False]

    def test_duplicate_input_times_into_a_splitter(self, fold_runs):
        a = inp_at(10.0, 10.0, 30.0, name="A")
        left, _right = s(a)
        jtl(jtl(left), name="L")
        events, activity, processed = assert_matches_record(working_circuit())
        assert events["L"] == [31.0, 51.0]
        assert activity["s0"] == [2, 4] and processed == 6
        assert fold_runs[0] is True

    def test_merger_firing_twice_in_a_group_feeds_a_splitter(self, fold_runs):
        """Both merger inputs at one instant fire ``q`` twice at 18.2; the
        splitter takes one pulse, as the heap's group would give it."""
        merged = m(inp_at(10.0, name="A"), inp_at(10.0, name="B"))
        left, right = s(merged)
        jtl(left, name="L")
        jtl(jtl(right), name="R")
        events, activity, _ = assert_matches_record(working_circuit())
        assert activity["m0"] == [2, 2]
        assert activity["s0"] == [1, 2]
        assert events["L"] == [34.2] and events["R"] == [39.2]
        assert fold_runs == [True, False]

    @pytest.mark.parametrize("until", [15.0, 16.0, 21.0, 36.0, 41.0, 60.0])
    def test_until_cuts_a_splitter_and_jtl_chain(self, until):
        """Horizons on hop times and between them: a hop folds only up to
        ``until``, as the heap dispatches only groups up to it."""
        w = inp_at(0.0, 20.0, name="A")
        left, _right = s(w)
        for _ in range(4):
            left = jtl(left)
        left.observe("Q")
        assert_matches_record(working_circuit(), until=until)

    def test_zero_firing_delay_override(self, fold_runs):
        """A zero delay neither makes a pure-delay cell nor feeds a fold."""
        merged = m(inp_at(10.0, name="A"), inp_at(10.0, name="B"),
                   firing_delay=0.0)
        left, right = s(merged)
        jtl(jtl(left, firing_delay=0.0), name="L")
        jtl(right, name="R")
        events, activity, _ = assert_matches_record(working_circuit())
        assert activity["s0"] == [1, 2]
        assert events["L"] == [26.0]
        assert fold_runs[0] is True

    def test_root_delay_differing_by_transition(self, fold_runs):
        """Arrivals 7, 5, 7 from a root whose delay on ``q`` varies: the
        heap collapses nothing here, and the splitter must not fold (a
        last-arrival check would see no duplicate and no order)."""
        circuit = working_circuit()
        staggered = Wire("staggered")
        circuit.add_node(
            Stagger(), [inp_at(0.0, 2.0, 4.0, 4.0, name="A")], [staggered]
        )
        left, _right = s(staggered)
        jtl(left, name="L")
        events, activity, _ = assert_matches_record(circuit)
        assert events["staggered"] == [5.0, 7.0, 7.0]
        assert activity["s0"] == [2, 4]
        assert events["L"] == [21.0, 23.0]
        assert fold_runs == [True, False]

    def test_jtl_ring_hits_max_pulses(self, fold_runs):
        circuit = working_circuit()
        inp_at(10.0, name="A")
        _ring(circuit)
        error, _activity, _processed = assert_matches_record(
            circuit, max_pulses=40
        )
        assert error[0] is SimulationError and "exceeded 40 pulses" in error[1]
        # The folded attempt overflowed; the unfolded run's error stands.
        assert fold_runs == [True, False, False]
        events, _activity, _processed = assert_matches_record(
            circuit, until=300.0
        )
        assert len(events["OUT"]) > 5

    @pytest.mark.parametrize("limit", [3, 4, 5, 6, 7])
    def test_max_pulses_at_the_boundary(self, limit):
        """The heap overflows when a group starts at the limit; a fold
        that only reaches it there defers to the heap's count."""
        merged = m(inp_at(10.0, name="A"), inp_at(10.0, name="B"))
        jtl(jtl(merged), name="Q")
        assert_matches_record(working_circuit(), max_pulses=limit)

    def test_max_pulses_when_the_folded_order_ends_elsewhere(self):
        """The heap's last dispatch is a late one-pulse hop, the folded
        run's last a two-pulse merger group: at a limit of all pulses but
        one, the heap overflows and so must the run."""
        left, _right = s(inp_at(0.0, name="A"))
        for _ in range(30):
            left = jtl(left)
        m(inp_at(100.0, name="B"), inp_at(100.0, name="C"), name="Q")
        circuit = working_circuit()
        _events, _activity, total = assert_matches_record(circuit)
        for limit in (total - 2, total - 1, total):
            assert_matches_record(circuit, max_pulses=limit)
        error, _activity, _processed = _outcome(circuit, max_pulses=total - 1)
        assert error[0] is SimulationError

    def test_max_pulses_stops_a_fold_at_the_hop(self, monkeypatch):
        """The limit is checked at every folded hop, so an expansion past
        it stops there instead of running out its whole tree."""
        w = inp_at(0.0, name="A")
        for _ in range(200):
            w = jtl(w)
        counts = []
        original = Simulation._run

        def spy(self, *args, fold):
            try:
                return original(self, *args, fold=fold)
            finally:
                dispatched = sum(n for n, _ in self.activity.values())
                counts.append((fold, dispatched))

        monkeypatch.setattr(Simulation, "_run", spy)
        with pytest.raises(SimulationError, match="exceeded 10 pulses"):
            Simulation(working_circuit()).simulate(max_pulses=10)
        assert counts == [(True, 10), (False, 10)]

    def test_setup_violation_downstream_of_a_splitter_tree(self, fold_runs):
        clk = inp_at(50.0, 100.0, name="CLK")
        c1, c2 = s(clk)
        c1a, c1b = s(c1)
        and_s(inp_at(60.0, name="A1"), inp_at(60.0, name="B1"), c1a,
              name="Q1")
        # B2 lands inside Q2's setup window before the second clock
        # (100 + 2 * 11 = 122 ps).
        and_s(inp_at(60.0, name="A2"), inp_at(60.0, 121.0, name="B2"), c1b,
              name="Q2")
        jtl(c2, name="C2")
        error, _activity, _processed = assert_matches_record(
            working_circuit()
        )
        assert error[0] is PriorInputViolation
        assert error[2] == "and1"
        # Folded, started over unfolded, then the record run.
        assert fold_runs == [True, False, False]

    def test_float_absorption_runs_unfolded(self, fold_runs):
        """At 1e17 a 5 ps JTL adds nothing: the hop would not land later
        than the dispatch feeding it, so the run starts over unfolded."""
        left, _right = s(inp_at(1e17, name="A"))
        jtl(jtl(left), name="L")
        events, _activity, _processed = assert_matches_record(
            working_circuit()
        )
        assert events["L"] == [1e17 + 16.0]
        assert fold_runs == [True, False, False]


@pytest.mark.parametrize("entry", registry(), ids=lambda entry: entry.name)
def test_registry_design_matches_record(entry):
    """Every registry design, plain and seeded: events (anonymous wires
    included), activity and pulse count equal the record-mode run's."""
    circuit = build_in_fresh_circuit(entry)
    for kwargs in ({}, {"seed": 11}):
        assert_matches_record(circuit, **kwargs)


@hole(delay=4.0, inputs=["a", "b"], outputs=["q"])
def _or_hole(a, b, time):
    return a or b


#: Cells of the fold suite, splitters and JTLs weighted up. ``jtl0`` is a
#: JTL with a random delay, zero included; ``stagger`` a root whose delay
#: varies by transition.
FOLD_KINDS = (
    "s", "s", "s", "jtl", "jtl", "jtl0", "m", "c", "and", "dro", "stagger",
)


def build_fold_circuit(seed: int, n_inputs: int, n_cells: int,
                       spacing: float, holes: bool, ring: bool):
    """A random S/JTL-rich circuit whose inputs pulse up to three times
    on a coarse grid, so pulses coincide and, at small ``spacing``, land
    inside setup and hold windows."""
    rng = stdlib_random.Random(seed)
    kinds = FOLD_KINDS + (("hole",) if holes else ())
    with fresh_circuit() as circuit:
        pool = [
            inp_at(*sorted(40.0 + spacing * rng.randrange(5)
                           for _ in range(rng.randint(1, 3))),
                   name=f"in{k}")
            for k in range(n_inputs)
        ]
        if ring:
            loop_back = Wire("loop")
            merged = Wire("merged")
            circuit.add_node(M(), [pool.pop(0), loop_back], [merged])
            split = Wire("split")
            circuit.add_node(S(), [merged], [split, Wire("ring_out")])
            circuit.add_node(JTL(), [jtl(split)], [loop_back])
            pool.append(inp_at(45.0, name="refill"))
        for _ in range(n_cells):
            kind = rng.choice(kinds)
            needs = {"m": 2, "c": 2, "hole": 2, "dro": 2, "and": 3}
            if len(pool) < needs.get(kind, 1):
                kind = "s"
            if kind == "s":
                pool += list(s(pool.pop(rng.randrange(len(pool)))))
            elif kind in ("jtl", "jtl0"):
                wire = pool.pop(rng.randrange(len(pool)))
                if kind == "jtl0":
                    pool.append(jtl(wire, firing_delay=rng.choice(
                        (0.0, 0.5, 2.0, 5.0))))
                else:
                    pool.append(jtl(wire))
            elif kind == "stagger":
                out = Wire(f"stagger{len(circuit.nodes)}")
                circuit.add_node(
                    Stagger(), [pool.pop(rng.randrange(len(pool)))], [out]
                )
                pool.append(out)
            else:
                args = [pool.pop(rng.randrange(len(pool)))
                        for _ in range(needs[kind])]
                builder = {"m": m, "c": c, "and": and_s, "dro": dro,
                           "hole": _or_hole}[kind]
                pool.append(builder(*args))
        for k, wire in enumerate(pool):
            wire.observe(f"out{k}")
    return circuit


FOLD_RUNS = st.sampled_from([
    {}, {"seed": 3}, {"until": 70.0}, {"seed": 5, "until": 90.0},
    {"max_pulses": 12},
])


class TestFoldProperty:
    @given(
        seed=st.integers(0, 100_000),
        n_inputs=st.integers(1, 5),
        n_cells=st.integers(1, 16),
        spacing=st.sampled_from([1.0, 2.0, 5.0, 20.0]),
        holes=st.booleans(),
        ring=st.booleans(),
        kwargs=FOLD_RUNS,
    )
    @settings(max_examples=150, deadline=None)
    def test_plain_run_matches_record(self, seed, n_inputs, n_cells,
                                      spacing, holes, ring, kwargs):
        circuit = build_fold_circuit(seed, n_inputs, n_cells, spacing,
                                     holes, ring)
        if ring and "until" not in kwargs:
            kwargs = dict(kwargs, until=150.0)
        assert_matches_record(circuit, **kwargs)

    def test_suite_reaches_folds_and_errors(self, monkeypatch):
        """The generator's cases fold, start over and violate: a fixed
        sample over seeds finds each outcome at least once."""
        attempts = []
        original = Simulation._run

        def spy(self, *args, fold):
            attempts.append(fold)
            return original(self, *args, fold=fold)

        monkeypatch.setattr(Simulation, "_run", spy)
        errors = restarts = folded = 0
        for seed in range(60):
            circuit = build_fold_circuit(seed, 4, 12, 2.0, False, False)
            attempts.clear()
            outcome = assert_matches_record(circuit)
            errors += isinstance(outcome[0], tuple)
            folded += attempts[0]
            # The plain run's two attempts, then the record run.
            restarts += len(attempts) == 3
        assert errors and restarts and folded > errors
