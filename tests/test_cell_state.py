"""Placed cells are immutable: a run's machine state lives in the drain.

A ``Transitional`` instance is a (class, overrides) value around a shared
machine, built once per key. The per-seed drain keeps each cell's
configuration ``<q, tau_done, Theta>``, its tie-break source and its
taken-transition labels for the length of one ``simulate()`` call, so no
run leaves anything behind on the circuit.
"""

import pickle
from dataclasses import dataclass

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.errors import (
    PriorInputViolation,
    PylseError,
    TransitionTimeViolation,
)
from repro.core.helpers import inp, inp_at
from repro.core.ir import compile_circuit
from repro.core.simulation import Simulation
from repro.core.timing import Distribution
from repro.core.transitional import Transitional
from repro.core.wire import Wire
from repro.designs import bitonic_sorter
from repro.obs import Observer
from repro.sfq import AND, JTL
from repro.sfq.functions import and_s, jtl


class Race(Transitional):
    """Remembers which of two equal-priority inputs it saw first."""

    name = "RACE"
    inputs = ["a", "b"]
    outputs = ["q"]
    firing_delay = 1.0
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "A", "priority": 0},
        {"src": "idle", "trigger": "b", "dst": "B", "priority": 0},
        {"src": "A", "trigger": "a", "dst": "A"},
        {"src": "A", "trigger": "b", "dst": "AB", "firing": "q"},
        {"src": "B", "trigger": "b", "dst": "B"},
        {"src": "B", "trigger": "a", "dst": "BA", "firing": "q"},
        {"src": "AB", "trigger": ["a", "b"], "dst": "AB"},
        {"src": "BA", "trigger": ["a", "b"], "dst": "BA"},
    ]


class Busy(Transitional):
    """``a`` outranks ``b`` and opens a 2.0 transition window."""

    name = "BUSY"
    inputs = ["a", "b"]
    outputs = ["q"]
    firing_delay = 1.0
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "armed",
         "transition_time": 2.0, "firing": "q", "priority": 0},
        {"src": "idle", "trigger": "b", "dst": "idle", "priority": 1},
        {"src": "armed", "trigger": ["a", "b"], "dst": "idle", "priority": 0},
    ]


class Which(Transitional):
    """Reports on ``ab`` or ``ba`` which of two equal-priority inputs came
    first, then starts over."""

    name = "WHICH"
    inputs = ["a", "b"]
    outputs = ["ab", "ba"]
    firing_delay = 1.0
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "A", "priority": 0},
        {"src": "idle", "trigger": "b", "dst": "B", "priority": 0},
        {"src": "A", "trigger": "a", "dst": "A"},
        {"src": "A", "trigger": "b", "dst": "idle", "firing": "ab"},
        {"src": "B", "trigger": "b", "dst": "B"},
        {"src": "B", "trigger": "a", "dst": "idle", "firing": "ba"},
    ]


class Toggle(Transitional):
    """Fires on every second ``a``."""

    name = "TOGGLE"
    inputs = ["a"]
    outputs = ["q"]
    firing_delay = 3.0
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "set"},
        {"src": "set", "trigger": "a", "dst": "idle", "firing": "q"},
    ]


def place(cell, times_a, times_b):
    with fresh_circuit() as circuit:
        circuit.add_node(
            cell, [inp_at(*times_a, name="A"), inp_at(*times_b, name="B")],
            [Wire("Q")],
        )
    return circuit


def bitonic8():
    times = (20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0)
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(times)]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(8)])
    return circuit


def figure13():
    """The quickstart's setup violation: B arrives 1 ps before CLK."""
    with fresh_circuit() as circuit:
        and_s(
            inp_at(125, 175, 225, 275, name="A"),
            inp_at(99, 185, 225, 265, name="B"),
            inp(start=50, period=50, n=6, name="CLK"),
            name="Q",
        )
    return circuit


class TestRunsLeaveNoState:
    @pytest.mark.parametrize("factory", [bitonic8, figure13])
    def test_compiled_circuit_pickles_identically_across_runs(self, factory):
        circuit = factory()
        before = pickle.dumps(compile_circuit(circuit))
        runs = [
            lambda sim: sim.simulate(variability={"stddev": 0.5}, seed=3),
            lambda sim: sim.simulate(observer=Observer()),
            lambda sim: sim.simulate(record=True, seed=5),
            lambda sim: sim.simulate(),
        ]
        for run in runs:
            try:
                run(Simulation(circuit))
            except PriorInputViolation:
                assert factory is figure13
            # The runs built and read the dispatch plan; it never travels.
            assert "plan" in compile_circuit(circuit)._cache
            assert pickle.dumps(compile_circuit(circuit)) == before

    def test_violating_run_repeats_exactly(self):
        """A run that dies mid-design leaves no half-stepped cell behind:
        the next run of the same circuit fails at the same pulse."""
        circuit = figure13()
        messages = []
        for _ in range(2):
            with pytest.raises(PriorInputViolation) as caught:
                Simulation(circuit).simulate()
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "last seen at 99" in messages[0]


class TestTieBreak:
    def trace_outcomes(self, **options):
        outcomes = set()
        for seed in range(16):
            sim = Simulation(place(Race(), [5.0], [5.0]))
            sim.simulate(record=True, seed=seed, **options)
            (entry,) = sim.trace
            assert entry.state_before == "idle"
            outcomes.add(entry.state_after)
        return outcomes

    def test_unseeded_tie_follows_input_order(self):
        sim = Simulation(place(Race(), [5.0], [5.0]))
        sim.simulate(record=True)
        (entry,) = sim.trace
        assert (entry.state_before, entry.state_after) == ("idle", "AB")
        assert entry.fired == (("q", 6.0),)

    def test_seeded_ties_take_both_orders(self):
        assert self.trace_outcomes() == {"AB", "BA"}

    def test_noisy_ties_draw_the_counter_stream(self):
        assert self.trace_outcomes(variability={"stddev": 0.1}) == {
            "AB", "BA",
        }

    def test_one_seed_one_stream(self):
        """A seeded nominal run breaks ties from the seed's counter streams,
        exactly as the same seed's zero-noise run does."""
        times = [5.0, 20.0, 35.0]
        with fresh_circuit() as circuit:
            circuit.add_node(
                Which(), [inp_at(*times, name="A"), inp_at(*times, name="B")],
                [Wire("AB"), Wire("BA")],
            )
        outcomes = set()
        for seed in range(32):
            events = Simulation(circuit).simulate(seed=seed)
            assert events == Simulation(circuit).simulate(
                variability={"stddev": 0.0}, seed=seed
            )
            outcomes.add((tuple(events["AB"]), tuple(events["BA"])))
        assert len(outcomes) >= 2

    def test_same_seed_same_choice(self):
        def run():
            sim = Simulation(place(Race(), [5.0, 9.0], [5.0, 9.0]))
            sim.simulate(record=True, seed=11, variability={"stddev": 0.1})
            return [entry.state_after for entry in sim.trace]

        assert run() == run()


class TestViolationMidGroup:
    def expected_message(self):
        machine = Busy().machine
        with pytest.raises(TransitionTimeViolation) as caught:
            machine.dispatch(machine.initial_configuration(), ["a", "b"], 5.0)
        return str(caught.value)

    def test_second_step_of_a_group_violates(self):
        """``a`` steps first and opens its transition window; ``b`` in
        the same group then violates it, with the formal semantics'
        message."""
        message = self.expected_message()
        assert "still transitioning into state 'armed'" in message
        with pytest.raises(TransitionTimeViolation) as caught:
            Simulation(place(Busy(), [5.0], [5.0])).simulate(record=True)
        assert str(caught.value).endswith("\n" + message)

    def test_observed_violation_carries_chain(self):
        observer = Observer()
        with pytest.raises(TransitionTimeViolation) as caught:
            Simulation(place(Busy(), [5.0], [5.0])).simulate(observer=observer)
        assert self.expected_message() in str(caught.value)
        assert caught.value.provenance


@dataclass(eq=True)
class Unhashable(Distribution):
    """A user distribution with value equality and no hash."""

    value: float


class TestMachineLookup:
    def test_one_machine_per_key(self):
        assert JTL(firing_delay=2.0).machine is JTL(firing_delay=2.0).machine
        assert JTL(firing_delay=2.0).machine is not JTL().machine
        assert (
            AND(transition_time={("idle", "clk"): 1.0}).machine
            is AND(transition_time={("idle", "clk"): 1.0}).machine
        )

    def test_int_and_float_overrides_key_apart(self):
        assert JTL(firing_delay=2).machine is not JTL(firing_delay=2.0).machine

    @pytest.mark.parametrize("override,message", [
        ({"firing_delay": [1.0]}, r"JTL: invalid firing_delay value \[1\.0\]"),
        ({"firing_delay": {"q": [1.0]}},
         r"JTL: invalid firing_delay value \[1\.0\]"),
        ({"firing_delay": "2"}, r"JTL: transition 0 output 'q': .*got '2'"),
        ({"firing_delay": Unhashable(2.0)},
         r"JTL: invalid firing_delay value Unhashable\(value=2\.0\)"),
        ({"transition_time": {("idle", "a"): [1.0]}},
         r"JTL: invalid transition_time value \[1\.0\]"),
    ], ids=["list", "dict-of-list", "string", "custom-distribution",
            "transition-time-list"])
    def test_invalid_override_rejected(self, override, message):
        """An override that is not a delay fails with the cell's name and
        the value; every valid override keys the machine cache."""
        with pytest.raises(PylseError, match=message):
            JTL(**override)

    def test_jjs_override_is_per_instance(self):
        small, plain = JTL(jjs=1), JTL()
        assert small.machine is plain.machine
        assert (small.jjs, plain.jjs) == (1, JTL.jjs)

    @pytest.mark.parametrize("extra", [{}, {"firing_delay": 9.0}])
    def test_machine_named_after_name_override(self, extra):
        cell = AND(name_override="X", **extra)
        assert cell.name == cell.machine.name == "X"
        with fresh_circuit() as circuit:
            circuit.add_node(
                cell,
                [inp_at(10.0), inp_at(99.0), inp(start=50, period=50, n=2)],
                [Wire("Q")],
            )
        with pytest.raises(PriorInputViolation, match="on FSM 'X'"):
            Simulation(circuit).simulate()

    def test_placement_keeps_jtl_helper_output(self):
        with fresh_circuit():
            a = inp_at(1.0, name="A")
            jtl(jtl(a, firing_delay=2.0), firing_delay=2.0, name="Q")
            assert Simulation().simulate()["Q"] == [5.0]

    @pytest.mark.parametrize("inputs,outputs,message", [
        (["a", "a"], ["q"], "X: duplicate input port 'a'"),
        (["a", ""], ["q"], "X: input port names must be non-empty"),
        (["a"], ["a"], r"X: ports \['a'\] are both inputs and outputs"),
    ])
    def test_port_checks_name_the_override(self, inputs, outputs, message):
        bad = type("Bad", (Transitional,), {
            "name": "BAD", "inputs": inputs, "outputs": outputs,
            "transitions": Toggle.transitions,
        })
        with pytest.raises(PylseError, match=message):
            bad(name_override="X")

    def test_repr_names_the_cell(self):
        assert repr(JTL()) == "JTL('JTL')"
        assert repr(AND(name_override="X")) == "AND('X')"

