"""Tests for the Cell Definition level: dict parsing and well-formedness."""

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.errors import WellFormednessError
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.core.transitional import Transitional, parse_transitions
from repro.core.wire import Wire
from repro.sfq import AND, SFQ


class Toggle(Transitional):
    name = "TOGGLE"
    inputs = ["a"]
    outputs = ["q"]
    firing_delay = 3.0
    transitions = [
        {"src": "idle", "trigger": "a", "dst": "set"},
        {"src": "set", "trigger": "a", "dst": "idle", "firing": "q"},
    ]


class TestParsing:
    def test_trigger_list_expands(self):
        parsed = parse_transitions(
            "X", ["q"],
            [
                {"src": "idle", "trigger": ["a", "b"], "dst": "idle",
                 "firing": {"q": 1.0}},
            ],
        )
        assert [(t.trigger, t.id) for t in parsed] == [("a", 0), ("b", 1)]
        assert all(t.priority == 0 for t in parsed)  # same raw index

    def test_priority_defaults_to_listing_order(self):
        parsed = parse_transitions(
            "X", ["q"],
            [
                {"src": "idle", "trigger": "a", "dst": "x", "firing": {"q": 1}},
                {"src": "idle", "trigger": "b", "dst": "y"},
            ],
        )
        assert parsed[0].priority == 0
        assert parsed[1].priority == 1

    def test_explicit_priority_wins(self):
        parsed = parse_transitions(
            "X", ["q"],
            [{"src": "i", "trigger": "a", "dst": "i", "priority": 7,
              "firing": {"q": 1}}],
        )
        assert parsed[0].priority == 7

    def test_firing_string_uses_default_delay(self):
        parsed = parse_transitions(
            "X", ["q"],
            [{"src": "i", "trigger": "a", "dst": "i", "firing": "q"}],
            firing_delay=4.5,
        )
        assert parsed[0].firing == {"q": 4.5}

    def test_firing_list_uses_default_delay(self):
        parsed = parse_transitions(
            "X", ["l", "r"],
            [{"src": "i", "trigger": "a", "dst": "i", "firing": ["l", "r"]}],
            firing_delay=2.0,
        )
        assert parsed[0].firing == {"l": 2.0, "r": 2.0}

    def test_firing_dict_gives_explicit_delays(self):
        parsed = parse_transitions(
            "X", ["q"],
            [{"src": "i", "trigger": "a", "dst": "i", "firing": {"q": 9.9}}],
        )
        assert parsed[0].firing == {"q": 9.9}

    def test_per_output_delay_dict(self):
        parsed = parse_transitions(
            "X", ["l", "r"],
            [{"src": "i", "trigger": "a", "dst": "i", "firing": ["l", "r"]}],
            firing_delay={"l": 1.0, "r": 2.0},
        )
        assert parsed[0].firing == {"l": 1.0, "r": 2.0}

    def test_scalar_past_constraint_becomes_wildcard(self):
        parsed = parse_transitions(
            "X", ["q"],
            [{"src": "i", "trigger": "a", "dst": "i", "firing": {"q": 1},
              "past_constraints": 2.8}],
        )
        assert parsed[0].past_constraints == {"*": 2.8}

    def test_transition_time_override_by_src_trigger(self):
        parsed = parse_transitions(
            "X", ["q"],
            [{"src": "i", "trigger": "a", "dst": "i",
              "transition_time": 1.0, "firing": {"q": 1}}],
            transition_time_overrides={("i", "a"): 7.0},
        )
        assert parsed[0].transition_time == 7.0

    def test_unrecognized_field_rejected(self):
        with pytest.raises(WellFormednessError, match="unrecognized field"):
            parse_transitions(
                "X", ["q"],
                [{"src": "i", "trigger": "a", "dst": "i", "bogus": 1}],
            )

    def test_missing_trigger_rejected(self):
        with pytest.raises(WellFormednessError, match="missing its 'trigger'"):
            parse_transitions("X", ["q"], [{"src": "i", "dst": "i"}])

    def test_firing_without_delay_source_rejected(self):
        with pytest.raises(WellFormednessError, match="no 'firing_delay'"):
            parse_transitions(
                "X", ["q"],
                [{"src": "i", "trigger": "a", "dst": "i", "firing": "q"}],
            )

    def test_delay_dict_missing_output_rejected(self):
        with pytest.raises(WellFormednessError, match="no entry for output"):
            parse_transitions(
                "X", ["l", "r"],
                [{"src": "i", "trigger": "a", "dst": "i", "firing": ["l", "r"]}],
                firing_delay={"l": 1.0},
            )

    def test_bad_priority_rejected(self):
        with pytest.raises(WellFormednessError, match="priority"):
            parse_transitions(
                "X", ["q"],
                [{"src": "i", "trigger": "a", "dst": "i", "priority": -1,
                  "firing": {"q": 1}}],
            )

    def test_empty_trigger_list_rejected(self):
        with pytest.raises(WellFormednessError, match="empty trigger"):
            parse_transitions(
                "X", ["q"], [{"src": "i", "trigger": [], "dst": "i"}]
            )


class TestTransitionalClass:
    def test_machine_shared_across_instances(self):
        assert Toggle().machine is Toggle().machine

    def test_instance_override_builds_private_machine(self):
        fast = Toggle(firing_delay=1.0)
        assert fast.machine is not Toggle().machine
        transition = fast.machine.delta("set", "a")
        assert transition.firing == {"q": 1.0}

    def test_step_advances_configuration(self):
        machine = Toggle().machine
        config = machine.initial_configuration()
        assert config.state == "idle"
        config, fired = machine.step(config, "a", 1.0)
        assert fired == []
        assert config.state == "set"
        config, fired = machine.step(config, "a", 2.0)
        assert fired == [("q", 3.0)]
        assert config.state == "idle"

    def test_runs_start_from_initial_configuration(self):
        machine = Toggle().machine
        config, outs = machine.dispatch(
            machine.initial_configuration(), ["a"], 1.0
        )
        assert (config.state, outs) == ("set", [])
        assert machine.initial_configuration().state == "idle"
        # A placed cell holds no run state: a second run of the same
        # circuit starts from idle again and fires on the same pulses.
        with fresh_circuit() as circuit:
            circuit.add_node(Toggle(), [inp_at(1.0, 2.0)], [Wire("Q")])
        sim = Simulation(circuit)
        assert sim.simulate() == sim.simulate() == {
            "Q": [5.0], "_0": [1.0, 2.0],
        }

    def test_missing_class_attribute_rejected(self):
        class Broken(Transitional):
            name = "B"
            inputs = ["a"]
            outputs = ["q"]
            # no transitions

        with pytest.raises(WellFormednessError, match="transitions"):
            Broken()

    def test_unknown_init_option_rejected(self):
        with pytest.raises(WellFormednessError, match="unknown instantiation"):
            Toggle(bogus=3)

    def test_transition_time_override_applies(self):
        slow = Toggle(transition_time={("idle", "a"): 9.0})
        assert slow.machine.delta("idle", "a").transition_time == 9.0

    @pytest.mark.parametrize("value", ["3", float("nan"), float("inf"), True])
    def test_bad_transition_time_override_rejected(self, value):
        # Each names the cell, the key and the value.
        with pytest.raises(WellFormednessError) as info:
            AND(transition_time={("idle", "clk"): value})
        message = str(info.value)
        assert message.startswith("AND:")
        assert "('idle', 'clk')" in message and repr(value) in message

    def test_transition_time_override_for_unknown_pair_rejected(self):
        with pytest.raises(WellFormednessError,
                           match=r"AND: .*\('nope', 'clk'\): 1\.0 names no"):
            AND(transition_time={("nope", "clk"): 1.0})

    def test_transition_time_overrides_must_be_a_dict(self):
        with pytest.raises(WellFormednessError, match="must be a dict"):
            AND(transition_time=3.0)

    @pytest.mark.parametrize("value", [float("nan"), True, "1"])
    def test_bad_class_transition_time_rejected(self, value):
        with pytest.raises(WellFormednessError, match="finite number") as info:
            parse_transitions(
                "X", ["q"],
                [{"src": "i", "trigger": "a", "dst": "i",
                  "transition_time": value, "firing": {"q": 1}}],
            )
        assert str(info.value).startswith("X:") and repr(value) in str(info.value)


class TestSFQ:
    def test_and_matches_figure8(self):
        cell = AND()
        machine = cell.machine
        assert machine.inputs == ("a", "b", "clk")
        assert machine.outputs == ("q",)
        assert len(machine.states) == 4
        assert len(machine.transitions) == 12
        assert AND.dsl_size() == 11
        assert cell.jjs == 11
        assert AND.firing_delay == 9.2

    def test_figure13_transition_id_is_seven(self):
        """The b_arr --clk--> idle edge must be transition 7 (Figure 13)."""
        transition = AND().machine.delta("b_arr", "clk")
        assert transition.id == 7

    def test_jjs_override(self):
        assert AND(jjs=15).jjs == 15

    def test_bad_jjs_override_rejected(self):
        with pytest.raises(WellFormednessError, match="jjs"):
            AND(jjs=-2)

    def test_bool_jjs_override_rejected(self):
        # bool is an int subclass: AND(jjs=True) would silently become
        # jjs=1 and corrupt every area/energy metric downstream.
        with pytest.raises(WellFormednessError, match="jjs"):
            AND(jjs=True)
        with pytest.raises(WellFormednessError, match="jjs"):
            AND(jjs=False)

    def test_sfq_requires_jjs(self):
        class NoJJ(SFQ):
            name = "NOJJ"
            inputs = ["a"]
            outputs = ["q"]
            firing_delay = 1.0
            transitions = [
                {"src": "idle", "trigger": "a", "dst": "idle", "firing": "q"},
            ]

        with pytest.raises(WellFormednessError, match="jjs"):
            NoJJ()

    def test_sfq_requires_firing_delay(self):
        class NoDelay(SFQ):
            name = "NOD"
            inputs = ["a"]
            outputs = ["q"]
            jjs = 2
            transitions = [
                {"src": "idle", "trigger": "a", "dst": "idle",
                 "firing": {"q": 1.0}},
            ]

        with pytest.raises(WellFormednessError, match="firing_delay"):
            NoDelay()
