"""Tests for the Hole Description level (Functional elements, Figure 9)."""

import pytest

from repro.core.circuit import working_circuit
from repro.core.errors import HoleError, PylseError
from repro.core.functional import Functional, hole
from repro.core.helpers import inp_at
from repro.core.simulation import Simulation
from repro.designs import make_memory
from repro.sfq import jtl


class TestFunctionalElement:
    def test_truthy_results_fire(self):
        element = Functional(lambda a, t: a, ["a"], ["q"], delay=2.0)
        assert element.handle_inputs(["a"], 5.0) == [("q", 2.0)]
        assert element.handle_inputs([], 6.0) == []

    def test_multi_output_results(self):
        element = Functional(
            lambda a, t: (1, 0), ["a"], ["x", "y"], delay={"x": 1.0, "y": 2.0}
        )
        assert element.handle_inputs(["a"], 5.0) == [("x", 1.0)]

    def test_none_result_means_no_pulses(self):
        element = Functional(lambda a, t: None, ["a"], ["q"], delay=1.0)
        assert element.handle_inputs(["a"], 5.0) == []

    def test_wrong_result_arity_rejected(self):
        element = Functional(lambda a, t: (1, 1), ["a"], ["q"], delay=1.0)
        with pytest.raises(HoleError, match="2 value"):
            element.handle_inputs(["a"], 5.0)

    def test_single_value_with_multiple_outputs_rejected(self):
        element = Functional(lambda a, t: 1, ["a"], ["x", "y"], delay=1.0)
        with pytest.raises(HoleError, match="return a sequence"):
            element.handle_inputs(["a"], 5.0)

    def test_delay_dict_must_cover_outputs(self):
        with pytest.raises(HoleError, match="missing"):
            Functional(lambda a, t: 1, ["a"], ["x", "y"], delay={"x": 1.0})

    @pytest.mark.parametrize("delay", [[1.0], {"q": "3"}, -1.0],
                             ids=["list", "dict-of-string", "negative"])
    def test_bad_delay_rejected(self, delay):
        """A hole's delay is a number, ``Normal`` or ``Uniform``; anything
        else fails at construction, naming the hole and the value."""
        with pytest.raises(PylseError, match=r"^model: output 'q': .*got"):
            Functional(lambda a, t: 1, ["a"], ["q"], delay=delay, name="model")

    def test_delay_dict_unknown_output_rejected(self):
        with pytest.raises(HoleError, match="unknown output"):
            Functional(lambda a, t: 1, ["a"], ["q"], delay={"q": 1.0, "z": 2.0})

    def test_needs_callable(self):
        with pytest.raises(HoleError):
            Functional("nope", ["a"], ["q"], delay=1.0)  # type: ignore[arg-type]

    def test_needs_output(self):
        with pytest.raises(HoleError):
            Functional(lambda t: 1, [], [], delay=1.0)


class TestHoleDecorator:
    def test_decorator_instantiates_into_circuit(self):
        @hole(delay=3.0, inputs=["a", "b"], outputs=["q"])
        def or_model(a, b, time):
            return a or b

        w1 = inp_at(10.0, name="A")
        w2 = inp_at(20.0, name="B")
        q = or_model(w1, w2)
        q.observe("Q")
        events = Simulation().simulate()
        assert events["Q"] == [13.0, 23.0]

    def test_wrong_wire_count_rejected(self):
        @hole(delay=1.0, inputs=["a", "b"], outputs=["q"])
        def f(a, b, time):
            return 1

        with pytest.raises(HoleError, match="expected 2"):
            f(inp_at(1.0))

    def test_non_wire_arg_rejected(self):
        @hole(delay=1.0, inputs=["a"], outputs=["q"])
        def f(a, time):
            return 1

        with pytest.raises(HoleError, match="Wire"):
            f(3)

    def test_output_naming(self):
        @hole(delay=1.0, inputs=["a"], outputs=["x", "y"])
        def f(a, time):
            return (1, 1)

        x, y = f(inp_at(1.0, name="A"), names="X Y")
        assert x.name == "X" and y.name == "Y"

    def test_per_instance_delay_override(self):
        @hole(delay=1.0, inputs=["a"], outputs=["q"])
        def f(a, time):
            return 1

        q = f(inp_at(10.0, name="A"), delay=7.0)
        q.observe("Q")
        events = Simulation().simulate()
        assert events["Q"] == [17.0]

    def test_unknown_option_rejected(self):
        @hole(delay=1.0, inputs=["a"], outputs=["q"])
        def f(a, time):
            return 1

        with pytest.raises(HoleError, match="unknown option"):
            f(inp_at(1.0), bogus=2)

    def test_metadata_preserved(self):
        @hole(delay=1.0, inputs=["a"], outputs=["q"])
        def my_hole(a, time):
            """Docs."""
            return 1

        assert my_hole.__name__ == "my_hole"
        assert my_hole.hole_inputs == ("a",)
        assert my_hole.hole_outputs == ("q",)


class TestMemoryHole:
    def _bits(self, name, value, at):
        return [
            inp_at(*([at] if (value >> k) & 1 else []), name=f"{name}{k}")
            for k in reversed(range(4))
        ]

    def test_write_then_read(self):
        from repro.core.helpers import inp

        memory = make_memory()
        ra = self._bits("ra", 5, 60.0)
        wa = self._bits("wa", 5, 10.0)
        d1 = inp_at(10.0, name="d1")
        d0 = inp_at(name="d0")        # write 0b10
        we = inp_at(10.0, name="we")
        clk = inp(start=25.0, period=50.0, n=2, name="clk")
        q1, q0 = memory(*ra, *wa, d1, d0, we, clk)
        q1.observe("q1")
        q0.observe("q0")
        events = Simulation().simulate()
        assert events["q1"] == [80.0]   # second clk at 75 + delay 5
        assert events["q0"] == []

    def test_read_unwritten_address_is_zero(self):
        from repro.core.helpers import inp

        memory = make_memory()
        ra = self._bits("ra", 3, 10.0)
        wa = self._bits("wa", 0, 0.0)   # no write pulses beyond address 0
        d1 = inp_at(name="d1")
        d0 = inp_at(name="d0")
        we = inp_at(name="we")
        clk = inp(start=25.0, period=50.0, n=1, name="clk")
        q1, q0 = memory(*ra, *wa, d1, d0, we, clk)
        q1.observe("q1")
        q0.observe("q0")
        events = Simulation().simulate()
        assert events["q1"] == [] and events["q0"] == []

    def test_holes_compose_with_cells(self):
        from repro.core.helpers import inp

        memory = make_memory()
        ra = self._bits("ra", 1, 60.0)
        wa = self._bits("wa", 1, 10.0)
        d1 = inp_at(name="d1")
        d0 = inp_at(10.0, name="d0")
        we = inp_at(10.0, name="we")
        clk = inp(start=25.0, period=50.0, n=2, name="clk")
        q1, q0 = memory(*ra, *wa, d1, d0, we, clk)
        out = jtl(q0, name="buffered")
        del q1, out
        events = Simulation().simulate()
        assert events["buffered"] == [85.0]  # 75 + 5 (hole) + 5 (JTL)
