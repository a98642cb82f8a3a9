"""Tests for wires, nodes, and the circuit workspace (Section 4.2 checks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import (
    Circuit,
    fresh_circuit,
    reset_working_circuit,
    working_circuit,
)
from repro.core.element import InGen
from repro.core.errors import FanoutError, PylseError, WireError
from repro.core.helpers import inp, inp_at, inspect
from repro.core.ir import compile_circuit
from repro.core.simulation import Simulation
from repro.core.transitional import Transitional
from repro.core.wire import Wire
from repro.sfq import C, JTL, M, and_s, c, jtl, m, s, split

from test_random_circuits import build_random_circuit


class TestWire:
    def test_auto_names_are_sequential(self):
        assert Wire().name == "_0"
        assert Wire().name == "_1"

    def test_user_name(self):
        w = Wire("A")
        assert w.name == "A"
        assert w.is_user_named

    def test_observe_sets_alias(self):
        w = Wire()
        w.observe("Q")
        assert w.observed_as == "Q"
        assert w.is_user_named

    def test_empty_name_rejected(self):
        with pytest.raises(WireError):
            Wire("")

    def test_non_string_name_rejected(self):
        with pytest.raises(WireError):
            Wire(42)  # type: ignore[arg-type]

    def test_bad_observe_rejected(self):
        with pytest.raises(WireError):
            Wire().observe("")


class TestFanout:
    def test_wire_reuse_raises_fanout_error(self):
        a = inp_at(10.0, name="A")
        jtl(a)
        with pytest.raises(FanoutError, match="splitter"):
            jtl(a)

    def test_split_allows_reuse(self):
        a = inp_at(10.0, name="A")
        a0, a1 = s(a)
        jtl(a0)
        jtl(a1)  # no error

    def test_undriven_wire_rejected_at_validation(self):
        # Consuming an undriven wire is allowed at add time (feedback loops
        # are built forward), but validation must reject it.
        jtl(Wire("floating"))
        with pytest.raises(WireError, match="no driver"):
            working_circuit().validate()


class TestSplit:
    def test_split_two(self):
        a = inp_at(5.0, name="A")
        outs = split(a)
        assert len(outs) == 2
        assert len(working_circuit().cells()) == 1

    def test_split_n_creates_n_minus_1_splitters(self):
        a = inp_at(5.0, name="A")
        outs = split(a, n=5)
        assert len(outs) == 5
        assert len(working_circuit().cells()) == 4

    def test_split_names(self):
        a = inp_at(5.0, name="A")
        outs = split(a, n=3, names="x y z")
        assert [w.observed_as for w in outs] == ["x", "y", "z"]

    def test_split_n_below_two_rejected(self):
        a = inp_at(5.0, name="A")
        with pytest.raises(PylseError):
            split(a, n=1)

    def test_split_wrong_name_count_rejected(self):
        a = inp_at(5.0, name="A")
        with pytest.raises(PylseError, match="name"):
            split(a, n=3, names=["only", "two"])


class TestCircuit:
    def test_nodes_named_per_type(self):
        a = inp_at(5.0, name="A")
        l, r = s(a)
        jtl(l)
        jtl(r)
        names = [n.name for n in working_circuit().cells()]
        assert names == ["s0", "jtl0", "jtl1"]

    def test_output_wires_are_unconsumed(self):
        a = inp_at(5.0, name="A")
        q = jtl(a, name="Q")
        outs = working_circuit().output_wires()
        assert outs == [q]

    def test_validate_empty_circuit(self):
        with pytest.raises(PylseError, match="empty"):
            Circuit().validate()

    def test_observe_duplicate_name_collides_loudly(self):
        # The alias collision is rejected at the observe() call site, not
        # deferred to validate().
        inp_at(5.0, name="X")
        other = inp_at(6.0)
        with pytest.raises(WireError, match="same name"):
            inspect(other, "X")

    def test_duplicate_creation_names_collide_at_add(self):
        inp_at(5.0, name="X")
        with pytest.raises(WireError, match="same name"):
            inp_at(6.0, name="X")

    def test_observe_unregistered_wire_collides_when_driven(self):
        # A floating wire has no circuit yet, so observe() cannot check it;
        # the collision surfaces when its driver is finally placed.
        from repro.sfq import JTL

        inp_at(5.0, name="X")
        floating = Wire()
        floating.observe("X")  # no error: not registered anywhere yet
        a = inp_at(1.0, name="A")
        with pytest.raises(WireError, match="same name"):
            working_circuit().add_node(JTL(), [a], [floating])

    def test_repeated_observe_keeps_compiled_ir(self):
        q = jtl(inp_at(5.0, name="A"))
        q.observe("Q")
        circuit = working_circuit()
        compiled = compile_circuit(circuit)
        version = circuit.version
        q.observe("Q")
        assert circuit.version == version
        assert compile_circuit(circuit) is compiled

    def test_observing_anonymous_wire_under_its_own_name_is_a_change(self):
        # The user label enters the structural hash, so naming an
        # anonymous wire "_k" explicitly is a new revision.
        q = jtl(inp_at(5.0, name="A"))
        circuit = working_circuit()
        compiled = compile_circuit(circuit)
        assert q.observed_as == q.name and not q.is_user_named
        q.observe(q.name)
        assert compile_circuit(circuit) is not compiled
        assert compile_circuit(circuit).structural_hash != compiled.structural_hash

    def test_find_wire_by_name_and_alias(self):
        a = inp_at(5.0, name="A")
        q = jtl(a)
        inspect(q, "Q")
        circuit = working_circuit()
        assert circuit.find_wire("A") is a
        assert circuit.find_wire("Q") is q
        with pytest.raises(WireError):
            circuit.find_wire("nope")

    def test_find_wire_tracks_re_observation(self):
        a = inp_at(5.0, name="A")
        q = jtl(a)
        inspect(q, "Q1")
        inspect(q, "Q2")
        circuit = working_circuit()
        assert circuit.find_wire("Q2") is q
        with pytest.raises(WireError):
            circuit.find_wire("Q1")  # the old alias is gone

    def test_find_wire_scales_without_linear_scan(self):
        # The index makes repeated lookups O(1); just check correctness
        # over a larger batch of named wires.
        wires = [inp_at(float(i), name=f"w{i}") for i in range(200)]
        circuit = working_circuit()
        for i, w in enumerate(wires):
            assert circuit.find_wire(f"w{i}") is w

    def test_fresh_circuit_isolates(self):
        inp_at(5.0, name="A")
        before = len(working_circuit())
        with fresh_circuit() as inner:
            w = inp_at(1.0, name="B")
            jtl(w)
            assert len(inner) == 2
        assert len(working_circuit()) == before

    def test_reset_working_circuit_restarts_names(self):
        Wire()
        reset_working_circuit()
        assert Wire().name == "_0"

    def test_cells_excludes_input_generators(self):
        a = inp_at(5.0, name="A")
        jtl(a)
        circuit = working_circuit()
        assert len(circuit.cells()) == 1
        assert len(circuit.input_nodes()) == 1
        assert isinstance(circuit.input_nodes()[0].element, InGen)


def _snapshot(circuit, wires):
    """Everything a failed ``add_node`` or ``observe()`` must leave as is."""
    return (
        list(circuit.nodes), dict(circuit.source_of), dict(circuit.dest_of),
        circuit.version, dict(circuit._type_counts),
        [(w.name, w.observed_as, w.is_user_named, w._circuit) for w in wires],
    )


class TestAtomicAdd:
    """A rejected ``add_node`` changes nothing, so the wires it was given
    stay usable and the next node of the type keeps its name."""

    def test_failed_fanout_within_one_node_changes_nothing(self):
        circuit = working_circuit()
        a = inp_at(10.0, name="A")
        before = _snapshot(circuit, [a])
        with pytest.raises(FanoutError):
            c(a, a)
        assert _snapshot(circuit, [a]) == before
        q = jtl(a)  # ``a`` has no reader yet
        assert circuit.dest_of[a][0].name == "jtl0"
        assert c(q, inp_at(20.0, name="B")) in circuit.wires
        assert [n.name for n in circuit.cells()] == ["jtl0", "c0"]

    def test_failed_add_adopts_no_wire(self):
        circuit = working_circuit()
        a = inp_at(10.0, name="A")
        jtl(a)
        fresh, out = Wire(), Wire("OUT")
        names = (fresh.name, out.name)
        before = _snapshot(circuit, [a, fresh, out])
        with pytest.raises(FanoutError):
            circuit.add_node(C(), [fresh, a], [out])
        assert _snapshot(circuit, [a, fresh, out]) == before
        assert (fresh.name, out.name) == names and fresh._circuit is None

    def test_failed_label_claim_changes_nothing(self):
        circuit = working_circuit()
        inp_at(10.0, name="X")
        a = inp_at(20.0, name="A")
        taken = Wire().observe("X")
        before = _snapshot(circuit, [a, taken])
        with pytest.raises(WireError, match="same name 'X'"):
            circuit.add_node(JTL(), [a], [taken])
        assert _snapshot(circuit, [a, taken]) == before
        assert jtl(a, name="Q") is circuit.find_wire("Q")


def _wire_tables_agree(circuit, superseded=()):
    """The circuit's own wire queries match its compiled IR's tables."""
    compiled = compile_circuit(circuit)
    assert circuit.wires == list(compiled.wires)
    assert circuit.output_wires() == [
        compiled.wires[k] for k in compiled.output_wire_ids
    ]
    for k, wire in enumerate(compiled.wires):
        for label in (wire.name, wire.observed_as):
            assert circuit.find_wire(label) is wire
            assert compiled.wire_index[label] == k
    for label in superseded:
        assert label not in compiled.wire_index
        with pytest.raises(WireError):
            circuit.find_wire(label)


class TestNetlistIndexProperty:
    """Random netlists, renames and a feedback wire: the add-time label map
    and the compiled wire tables answer every lookup the same way."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_cells=st.integers(1, 12),
        renames=st.lists(st.integers(0, 999), max_size=8),
    )
    def test_label_map_agrees_with_compiled_ir(self, seed, n_cells, renames):
        circuit = build_random_circuit(seed, 3, n_cells)
        wires = circuit.wires
        used = {w.observed_as for w in wires}
        for n, pick in enumerate(renames):
            wires[pick % len(wires)].observe(f"r{n}")
            used.add(f"r{n}")

        # One feedback wire: consumed, observed, found, and then driven.
        fb = Wire()
        out = circuit.add_node(M(), [circuit.output_wires()[0], fb])
        fb.observe("fb")
        assert circuit.find_wire("fb") is fb
        circuit.add_node(JTL(), [out.output_wires["q"]], [fb])
        current = {l for w in circuit.wires for l in (w.name, w.observed_as)}
        _wire_tables_agree(circuit, used - current)

        # A colliding observe or add raises and changes nothing.
        victim = circuit.wires[seed % len(circuit.wires)]
        owner = circuit.wires[(seed + 1) % len(circuit.wires)]
        taken = owner.observed_as
        if victim is not owner and owner.is_user_named:
            before = _snapshot(circuit, circuit.wires)
            with pytest.raises(WireError, match="same name"):
                victim.observe(taken)
            with pytest.raises(WireError, match="same name"):
                circuit.add_input(InGen([1.0]), taken)
            assert _snapshot(circuit, circuit.wires) == before
        _wire_tables_agree(circuit)


class TestHelpers:
    def test_inp_at_creates_sorted_times(self):
        a = inp_at(30.0, 10.0, 20.0, name="A")
        gen = working_circuit().input_nodes()[0].element
        assert gen.times == (10.0, 20.0, 30.0)
        assert a.name == "A"

    def test_inp_periodic(self):
        inp(start=50, period=50, n=3, name="CLK")
        gen = working_circuit().input_nodes()[0].element
        assert gen.times == (50.0, 100.0, 150.0)

    def test_inp_zero_n_rejected(self):
        with pytest.raises(PylseError):
            inp(n=0)

    def test_inp_multi_needs_period(self):
        with pytest.raises(PylseError, match="period"):
            inp(start=0, period=0, n=2)

    def test_negative_time_rejected(self):
        with pytest.raises(PylseError):
            inp_at(-5.0)

    def test_inp_at_empty_is_logical_zero(self):
        a = inp_at(name="A")
        gen = working_circuit().input_nodes()[0].element
        assert gen.times == ()
        assert a.name == "A"

    def test_inspect_requires_wire(self):
        with pytest.raises(PylseError):
            inspect("not-a-wire", "X")  # type: ignore[arg-type]


class TestWrapperArgs:
    def test_name_on_multi_output_cell_rejected(self):
        a = inp_at(5.0, name="A")
        with pytest.raises(PylseError):
            s(a, name="bad")  # type: ignore[call-arg]

    def test_names_and_name_not_both(self):
        a = inp_at(5.0, name="A")
        b = inp_at(6.0, name="B")
        clk = inp_at(7.0, name="C")
        with pytest.raises(PylseError):
            and_s(a, b, clk, name="x", names=["y"])  # type: ignore[call-arg]

    def test_non_wire_input_rejected(self):
        with pytest.raises(PylseError, match="Wire"):
            jtl("zap")  # type: ignore[arg-type]


def _port_count_inputs():
    Circuit().add_node(JTL(), [], [Wire()])


def _port_count_outputs():
    circuit = Circuit()
    circuit.add_node(JTL(), [circuit.add_input(InGen([1.0]))], [])


def _fanout():
    a = inp_at(1.0, name="A")
    jtl(a)
    jtl(a)


def _fanout_within_one_node():
    a = inp_at(1.0, name="A")
    c(a, a)


def _double_driver():
    q = jtl(inp_at(1.0, name="A"), name="Q")
    working_circuit().add_node(JTL(), [inp_at(2.0, name="B")], [q])


def _duplicate_names_at_add():
    jtl(inp_at(1.0, name="A"), name="Q")
    jtl(inp_at(2.0, name="B"), name="Q")


def _duplicate_names_at_observe():
    jtl(inp_at(1.0, name="A"), name="Q")
    jtl(inp_at(2.0, name="B")).observe("Q")


def _check_ports():
    class Twin(Transitional):
        name = "Twin"
        inputs = ["a", "a"]
        outputs = ["q"]
        transitions = [{"src": "idle", "trigger": "a", "dst": "idle"}]

    Twin()


def _undriven():
    jtl(Wire("floating"), name="Q")
    Simulation(working_circuit()).simulate()


def _empty():
    Simulation(Circuit()).simulate()


def _duplicate_node_names():
    circuit = Circuit()
    circuit.add_node(JTL(), [circuit.add_input(InGen([1.0]), "A")], name="x")
    circuit.add_node(JTL(), [circuit.add_input(InGen([2.0]), "B")], name="x")
    compile_circuit(circuit)


def _duplicate_node_names_and_undriven():
    circuit = Circuit()
    circuit.add_node(JTL(), [Wire("floating")], name="x")
    circuit.add_node(JTL(), [circuit.add_input(InGen([2.0]), "B")], name="x")
    compile_circuit(circuit)


def _duplicate_labels_past_the_index():
    jtl(inp_at(1.0, name="A"), name="Q")
    r = jtl(inp_at(2.0, name="B"), name="R")
    r.observed_as = "Q"  # bypasses observe(); validate() still catches it
    Simulation(working_circuit()).simulate()


_DUPLICATE = (
    "Two wires observed under the same name 'Q'; names must be unique for "
    "simulation events to be unambiguous"
)
_UNDRIVEN = (
    "Wire 'floating' (input 'a' of 'JTL') has no driver; connect it to an "
    "element output or an input generator"
)


class TestConstructionErrors:
    """Every construction-time check raises its error class and message at
    the same call, whichever stage (placement, observe, compile) runs it."""

    @pytest.mark.parametrize("build, kind, message", [
        (_port_count_inputs, PylseError,
         "JTL: expected 1 input wire(s) (a), got 0"),
        (_port_count_outputs, PylseError,
         "JTL: expected 1 output wire(s) (q), got 0"),
        (_fanout, FanoutError,
         "Wire 'A' already connects to input 'a' of 'JTL'; SCE outputs "
         "cannot fan out — insert a splitter (see split())"),
        (_fanout_within_one_node, FanoutError,
         "Wire 'A' already connects to input 'a' of 'C'; SCE outputs "
         "cannot fan out — insert a splitter (see split())"),
        (_double_driver, WireError,
         "Wire 'Q' is already driven by output 'q' of 'JTL'"),
        (_duplicate_names_at_add, WireError, _DUPLICATE),
        (_duplicate_names_at_observe, WireError, _DUPLICATE),
        (_check_ports, PylseError, "Twin: duplicate input port 'a'"),
        (_undriven, WireError, _UNDRIVEN),
        (_empty, PylseError, "Circuit is empty: nothing to simulate"),
        (_duplicate_node_names, PylseError,
         "Two nodes named 'x'; node names must be unique for dispatch "
         "records and findings to be unambiguous"),
        # A structural error takes precedence over a duplicate node name.
        (_duplicate_node_names_and_undriven, WireError, _UNDRIVEN),
        (_duplicate_labels_past_the_index, WireError, _DUPLICATE),
    ], ids=lambda value: getattr(value, "__name__", "")[1:] or None)
    def test_error_class_and_message(self, build, kind, message):
        with fresh_circuit():
            with pytest.raises(kind) as caught:
                build()
        assert type(caught.value) is kind
        assert str(caught.value) == message
