"""The compiled circuit IR: compile pass, memoization, pickling, indexes.

``compile_circuit`` is the single source of topology for every backend
(simulation, lint, static timing, TA export, serialization), so these tests
pin down its contract: dense ids mirror elaboration order, the memo is keyed
by the circuit's mutation version, tolerant compiles serve lint without
validating, and the frozen result survives a pickle round-trip with its memo
warm (the mechanism the Monte-Carlo workers rely on).
"""

import pickle

import pytest

from repro.core.analysis import clock_wires
from repro.core.circuit import Circuit, fresh_circuit
from repro.core.element import InGen
from repro.core.errors import PylseError, WireError
from repro.core.helpers import inp, inp_at
from repro.core.ir import (
    PLAN_INDEX,
    PLAN_NODE,
    PLAN_ROUTES,
    CompiledCircuit,
    compile_circuit,
    structural_hash,
)
from repro.core.serialize import circuit_to_json
from repro.core.simulation import Simulation
from repro.core.wire import Wire
from repro.sfq import JTL, and_s, dro, jtl, m, split


def build_fig12():
    with fresh_circuit() as circuit:
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
    return circuit


def build_feedback():
    """A stateless loop: m0 -> jtl0 -> back into m0."""
    with fresh_circuit() as circuit:
        a = inp_at(5.0, name="A")
        fb = Wire("fb")
        x = m(a, fb)
        circuit.add_node(JTL(), [x], [fb])
    return circuit


class TestCompileBasics:
    def test_ids_mirror_elaboration_order(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        assert [n.name for n in compiled.nodes] == [n.name for n in circuit.nodes]
        assert list(compiled.wires) == circuit.wires
        assert all(
            compiled.nodes[compiled.node_index[n.name]] is n
            for n in circuit.nodes
        )
        assert len(compiled) == len(circuit)

    def test_cells_and_inputs_partition_nodes(self):
        compiled = compile_circuit(build_fig12())
        assert [n.name for n in compiled.input_nodes()] == [
            n.name for n in compiled.circuit.input_nodes()
        ]
        assert [n.name for n in compiled.cells()] == [
            n.name for n in compiled.circuit.cells()
        ]
        assert sorted(compiled.cell_ids + compiled.input_ids) == list(
            range(len(compiled))
        )

    def test_wire_source_matches_source_of(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        for wid, (src, port) in enumerate(compiled.wire_source):
            node, src_port = circuit.source_of[compiled.wires[wid]]
            assert compiled.nodes[src] is node and port == src_port

    def test_output_wire_ids_are_unconsumed(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        outputs = [compiled.wires[k] for k in compiled.output_wire_ids]
        assert outputs == circuit.output_wires()
        assert all(compiled.wire_dest[k] is None for k in compiled.output_wire_ids)

    def test_topo_order_respects_edges(self):
        compiled = compile_circuit(build_fig12())
        assert compiled.is_acyclic and not compiled.feedback_edges
        position = {i: k for k, i in enumerate(compiled.topo_order)}
        assert all(position[src] < position[dst] for src, dst, _ in compiled.edges)

    def test_node_lookup(self):
        compiled = compile_circuit(build_fig12())
        assert compiled.node("and0").name == "and0"
        assert compiled.node_by_name["and0"] is compiled.node("and0")
        with pytest.raises(PylseError, match="No node named"):
            compiled.node("nope")

    def test_duplicate_node_names_rejected(self):
        circuit = Circuit()
        a = circuit.add_input(InGen([1.0]))
        # Two cells forced onto the same explicit name.
        circuit.add_node(JTL(), [a], name="dup")
        out = circuit.nodes[-1].output_wires["q"]
        circuit.add_node(JTL(), [out], name="dup")
        with pytest.raises(PylseError, match="Two nodes named 'dup'"):
            compile_circuit(circuit, validate=False)


class TestMemoization:
    def test_repeat_compile_returns_same_object(self):
        circuit = build_fig12()
        assert compile_circuit(circuit) is compile_circuit(circuit)

    def test_add_node_invalidates(self):
        circuit = build_fig12()
        first = compile_circuit(circuit)
        circuit.add_node(JTL(), [circuit.find_wire("Q")])
        second = compile_circuit(circuit)
        assert second is not first
        assert second.version > first.version

    def test_observe_invalidates(self):
        circuit = build_fig12()
        first = compile_circuit(circuit)
        circuit.find_wire("Q").observe("renamed")
        second = compile_circuit(circuit)
        assert second is not first
        assert "renamed" in second.labels

    def test_tolerant_then_strict_revalidates_in_place(self):
        circuit = build_fig12()
        tolerant = compile_circuit(circuit, validate=False)
        assert tolerant.problem is None
        strict = compile_circuit(circuit)
        assert strict is tolerant

    def test_strict_call_raises_the_recorded_problem(self):
        with fresh_circuit() as circuit:
            jtl(Wire("floating"), name="q")
        tolerant = compile_circuit(circuit, validate=False)
        assert isinstance(tolerant.problem, WireError)
        with pytest.raises(WireError) as caught:
            compile_circuit(circuit)
        assert caught.value is tolerant.problem
        assert compile_circuit(circuit, validate=False) is tolerant

    def test_duplicate_label_precedes_duplicate_node_name(self):
        circuit = Circuit()
        circuit.add_node(JTL(), [circuit.add_input(InGen([1.0]), "A")],
                         [Wire("Q")], name="x")
        r = Wire("R")
        circuit.add_node(JTL(), [circuit.add_input(InGen([2.0]), "B")],
                         [r], name="x")
        r.observed_as = "Q"  # bypasses observe()'s add-time check
        with pytest.raises(WireError, match="same name 'Q'"):
            compile_circuit(circuit)
        with pytest.raises(PylseError, match="Two nodes named 'x'"):
            compile_circuit(circuit, validate=False)

    def test_tolerant_compile_skips_validation(self):
        with fresh_circuit() as circuit:
            jtl(Wire("floating"), name="q")
        compiled = compile_circuit(circuit, validate=False)
        # The undriven wire only exists in dest_of, never in circuit.wires.
        assert "floating" not in compiled.wire_index
        with pytest.raises(WireError, match="has no driver"):
            compile_circuit(circuit)

    def test_simulate_uses_warm_compile(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        sim = Simulation(circuit)
        events = sim.simulate()
        assert circuit._compiled_ir is compiled
        assert events["Q"] == [209.2, 259.2, 309.2]

    def test_simulation_accepts_compiled_circuit(self):
        compiled = compile_circuit(build_fig12())
        events = Simulation(compiled).simulate()
        assert events["Q"] == [209.2, 259.2, 309.2]


class TestPickleRoundTrip:
    def test_roundtrip_preserves_structure_and_memo(self):
        compiled = compile_circuit(build_fig12())
        compiled.node_by_name  # populate the lazy cache
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledCircuit)
        assert clone.structural_hash == compiled.structural_hash
        assert clone._cache == {}  # scratch never travels
        # The pickle cycle keeps the memo warm: compiling the unpickled
        # circuit is a cache hit, which is what makes shipping the compiled
        # form to Monte-Carlo workers a compile-once protocol.
        assert compile_circuit(clone.circuit) is clone

    def test_roundtrip_simulates_identically(self):
        compiled = compile_circuit(build_fig12())
        clone = pickle.loads(pickle.dumps(compiled))
        assert Simulation(clone.circuit).simulate() == Simulation(
            compiled.circuit
        ).simulate()


class TestDispatchPlan:
    """The run-invariant dispatch plan is built once per compiled revision
    and shared by every run, ``Simulation`` and batched pass over it."""

    @pytest.fixture
    def plan_builds(self, monkeypatch):
        import repro.core.ir as ir

        built = []
        original = ir._dispatch_plan

        def counting(compiled):
            built.append(compiled)
            return original(compiled)

        monkeypatch.setattr(ir, "_dispatch_plan", counting)
        return built

    def test_runs_and_simulations_share_one_plan(self, plan_builds):
        circuit = build_fig12()
        sim = Simulation(circuit)
        first = sim.simulate()
        plan = compile_circuit(circuit).plan
        assert sim.simulate() == first
        assert Simulation(circuit).simulate(seed=4, record=True) == first
        assert Simulation(circuit).simulate(
            variability={"stddev": 0.5}, seed=2
        )
        assert compile_circuit(circuit).plan is plan
        assert len(plan_builds) == 1

    def test_batched_pass_reads_the_same_plan(self, plan_builds):
        from repro.core.batchsim import run_batch

        circuit = build_fig12()
        sim = Simulation(circuit)
        plan = compile_circuit(circuit).plan
        run_batch(sim, lambda events: len(events["Q"]) == 3, 1.0, range(8))
        assert compile_circuit(circuit).plan is plan
        assert len(plan_builds) == 1

    def test_observe_after_a_run_rebuilds_the_plan(self, plan_builds):
        circuit = build_fig12()
        before = Simulation(circuit).simulate()
        plan = compile_circuit(circuit).plan
        circuit.find_wire("Q").observe("OUT")
        after = Simulation(circuit).simulate()
        assert compile_circuit(circuit).plan is not plan
        assert len(plan_builds) == 2
        assert "Q" in before and "Q" not in after
        assert after["OUT"] == before["Q"]

    def test_plan_routes_follow_the_dispatch_specs(self):
        compiled = compile_circuit(build_feedback())
        plan = compiled.plan
        for nd, entry in zip(compiled.dispatch, plan.entries):
            assert entry[PLAN_NODE] is compiled.nodes[nd.index]
            assert entry[PLAN_INDEX] == nd.index
            routes = entry[PLAN_ROUTES]
            assert list(routes) == [o.port for o in nd.outs]
            for o in nd.outs:
                slot, dest, key, dest_entry, dest_port, label = routes[o.port]
                assert plan.series_labels[slot] == label
                assert label == compiled.labels[o.wire_id]
                assert (dest, dest_port) == (o.dest, o.dest_port)
                if o.dest < 0:
                    assert (key, dest_entry) == (-1, None)
                else:
                    assert key == compiled.nodes[o.dest].node_id
                    assert dest_entry is plan.entries[o.dest]

    def test_wires_sharing_a_label_share_a_series(self):
        """A user name equal to an anonymous one merges the two series, as
        a per-emit lookup by label would."""
        with fresh_circuit() as circuit:
            jtl(inp_at(1.0))
            jtl(inp_at(20.0, name="B"), name="_1")
        plan = compile_circuit(circuit).plan
        assert plan.series_labels == ("_0", "_1", "B")
        events = Simulation(circuit).simulate()
        assert events == {"_0": [1.0], "_1": [6.0, 25.0], "B": [20.0]}

    def test_plan_is_not_pickled(self):
        compiled = compile_circuit(build_fig12())
        before = pickle.dumps(compiled)
        events = Simulation(compiled).simulate()
        assert "plan" in compiled._cache
        assert pickle.dumps(compiled) == before
        clone = pickle.loads(before)
        assert "plan" not in clone._cache
        assert Simulation(clone).simulate() == events


class TestDelayWindows:
    def test_jtl_window_is_constant(self):
        with fresh_circuit() as circuit:
            a = inp_at(10.0, name="A")
            jtl(a, firing_delay=5.7, name="Q")
        compiled = compile_circuit(circuit)
        assert compiled.delay_window("jtl0", "q") == (5.7, 5.7)

    def test_window_spans_transitions(self):
        with fresh_circuit() as circuit:
            a = inp_at(10.0, name="A")
            clk = inp_at(50.0, name="CLK")
            dro(a, clk, name="Q")
        compiled = compile_circuit(circuit)
        lo, hi = compiled.delay_window("dro0", "q")
        assert lo <= hi

    def test_unknown_port_raises(self):
        compiled = compile_circuit(build_fig12())
        with pytest.raises(PylseError, match="never fired by any transition"):
            compiled.delay_window("and0", "nope")


class TestTopologyAnnotations:
    def test_feedback_edges_flag_cycles(self):
        compiled = compile_circuit(build_feedback())
        assert not compiled.is_acyclic
        assert compiled.feedback_edges
        # Every node still appears exactly once in the forced order.
        assert sorted(compiled.topo_order) == list(range(len(compiled)))

    def test_cyclic_sccs_name_ordering(self):
        compiled = compile_circuit(build_feedback())
        (component,) = compiled.cyclic_sccs
        assert [compiled.nodes[i].name for i in component] == ["jtl0", "m0"]

    def test_acyclic_circuit_has_no_sccs(self):
        compiled = compile_circuit(build_fig12())
        assert compiled.cyclic_sccs == ()

    def test_clock_wires_match_analysis(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        assert {
            label: list(cells) for label, cells in compiled.clock_wires.items()
        } == clock_wires(circuit)
        assert "CLK" in compiled.clock_wires

    def test_clock_reached_through_fabric(self):
        with fresh_circuit() as circuit:
            a = inp_at(100.0, name="A")
            b = inp_at(110.0, name="B")
            a2 = inp_at(120.0, name="A2")
            b2 = inp_at(130.0, name="B2")
            clk = inp_at(50.0, name="CLK")
            c1, c2 = split(jtl(clk))
            and_s(a, b, c1, name="Q1")
            and_s(a2, b2, c2, name="Q2")
        compiled = compile_circuit(circuit)
        assert set(compiled.clock_wires["CLK"]) == {"and0", "and1"}


class TestWireNamingIsolation:
    """Anonymous wire names are per-circuit, not process-global."""

    def test_back_to_back_circuits_serialize_identically(self):
        # Before the per-circuit counter, the second build's anonymous wires
        # continued from wherever the first build left the class-global
        # counter, so archived JSON depended on what ran earlier.
        first = build_fig12()
        second = build_fig12()
        assert circuit_to_json(first) == circuit_to_json(second)

    def test_back_to_back_circuits_hash_identically(self):
        assert structural_hash(build_fig12()) == structural_hash(build_fig12())

    def test_anonymous_names_start_at_zero_per_circuit(self):
        build_fig12()  # burn through some anonymous wires first
        with fresh_circuit() as circuit:
            a = inp_at(10.0)  # anonymous input wire
            jtl(a, name="Q")
        names = [w.name for w in circuit.wires]
        assert names[0] == "_0"


class TestWireIndexConsistency:
    def test_rename_keeps_index_consistent(self):
        circuit = build_fig12()
        q = circuit.find_wire("Q")
        q.observe("stage1")
        q.observe("stage2")
        assert circuit.find_wire("stage2") is q
        with pytest.raises(WireError):
            circuit.find_wire("stage1")  # superseded alias dropped

    def test_feedback_wire_findable_before_driven(self):
        with fresh_circuit() as circuit:
            a = inp_at(5.0, name="A")
            fb = Wire()
            x = m(a, fb)
            fb.observe("fb_alias")
            assert circuit.find_wire("fb_alias") is fb
            circuit.add_node(JTL(), [x], [fb])
        assert circuit.find_wire("fb_alias") is fb


def _refuse(*args, **kwargs):
    raise AssertionError("computed a lazy IR view on the simulation path")


#: Everything ``compile_circuit`` leaves to the first read.
LAZY_VIEWS = ("_structural_hash", "_clock_wires", "_cyclic_sccs",
              "_topological_order", "_delay_windows")


class TestLaziness:
    """The simulation and Monte-Carlo paths never compute the structural
    hash or the analysis views; the caches and lint read them on demand."""

    @pytest.fixture
    def refuse_lazy_views(self, monkeypatch):
        def refuse():
            for name in LAZY_VIEWS:
                monkeypatch.setattr(f"repro.core.ir.{name}", _refuse)
        return refuse

    def test_simulate_skips_lazy_views(self, refuse_lazy_views):
        expected = Simulation(build_fig12()).simulate()
        refuse_lazy_views()
        assert Simulation(build_fig12()).simulate() == expected

    @pytest.mark.parametrize("design", ["Bitonic Sort 4", "Adder (Sync)"])
    def test_monte_carlo_skips_lazy_views(self, design, refuse_lazy_views):
        from repro.core.montecarlo import measure_yield
        from repro.core.parallel import run_chunk
        from repro.exp.registry import PulseCountPredicate, RegistryFactory

        factory = RegistryFactory(design)
        predicate = PulseCountPredicate(Simulation(factory()).simulate())
        seeds = range(12)

        def runs():
            outcomes, _, _ = run_chunk(factory, predicate, 2.0, seeds)
            return outcomes, [
                measure_yield(factory, predicate, 2.0, seeds=seeds,
                              batch=batch)
                for batch in (0, "auto")
            ]

        expected = runs()
        refuse_lazy_views()
        assert runs() == expected

    def test_views_are_computed_on_first_read_only(self, refuse_lazy_views):
        compiled = compile_circuit(build_fig12())
        assert compiled._hash is None and compiled._cache == {}
        compiled.structural_hash, compiled.topo_order, compiled.cyclic_sccs
        compiled.clock_wires, compiled.delay_windows
        refuse_lazy_views()
        # Memoised: a second read never recomputes.
        assert compiled.is_acyclic and compiled.structural_hash

    def test_read_hash_travels_in_the_pickle(self, refuse_lazy_views):
        compiled = compile_circuit(build_fig12())
        digest = compiled.structural_hash
        payload = pickle.dumps(compiled)
        refuse_lazy_views()
        assert pickle.loads(payload).structural_hash == digest

    def test_views_snapshot_the_compiled_revision(self):
        circuit = build_fig12()
        compiled = compile_circuit(circuit)
        circuit.find_wire("CLK").observe("CLOCK")
        assert compile_circuit(circuit) is not compiled
        assert set(compiled.clock_wires) == {"CLK"}
        assert set(compile_circuit(circuit).clock_wires) == {"CLOCK"}
