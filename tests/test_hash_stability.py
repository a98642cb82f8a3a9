"""Stability properties of the compiled IR's structural hash.

The hash is the identity the CI manifest and compile-cache rely on, so its
contract is pinned here from both sides:

* **stable** — identical across processes, across repeat builds in one
  process, and under anonymous-wire-counter offsets and node insertion
  order for isomorphic builds;
* **sensitive** — any change to a delay, a transition time, a connection,
  an input schedule, or a user-visible label changes it;
* **unchanged by laziness** — the lazy, memoised hash equals the eager
  recipe it replaced (kept verbatim below as the oracle) on random
  circuits, and a revision's hash read late still reflects that revision.
"""

import hashlib
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import fresh_circuit
from repro.core.element import Element, InGen
from repro.core.functional import Functional, hole
from repro.core.helpers import inp, inp_at
from repro.core.ir import compile_circuit, structural_hash
from repro.core.timing import Normal, Uniform
from repro.core.transitional import Transitional
from repro.core.wire import Wire
from repro.sfq import and_s, c, c_inv, dro, jtl, m, s

BUILD_FIG12 = """
from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp, inp_at
from repro.core.ir import structural_hash
from repro.sfq import and_s

with fresh_circuit() as circuit:
    a = inp_at(125, 175, 225, 275, name="A")
    b = inp_at(75, 185, 225, 265, name="B")
    clk = inp(start=50, period=50, n=6, name="CLK")
    and_s(a, b, clk, name="Q")
print(structural_hash(circuit))
"""


def build_fig12():
    with fresh_circuit() as circuit:
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(75, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
    return circuit


def build_chain(*, delay=None, times=(10.0,), label="Q", stages=2):
    with fresh_circuit() as circuit:
        wire = inp_at(*times, name="A")
        overrides = {} if delay is None else {"firing_delay": delay}
        for _ in range(stages):
            wire = jtl(wire, **overrides)
        wire.observe(label)
    return circuit


class TestStability:
    def test_identical_across_processes(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", BUILD_FIG12],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == structural_hash(build_fig12())

    def test_identical_across_repeat_builds(self):
        assert structural_hash(build_fig12()) == structural_hash(build_fig12())

    def test_insensitive_to_stray_wire_counter(self):
        # Wires created outside any circuit advance the class-global
        # fallback counter; adoption re-names per circuit, so the hash (and
        # the serialized form) cannot see the offset.
        first = structural_hash(build_fig12())
        for _ in range(17):
            Wire()
        assert structural_hash(build_fig12()) == first

    def test_insensitive_to_insertion_order_of_independent_nodes(self):
        def build(order):
            with fresh_circuit() as circuit:
                chains = {}
                for key in order:
                    t = {"A": 10.0, "B": 20.0}[key]
                    chains[key] = jtl(inp_at(t, name=key))
                for key in sorted(chains):
                    chains[key].observe(f"out_{key}")
            return circuit

        assert structural_hash(build("AB")) == structural_hash(build("BA"))

    def test_hash_is_hex_digest(self):
        digest = structural_hash(build_fig12())
        assert len(digest) == 64
        int(digest, 16)


class TestSensitivity:
    def test_firing_delay_changes_hash(self):
        assert structural_hash(build_chain()) != structural_hash(
            build_chain(delay=9.9)
        )

    def test_transition_time_changes_hash(self):
        def build(tt):
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                jtl(a, transition_time={("idle", "a"): tt}, name="Q")
            return circuit

        assert structural_hash(build(0.0)) != structural_hash(build(2.5))

    def test_input_schedule_changes_hash(self):
        assert structural_hash(build_chain(times=(10.0,))) != structural_hash(
            build_chain(times=(10.0, 30.0))
        )

    def test_connection_changes_hash(self):
        def build(swapped):
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                b = inp_at(20.0, name="B")
                clk = inp_at(50.0, name="CLK")
                if swapped:
                    and_s(b, a, clk, name="Q")
                else:
                    and_s(a, b, clk, name="Q")
            return circuit

        assert structural_hash(build(False)) != structural_hash(build(True))

    def test_added_node_changes_hash(self):
        assert structural_hash(build_chain(stages=2)) != structural_hash(
            build_chain(stages=3)
        )

    def test_observed_label_changes_hash(self):
        assert structural_hash(build_chain(label="Q")) != structural_hash(
            build_chain(label="R")
        )


# ----------------------------------------------------------------------
# The eager recipe, verbatim: the oracle for the lazy, memoised hash.
# ----------------------------------------------------------------------
_HASH_ROUNDS = 3
_HASH_VERSION = "repro-ir-v1"


def _delay_token(delay) -> tuple:
    if isinstance(delay, Normal):
        return ("normal", repr(float(delay.mean)), repr(float(delay.stddev)))
    if isinstance(delay, Uniform):
        return ("uniform", repr(float(delay.low)), repr(float(delay.high)))
    return ("const", repr(float(delay)))


def _element_signature(element: Element) -> tuple:
    if isinstance(element, InGen):
        return ("in", tuple(repr(float(t)) for t in element.times))
    if isinstance(element, Transitional):
        machine = element.machine
        transitions = tuple(sorted(
            (
                t.source, t.trigger, t.dest, t.priority,
                repr(float(t.transition_time)),
                tuple(sorted(
                    (out, _delay_token(d)) for out, d in t.firing.items()
                )),
                tuple(sorted(
                    (sym, repr(float(dist)))
                    for sym, dist in t.past_constraints.items()
                )),
            )
            for t in machine.transitions
        ))
        return (
            "cell", element.name, machine.initial,
            tuple(machine.inputs), tuple(machine.outputs), transitions,
        )
    if isinstance(element, Functional):
        return (
            "hole", element.name, tuple(element.inputs),
            tuple(element.outputs),
            tuple(sorted(
                (out, _delay_token(d)) for out, d in element.delays.items()
            )),
        )
    return ("element", element.name, tuple(element.inputs), tuple(element.outputs))


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _eager_structural_hash(nodes, in_edges, out_edges, open_outputs) -> str:
    labels = [
        _digest(
            _element_signature(node.element),
            tuple(open_outputs[i]),
        )
        for i, node in enumerate(nodes)
    ]
    for _ in range(_HASH_ROUNDS):
        labels = [
            _digest(
                labels[i],
                tuple(sorted(
                    (labels[n], my_port, their_port, wlabel)
                    for n, my_port, their_port, wlabel in in_edges[i]
                )),
                tuple(sorted(
                    (labels[n], my_port, their_port, wlabel)
                    for n, my_port, their_port, wlabel in out_edges[i]
                )),
            )
            for i in range(len(nodes))
        ]
    edge_digest = tuple(sorted(
        (labels[i], my_port, labels[n], their_port, wlabel)
        for i in range(len(nodes))
        for n, my_port, their_port, wlabel in out_edges[i]
    ))
    return _digest(_HASH_VERSION, len(nodes), tuple(sorted(labels)), edge_digest)


def eager_hash(circuit) -> str:
    """The hash as the eager compile pass computed it, from the circuit's
    current state (the adjacency built exactly as that pass built it)."""
    nodes = tuple(circuit.nodes)
    node_index = {node.name: i for i, node in enumerate(nodes)}
    wires = tuple(circuit.wires)
    wire_ids = {id(w): k for k, w in enumerate(wires)}
    wire_dest = []
    for wire in wires:
        dest = circuit.dest_of.get(wire)
        wire_dest.append(
            None if dest is None else (node_index[dest[0].name], dest[1])
        )
    in_edges = [[] for _ in nodes]
    out_edges = [[] for _ in nodes]
    open_outputs = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        for port, wire in node.output_wires.items():
            wid = wire_ids[id(wire)]
            wlabel = wire.observed_as if wire.is_user_named else None
            dest = wire_dest[wid]
            if dest is None:
                open_outputs[i].append((port, wlabel))
            else:
                dest_id, dest_port = dest
                out_edges[i].append((dest_id, port, dest_port, wlabel))
                in_edges[dest_id].append((i, dest_port, port, wlabel))
    return _eager_structural_hash(nodes, in_edges, out_edges, open_outputs)


@hole(delay=4.0, inputs=["a"], outputs=["q"])
def _echo(a, time):
    return a


@hole(delay={"x": Normal(3.0, 0.5), "y": 2.5}, inputs=["a", "b"],
      outputs=["x", "y"])
def _fork(a, b, time):
    return (a, b)


def build_mixed(seed: int, n_cells: int):
    """A random netlist mixing every element kind the hash signs.

    Repeated plain cells share their class machine; ``firing_delay`` and
    ``transition_time`` overrides give a cell its own machine;
    ``name_override`` relabels a shared one; holes carry constant and
    distribution delays; inputs carry one-shot and periodic schedules.
    Some wires are observed, some stay anonymous.
    """
    rng = random.Random(seed)
    with fresh_circuit() as circuit:
        pool = [inp_at(*sorted(rng.sample(range(10, 400, 7), rng.randint(0, 3))),
                       name=f"in{k}")
                for k in range(rng.randint(1, 3))]
        clk = inp(start=50.0, period=rng.choice([40.0, 60.0]),
                  n=rng.randint(1, 4), name="clk")
        clocked = False
        for k in range(n_cells):
            kind = rng.choice(["jtl", "jtl", "s", "m", "c", "c_inv", "and",
                               "dro", "echo", "fork"])
            if kind in ("m", "c", "c_inv", "and", "fork") and len(pool) < 2:
                kind = "jtl"
            if kind in ("and", "dro") and clocked:
                kind = "jtl"
            overrides = {}
            roll = rng.random()
            if roll < 0.2:
                overrides["firing_delay"] = rng.choice([2.5, 6.0, 9.5])
            elif roll < 0.3:
                overrides["name_override"] = rng.choice(["X", "Y"])
            name = f"w{k}" if rng.random() < 0.3 else None
            if kind == "jtl":
                pool.append(jtl(pool.pop(rng.randrange(len(pool))),
                                name=name, **overrides))
            elif kind == "s":
                pool += list(s(pool.pop(rng.randrange(len(pool))),
                               **overrides))
            elif kind in ("m", "c", "c_inv"):
                first = pool.pop(rng.randrange(len(pool)))
                second = pool.pop(rng.randrange(len(pool)))
                cell = {"m": m, "c": c, "c_inv": c_inv}[kind]
                pool.append(cell(first, second, name=name, **overrides))
            elif kind in ("and", "dro"):
                clocked = True
                ins = [pool.pop(rng.randrange(len(pool)))
                       for _ in range(2 if kind == "and" else 1)]
                cell = and_s if kind == "and" else dro
                pool.append(cell(*ins, clk, name=name, **overrides))
            elif kind == "echo":
                pool.append(_echo(pool.pop(rng.randrange(len(pool)))))
            else:
                first = pool.pop(rng.randrange(len(pool)))
                second = pool.pop(rng.randrange(len(pool)))
                pool += list(_fork(first, second))
        for k, wire in enumerate(pool):
            if rng.random() < 0.7:
                wire.observe(f"out{k}")
    return circuit


class TestLazyHashMatchesEagerRecipe:
    @given(seed=st.integers(0, 100_000), n_cells=st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, seed, n_cells):
        circuit = build_mixed(seed, n_cells)
        assert compile_circuit(circuit).structural_hash == eager_hash(circuit)

    def test_repeated_cells(self):
        # Long runs of identical cells hit every memo level.
        for stages in (1, 8, 40):
            circuit = build_chain(stages=stages)
            assert structural_hash(circuit) == eager_hash(circuit)

    def test_late_first_read_sees_its_own_revision(self):
        circuit = build_chain(label="Q")
        revision_k = compile_circuit(circuit)
        expected = eager_hash(circuit)
        circuit.find_wire("A").observe("renamed")  # revision k + 1
        assert compile_circuit(circuit) is not revision_k
        assert revision_k.structural_hash == expected
        assert compile_circuit(circuit).structural_hash == eager_hash(circuit)
        assert compile_circuit(circuit).structural_hash != expected
