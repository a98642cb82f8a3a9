"""Stability properties of the compiled IR's structural hash.

The hash is the identity the CI manifest and compile-cache rely on, so its
contract is pinned here from both sides:

* **stable** — identical across processes, across repeat builds in one
  process, and under anonymous-wire-counter offsets and node insertion
  order for isomorphic builds;
* **sensitive** — any change to a delay, a transition time, a connection,
  an input schedule, or a user-visible label changes it;
* **unchanged by laziness** — the lazy, memoised hash equals an
  unmemoised eager form of the same recipe on random circuits, and a
  revision's hash read late still reflects that revision;
* **the same relation as the recipe it replaced** — the integer colour
  refinement (``repro-ir-v2``) gives two circuits equal digests exactly
  when the hex-label Weisfeiler–Lehman recipe (``repro-ir-v1``, kept
  verbatim below as the oracle) does, on random circuits under
  node-order permutations, the pairs above, the registry designs and
  every point of the CI explore grids.
"""

import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circuit import fresh_circuit
from repro.core.element import Element, InGen
from repro.core.functional import Functional, hole
from repro.core.helpers import inp, inp_at
from repro.core.ir import compile_circuit, structural_hash
from repro.core.timing import Normal, Uniform
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.explore.families import FamilyFactory
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


def build_chain(*, delay=None, times=(10.0,), label="Q", stages=2, source="A"):
    with fresh_circuit() as circuit:
        wire = inp_at(*times, name=source)
        overrides = {} if delay is None else {"firing_delay": delay}
        for _ in range(stages):
            wire = jtl(wire, **overrides)
        wire.observe(label)
    return circuit


def build_and(swapped):
    with fresh_circuit() as circuit:
        a = inp_at(10.0, name="A")
        b = inp_at(20.0, name="B")
        clk = inp_at(50.0, name="CLK")
        if swapped:
            and_s(b, a, clk, name="Q")
        else:
            and_s(a, b, clk, name="Q")
    return circuit


def build_dangling(*times):
    """Unconnected input generators: equal key tables, and only the colour
    multiset tells ``(10, 10, 20)`` from ``(10, 20, 20)``."""
    with fresh_circuit() as circuit:
        for t in times:
            inp_at(t)
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
        assert structural_hash(build_and(False)) != structural_hash(
            build_and(True)
        )

    def test_added_node_changes_hash(self):
        assert structural_hash(build_chain(stages=2)) != structural_hash(
            build_chain(stages=3)
        )

    def test_observed_label_changes_hash(self):
        assert structural_hash(build_chain(label="Q")) != structural_hash(
            build_chain(label="R")
        )
        assert structural_hash(build_chain(source="A")) != structural_hash(
            build_chain(source="B")
        )


# ----------------------------------------------------------------------
# The eager v1 recipe, verbatim: the oracle for the equal-hash relation.
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


def _adjacency(circuit):
    """Per node: in-edges and out-edges as ``(neighbour, my port, their
    port, wire label)`` and open outputs as ``(port, wire label)``, built
    exactly as the eager compile pass built them."""
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
    return nodes, in_edges, out_edges, open_outputs


def eager_v1_hash(circuit) -> str:
    """The v1 hash as the eager compile pass computed it, from the
    circuit's current state."""
    return _eager_structural_hash(*_adjacency(circuit))


# ----------------------------------------------------------------------
# The v2 recipe, eager and unmemoised: the oracle for the memoised code.
# ----------------------------------------------------------------------
_V2_VERSION = "repro-ir-v2"


def _int_bytes(values) -> bytes:
    packed = array("q", values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def eager_hash(circuit) -> str:
    """The v2 hash computed directly from its definition: integer colour
    refinement with every node's neighbour ints sorted on their own and
    every signature built afresh."""
    nodes, _, out_edges, open_outputs = _adjacency(circuit)
    n = len(nodes)
    edges = [
        (i, (my_port, their_port, wlabel), k)
        for i in range(n)
        for k, my_port, their_port, wlabel in out_edges[i]
    ]
    attrs = sorted({attr for _, attr, _ in edges}, key=repr)
    attr_id = {attr: r for r, attr in enumerate(attrs)}
    span = 2 * len(attrs)
    ends = [[] for _ in range(n)]  # (neighbour, attribute * 2 + outgoing)
    for i, attr, k in edges:
        ends[i].append((k, 2 * attr_id[attr] + 1))
        ends[k].append((i, 2 * attr_id[attr]))

    keys = [
        (repr(_element_signature(node.element)), repr(tuple(open_outputs[i])))
        for i, node in enumerate(nodes)
    ]
    table = sorted(set(keys))
    colour = [table.index(key) for key in keys]
    digest = hashlib.sha256(repr((_V2_VERSION, n, attrs, table)).encode("utf-8"))
    for _ in range(_HASH_ROUNDS):
        keys = [
            (colour[i], len(ends[i]),
             *sorted(colour[k] * span + code for k, code in ends[i]))
            for i in range(n)
        ]
        table = sorted(set(keys))
        colour = [table.index(key) for key in keys]
        digest.update(_int_bytes([len(table)]))
        digest.update(_int_bytes([x for key in table for x in key]))
    digest.update(_int_bytes(sorted(colour)))
    digest.update(_int_bytes([
        x for edge in sorted(
            (colour[i], attr_id[attr], colour[k]) for i, attr, k in edges
        ) for x in edge
    ]))
    return digest.hexdigest()


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

    def test_signature_memo_leaves_machine_pickles_unchanged(self):
        # The per-machine signature memo lives outside the shared machine,
        # so reading a hash does not change what a compile pickles.
        compiled = compile_circuit(build_fig12())
        machines = {id(n.element.machine): n.element.machine
                    for n in compiled.nodes
                    if isinstance(n.element, Transitional)}
        before = pickle.dumps(list(machines.values()))
        assert compiled.structural_hash == eager_hash(compiled.circuit)
        assert pickle.dumps(list(machines.values())) == before


# ----------------------------------------------------------------------
# v2 induces exactly v1's equal-hash relation.
# ----------------------------------------------------------------------
#: Every point of the CI explore smoke grids.
EXPLORE_GRID = (
    [("racetree", {"depth": d}) for d in (1, 2, 3)]
    + [("bitonic", {"n": n}) for n in (2, 4, 8)]
    + [("adder_xsfq", {"n": n}) for n in (1, 2, 4)]
    + [("memory", {"words": w, "bits": 4}) for w in (4, 8)]
)


def permuted(circuit, seed: int):
    """The same netlist with its nodes in another elaboration order."""
    random.Random(seed).shuffle(circuit.nodes)
    circuit._mutated()
    return circuit


def assert_same_relation(circuits) -> None:
    """Equal v2 digests exactly where v1's are equal, pair by pair."""
    v1 = [eager_v1_hash(c) for c in circuits]
    v2 = [structural_hash(c) for c in circuits]
    for a, b in itertools.combinations(range(len(circuits)), 2):
        assert (v1[a] == v1[b]) == (v2[a] == v2[b]), (a, b)


class TestV2MatchesV1Relation:
    @given(
        seeds=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        n_cells=st.integers(0, 4),
        order=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_circuits_under_permutation(self, seeds, n_cells, order):
        # Few seeds and few cells, so equal digests come up often.
        circuits = []
        for seed in seeds:
            circuits.append(build_mixed(seed, n_cells))
            circuits.append(permuted(build_mixed(seed, n_cells), order + seed))
        assert_same_relation(circuits)

    def test_pairs_registry_and_explore_grid(self):
        circuits = [
            build_fig12(), build_fig12(),
            build_chain(), build_chain(delay=9.9), build_chain(label="R"),
            build_chain(times=(10.0, 30.0)), build_chain(stages=3),
            build_chain(source="B"), build_and(False), build_and(True),
            build_dangling(10.0, 10.0, 20.0), build_dangling(10.0, 20.0, 20.0),
        ]
        designs = [build_in_fresh_circuit(entry) for entry in registry()]
        grid = [FamilyFactory(family, params)() for family, params in EXPLORE_GRID]
        shuffled = [
            permuted(build_in_fresh_circuit(entry), k)
            for k, entry in enumerate(registry())
        ]
        assert_same_relation(circuits + designs + grid + shuffled)
        digests = [structural_hash(c) for c in designs]
        assert len(set(digests)) == len(digests) == 22
        assert digests == [structural_hash(c) for c in shuffled]
