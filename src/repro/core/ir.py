"""The compiled circuit IR: one frozen, validated netlist for every backend.

PyLSE's pipeline is elaborate-once, consume-many (PLDI '22 Section 4): the
same network of PyLSE Machines feeds the discrete-event simulator, the
static timing analysis, the lint rules, and the timed-automata translation.
:func:`compile_circuit` runs the Section 4.2 structural checks **once** and
produces a :class:`CompiledCircuit` — an immutable view of the netlist with

* dense integer node and wire ids (position in elaboration order);
* topology arrays: per-wire source/destination, the circuit's outputs and
  its dataflow edges;
* canonical name indexes (``node_index``, ``node_by_name``) replacing the
  per-backend ``{node.name: node}`` rebuilds;
* per-node dispatch specs (:class:`NodeDispatch`), and the *dispatch
  plan* both simulation drains read (:class:`DispatchPlan`): built on the
  first run of a revision and shared by every later run, so a run
  allocates only its event series and counters.

Views only the analyses and the caches read are computed on first read:
a deterministic topological order with the feedback-edge set that had to
be cut to obtain it, the cyclic strongly-connected components, per-output
nominal delay windows, the structurally identified clock inputs (every
circuit input whose pulses reach a ``clk`` port), the pure-delay cells
(splitters and JTLs; the dispatch plan reads the same per-machine flag,
``PylseMachine.pure_delay``, to fold them), and a stable
:attr:`~CompiledCircuit.structural_hash`. A plain ``simulate()`` or
Monte-Carlo run never computes them.

The compile result is memoized on the circuit (keyed by its mutation
version), so repeated ``simulate()`` / ``measure_yield()`` /
``critical_sigma()`` calls on the same design never recompile; it is also
picklable, which is how the parallel Monte-Carlo workers receive the
elaborated design exactly once (see :mod:`repro.core.parallel`).

The structural hash (recipe ``repro-ir-v2``) is an integer colour
refinement in the Weisfeiler–Lehman style over element behavior (machine
transitions, hole delays, input schedules), port wiring, and user-visible
wire labels. Edge attributes ``(source port, dest port, wire label)`` and
initial node keys ``(repr(signature), repr(open outputs))`` get canonical
integer ids, their ranks in the sorted tables of distinct values; each of
three rounds re-colours a node by the rank of ``(colour, degree, sorted
neighbour ints)``. One sha256 covers the version, the node count, every
round's key table, the sorted final colours and the sorted edges: a
canonical certificate of the refinement, so two netlists hash equal
exactly when their three-round neighbourhood multisets and labelled edge
multisets are equal. The hash is independent of the process-global
anonymous wire counter, of node insertion order for isomorphic builds,
and of the process and host it runs in — while any change to a delay, a
transition, a connection, or an observed label changes it. Auto-generated
node names and anonymous wire names deliberately do not participate.
"""

from __future__ import annotations

import hashlib
import sys
import weakref
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import add, sub
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple, Union,
)

from .circuit import Circuit, same_name_error
from .element import Element, InGen
from .errors import PylseError, WireError
from .functional import Functional
from .node import Node
from .timing import Distribution, Normal, Uniform, nominal_delay
from .transitional import Transitional
from .wire import Wire

#: Rounds of neighborhood refinement in the structural hash. Three rounds
#: fold every node's 3-hop neighborhood into its colour — enough to make
#: any single rewiring change the digest while keeping the hash
#: O(rounds * edges log edges); the final digest also mixes in every edge
#: explicitly, so even changes beyond the refinement horizon cannot
#: cancel out.
_HASH_ROUNDS = 3

#: Bumped whenever the hash recipe changes, so stale manifests fail loudly.
_HASH_VERSION = "repro-ir-v2"

#: Bumped whenever the noise a seed draws changes, so a cached yield
#: computed under older noise is a miss instead of a stale hit. v2: every
#: noisy run draws from the counter streams (hole designs included).
_NOISE_VERSION = "noise-v2"

#: Bumped whenever the zone explorer's state counts or search order
#: change, so a cached PL4xx analysis (its "(N states)" messages, its BFS
#: prefix under a ``max_states`` cut) from an older explorer is a miss.
#: v2: active-clock zones. v3: same-instant persistent sets.
_EXPLORER_VERSION = "zone-v3"

#: Bumped whenever the layout of a cache key tuple changes. v2: the keys
#: carry the order fingerprint (v1 keys had none and left a result's
#: node order undetermined).
_RESULT_KEY_VERSION = "result-key-v2"
_LINT_KEY_VERSION = "lint-key-v2"


class OutSpec(NamedTuple):
    """Static routing of one output port of one node."""

    port: str
    wire_id: int
    #: Dense id of the consuming node, or -1 for a circuit output.
    dest: int
    #: Input port on the consumer ('' for a circuit output).
    dest_port: str


class NodeDispatch(NamedTuple):
    """One node's identity and output routing (``outs``, in port order);
    its run-time form is the node's :class:`DispatchPlan` entry."""

    index: int
    name: str
    cell: str
    is_input: bool
    outs: Tuple[OutSpec, ...]


#: Fields of a plan entry: the node, a ``Transitional`` cell's machine,
#: any other element's delivery entry (a hole's ``raw_firings``, else
#: ``handle_inputs``), the port -> route map, the dense index and a
#: pure-delay cell's fold record (else None; see :class:`DispatchPlan`).
(
    PLAN_NODE, PLAN_MACHINE, PLAN_DELIVER, PLAN_ROUTES, PLAN_INDEX, PLAN_HOP,
) = range(6)


class DispatchPlan(NamedTuple):
    """What every run of one compiled revision reads; no run state.

    ``entries[i]`` is node ``i``'s plan entry (a tuple, fields
    ``PLAN_*``). A route is ``(slot, dest, dest_key, dest_entry,
    dest_port, label)``: the run's series index, the consumer's dense id
    and heap key (its placement ``node_id``, which orders simultaneous
    groups), its entry (None for a circuit output, with dest and key -1),
    its input port and the wire label. Wires sharing a label share a
    series; ``series_labels`` names them in first-wire order.

    A pure-delay cell (:attr:`CompiledCircuit.pure_delay`) carries a fold
    record: one ``(delay, slot, dest_key, dest_entry, dest_port)`` per
    output its one transition fires, in firing order, so a drain can fire
    it without stepping its machine. ``folds`` says whether a
    constant-delay run may expand pure-delay hops at the push: the
    circuit has a pure-delay cell and every cell is a machine (a fold
    that meets an error starts the run over, which would run a hole's or
    custom element's Python code twice).
    """

    entries: Tuple[tuple, ...]
    series_labels: Tuple[str, ...]
    folds: bool


@dataclass(frozen=True)
class CompiledCircuit:
    """A frozen, validated, consume-many view of an elaborated circuit.

    Node and wire ids are dense integers in elaboration order, so every
    per-node or per-wire annotation is a tuple indexed by id. The dataclass
    is frozen: backends share one instance and none may mutate it.

    :func:`compile_circuit` builds the node and wire tables, the dispatch
    specs and the edge list. The dispatch ``plan``, the structural hash and
    the analysis views (``topo_order``, ``feedback_edges``, ``is_acyclic``,
    ``cyclic_sccs``, ``delay_windows``, ``clock_wires``, ``pure_delay``)
    are computed the first time they are read, from the snapshot taken at
    compile time.
    """

    circuit: Circuit
    #: Mutation version of ``circuit`` this compile reflects.
    version: int
    #: The first whole-circuit structural problem of this revision, or
    #: None. A strict compile raises it; lint compiles tolerantly
    #: (``validate=False``) so it can report on broken circuits (undriven
    #: wires are its PL204 finding, not a crash), and a later strict call
    #: on that memo raises the recorded problem without checking again.
    problem: Optional[PylseError]

    # -- nodes ---------------------------------------------------------
    nodes: Tuple[Node, ...]
    node_index: Dict[str, int]
    cell_ids: Tuple[int, ...]
    input_ids: Tuple[int, ...]
    dispatch: Tuple[NodeDispatch, ...]

    # -- wires ---------------------------------------------------------
    wires: Tuple[Wire, ...]
    wire_index: Dict[str, int]
    labels: Tuple[str, ...]
    #: Per wire id: the user-visible label, or None for an anonymous wire
    #: (the hash input; snapshotted so a later ``observe()`` cannot leak
    #: into this revision's hash).
    user_labels: Tuple[Optional[str], ...]
    #: Per wire id: (driving node id, output port).
    wire_source: Tuple[Tuple[int, str], ...]
    #: Per wire id: (consuming node id, input port), or None (circuit output).
    wire_dest: Tuple[Optional[Tuple[int, str]], ...]
    output_wire_ids: Tuple[int, ...]

    # -- topology ------------------------------------------------------
    #: Every dataflow edge as (source node id, dest node id, wire id).
    edges: Tuple[Tuple[int, int, int], ...]

    #: The structural hash once read. Unlike ``_cache`` it is pickled, so a
    #: hash the parent has read travels to the Monte-Carlo workers.
    _hash: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The order fingerprint, computed in the same pass as ``_hash``.
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Per-instance scratch for lazily derived views (never pickled).
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state

    def _memo(self, key, compute: Callable[[], object]):
        """``compute()`` on first read, then the value kept in ``_cache``."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    # -- computed on first read ----------------------------------------
    @property
    def plan(self) -> DispatchPlan:
        """The dispatch plan every run of this revision shares."""
        return self._memo("plan", lambda: _dispatch_plan(self))

    @property
    def structural_hash(self) -> str:
        """The stable colour-refinement digest (see the module docstring)."""
        digest = self._hash
        if digest is None:
            digest, fingerprint = _structural_hash(
                self.nodes, self.dispatch, self.user_labels
            )
            object.__setattr__(self, "_fingerprint", fingerprint)
            object.__setattr__(self, "_hash", digest)
        return digest

    @property
    def order_fingerprint(self) -> str:
        """The netlist in declaration order, digested in the hash's pass.

        The structural hash ignores node order; a Monte-Carlo result and a
        reach analysis do not (a noise draw is addressed by node index,
        the explorer's persistent set picks cells in automaton order). The
        fingerprint is a sha256 of the final refinement colours listed in
        declaration order and of the edges ``(source index, attribute,
        dest index)``: with the structural hash it pins the indexed
        netlist, so two circuits with equal hash and fingerprint compile
        to the same nodes, wires and edges at the same ids.
        """
        if self._fingerprint is None:
            self.structural_hash
        return self._fingerprint

    def _topology(self) -> Tuple[Tuple[int, ...], FrozenSet[Tuple[int, int, int]]]:
        return self._memo("topology", lambda: _topological_order(
            len(self.nodes), self.edges
        ))

    @property
    def topo_order(self) -> Tuple[int, ...]:
        """All node ids in a deterministic topological order (feedback edges
        ignored); a valid dataflow order for the acyclic part."""
        return self._topology()[0]

    @property
    def feedback_edges(self) -> FrozenSet[Tuple[int, int, int]]:
        """The edges that point backwards in ``topo_order`` — empty iff
        acyclic."""
        return self._topology()[1]

    @property
    def is_acyclic(self) -> bool:
        """True iff the netlist has no dataflow cycle."""
        return not self.feedback_edges

    @property
    def cyclic_sccs(self) -> Tuple[Tuple[int, ...], ...]:
        """Strongly-connected components containing a cycle, node ids sorted
        by node name (the order the lint rules report them in)."""
        return self._memo("cyclic_sccs", lambda: _cyclic_sccs(
            len(self.nodes), self.edges, [nd.name for nd in self.dispatch]
        ))

    @property
    def delay_windows(self) -> Dict[Tuple[int, str], Tuple[float, float]]:
        """(cell node id, output port) -> (min, max) nominal firing delay."""
        return self._memo("delay_windows", lambda: _delay_windows(
            self.nodes, self.cell_ids
        ))

    @property
    def pure_delay(self) -> FrozenSet[int]:
        """Ids of the cells that only delay and fan out their input.

        A pure-delay cell is a machine with one input, one state and one
        self-loop transition that has no transition time and no past
        constraint and fires every output after a constant delay > 0
        (``S`` and ``JTL``): it has no run state to keep, cannot violate,
        and every pulse it takes in leaves it shifted in time.
        """
        return self._memo("pure_delay", lambda: frozenset(
            i for i in self.cell_ids
            if isinstance(self.nodes[i].element, Transitional)
            and self.nodes[i].element.machine.pure_delay
        ))

    @property
    def has_distributions(self) -> bool:
        """Whether some firing delay is a ``Normal`` or ``Uniform``, so a
        run samples delays from its counter streams."""
        return self._memo("has_distributions", lambda: any(
            element.machine.has_distributions
            if isinstance(element, Transitional)
            else isinstance(element, Functional) and any(
                isinstance(d, Distribution) for d in element.delays.values()
            )
            for element in (self.nodes[i].element for i in self.cell_ids)
        ))

    @property
    def clock_wires(self) -> Dict[str, Tuple[str, ...]]:
        """Input label -> names of cells whose ``clk`` port its pulses reach."""
        return self._memo("clock_wires", lambda: _clock_wires(self))

    def reachable(self, roots: Iterable[int]) -> Set[int]:
        """Ids of the nodes some root's pulses reach (the roots included)."""
        reached = set(roots)
        stack = list(reached)
        while stack:
            for out in self.dispatch[stack.pop()].outs:
                if out.dest >= 0 and out.dest not in reached:
                    reached.add(out.dest)
                    stack.append(out.dest)
        return reached

    # -- name lookups --------------------------------------------------
    def node(self, name: str) -> Node:
        """Node by name (the shared replacement for ``{n.name: n}`` maps)."""
        try:
            return self.nodes[self.node_index[name]]
        except KeyError:
            raise PylseError(f"No node named {name!r} in this circuit") from None

    @property
    def node_by_name(self) -> Dict[str, Node]:
        """Read-only name -> Node view (built once per compile)."""
        return self._memo("node_by_name", lambda: {
            name: self.nodes[i] for name, i in self.node_index.items()
        })

    def cells(self) -> List[Node]:
        """Placed cells in elaboration order (matches ``Circuit.cells``)."""
        return [self.nodes[i] for i in self.cell_ids]

    def input_nodes(self) -> List[Node]:
        """Input generators in elaboration order."""
        return [self.nodes[i] for i in self.input_ids]

    def delay_window(self, node: Union[Node, str, int], port: str) -> Tuple[float, float]:
        """(min, max) nominal firing delay of an output port."""
        if isinstance(node, Node):
            node = self.node_index[node.name]
        elif isinstance(node, str):
            node = self.node_index[node]
        try:
            return self.delay_windows[(node, port)]
        except KeyError:
            name = self.nodes[node].name
            raise PylseError(
                f"{name}: output {port!r} is never fired by any transition"
            ) from None

    def topo_nodes(self) -> List[Node]:
        """Nodes in the compiled topological order."""
        return [self.nodes[i] for i in self.topo_order]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({len(self.nodes)} nodes, {len(self.wires)} "
            f"wires, hash {self.structural_hash[:12]})"
        )


# ----------------------------------------------------------------------
# Hashing helpers
# ----------------------------------------------------------------------
def _delay_token(delay) -> tuple:
    """A process-stable token for a delay: a number, Normal or Uniform."""
    if isinstance(delay, Normal):
        return ("normal", repr(float(delay.mean)), repr(float(delay.stddev)))
    if isinstance(delay, Uniform):
        return ("uniform", repr(float(delay.low)), repr(float(delay.high)))
    return ("const", repr(float(delay)))


def _element_signature(element: Element) -> tuple:
    """Behavioral identity of an element, independent of placement.

    Captures everything the simulator and the static analyses consume:
    machine transitions with their delays, constraints and priorities for
    cells; delays and port lists for holes; the pulse schedule for input
    generators. Functional holes hash by interface only — their Python body
    is opaque (the same caveat the serializer and the TA translation carry).
    """
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


#: Per shared machine: cell name -> repr of that cell's signature. A
#: machine is immutable and shared by every instance placed with the same
#: overrides, so a cell's signature is built once per (name, machine). The
#: memo is keyed weakly and lives outside the compiled circuit, so it
#: neither keeps a dropped machine alive nor changes a pickled compile.
_CELL_SIGNATURES: "weakref.WeakKeyDictionary[object, Dict[str, str]]" = (
    weakref.WeakKeyDictionary()
)


def _signature_key(element: Element) -> str:
    """``repr`` of the element's signature, memoised for cells."""
    if not isinstance(element, Transitional):
        return repr(_element_signature(element))
    by_name = _CELL_SIGNATURES.get(element.machine)
    if by_name is None:
        by_name = _CELL_SIGNATURES[element.machine] = {}
    key = by_name.get(element.name)
    if key is None:
        key = by_name[element.name] = repr(_element_signature(element))
    return key


def _int_bytes(values: Iterable[int]) -> bytes:
    """Little-endian int64 bytes of ``values`` (the same on every host)."""
    packed = array("q", values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _structural_hash(
    nodes: Sequence[Node],
    dispatch: Sequence[NodeDispatch],
    user_labels: Sequence[Optional[str]],
) -> Tuple[str, str]:
    """Integer colour refinement of the netlist, digested once.

    An edge's attribute is ``(source port, dest port, wire label)``; wire
    labels are the user-visible observation names (None for anonymous
    wires), so a rename that changes the events dict changes the hash
    while the anonymous counter does not. An attribute's id is its rank
    in the repr-sorted table of distinct attributes. A node's initial key
    is ``(repr(signature), repr(open outputs))``, open outputs being the
    ``(port, wire label)`` pairs that feed no consumer; its colour is the
    key's rank in the sorted table of distinct keys.

    Each of the ``_HASH_ROUNDS`` rounds keys a node by ``(colour, degree,
    *sorted neighbour ints)``. An edge end's neighbour int is
    ``colour[neighbour] * span + attribute * 2 + (1 if outgoing)``, with
    ``span`` twice the number of attributes; the new colour is the key's
    rank in the sorted table of distinct keys. The one sha256 covers the
    version, ``n``, the attribute table, every round's key table, the
    sorted final colours and the sorted edges ``(colour, attribute,
    colour)``. These tables are a canonical certificate of the
    refinement: every colour decodes back into the neighbourhood it
    stands for, so two netlists hash equal exactly when their three-round
    neighbourhood multisets and labelled edge multisets are equal.

    Returns ``(digest, order fingerprint)``. The fingerprint is a second
    sha256 over the final colours in declaration order and the edges
    ``(source, attribute, dest)`` sorted by declaration index (see
    :attr:`CompiledCircuit.order_fingerprint`); colours alone would not
    tell two same-coloured nodes apart when they are not symmetric.
    """
    n = len(nodes)
    attr_ids: Dict[tuple, int] = {}  # attribute -> first-seen id
    # One entry per edge: its source, first-seen attribute id and dest.
    sources: List[int] = []
    attr_col: List[int] = []
    dests: List[int] = []
    open_outputs: List[List[Tuple[str, Optional[str]]]] = [
        [] for _ in range(n)
    ]
    for nd in dispatch:
        i = nd.index
        for port, wire_id, dest, dest_port in nd.outs:
            wlabel = user_labels[wire_id]
            if dest < 0:
                open_outputs[i].append((port, wlabel))
            else:
                attr = (port, dest_port, wlabel)
                sources.append(i)
                attr_col.append(attr_ids.setdefault(attr, len(attr_ids)))
                dests.append(dest)
    attrs = sorted(attr_ids, key=repr)
    canonical = [0] * len(attrs)
    for rank, attr in enumerate(attrs):
        canonical[attr_ids[attr]] = rank
    attr_col = list(map(canonical.__getitem__, attr_col))

    keys = [
        (_signature_key(node.element), repr(tuple(opens)))
        for node, opens in zip(nodes, open_outputs)
    ]
    table = sorted(set(keys))
    rank_of = {key: r for r, key in enumerate(table)}
    colour = [rank_of[key] for key in keys]
    digest = hashlib.sha256(
        repr((_HASH_VERSION, n, attrs, table)).encode("utf-8")
    )

    # Edge ends as flat columns: owner, neighbour, attribute * 2 + outgoing.
    owners = sources + dests
    neighbours = dests + sources
    doubled = [2 * a for a in attr_col]
    codes = [a + 1 for a in doubled] + doubled
    # One sort per round orders every node's neighbour ints: an end of
    # node i is offset by i * radix (each neighbour int is below radix),
    # so the sort groups the ends by node, in node order, and orders each
    # group; the offsets are then taken off again.
    span = 2 * len(attrs)
    radix = n * span
    degrees = [0] * n
    for i in owners:
        degrees[i] += 1
    offset_codes = [i * radix + code for i, code in zip(owners, codes)]
    offsets = [i * radix for i, degree in enumerate(degrees) for _ in range(degree)]
    stops = list(accumulate(degrees))
    bounds = list(zip(degrees, map(sub, stops, degrees), stops))
    for _ in range(_HASH_ROUNDS):
        scaled = [c * span for c in colour].__getitem__
        ordered = sorted(map(add, map(scaled, neighbours), offset_codes))
        values = list(map(sub, ordered, offsets))
        keys = [
            (c, degree, *values[start:stop])
            for c, (degree, start, stop) in zip(colour, bounds)
        ]
        table = sorted(set(keys))
        rank_of = {key: r for r, key in enumerate(table)}
        colour = list(map(rank_of.__getitem__, keys))
        digest.update(_int_bytes((len(table),)))
        digest.update(_int_bytes(chain.from_iterable(table)))
    digest.update(_int_bytes(sorted(colour)))
    at = colour.__getitem__
    digest.update(_int_bytes(chain.from_iterable(sorted(
        zip(map(at, sources), attr_col, map(at, dests))
    ))))
    fingerprint = hashlib.sha256(_int_bytes(colour))
    fingerprint.update(_int_bytes(chain.from_iterable(sorted(
        zip(sources, attr_col, dests)
    ))))
    return digest.hexdigest(), fingerprint.hexdigest()


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------
def _topological_order(
    n: int, edges: Sequence[Tuple[int, int, int]]
) -> Tuple[Tuple[int, ...], FrozenSet[Tuple[int, int, int]]]:
    """Kahn's algorithm with deterministic forcing on cycles.

    Returns ``(order, feedback)`` where ``order`` contains every node id
    exactly once (smallest-id-first among ready nodes) and ``feedback`` is
    the set of edges pointing backwards (or self-loops) in that order —
    empty iff the circuit is acyclic. Cycles are broken by forcing the
    smallest-id node whose remaining predecessors are all stuck, which
    keeps the order reproducible across processes.
    """
    import heapq

    indegree = [0] * n
    succs: List[List[int]] = [[] for _ in range(n)]
    for src, dst, _ in edges:
        if src != dst:
            indegree[dst] += 1
            succs[src].append(dst)
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order: List[int] = []
    placed = [False] * n
    remaining = n
    while remaining:
        if ready:
            i = heapq.heappop(ready)
            if placed[i]:
                continue
        else:
            # Cycle: force the smallest unplaced node.
            i = next(k for k in range(n) if not placed[k])
        placed[i] = True
        order.append(i)
        remaining -= 1
        for dst in succs[i]:
            if placed[dst]:
                continue
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    position = {node: k for k, node in enumerate(order)}
    feedback = frozenset(
        (src, dst, wid)
        for src, dst, wid in edges
        if position[src] >= position[dst]
    )
    return tuple(order), feedback


def _cyclic_sccs(
    n: int, edges: Sequence[Tuple[int, int, int]], names: Sequence[str]
) -> Tuple[Tuple[int, ...], ...]:
    """Strongly-connected components that contain a cycle (Tarjan).

    Components are returned with member ids sorted by node name and the
    component list sorted by its first member's name — the order the lint
    feedback-loop rule reports them in.
    """
    succs: List[List[int]] = [[] for _ in range(n)]
    self_loop = [False] * n
    for src, dst, _ in edges:
        if src == dst:
            self_loop[src] = True
        else:
            succs[src].append(dst)

    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    counter = [0]
    components: List[List[int]] = []

    def strongconnect(root: int) -> None:
        # Iterative Tarjan (deep pipelines would blow the recursion limit).
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index_of[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succs[v])):
                w = succs[v][k]
                if index_of[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)

    for v in range(n):
        if index_of[v] == -1:
            strongconnect(v)

    cyclic = [
        tuple(sorted(component, key=lambda i: names[i]))
        for component in components
        if len(component) > 1 or self_loop[component[0]]
    ]
    cyclic.sort(key=lambda component: names[component[0]])
    return tuple(cyclic)


def _clock_wires(compiled: "CompiledCircuit") -> Dict[str, Tuple[str, ...]]:
    """Structural clock identification (same result as analysis.clock_wires).

    An input is a clock iff its pulses reach at least one cell input port
    named ``clk`` through any fabric; the value lists the clocked cells.
    """
    # Source node id -> names of clk-consuming nodes it directly feeds.
    direct: Dict[int, set] = {}
    for wid, dest in enumerate(compiled.wire_dest):
        if dest is not None and dest[1] == "clk":
            direct.setdefault(compiled.wire_source[wid][0], set()).add(
                compiled.dispatch[dest[0]].name
            )

    result: Dict[str, Tuple[str, ...]] = {}
    for input_id in compiled.input_ids:
        reached = compiled.reachable((input_id,))
        clocked = sorted({
            name for src in reached & direct.keys() for name in direct[src]
        })
        if clocked:
            label = compiled.labels[compiled.dispatch[input_id].outs[0].wire_id]
            result[label] = tuple(clocked)
    return result


def _delay_windows(
    nodes: Sequence[Node], cell_ids: Sequence[int]
) -> Dict[Tuple[int, str], Tuple[float, float]]:
    """(cell node id, output port) -> (min, max) nominal firing delay."""
    delay_windows: Dict[Tuple[int, str], Tuple[float, float]] = {}
    for i in cell_ids:
        element = nodes[i].element
        if isinstance(element, Transitional):
            windows: Dict[str, Tuple[float, float]] = {}
            for t in element.machine.transitions:
                for out, delay in t.firing.items():
                    d = nominal_delay(delay)
                    lo, hi = windows.get(out, (d, d))
                    windows[out] = (min(lo, d), max(hi, d))
            for out, window in windows.items():
                delay_windows[(i, out)] = window
        elif isinstance(element, Functional):
            for out, delay in element.delays.items():
                d = nominal_delay(delay)
                delay_windows[(i, out)] = (d, d)
    return delay_windows


# ----------------------------------------------------------------------
# The compile pass
# ----------------------------------------------------------------------
def compile_circuit(circuit: Circuit, validate: bool = True) -> CompiledCircuit:
    """Validate once and freeze the netlist for every backend.

    The result is memoized on the circuit keyed by its mutation version
    (``Circuit.add_node`` and ``Wire.observe`` bump it), so calling this
    anywhere — ``simulate()``, ``lint_circuit()``, ``translate_circuit()``,
    ``circuit_to_json()`` — compiles at most once per circuit revision.

    These are the whole-circuit structural checks, in order of
    precedence: the circuit is not empty, every consumed wire is driven
    (reported in consumption order), no two wires share an observed
    label, and no two nodes share a name. A strict compile raises the
    first problem found. ``validate=False`` records it instead (lint uses
    this: an undriven wire is its PL204 *finding*, not a crash); only a
    duplicate node name, which leaves ``node_index`` ambiguous, still
    raises. Consumed-but-undriven wires simply don't appear in the IR's
    wire tables. A strict call on a tolerantly-compiled memo raises the
    recorded problem.

    One pass over the nodes records each wire's consumer; a second numbers
    the driven wires (in elaboration order) and builds the specs.
    """
    cached = getattr(circuit, "_compiled_ir", None)
    if cached is not None and cached.version == circuit.version:
        if validate and cached.problem is not None:
            raise cached.problem
        return cached

    version = circuit.version
    nodes = tuple(circuit.nodes)
    node_index: Dict[str, int] = {}
    duplicate_node: Optional[str] = None
    # wire -> (consuming node id, input port)
    consumer: Dict[Wire, Tuple[int, str]] = {}
    for i, node in enumerate(nodes):
        name = node.name
        if name in node_index and duplicate_node is None:
            duplicate_node = name
        node_index[name] = i
        for port, wire in node.input_wires.items():
            consumer[wire] = (i, port)

    wires: List[Wire] = []
    labels: List[str] = []
    user_labels: List[Optional[str]] = []
    wire_index: Dict[str, int] = {}
    wire_source: List[Tuple[int, str]] = []
    wire_dest: List[Optional[Tuple[int, str]]] = []
    cell_ids: List[int] = []
    input_ids: List[int] = []
    dispatch: List[NodeDispatch] = []
    edges: List[Tuple[int, int, int]] = []
    for i, node in enumerate(nodes):
        element = node.element
        outs = []
        for port, wire in node.output_wires.items():
            k = len(wires)
            wires.append(wire)
            name, label = wire.name, wire.observed_as
            labels.append(label)
            user_labels.append(label if wire._user_named else None)
            wire_index.setdefault(name, k)
            if label != name:
                wire_index.setdefault(label, k)
            wire_source.append((i, port))
            dest = consumer.get(wire)
            wire_dest.append(dest)
            if dest is None:
                outs.append(OutSpec(port, k, -1, ""))
            else:
                outs.append(OutSpec(port, k, dest[0], dest[1]))
                edges.append((i, dest[0], k))
        is_input = isinstance(element, InGen)
        (input_ids if is_input else cell_ids).append(i)
        dispatch.append(
            NodeDispatch(i, node.name, element.name, is_input, tuple(outs))
        )
    output_wire_ids = tuple(k for k, d in enumerate(wire_dest) if d is None)

    problem: Optional[PylseError] = None
    named = [label for label in user_labels if label is not None]
    if not nodes:
        problem = PylseError("Circuit is empty: nothing to simulate")
    elif len(edges) < len(consumer):  # a consumed wire is undriven
        wire, (i, port) = next(
            (w, d) for w, d in consumer.items() if w not in circuit.source_of
        )
        problem = WireError(
            f"Wire {wire.name!r} (input '{port}' of "
            f"'{nodes[i].element.name}') has no driver; connect it to an "
            "element output or an input generator"
        )
    elif len(set(named)) < len(named):
        seen: Set[str] = set()
        problem = same_name_error(
            next(label for label in named if label in seen or seen.add(label))
        )
    if validate and problem is not None:
        raise problem
    if duplicate_node is not None:
        raise PylseError(
            f"Two nodes named {duplicate_node!r}; node names must be unique "
            "for dispatch records and findings to be unambiguous"
        )

    compiled = CompiledCircuit(
        circuit=circuit,
        version=version,
        problem=problem,
        nodes=nodes,
        node_index=node_index,
        cell_ids=tuple(cell_ids),
        input_ids=tuple(input_ids),
        dispatch=tuple(dispatch),
        wires=tuple(wires),
        wire_index=wire_index,
        labels=tuple(labels),
        user_labels=tuple(user_labels),
        wire_source=tuple(wire_source),
        wire_dest=tuple(wire_dest),
        output_wire_ids=output_wire_ids,
        edges=tuple(edges),
    )
    circuit._compiled_ir = compiled
    return compiled


def _dispatch_plan(compiled: CompiledCircuit) -> DispatchPlan:
    """Build the :class:`DispatchPlan` of a compiled revision.

    Entries are made first, routes and fold records second: a route
    holds its destination's entry, and feedback wires point at entries
    built later.
    """
    nodes = compiled.nodes
    entries: List[tuple] = []
    pure = code = False
    for i, node in enumerate(nodes):
        element = node.element
        machine = deliver = hop = None
        if isinstance(element, Transitional):
            machine = element.machine
            if machine.pure_delay:
                hop = []
                pure = True
        elif isinstance(element, Functional):
            deliver = element.raw_firings
            code = True
        elif not isinstance(element, InGen):
            deliver = element.handle_inputs
            code = True
        entries.append((node, machine, deliver, {}, i, hop))
    labels = compiled.labels
    series_labels = tuple(dict.fromkeys(labels))
    slots: Sequence[int] = range(len(labels))  # usually a series per wire
    if len(series_labels) < len(labels):
        slot_of = {label: k for k, label in enumerate(series_labels)}
        slots = [slot_of[label] for label in labels]
    for nd, entry in zip(compiled.dispatch, entries):
        ports = entry[PLAN_ROUTES]
        for port, wire_id, dest, dest_port in nd.outs:
            if dest < 0:
                ports[port] = (slots[wire_id], -1, -1, None, "", labels[wire_id])
            else:
                ports[port] = (
                    slots[wire_id], dest, nodes[dest].node_id, entries[dest],
                    dest_port, labels[wire_id],
                )
        hop = entry[PLAN_HOP]
        if hop is not None:
            for port, delay in entry[PLAN_MACHINE].fixed_delays.items():
                slot, _d, key, dest_entry, dest_port, _l = ports[port]
                hop.append((delay, slot, key, dest_entry, dest_port))
    return DispatchPlan(tuple(entries), series_labels, pure and not code)


def structural_hash(circuit: Circuit) -> str:
    """The circuit's stable structural hash (compiles if needed)."""
    return compile_circuit(circuit).structural_hash


def result_cache_key(
    digest: str,
    fingerprint: str,
    *,
    sigma: float,
    n_seeds: int,
    seed0: int = 0,
) -> Tuple[str, str, str, str, str, float, int, int]:
    """The canonical memo key for one Monte-Carlo yield measurement.

    Two measurements with equal keys are guaranteed to produce equal
    :class:`~repro.core.montecarlo.YieldResult` values (sigma, counts,
    failures), so the key is safe to use for cross-request result caching
    (:mod:`repro.exp.measure`). The key covers exactly the inputs that
    determine the result:

    * ``digest`` — the circuit's :func:`structural_hash`, which already
      folds in element behavior, wiring, overrides, and input schedules;
    * ``fingerprint`` — its :attr:`CompiledCircuit.order_fingerprint`:
      a noise draw is addressed by node index, so a circuit with the same
      digest in another node order draws other noise;
    * ``sigma`` and the contiguous seed range ``seed0 .. seed0 + n_seeds``.

    ``workers`` and ``batch`` are deliberately **not** part of the key:
    every backend path, batched or per-seed, is bit-identical for the
    same seed list (the determinism contract of
    :mod:`repro.core.parallel` and :mod:`repro.core.batchsim`), and the
    stored document omits the backend diagnostics, so a result computed
    one way may be served to a request for another.

    The key-format, hash-recipe and noise versions are mixed in so caches
    survive across releases without ever serving a result computed under
    another key layout, hash recipe or Monte-Carlo noise.
    """
    if isinstance(n_seeds, bool) or not isinstance(n_seeds, int) or n_seeds < 1:
        raise PylseError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    if isinstance(seed0, bool) or not isinstance(seed0, int):
        raise PylseError(f"seed0 must be an integer, got {seed0!r}")
    return (
        _RESULT_KEY_VERSION, _HASH_VERSION, _NOISE_VERSION, digest,
        fingerprint, float(sigma), n_seeds, seed0,
    )


def lint_cache_key(
    digest: str,
    fingerprint: str,
    *,
    rules: Tuple[str, ...],
    max_states: Optional[int],
    time_limit: Optional[float],
) -> Tuple[
    str, str, str, str, str, Tuple[str, ...], Optional[int], Optional[float]
]:
    """The canonical memo key for one reachability-lint analysis (PL4xx).

    Same contract as :func:`result_cache_key` for the serve result cache:
    two analyses with equal keys produce equal findings, so a warm re-lint
    of an unchanged design is a dict hit. The key covers exactly the
    inputs that determine the analysis:

    * ``digest`` — the circuit's :func:`structural_hash` (element behavior,
      wiring, overrides, *and* input schedules — the environment TAs replay
      exactly the schedules the hash already folds in);
    * ``fingerprint`` — its :attr:`CompiledCircuit.order_fingerprint`: the
      explorer's persistent set takes cells in automaton order, so the
      state count and the finding order follow the node order;
    * ``rules`` — the enabled PL4xx subset, normalized sorted (deselecting
      PL402 skips race collection and deselecting PL403 skips witness
      replay, so different subsets are genuinely different analyses);
    * the exploration budget — a truncated analysis at a small budget must
      never be served to a request with a larger one.

    The key-format, hash-recipe and explorer versions are mixed in so
    caches survive across releases without ever serving findings computed
    under another key layout, a different hash recipe or by a different
    zone explorer.
    """
    if not isinstance(digest, str) or not digest:
        raise PylseError(f"digest must be a non-empty string, got {digest!r}")
    return (
        _LINT_KEY_VERSION,
        _HASH_VERSION,
        _EXPLORER_VERSION,
        digest,
        fingerprint,
        tuple(sorted(rules)),
        max_states,
        None if time_limit is None else float(time_limit),
    )
