"""The compiled circuit IR: one frozen, validated netlist for every backend.

PyLSE's pipeline is elaborate-once, consume-many (PLDI '22 Section 4): the
same network of PyLSE Machines feeds the discrete-event simulator, the
static timing analysis, the lint rules, and the timed-automata translation.
:func:`compile_circuit` runs the Section 4.2 structural checks **once** and
produces a :class:`CompiledCircuit` — an immutable view of the netlist with

* dense integer node and wire ids (position in elaboration order);
* topology arrays: per-wire source/destination, the circuit's outputs, a
  deterministic topological order with the feedback-edge set that had to be
  cut to obtain it, and the cyclic strongly-connected components;
* canonical name indexes (``node_index``, ``node_by_name``) replacing the
  per-backend ``{node.name: node}`` rebuilds;
* per-node dispatch specs and per-output nominal delay windows, precomputed
  so :meth:`repro.core.simulation.Simulation.simulate` and
  :mod:`repro.core.analysis` never re-derive them;
* the structurally identified clock inputs (every circuit input whose
  pulses reach a ``clk`` port);
* a stable :attr:`~CompiledCircuit.structural_hash`.

The compile result is memoized on the circuit (keyed by its mutation
version), so repeated ``simulate()`` / ``measure_yield()`` /
``critical_sigma()`` calls on the same design never recompile; it is also
picklable, which is how the parallel Monte-Carlo workers receive the
elaborated design exactly once (see :mod:`repro.core.parallel`).

The structural hash is a Weisfeiler–Lehman-style digest over element
behavior (machine transitions, hole delays, input schedules), port wiring,
and user-visible wire labels. It is computed from dense ids and sorted
neighbor multisets, so it is independent of the process-global anonymous
wire counter, of node insertion order for isomorphic builds, and of the
process it runs in — while any change to a delay, a transition, a
connection, or an observed label changes it. Auto-generated node names and
anonymous wire names deliberately do not participate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .circuit import Circuit
from .element import Element, InGen
from .errors import PylseError
from .functional import Functional
from .node import Node
from .timing import Distribution, Normal, Uniform, nominal_delay
from .transitional import Transitional
from .wire import Wire

#: Rounds of neighborhood refinement in the structural hash. Three rounds
#: fold every node's 3-hop neighborhood into its label — enough to make any
#: single rewiring change the digest while keeping compilation O(rounds *
#: edges); the final digest also mixes in every edge explicitly, so even
#: changes beyond the refinement horizon cannot cancel out.
_HASH_ROUNDS = 3

#: Bumped whenever the hash recipe changes, so stale manifests fail loudly.
_HASH_VERSION = "repro-ir-v1"


@dataclass(frozen=True)
class OutSpec:
    """Static routing of one output port of one node."""

    port: str
    wire_id: int
    #: Dense id of the consuming node, or -1 for a circuit output.
    dest: int
    #: Input port on the consumer ('' for a circuit output).
    dest_port: str


@dataclass(frozen=True)
class NodeDispatch:
    """Everything ``simulate()`` needs to know about a node, decided once.

    ``uses_raw`` selects the delivery entry point (``raw_firings`` keeps
    distribution-valued delays for the drain loops to resolve;
    ``handle_inputs`` is the plain-element fallback), mirroring the
    ``isinstance`` checks the simulator used to repeat per call.
    """

    index: int
    name: str
    cell: str
    is_input: bool
    is_transitional: bool
    uses_raw: bool
    outs: Tuple[OutSpec, ...]


@dataclass(frozen=True)
class CompiledCircuit:
    """A frozen, validated, consume-many view of an elaborated circuit.

    Node and wire ids are dense integers in elaboration order, so every
    per-node or per-wire annotation is a tuple indexed by id. The dataclass
    is frozen: backends share one instance and none may mutate it.
    """

    circuit: Circuit
    #: Mutation version of ``circuit`` this compile reflects.
    version: int
    #: Whether ``Circuit.validate()`` has passed for this revision. Lint
    #: compiles tolerantly (``validate=False``) so it can report on broken
    #: circuits (undriven wires are its PL204 finding, not a crash); a later
    #: strict consumer re-validates once and flips this.
    validated: bool
    structural_hash: str

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
    #: Per wire id: (driving node id, output port).
    wire_source: Tuple[Tuple[int, str], ...]
    #: Per wire id: (consuming node id, input port), or None (circuit output).
    wire_dest: Tuple[Optional[Tuple[int, str]], ...]
    output_wire_ids: Tuple[int, ...]

    # -- topology ------------------------------------------------------
    #: Every dataflow edge as (source node id, dest node id, wire id).
    edges: Tuple[Tuple[int, int, int], ...]
    #: All node ids in a deterministic topological order (feedback edges
    #: ignored); a valid dataflow order for the acyclic part.
    topo_order: Tuple[int, ...]
    #: The edges that point backwards in ``topo_order`` — empty iff acyclic.
    feedback_edges: FrozenSet[Tuple[int, int, int]]
    is_acyclic: bool
    #: Strongly-connected components containing a cycle, node ids sorted by
    #: node name (the order the lint rules report them in).
    cyclic_sccs: Tuple[Tuple[int, ...], ...]

    # -- precomputed annotations ---------------------------------------
    #: (cell node id, output port) -> (min, max) nominal firing delay.
    delay_windows: Dict[Tuple[int, str], Tuple[float, float]]
    #: Input label -> names of cells whose ``clk`` port its pulses reach.
    clock_wires: Dict[str, Tuple[str, ...]]
    #: Elements whose ``reset()`` actually does something (cheap re-runs).
    stateful_elements: Tuple[Element, ...]

    #: Per-instance scratch for lazily derived views (never pickled).
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state

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
        view = self._cache.get("node_by_name")
        if view is None:
            view = self._cache["node_by_name"] = {
                name: self.nodes[i] for name, i in self.node_index.items()
            }
        return view

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
    """A process-stable token for a delay value or distribution."""
    if isinstance(delay, Normal):
        return ("normal", repr(float(delay.mean)), repr(float(delay.stddev)))
    if isinstance(delay, Uniform):
        return ("uniform", repr(float(delay.low)), repr(float(delay.high)))
    if isinstance(delay, Distribution):  # user-defined distribution
        return ("dist", type(delay).__name__, repr(float(delay.nominal())))
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


def _digest(*parts) -> str:
    """sha256 over the repr of nested tuples of primitives (process-stable)."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _structural_hash(
    nodes: Sequence[Node],
    in_edges: Sequence[List[Tuple[int, str, str, Optional[str]]]],
    out_edges: Sequence[List[Tuple[int, str, str, Optional[str]]]],
    open_outputs: Sequence[List[Tuple[str, Optional[str]]]],
) -> str:
    """Weisfeiler–Lehman digest of the netlist.

    ``in_edges[i]`` / ``out_edges[i]`` hold ``(neighbor id, my port, their
    port, wire label)`` per dataflow edge; ``open_outputs[i]`` holds
    ``(port, wire label)`` for outputs feeding no consumer. Wire labels are
    the user-visible observation names (None for anonymous wires), so a
    rename that changes the events dict changes the hash while the
    anonymous counter does not.
    """
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


# ----------------------------------------------------------------------
# Topology helpers
# ----------------------------------------------------------------------
def _topological_order(
    n: int, edges: Sequence[Tuple[int, int, int]]
) -> Tuple[List[int], set]:
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
    feedback = {
        (src, dst, wid)
        for src, dst, wid in edges
        if position[src] >= position[dst]
    }
    return order, feedback


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


def _clock_wires(
    nodes: Sequence[Node],
    input_ids: Sequence[int],
    edges: Sequence[Tuple[int, int, int]],
    wire_source: Sequence[Tuple[int, str]],
    wire_dest: Sequence[Optional[Tuple[int, str]]],
) -> Dict[str, Tuple[str, ...]]:
    """Structural clock identification (same result as analysis.clock_wires).

    An input is a clock iff its pulses reach at least one cell input port
    named ``clk`` through any fabric; the value lists the clocked cells.
    """
    succs: List[List[int]] = [[] for _ in range(len(nodes))]
    for src, dst, _ in edges:
        succs[src].append(dst)
    # Source node id -> names of clk-consuming nodes it directly feeds.
    direct: Dict[int, set] = {}
    for wid, dest in enumerate(wire_dest):
        if dest is not None and dest[1] == "clk":
            direct.setdefault(wire_source[wid][0], set()).add(
                nodes[dest[0]].name
            )

    result: Dict[str, Tuple[str, ...]] = {}
    for input_id in input_ids:
        reached = {input_id}
        stack = [input_id]
        while stack:
            for w in succs[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        clocked = sorted({
            name for src in reached & direct.keys() for name in direct[src]
        })
        if clocked:
            label = nodes[input_id].output_wires["out"].observed_as
            result[label] = tuple(clocked)
    return result


# ----------------------------------------------------------------------
# The compile pass
# ----------------------------------------------------------------------
def compile_circuit(circuit: Circuit, validate: bool = True) -> CompiledCircuit:
    """Validate once and freeze the netlist for every backend.

    The result is memoized on the circuit keyed by its mutation version
    (``Circuit.add_node`` and ``Wire.observe`` bump it), so calling this
    anywhere — ``simulate()``, ``lint_circuit()``, ``translate_circuit()``,
    ``circuit_to_json()`` — compiles at most once per circuit revision.

    ``validate=False`` compiles without the whole-circuit structural checks
    (lint uses this: an undriven wire is its PL204 *finding*, not a crash).
    Consumed-but-undriven wires then simply don't appear in the IR's wire
    tables, matching how the graph walks this replaces treated them. A
    strict call on a tolerantly-compiled memo re-validates once.
    """
    cached = getattr(circuit, "_compiled_ir", None)
    if cached is not None and cached.version == circuit.version:
        if validate and not cached.validated:
            circuit.validate()
            object.__setattr__(cached, "validated", True)
        return cached

    if validate:
        circuit.validate()
    version = circuit.version

    nodes = tuple(circuit.nodes)
    node_index: Dict[str, int] = {}
    for i, node in enumerate(nodes):
        if node.name in node_index:
            raise PylseError(
                f"Two nodes named {node.name!r}; node names must be unique "
                "for dispatch records and findings to be unambiguous"
            )
        node_index[node.name] = i

    wires = tuple(circuit.wires)
    wire_ids: Dict[int, int] = {id(w): k for k, w in enumerate(wires)}
    labels = tuple(w.observed_as for w in wires)
    wire_index: Dict[str, int] = {}
    for k, wire in enumerate(wires):
        for name in {wire.name, wire.observed_as}:
            wire_index.setdefault(name, k)

    wire_source = tuple(
        (node_index[circuit.source_of[w][0].name], circuit.source_of[w][1])
        for w in wires
    )
    wire_dest: List[Optional[Tuple[int, str]]] = []
    for wire in wires:
        dest = circuit.dest_of.get(wire)
        wire_dest.append(
            None if dest is None else (node_index[dest[0].name], dest[1])
        )
    output_wire_ids = tuple(
        k for k, dest in enumerate(wire_dest) if dest is None
    )

    cell_ids = tuple(
        i for i, node in enumerate(nodes) if not isinstance(node.element, InGen)
    )
    input_ids = tuple(
        i for i, node in enumerate(nodes) if isinstance(node.element, InGen)
    )

    # -- dispatch specs and hash adjacency ------------------------------
    dispatch: List[NodeDispatch] = []
    in_edges: List[List[Tuple[int, str, str, Optional[str]]]] = [
        [] for _ in nodes
    ]
    out_edges: List[List[Tuple[int, str, str, Optional[str]]]] = [
        [] for _ in nodes
    ]
    open_outputs: List[List[Tuple[str, Optional[str]]]] = [[] for _ in nodes]
    edges: List[Tuple[int, int, int]] = []
    for i, node in enumerate(nodes):
        element = node.element
        is_input = isinstance(element, InGen)
        is_transitional = isinstance(element, Transitional)
        outs: List[OutSpec] = []
        for port, wire in node.output_wires.items():
            wid = wire_ids[id(wire)]
            wlabel = wire.observed_as if wire.is_user_named else None
            dest = wire_dest[wid]
            if dest is None:
                outs.append(OutSpec(port, wid, -1, ""))
                open_outputs[i].append((port, wlabel))
            else:
                dest_id, dest_port = dest
                outs.append(OutSpec(port, wid, dest_id, dest_port))
                edges.append((i, dest_id, wid))
                out_edges[i].append((dest_id, port, dest_port, wlabel))
                in_edges[dest_id].append((i, dest_port, port, wlabel))
        dispatch.append(NodeDispatch(
            index=i,
            name=node.name,
            cell=element.name,
            is_input=is_input,
            is_transitional=is_transitional,
            uses_raw=is_transitional or isinstance(element, Functional),
            outs=tuple(outs),
        ))

    edges_tuple = tuple(edges)
    names = [node.name for node in nodes]
    order, feedback = _topological_order(len(nodes), edges_tuple)
    cyclic = _cyclic_sccs(len(nodes), edges_tuple, names)

    # -- per-output nominal delay windows -------------------------------
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

    clock_map = _clock_wires(
        nodes, input_ids, edges_tuple, wire_source, wire_dest
    )

    stateful = tuple(
        node.element for node in nodes
        if type(node.element).reset is not Element.reset
    )

    compiled = CompiledCircuit(
        circuit=circuit,
        version=version,
        validated=validate,
        structural_hash=_structural_hash(
            nodes, in_edges, out_edges, open_outputs
        ),
        nodes=nodes,
        node_index=node_index,
        cell_ids=cell_ids,
        input_ids=input_ids,
        dispatch=tuple(dispatch),
        wires=wires,
        wire_index=wire_index,
        labels=labels,
        wire_source=wire_source,
        wire_dest=tuple(wire_dest),
        output_wire_ids=output_wire_ids,
        edges=edges_tuple,
        topo_order=tuple(order),
        feedback_edges=frozenset(feedback),
        is_acyclic=not feedback,
        cyclic_sccs=cyclic,
        delay_windows=delay_windows,
        clock_wires=clock_map,
        stateful_elements=stateful,
    )
    circuit._compiled_ir = compiled
    return compiled


def structural_hash(circuit: Circuit) -> str:
    """The circuit's stable structural hash (compiles if needed)."""
    return compile_circuit(circuit).structural_hash


def result_cache_key(
    digest: str,
    *,
    sigma: float,
    n_seeds: int,
    seed0: int = 0,
    batch: Union[int, str, None] = None,
) -> Tuple[str, str, float, int, int, Union[int, str]]:
    """The canonical memo key for one Monte-Carlo yield measurement.

    Two measurements with equal keys are guaranteed to produce equal
    :class:`~repro.core.montecarlo.YieldResult` values (sigma, counts,
    failures), so the key is safe to use for cross-request result caching
    (:mod:`repro.serve`). The key covers exactly the inputs that determine
    the result:

    * ``digest`` — the circuit's :func:`structural_hash`, which already
      folds in element behavior, wiring, overrides, and input schedules;
    * ``sigma`` and the contiguous seed range ``seed0 .. seed0 + n_seeds``;
    * the normalized ``batch`` spec (``None``/``"auto"`` collapse to
      ``"auto"``: the auto-picked lane width is a pure function of the
      seed count, and batched results are element-wise identical to
      per-seed ones anyway — only ``batch=0`` selects the reference drain,
      which is also outcome-identical but kept distinct for auditability).

    ``workers`` and the engine policy are deliberately **not** part of the
    key: every backend path is bit-identical for the same seed list (the
    determinism contract of :mod:`repro.core.parallel`), so a result
    computed serially may be served to a pooled request and vice versa.

    The hash-recipe version is mixed in so caches survive across releases
    without ever serving a result computed under a different hash recipe.
    """
    if isinstance(n_seeds, bool) or not isinstance(n_seeds, int) or n_seeds < 1:
        raise PylseError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    if isinstance(seed0, bool) or not isinstance(seed0, int):
        raise PylseError(f"seed0 must be an integer, got {seed0!r}")
    if batch in (None, "auto"):
        norm_batch: Union[int, str] = "auto"
    elif isinstance(batch, int) and not isinstance(batch, bool) and batch >= 0:
        norm_batch = batch
    else:
        raise PylseError(
            f"batch must be a non-negative integer, 'auto', or None, "
            f"got {batch!r}"
        )
    return (_HASH_VERSION, digest, float(sigma), n_seeds, seed0, norm_batch)


def lint_cache_key(
    digest: str,
    *,
    rules: Tuple[str, ...],
    max_states: Optional[int],
    time_limit: Optional[float],
) -> Tuple[str, str, Tuple[str, ...], Optional[int], Optional[float]]:
    """The canonical memo key for one reachability-lint analysis (PL4xx).

    Same contract as :func:`result_cache_key` for the serve result cache:
    two analyses with equal keys produce equal findings, so a warm re-lint
    of an unchanged design is a dict hit. The key covers exactly the
    inputs that determine the analysis:

    * ``digest`` — the circuit's :func:`structural_hash` (element behavior,
      wiring, overrides, *and* input schedules — the environment TAs replay
      exactly the schedules the hash already folds in);
    * ``rules`` — the enabled PL4xx subset, normalized sorted (deselecting
      PL402 skips race collection and deselecting PL403 skips witness
      replay, so different subsets are genuinely different analyses);
    * the exploration budget — a truncated analysis at a small budget must
      never be served to a request with a larger one.

    The hash-recipe version is mixed in so caches survive across releases
    without ever serving findings computed under a different hash recipe.
    """
    if not isinstance(digest, str) or not digest:
        raise PylseError(f"digest must be a non-empty string, got {digest!r}")
    return (
        _HASH_VERSION,
        digest,
        tuple(sorted(rules)),
        max_states,
        None if time_limit is None else float(time_limit),
    )


# ----------------------------------------------------------------------
# Dense dispatch arrays (structure-of-arrays view for batched drains)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DispatchArrays:
    """Flat structure-of-arrays view of the dispatch topology.

    The per-node :class:`NodeDispatch`/:class:`OutSpec` records are the
    object-shaped view ``simulate()`` walks; the batched Monte-Carlo drain
    (:mod:`repro.core.batchsim`) instead wants every successor decision as
    positional lookups over dense ids. Output ports are laid out CSR-style:
    node ``i``'s output slots are ``out_start[i] .. out_start[i + 1]``, and
    slot ``s`` routes port ``out_port[s]`` over wire ``out_wire[s]`` to
    dense node ``out_dest[s]`` (or ``-1`` for a circuit output).

    ``node_key[i]`` is the node's global placement id — the heap grouping
    key both drains order simultaneous pulse groups by — and
    ``out_dest_key[s]`` is the same for the consuming node, so a batched
    push never touches a ``Node`` object.
    """

    node_key: Tuple[int, ...]
    out_start: Tuple[int, ...]
    out_port: Tuple[str, ...]
    out_wire: Tuple[int, ...]
    out_dest: Tuple[int, ...]
    out_dest_key: Tuple[int, ...]
    out_dest_port: Tuple[str, ...]

    def slots(self, index: int) -> range:
        """The CSR slot range of node ``index``'s output ports."""
        return range(self.out_start[index], self.out_start[index + 1])


def dispatch_arrays(compiled: CompiledCircuit) -> DispatchArrays:
    """The (memoized) dense successor/port arrays of a compiled circuit."""
    arrays = compiled._cache.get("dispatch_arrays")
    if arrays is None:
        node_key = tuple(node.node_id for node in compiled.nodes)
        out_start = [0]
        out_port: List[str] = []
        out_wire: List[int] = []
        out_dest: List[int] = []
        out_dest_key: List[int] = []
        out_dest_port: List[str] = []
        for nd in compiled.dispatch:
            for o in nd.outs:
                out_port.append(o.port)
                out_wire.append(o.wire_id)
                out_dest.append(o.dest)
                out_dest_key.append(node_key[o.dest] if o.dest >= 0 else -1)
                out_dest_port.append(o.dest_port)
            out_start.append(len(out_port))
        arrays = compiled._cache["dispatch_arrays"] = DispatchArrays(
            node_key=node_key,
            out_start=tuple(out_start),
            out_port=tuple(out_port),
            out_wire=tuple(out_wire),
            out_dest=tuple(out_dest),
            out_dest_key=tuple(out_dest_key),
            out_dest_port=tuple(out_dest_port),
        )
    return arrays
