"""The circuit workspace: a network of PyLSE Machines (Definition 3.2).

A circuit is a set of nodes (placed elements) and the wires connecting them.
Elaboration-through-execution (Section 4.1, Full-Circuit Design level) adds
nodes to an ambient *working circuit* as Python code runs; the
:class:`repro.core.simulation.Simulation` then simulates whatever workspace
it is given (the working circuit by default).

The circuit enforces the Section 4.2 structural checks as each node is
placed or each wire observed:

* no wire has two drivers;
* every wire feeds at most one element input — SCE outputs cannot fan out
  without an explicit splitter cell (:class:`~repro.core.errors.FanoutError`);
* no two wires carry the same user-visible name.

The whole-circuit checks (not empty, every consumed wire driven, unique
observed and node names) run once per revision, in
:func:`repro.core.ir.compile_circuit`.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .element import Element, InGen
from .errors import FanoutError, WireError
from .node import Node
from .wire import Wire


def same_name_error(label: str) -> WireError:
    """The error for two wires observed under one user-visible name."""
    return WireError(
        f"Two wires observed under the same name {label!r}; names must "
        "be unique for simulation events to be unambiguous"
    )


class Circuit:
    """A network of elements connected by single-reader wires."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        #: per-cell-type instance counters for node naming (c0, s0, s1, ...)
        self._type_counts: Dict[str, int] = {}
        #: wire -> (node, output port) producing pulses on it; in insertion
        #: order, so its keys are the driven wires in creation order.
        self.source_of: Dict[Wire, Tuple[Node, str]] = {}
        #: wire -> (node, input port) consuming pulses from it
        self.dest_of: Dict[Wire, Tuple[Node, str]] = {}
        #: user-visible label -> the wire that last claimed it, for the
        #: "same name" check at add and observe time. An entry whose wire
        #: has since been observed under another alias is stale, and
        #: :meth:`_label_owner` skips it.
        self._labels: Dict[str, Wire] = {}
        #: per-circuit counter for anonymous wire names: auto-names are
        #: assigned when a wire first attaches to this circuit, so ``_0``,
        #: ``_1``, ... are reproducible per circuit regardless of how many
        #: wires other circuits in the process created before (the old
        #: class-global counter leaked across circuits, making serialized
        #: forms depend on what ran earlier in the process).
        self._anon_counter = itertools.count()
        #: mutation counter: bumped by every structural or naming change.
        #: ``repro.core.ir.compile_circuit`` memoizes its result against
        #: this, so a compiled view is reused until the circuit changes.
        self._version = 0
        #: the memoized :class:`repro.core.ir.CompiledCircuit`, if any.
        self._compiled_ir = None

    @property
    def version(self) -> int:
        """Mutation version; changes whenever the netlist or naming does."""
        return self._version

    def _mutated(self) -> None:
        """Record a structural/naming change, invalidating compiled views."""
        self._version += 1
        self._compiled_ir = None

    def _adopt_wire(self, wire: Wire) -> None:
        """Attach a wire to this circuit, assigning its per-circuit auto-name.

        Runs at the wire's *first* attachment (consumed or driven,
        whichever comes first; the caller checks that ``wire._circuit`` is
        still None), so attachment order — not the process-global creation
        counter — determines anonymous names.
        """
        wire._circuit = self
        if not wire._user_named:
            fresh = f"_{next(self._anon_counter)}"
            if wire.observed_as == wire.name:
                wire.observed_as = fresh
            wire.name = fresh

    def _label_owner(self, label: str) -> Optional[Wire]:
        """The wire currently carrying user-visible ``label``, if any."""
        wire = self._labels.get(label)
        if wire is not None and label in (wire.name, wire.observed_as):
            return wire
        return None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        element: Element,
        input_wires: Sequence[Wire],
        output_wires: Optional[Sequence[Wire]] = None,
        name: Optional[str] = None,
    ) -> Node:
        """Place ``element`` in the circuit, wiring its ports.

        ``input_wires`` must already exist (they are outputs of other nodes or
        input generators). ``output_wires`` are created fresh when omitted.
        Returns the new :class:`Node`.

        Every check (port counts, fan-out, double driver, user-visible name
        collision) runs before the first mutation, so a failed add leaves
        the circuit, its naming counters and the wires passed in unchanged.
        """
        if output_wires is None:
            output_wires = [Wire() for _ in element.outputs]
        count = -1
        if name is None:
            count = self._type_counts.get(element.name, 0)
            name = f"{element.name.lower()}{count}"
        node = Node(element, input_wires, output_wires, name=name)

        # A port whose wire an earlier port of this node carries conflicts
        # with that port.
        dest_of, source_of = self.dest_of, self.source_of
        for k, wire in enumerate(input_wires):
            # A wire may be consumed before its driver is placed (feedback
            # loops); compile_circuit checks every consumed wire ends up
            # driven.
            other = dest_of.get(wire)
            first = input_wires.index(wire) if k else 0
            if first < k:
                other = (node, element.inputs[first])
            if other is not None:
                raise FanoutError(
                    f"Wire {wire.name!r} already connects to input '{other[1]}' of "
                    f"'{other[0].element.name}'; SCE outputs cannot fan out — insert "
                    "a splitter (see split())"
                )
        claims = None
        for k, wire in enumerate(output_wires):
            other = source_of.get(wire)
            first = output_wires.index(wire) if k else 0
            if first < k:
                other = (node, element.outputs[first])
            if other is not None:
                raise WireError(
                    f"Wire {wire.name!r} is already driven by output '{other[1]}' "
                    f"of '{other[0].element.name}'"
                )
            if wire._user_named:
                claims = self._claim_labels(
                    wire, (wire.name, wire.observed_as), claims
                )

        for port, wire in node.input_wires.items():
            dest_of[wire] = (node, port)
            if wire._circuit is None:
                self._adopt_wire(wire)
        for port, wire in node.output_wires.items():
            source_of[wire] = (node, port)
            if wire._circuit is None:
                self._adopt_wire(wire)
        if claims:
            self._labels.update(claims)
        if count >= 0:
            self._type_counts[element.name] = count + 1
        self.nodes.append(node)
        self._mutated()
        return node

    def _claim_labels(
        self,
        wire: Wire,
        labels: Sequence[str],
        claims: Optional[Dict[str, Wire]] = None,
    ) -> Dict[str, Wire]:
        """Add ``labels`` of ``wire`` to ``claims`` (the pending claims of
        one change), rejecting a label another wire carries."""
        if claims is None:
            claims = {}
        for label in labels:
            owner = claims.get(label) or self._label_owner(label)
            if owner is not None and owner is not wire:
                raise same_name_error(label)
            claims[label] = wire
        return claims

    def add_input(self, element: InGen, name: Optional[str] = None) -> Wire:
        """Place an input generator; returns its output wire."""
        wire = Wire(name)
        self.add_node(element, [], [wire])
        return wire

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def wires(self) -> List[Wire]:
        """All driven wires, in creation order."""
        return list(self.source_of)

    def output_wires(self) -> List[Wire]:
        """Wires with no consumer: the circuit's outputs."""
        return [w for w in self.source_of if w not in self.dest_of]

    def input_nodes(self) -> List[Node]:
        """Nodes whose element is an input generator."""
        return [n for n in self.nodes if isinstance(n.element, InGen)]

    def cells(self) -> List[Node]:
        """Nodes that are actual cells (not input generators)."""
        return [n for n in self.nodes if not isinstance(n.element, InGen)]

    def _rename_wire(self, wire: Wire, name: str) -> None:
        """Claim the alias ``name`` for an attached wire.

        Called by :meth:`Wire.observe` before the alias changes; rejects a
        name another wire of this circuit carries. The new alias resolves
        at once, also for a consumed-but-not-yet-driven feedback wire.
        """
        self._labels.update(self._claim_labels(wire, (name,)))
        self._mutated()

    def find_wire(self, name: str) -> Wire:
        """Look up a wire by its name or current observation alias.

        User-visible labels resolve through the add-time label map;
        anonymous ``_k`` names through the compiled IR's ``wire_index``.
        """
        wire = self._label_owner(name)
        if wire is None:
            from .ir import compile_circuit

            compiled = compile_circuit(self, validate=False)
            index = compiled.wire_index.get(name)
            if index is None:
                raise WireError(f"No wire named {name!r} in this circuit")
            wire = compiled.wires[index]
        return wire

    def validate(self) -> None:
        """Run the whole-circuit structural checks of :func:`compile_circuit`."""
        from .ir import compile_circuit

        compile_circuit(self)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"Circuit({len(self.nodes)} nodes, {len(self.source_of)} wires)"


# ----------------------------------------------------------------------
# The ambient working circuit
# ----------------------------------------------------------------------
_working_circuit: Circuit = Circuit()


def working_circuit() -> Circuit:
    """The ambient circuit that the helper functions elaborate into."""
    return _working_circuit


def reset_working_circuit() -> Circuit:
    """Discard the working circuit and start a fresh one.

    Also restarts automatic wire/node naming so names like ``_0`` are stable
    across tests. Returns the new circuit.
    """
    global _working_circuit
    _working_circuit = Circuit()
    Wire._reset_names()
    Node._reset_ids()
    return _working_circuit


@contextlib.contextmanager
def fresh_circuit() -> Iterator[Circuit]:
    """Context manager giving a temporary, isolated working circuit.

    >>> with fresh_circuit() as circ:
    ...     pass  # build and simulate in isolation
    """
    global _working_circuit
    saved = _working_circuit
    _working_circuit = Circuit()
    try:
        yield _working_circuit
    finally:
        _working_circuit = saved
