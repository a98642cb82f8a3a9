"""The circuit workspace: a network of PyLSE Machines (Definition 3.2).

A circuit is a set of nodes (placed elements) and the wires connecting them.
Elaboration-through-execution (Section 4.1, Full-Circuit Design level) adds
nodes to an ambient *working circuit* as Python code runs; the
:class:`repro.core.simulation.Simulation` then simulates whatever workspace
it is given (the working circuit by default).

The circuit enforces the Section 4.2 structural checks:

* every wire has exactly one driver (an element output or an input
  generator);
* every wire feeds at most one element input — SCE outputs cannot fan out
  without an explicit splitter cell (:class:`~repro.core.errors.FanoutError`).
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .element import Element, InGen
from .errors import FanoutError, PylseError, WireError
from .node import Node
from .wire import Wire


class Circuit:
    """A network of elements connected by single-reader wires."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        #: per-cell-type instance counters for node naming (c0, s0, s1, ...)
        self._type_counts: Dict[str, int] = {}
        #: wire -> (node, output port) producing pulses on it
        self.source_of: Dict[Wire, Tuple[Node, str]] = {}
        #: wire -> (node, input port) consuming pulses from it
        self.dest_of: Dict[Wire, Tuple[Node, str]] = {}
        self._wires: List[Wire] = []
        #: name/alias -> wire index for O(1) find_wire; first registration of
        #: a non-user name wins, matching the old linear-scan semantics.
        self._wire_index: Dict[str, Wire] = {}
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
        """
        if output_wires is None:
            output_wires = [Wire() for _ in element.outputs]
        if name is None:
            count = self._type_counts.get(element.name, 0)
            self._type_counts[element.name] = count + 1
            name = f"{element.name.lower()}{count}"
        node = Node(element, input_wires, output_wires, name=name)

        dest_of = self.dest_of
        for port, wire in node.input_wires.items():
            # A wire may be consumed before its driver is placed (feedback
            # loops); validate() checks every consumed wire ends up driven.
            other = dest_of.get(wire)
            if other is not None:
                raise FanoutError(
                    f"Wire {wire.name!r} already connects to input '{other[1]}' of "
                    f"'{other[0].element.name}'; SCE outputs cannot fan out — insert "
                    "a splitter (see split())"
                )
            dest_of[wire] = (node, port)
            if wire._circuit is None:
                self._adopt_wire(wire)

        source_of = self.source_of
        for port, wire in node.output_wires.items():
            other = source_of.get(wire)
            if other is not None:
                raise WireError(
                    f"Wire {wire.name!r} is already driven by output '{other[1]}' "
                    f"of '{other[0].element.name}'"
                )
            source_of[wire] = (node, port)
            self._wires.append(wire)
            if wire._circuit is None:
                self._adopt_wire(wire)
            self._index_wire(wire)

        self.nodes.append(node)
        self._mutated()
        return node

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
        """All wires, in creation order."""
        return list(self._wires)

    def output_wires(self) -> List[Wire]:
        """Wires with no consumer: the circuit's outputs."""
        return [w for w in self._wires if w not in self.dest_of]

    def input_nodes(self) -> List[Node]:
        """Nodes whose element is an input generator."""
        return [n for n in self.nodes if isinstance(n.element, InGen)]

    def cells(self) -> List[Node]:
        """Nodes that are actual cells (not input generators)."""
        return [n for n in self.nodes if not isinstance(n.element, InGen)]

    def _index_wire(self, wire: Wire) -> None:
        """Register a driven wire's name and alias in the lookup index.

        User-visible name collisions are rejected here (loudly, at
        construction time) rather than at :meth:`validate`; auto-generated
        names keep first-registration-wins lookup, matching the semantics of
        the old linear scan.
        """
        name, alias = wire.name, wire.observed_as
        for label in (name,) if alias == name else (name, alias):
            existing = self._wire_index.setdefault(label, wire)
            if (existing is not wire and wire._user_named
                    and existing._user_named):
                raise WireError(
                    f"Two wires observed under the same name {label!r}; names must "
                    "be unique for simulation events to be unambiguous"
                )

    def _rename_wire(self, wire: Wire, name: str) -> None:
        """Re-alias an indexed wire, rejecting duplicate user-visible names.

        Called by :meth:`Wire.observe` before the alias changes. The index
        stays consistent through the rename: the new alias resolves
        immediately (also for consumed-but-not-yet-driven feedback wires,
        which used to stay unfindable until driven), the wire's own ``name``
        keeps resolving, and a superseded alias is dropped rather than left
        dangling. Colliding with an existing *auto-generated* entry keeps
        first-registration-wins, matching :meth:`_index_wire`.
        """
        existing = self._wire_index.get(name)
        if existing is not None and existing is not wire and existing.is_user_named:
            raise WireError(
                f"Two wires observed under the same name {name!r}; names must "
                "be unique for simulation events to be unambiguous"
            )
        old_alias = wire.observed_as
        if old_alias != wire.name and self._wire_index.get(old_alias) is wire:
            del self._wire_index[old_alias]
        if existing is None or existing is wire:
            self._wire_index[name] = wire
        self._mutated()

    def find_wire(self, name: str) -> Wire:
        """Look up a wire by its name or observation alias (O(1))."""
        wire = self._wire_index.get(name)
        if wire is None:
            raise WireError(f"No wire named {name!r} in this circuit")
        return wire

    def index_problems(self) -> List[str]:
        """Consistency audit of the wire-name index against the wire lists.

        Returns human-readable descriptions of every disagreement between
        ``_wire_index`` and the circuit's actual wires — an empty list means
        the index is sound. Exercised by the lint self-check in
        :func:`repro.lint.circuit_rules.lint_circuit` after rename/feedback
        patterns, and directly by tests.
        """
        problems: List[str] = []
        attached = set(map(id, self._wires))
        attached.update(id(w) for w in self.dest_of)
        for label, wire in self._wire_index.items():
            if id(wire) not in attached:
                problems.append(
                    f"index entry {label!r} points at wire {wire.name!r} "
                    "which is no longer attached to this circuit"
                )
            elif label not in (wire.name, wire.observed_as):
                problems.append(
                    f"index entry {label!r} points at wire {wire.name!r} "
                    f"(observed as {wire.observed_as!r}) which no longer "
                    "carries that label"
                )
        for wire in self._wires:
            for label in {wire.name, wire.observed_as}:
                entry = self._wire_index.get(label)
                if entry is None:
                    problems.append(
                        f"driven wire {wire.name!r} (observed as "
                        f"{wire.observed_as!r}) is missing from the index "
                        f"under {label!r}"
                    )
                elif entry is not wire and label not in (
                    entry.name, entry.observed_as
                ):
                    problems.append(
                        f"label {label!r} of wire {wire.name!r} resolves to "
                        f"wire {entry.name!r} which does not carry it"
                    )
        return problems

    def validate(self) -> None:
        """Run whole-circuit structural checks.

        Add-time checks already guarantee single-driver/single-reader; this
        re-verifies and additionally rejects empty circuits and duplicate
        observation names, which would make the events dict ambiguous.
        """
        if not self.nodes:
            raise PylseError("Circuit is empty: nothing to simulate")
        for wire, (node, port) in self.dest_of.items():
            if wire not in self.source_of:
                raise WireError(
                    f"Wire {wire.name!r} (input '{port}' of "
                    f"'{node.element.name}') has no driver; connect it to an "
                    "element output or an input generator"
                )
        seen: Dict[str, Wire] = {}
        for wire in self._wires:
            label = wire.observed_as
            if wire.is_user_named and label in seen:
                raise WireError(
                    f"Two wires observed under the same name {label!r}; names must "
                    "be unique for simulation events to be unambiguous"
                )
            if wire.is_user_named:
                seen[label] = wire

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"Circuit({len(self.nodes)} nodes, {len(self._wires)} wires)"


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
