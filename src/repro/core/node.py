"""Nodes: placed element instances with their port-to-wire bindings."""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence

from .element import Element
from .errors import PylseError
from .wire import Wire


class Node:
    """An element instance placed in a circuit.

    A node binds each of its element's input ports to the wire driving it and
    each output port to the wire it drives. Nodes are created by
    :meth:`repro.core.circuit.Circuit.add_node`; user code normally never
    constructs one directly — the cell helper functions (``c``, ``jtl``,
    ``and_s``, ...) do it during elaboration-through-execution.
    """

    _id_counter = itertools.count()

    def __init__(
        self,
        element: Element,
        input_wires: Sequence[Wire],
        output_wires: Sequence[Wire],
        name: Optional[str] = None,
    ):
        inputs, outputs = element.inputs, element.outputs
        if len(input_wires) != len(inputs):
            raise PylseError(
                f"{element.name}: expected {len(inputs)} input wire(s) "
                f"({', '.join(inputs)}), got {len(input_wires)}"
            )
        if len(output_wires) != len(outputs):
            raise PylseError(
                f"{element.name}: expected {len(outputs)} output wire(s) "
                f"({', '.join(outputs)}), got {len(output_wires)}"
            )
        self.element = element
        self.node_id = node_id = next(Node._id_counter)
        # Per-type naming (c0, s0, s1, jtl0, ...) is assigned by the circuit;
        # this is only the fallback for nodes created outside one.
        self.name = name if name is not None else f"{element.name.lower()}{node_id}"
        self.input_wires: Dict[str, Wire] = dict(zip(inputs, input_wires))
        self.output_wires: Dict[str, Wire] = dict(zip(outputs, output_wires))

    def __repr__(self) -> str:
        ins = ", ".join(f"{p}={w.name}" for p, w in self.input_wires.items())
        outs = ", ".join(f"{p}={w.name}" for p, w in self.output_wires.items())
        return f"Node({self.name}: {self.element.name} in[{ins}] out[{outs}])"

    @classmethod
    def _reset_ids(cls) -> None:
        cls._id_counter = itertools.count()
