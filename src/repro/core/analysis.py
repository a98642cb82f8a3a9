"""Static circuit analysis: path delays, balancing, and design-rule checks.

Section 4.2 describes PyLSE's static checks and Figure 11 shows manual
path-balancing arithmetic (11 + 14 = 25 vs 11 + 12 + 2 = 25). This module
automates that arithmetic over whole circuits, as passes over the compiled
IR (:mod:`repro.core.ir`) in which every wire is one edge weighted by the
nominal firing delay of the output driving it (0 for a circuit input):

* :func:`path_delays` — min/max accumulated delay from each circuit input
  to each output;
* :func:`balance_report` — per-cell input-arrival skew, flagging
  convergent paths whose delays differ by more than a tolerance (the
  situations Figure 11 fixes with a JTL);
* :func:`clock_skew` — arrival-time spread of a clock wire across all the
  clocked cells it reaches;
* :func:`total_jjs` — the area metric (sum of per-instance ``jjs``).

All results are *nominal* (distribution delays collapse to their mean; a
cell's output delay is the max over its transitions firing that output).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .circuit import Circuit, working_circuit
from .errors import PylseError
from .ir import CompiledCircuit, compile_circuit


def _weighted_ir(circuit: Optional[Circuit]) -> Tuple[CompiledCircuit, List[float]]:
    """The compiled IR and, per wire id, the nominal delay of a pulse
    crossing that wire."""
    compiled = compile_circuit(
        circuit if circuit is not None else working_circuit(), validate=False
    )
    delays = [
        0.0 if compiled.dispatch[src].is_input
        else compiled.delay_window(src, port)[1]
        for src, port in compiled.wire_source
    ]
    return compiled, delays


def _input_label(compiled: CompiledCircuit, node_id: int) -> str:
    return compiled.labels[compiled.dispatch[node_id].outs[0].wire_id]


def _arrivals(
    compiled: CompiledCircuit, delays: List[float], sources: Iterable[int]
) -> Dict[int, Tuple[float, float]]:
    """Node id -> (earliest, latest) arrival over every path from a source.

    One forward pass in topological order (acyclic circuits only). Float
    ``+`` is monotone, so each bound equals the min/max over paths of the
    path's delays added left to right, bit for bit.
    """
    window = {i: (0.0, 0.0) for i in sources}
    for i in compiled.topo_order:
        if i not in window:
            continue
        lo, hi = window[i]
        for out in compiled.dispatch[i].outs:
            if out.dest < 0:
                continue
            d = delays[out.wire_id]
            seen = window.get(out.dest)
            window[out.dest] = (lo + d, hi + d) if seen is None else (
                min(seen[0], lo + d), max(seen[1], hi + d)
            )
    return window


def path_delays(circuit: Optional[Circuit] = None) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """(input name, output name) -> (min, max) accumulated nominal delay.

    Only defined for acyclic circuits (feedback loops have unbounded path
    sets); raises on cycles.
    """
    compiled, delays = _weighted_ir(circuit)
    if not compiled.is_acyclic:
        raise PylseError("Circuit contains feedback loops; path delays are unbounded")
    result: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for i in compiled.input_ids:
        window = _arrivals(compiled, delays, (i,))
        for wid in compiled.output_wire_ids:
            src = compiled.wire_source[wid][0]
            if src in window:
                lo, hi = window[src]
                result[(_input_label(compiled, i), compiled.labels[wid])] = (
                    lo + delays[wid], hi + delays[wid]
                )
    return result


@dataclass
class SkewFinding:
    """One convergence point whose input paths are imbalanced."""

    node: str
    cell: str
    arrivals: Dict[str, Tuple[float, float]]  # input port -> (min, max)
    skew: float

    def __str__(self) -> str:
        detail = ", ".join(
            f"{port}: [{lo:g}, {hi:g}]" for port, (lo, hi) in self.arrivals.items()
        )
        return f"{self.node} ({self.cell}): skew {self.skew:g} ps ({detail})"


def balance_report(
    circuit: Optional[Circuit] = None,
    tolerance: float = 0.0,
    ignore_ports: Tuple[str, ...] = ("clk",),
) -> List[SkewFinding]:
    """Find multi-input cells whose data inputs arrive with unequal delay.

    ``arrivals`` per input port are (min, max) accumulated delays from any
    circuit input. Ports named in ``ignore_ports`` (clocks by default) are
    excluded — clock-to-data skew is intentional in synchronous designs;
    use :func:`clock_skew` for the clock network itself.
    """
    compiled, delays = _weighted_ir(circuit)
    if not compiled.is_acyclic:
        raise PylseError("Circuit contains feedback loops; skew is undefined")
    window = _arrivals(compiled, delays, compiled.input_ids)
    ports: Dict[int, Dict[str, Tuple[float, float]]] = {}
    for wid, dest in enumerate(compiled.wire_dest):
        src = compiled.wire_source[wid][0]
        if dest is None or src not in window or dest[1] in ignore_ports:
            continue
        lo, hi = window[src]
        ports.setdefault(dest[0], {})[dest[1]] = (lo + delays[wid], hi + delays[wid])

    findings: List[SkewFinding] = []
    for i in compiled.cell_ids:
        arrivals = ports.get(i, {})
        if len(arrivals) < 2:
            continue
        skew = (max(hi for _, hi in arrivals.values())
                - min(lo for lo, _ in arrivals.values()))
        if skew > tolerance:
            node = compiled.nodes[i]
            findings.append(SkewFinding(
                node=node.name, cell=node.element.name, arrivals=arrivals,
                skew=skew,
            ))
    findings.sort(key=lambda f: -f.skew)
    return findings


def clock_skew(clock_name: str, circuit: Optional[Circuit] = None) -> Tuple[float, float]:
    """(min, max) arrival delay of a clock input across all cells it reaches.

    A cell's arrival is the shortest delay to the driver of its ``clk``
    wire plus that wire's delay (Dijkstra, so feedback loops are fine).
    The clock tree's leaf skew — the quantity that made the naive adder
    design fail (see ``repro.designs.adder_sync``).
    """
    compiled, delays = _weighted_ir(circuit)
    start = next(
        (i for i in compiled.input_ids
         if _input_label(compiled, i) == clock_name), None,
    )
    if start is None:
        raise PylseError(f"No circuit input named {clock_name!r}")
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for out in compiled.dispatch[i].outs:
            reach = d + delays[out.wire_id]
            if out.dest >= 0 and reach < dist.get(out.dest, float("inf")):
                dist[out.dest] = reach
                heapq.heappush(heap, (reach, out.dest))
    arrivals = [
        dist[src] + delays[wid]
        for wid, dest in enumerate(compiled.wire_dest)
        if dest is not None and dest[1] == "clk"
        and (src := compiled.wire_source[wid][0]) in dist
    ]
    if not arrivals:
        raise PylseError(f"Clock {clock_name!r} reaches no clocked cell")
    return min(arrivals), max(arrivals)


def clock_wires(circuit: Optional[Circuit] = None) -> Dict[str, List[str]]:
    """Structurally identify the circuit's clock inputs.

    Returns ``{input label: [clocked cell node names]}`` for every circuit
    input whose pulses reach at least one cell input port named ``clk``
    (through splitters, JTLs, or any other fabric). This replaces
    name-prefix heuristics: a clock called ``c0`` or ``clock`` is found just
    as well as one called ``clk``.
    """
    circuit = circuit if circuit is not None else working_circuit()
    compiled = compile_circuit(circuit, validate=False)
    return {
        label: list(cells) for label, cells in compiled.clock_wires.items()
    }


def total_jjs(circuit: Optional[Circuit] = None) -> int:
    """The area metric: total Josephson junction count over all cells."""
    circuit = circuit if circuit is not None else working_circuit()
    return sum(
        getattr(node.element, "jjs", 0) for node in circuit.cells()
    )
