"""Translation of PyLSE circuits to networks of Timed Automata (Figure 14).

Every placed cell becomes one *main* TA plus a family of *firing* TAs; input
generators become environment TAs that emit the pulse schedule; circuit
outputs get always-ready sink TAs. Channels are the circuit's wires, and a
handshake on a channel is a pulse crossing that wire.

For each PyLSE Machine transition ``src --sigma[prio, tau_tran] / firing /
constraints--> dst`` the main TA gets (Figure 14's expansion):

* an edge ``src --sigma?; {c_sigma' >= tau_dist ...}; {c_h, c_sigma}--> q0``
  checking the past constraints and starting the handler clock;
* one *setup error* location and edge per past constraint
  (``src --sigma?; c_sigma' < tau_dist--> <CELL>_err_<sigma'>_<n>``);
* an urgent chain of fire sends ``q0 --f! ; c_h == 0--> q1 ...`` (outputs
  are emitted at the transition-trigger instant; the firing TA adds the
  firing delay);
* a wait location carrying the ``c_h <= tau_tran`` invariant, with one
  *hold error* location and edge per input (pulses during the transitionary
  period are illegal) and an exit edge ``c_h == tau_tran; {c_h}`` to the
  destination state.

Each firing TA (Figure 14d) receives the internal fire message, waits
exactly the firing delay, and sends on the output wire's channel; it is
replicated by the soaking factor ``ceil(tau_fire / tau_tran)`` so the cell
can re-fire during a pending propagation.

Functional (hole) elements have no transition system and are rejected —
model checking applies to the Transitional subset of a design.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.circuit import Circuit
from ..core.element import InGen
from ..core.errors import PylseError
from ..core.ir import compile_circuit
from ..core.node import Node
from ..core.timing import nominal_delay
from ..core.transitional import Transitional
from ..core.wire import Wire
from .automaton import Action, Constraint, TANetwork, TimedAutomaton, scale_time

#: Soaking factor used for transitions with zero transition time (the
#: paper's formula ceil(tau_prop / tau_hold) is undefined there).
DEFAULT_SOAK = 1


def channel_name(wire: Wire) -> str:
    """A channel identifier for a wire (sanitized for UPPAAL)."""
    label = wire.observed_as
    cleaned = re.sub(r"\W", "_", label)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "w" + cleaned
    return cleaned


@dataclass
class TranslationResult:
    """A translated circuit: the TA network plus provenance maps."""

    network: TANetwork
    #: node name -> its main TA
    main_tas: Dict[str, TimedAutomaton] = field(default_factory=dict)
    #: output channel -> names of the firing TAs that send on it
    firing_tas_by_channel: Dict[str, List[str]] = field(default_factory=dict)
    #: (main TA, error location) -> (input symbol, "setup" or "hold")
    error_sources: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict
    )
    #: (node name, transition id) -> the main TA edge that takes the
    #: transition, as ``(automaton, source, entry location)``
    entry_edges: Dict[Tuple[str, int], Tuple[str, str, str]] = field(
        default_factory=dict
    )

    @property
    def cell_automata(self) -> List[TimedAutomaton]:
        return [ta for ta in self.network.automata if ta.role in ("cell", "firing")]

    def cell_stats(self) -> Dict[str, int]:
        """Table 3's UPPAAL columns: TA, locations, transitions, channels."""
        tas = self.cell_automata
        return {
            "ta": len(tas),
            "locations": sum(ta.n_locations for ta in tas),
            "transitions": sum(ta.n_edges for ta in tas),
            "channels": self.network.n_channels,
        }

    def all_error_locations(self) -> List[Tuple[str, str]]:
        """Every (automaton, error location) pair in the network."""
        return [
            (ta.name, loc)
            for ta in self.network.automata
            for loc in ta.error_locations
        ]


class _CellTranslator:
    """Builds the main TA and firing TAs for one placed Transitional cell."""

    def __init__(self, node: Node, network: TANetwork, result: TranslationResult,
                 fire_counter: List[int], default_soak: int):
        self.node = node
        self.element: Transitional = node.element  # type: ignore[assignment]
        self.machine = self.element.machine
        self.network = network
        self.result = result
        self.fire_counter = fire_counter
        self.default_soak = default_soak
        self.err_counter = 0

    def translate(self) -> None:
        node, machine = self.node, self.machine
        ta = TimedAutomaton(
            name=node.name, initial=machine.initial, role="cell"
        )
        clock_h = f"c_{node.name}_h"
        clock_of = {
            sym: f"c_{node.name}_{sym}" for sym in machine.inputs
        }
        ta.clocks = [clock_h] + list(clock_of.values())
        for state in machine.states:
            ta.add_location(state)

        # One fire channel per (output, scaled delay) family; firing TAs are
        # created once per family, replicated by the soaking factor.
        fire_families: Dict[Tuple[str, int], str] = {}
        max_tran_for_family: Dict[Tuple[str, int], int] = {}
        for t in machine.transitions:
            for out, delay in t.firing.items():
                key = (out, scale_time(nominal_delay(delay)))
                fire_families.setdefault(
                    key, f"f_{node.name}_{out}_{key[1]}"
                )
                tran = scale_time(t.transition_time)
                max_tran_for_family[key] = max(
                    max_tran_for_family.get(key, 0), tran
                )

        for t in machine.transitions:
            self._expand_transition(ta, t, clock_h, clock_of, fire_families)

        self.network.add_automaton(ta)
        self.result.main_tas[node.name] = ta

        for (out, delay_scaled), fire_channel in fire_families.items():
            self.network.internal_channels.append(fire_channel)
            wire = node.output_wires[out]
            out_channel = channel_name(wire)
            tran = max_tran_for_family[(out, delay_scaled)]
            if tran > 0:
                soak = max(1, math.ceil(delay_scaled / tran))
            else:
                soak = self.default_soak
            for _ in range(soak):
                self._make_firing_ta(fire_channel, out_channel, delay_scaled)

    # ------------------------------------------------------------------
    def _expand_transition(self, ta, t, clock_h, clock_of, fire_families) -> None:
        machine = self.machine
        tran = scale_time(t.transition_time)
        trigger_clock = clock_of[t.trigger]

        # Setup (past-constraint) checks: collect (input, scaled tau_dist).
        constraints = [
            (sym, scale_time(dist))
            for sym, dist in machine._constraint_items(t)
            if dist > 0
        ]
        ok_guard = [Constraint(clock_of[sym], ">=", dist) for sym, dist in constraints]

        # The urgent fire chain q0 -> q1 -> ... then the wait location.
        chain = [ta.add_location(f"q0_{t.id}", invariant=(
            [Constraint(clock_h, "<=", 0)] if t.firing else
            [Constraint(clock_h, "<=", tran)]
        ))]
        ta.add_edge(
            t.source, chain[0], Action(channel_name_for(self.node, t.trigger), "?"),
            guard=ok_guard, resets=[clock_h, trigger_clock],
        )
        self.result.entry_edges[(ta.name, t.id)] = (ta.name, t.source, chain[0])
        for sym, dist in constraints:
            err = self._error_location(ta, sym, "setup")
            ta.add_edge(
                t.source, err,
                Action(channel_name_for(self.node, t.trigger), "?"),
                guard=[Constraint(clock_of[sym], "<", dist)],
            )

        # Emit one fire message per output, all at the trigger instant.
        fire_items = sorted(
            t.firing.items(), key=lambda item: machine.outputs.index(item[0])
        )
        for i, (out, delay) in enumerate(fire_items):
            key = (out, scale_time(nominal_delay(delay)))
            is_last = i == len(fire_items) - 1
            nxt_inv = (
                [Constraint(clock_h, "<=", tran)]
                if is_last
                else [Constraint(clock_h, "<=", 0)]
            )
            nxt = ta.add_location(f"q{i + 1}_{t.id}", invariant=nxt_inv)
            ta.add_edge(
                chain[-1], nxt, Action(fire_families[key], "!"),
                guard=[Constraint(clock_h, "==", 0)],
            )
            chain.append(nxt)

        wait = chain[-1]
        # Pulses during the transitionary period are illegal (hold errors).
        # These locations are created even when tau_tran is zero — the guard
        # is then unsatisfiable and the location unreachable — matching the
        # paper's expansion, which inserts error states for every transition
        # (its min-max Query 2 enumerates C_err_* locations although the C
        # element never rejects a pulse under that stimulus).
        for sym in machine.inputs:
            err = self._error_location(ta, sym, "hold")
            ta.add_edge(
                wait, err, Action(channel_name_for(self.node, sym), "?"),
                guard=[Constraint(clock_h, "<", tran)],
            )
        ta.add_edge(
            wait, t.dest, None,
            guard=[Constraint(clock_h, "==", tran)], resets=[clock_h],
        )

    def _error_location(self, ta, input_symbol: str, kind: str) -> str:
        self.err_counter += 1
        name = f"{self.element.name}_err_{input_symbol}_{self.err_counter}"
        self.result.error_sources[(ta.name, name)] = (input_symbol, kind)
        return ta.add_location(name, error=True)

    def _make_firing_ta(self, fire_channel: str, out_channel: str, delay: int) -> None:
        index = self.fire_counter[0]
        self.fire_counter[0] += 1
        ta = TimedAutomaton(
            name=f"firingauto{index}", initial="f0", role="firing"
        )
        clock_p = f"c_fa{index}_p"
        ta.clocks = [clock_p]
        ta.add_location("f0")
        ta.add_location("f1", invariant=[Constraint(clock_p, "<=", delay)])
        ta.add_location("fta_end", invariant=[Constraint(clock_p, "<=", delay)],
                        end=True)
        ta.add_edge("f0", "f1", Action(fire_channel, "?"), resets=[clock_p])
        ta.add_edge("f1", "fta_end", Action(out_channel, "!"),
                    guard=[Constraint(clock_p, "==", delay)])
        ta.add_edge("fta_end", "f0", None,
                    guard=[Constraint(clock_p, "==", delay)])
        self.network.add_automaton(ta)
        self.result.firing_tas_by_channel.setdefault(out_channel, []).append(ta.name)


def channel_name_for(node: Node, input_symbol: str) -> str:
    """The channel of the wire driving ``input_symbol`` of ``node``."""
    return channel_name(node.input_wires[input_symbol])


def translate_circuit(
    circuit: Circuit,
    include_inputs: bool = True,
    default_soak: int = DEFAULT_SOAK,
    until: Optional[float] = None,
) -> TranslationResult:
    """Translate a whole PyLSE circuit into a TA network.

    ``include_inputs`` controls whether environment TAs replaying the input
    generators' pulse schedules are added (needed for model checking;
    pointless for pure size statistics). ``until`` truncates input schedules
    at the given time.
    """
    compiled = compile_circuit(circuit, validate=False)
    network = TANetwork()
    result = TranslationResult(network=network)
    for wire in compiled.wires:
        network.channels.append(channel_name(wire))

    fire_counter = [0]
    for node in compiled.cells():
        if not isinstance(node.element, Transitional):
            raise PylseError(
                f"Cannot translate node {node.name}: Functional (hole) "
                "elements have no transition system; model checking covers "
                "the Transitional subset of a design"
            )
        _CellTranslator(node, network, result, fire_counter, default_soak).translate()

    if include_inputs:
        for node in compiled.input_nodes():
            _make_input_ta(network, node, until)

    for wid in compiled.output_wire_ids:
        _make_sink_ta(network, compiled.wires[wid])
    return result


def _make_input_ta(network: TANetwork, node: Node, until: Optional[float]) -> None:
    element: InGen = node.element  # type: ignore[assignment]
    wire = node.output_wires["out"]
    times = [t for t in element.times if until is None or t <= until]
    ta = TimedAutomaton(name=f"input_{channel_name(wire)}", initial="i0",
                        role="input")
    clock = f"c_in_{channel_name(wire)}"
    ta.clocks = [clock]
    ta.add_location("i0", invariant=(
        [Constraint(clock, "<=", scale_time(times[0]))] if times else []
    ))
    for k, t in enumerate(times):
        nxt_inv = (
            [Constraint(clock, "<=", scale_time(times[k + 1]))]
            if k + 1 < len(times)
            else []
        )
        ta.add_location(f"i{k + 1}", invariant=nxt_inv)
        ta.add_edge(
            f"i{k}", f"i{k + 1}", Action(channel_name(wire), "!"),
            guard=[Constraint(clock, "==", scale_time(t))],
        )
    network.add_automaton(ta)


def _make_sink_ta(network: TANetwork, wire: Wire) -> None:
    ta = TimedAutomaton(
        name=f"sink_{channel_name(wire)}", initial="s0", role="sink"
    )
    ta.add_location("s0")
    ta.add_edge("s0", "s0", Action(channel_name(wire), "?"))
    network.add_automaton(ta)
