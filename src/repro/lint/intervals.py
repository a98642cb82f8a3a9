"""Arrival-window abstract interpretation for static timing lint.

The analysis propagates per-wire pulse-arrival *intervals* ``[lo, hi]``
from the input generators' schedules through the circuit DAG, widening by
each cell's (min, max) nominal firing delay. Comparing the windows that
reach a constrained cell against its hold windows (``tau_tran``) and past
constraints (``tau_dist``) classifies every (cell, constraint) pair before
a single pulse is simulated:

* **guaranteed violation** — every concrete schedule inside the windows
  trips a Figure 6 error rule, so the simulator *will* raise the Figure 13
  error;
* **possible violation** — some schedules trip it, others do not;
* **safe** — no schedule can trip it, with a quantified margin.

Soundness of the "guaranteed" claim rests on the ``definite`` flag: an
interval is definite only if a pulse is certain to occur inside it — true
for InGen pulses and preserved through cells whose every reachable
transition on the triggering input fires the output (JTL/splitter/merger
fabric). Guaranteed violations additionally require the constraint to hold
on *every* reachable transition of the trigger (``tau_universal``), making
the claim state-blind yet sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.circuit import Circuit
from ..core.element import InGen
from ..core.errors import PylseError
from ..core.functional import Functional
from ..core.ir import compile_circuit
from ..core.machine import PylseMachine, expand_constraints
from ..core.node import Node
from ..core.timing import nominal_delay
from ..core.transitional import Transitional
from ..core.wire import Wire

#: Cap on distinct intervals tracked per wire before collapsing to one
#: indefinite spanning window (keeps dense pulse trains from exploding).
MAX_INTERVALS_PER_WIRE = 64


class Interval(NamedTuple):
    """One abstract pulse: guaranteed to arrive within ``[lo, hi]`` if
    ``definite``, possibly arriving within it otherwise.

    ``parent``/``via`` record provenance: ``via`` is the hop that produced
    this interval (``in:clk@50`` at a source, ``jtl0 +[3, 3]`` through a
    cell), so walking the parent chain renders the offending
    input-to-cell path, mirroring ``SimulationError.provenance``. An
    immutable named tuple: propagation builds one per (pulse, hop), and a
    tuple costs half a frozen dataclass to construct.
    """

    lo: float
    hi: float
    definite: bool
    via: str
    parent: Optional["Interval"] = None

    def path(self, sink: str) -> str:
        """Render the provenance chain, e.g.
        ``in:clk@50 -> jtl0 +[3, 3] -> xor0.clk in [53, 53]``."""
        hops: List[str] = []
        interval: Optional[Interval] = self
        while interval is not None:
            hops.append(interval.via)
            interval = interval.parent
        hops.reverse()
        return (
            " -> ".join(hops)
            + f" -> {sink} in [{self.lo:g}, {self.hi:g}]"
        )


def _merge_intervals(intervals: List[Interval]) -> List[Interval]:
    """Sort by ``lo`` and coalesce overlapping intervals.

    Overlapping windows cannot be ordered against each other anyway, so
    merging loses no guaranteed-violation power; a merged window is definite
    if either component was (at least one pulse certainly lands inside).
    """
    if not intervals:
        return []
    ordered = sorted(intervals, key=attrgetter("lo", "hi"))
    merged = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.lo <= last.hi:
            merged[-1] = Interval(
                lo=last.lo,
                hi=max(last.hi, interval.hi),
                definite=last.definite or interval.definite,
                via=last.via,
                parent=last.parent,
            )
        else:
            merged.append(interval)
    if len(merged) > MAX_INTERVALS_PER_WIRE:
        first, last = merged[0], merged[-1]
        merged = [Interval(
            lo=first.lo, hi=last.hi, definite=False,
            via=first.via, parent=first.parent,
        )]
    return merged


def _trigger_windows(
    machine: PylseMachine,
) -> Dict[str, List[Tuple[str, float, float, bool]]]:
    """trigger -> [(output, min delay, max delay, definite)] over the
    machine's reachable transitions, outputs in declaration order.

    ``definite`` is True when *every* reachable transition on the trigger
    fires the output — a pulse on the trigger then certainly produces one on
    the output, whatever state the machine is in.
    """
    reachable = machine.reachable_states()
    windows: Dict[str, List[Tuple[str, float, float, bool]]] = {}
    for trigger in machine.inputs:
        on_trigger = [
            t for t in machine.transitions
            if t.trigger == trigger and t.source in reachable
        ]
        for out in machine.outputs:
            delays = [
                nominal_delay(t.firing[out]) for t in on_trigger
                if out in t.firing
            ]
            if not delays:
                continue
            always = all(out in t.firing for t in on_trigger)
            windows.setdefault(trigger, []).append(
                (out, min(delays), max(delays), always)
            )
    return windows


class _MachineFacts:
    """The timing facts of one machine, computed once per :func:`propagate`.

    Machines are immutable and shared by every cell of one (class,
    overrides) key, so a bitonic sorter's dozens of cells share a handful
    of these instead of re-walking ``reachable_states()`` per cell.
    """

    __slots__ = ("windows", "setup", "hold")

    def __init__(self, machine: PylseMachine):
        self.windows = _trigger_windows(machine)
        self.setup = _constraint_requirements(machine)
        self.hold = _hold_requirements(machine)


@dataclass(frozen=True)
class TimingCheck:
    """One (cell, ordered interval pair, constraint) comparison."""

    node: str
    cell: str
    #: ``"setup"`` for a past constraint (Error-kappa-Cons), ``"hold"`` for a
    #: transition-time window (Error-kappa-Tran).
    kind: str
    first_port: str
    second_port: str
    first: Interval
    second: Interval
    #: Worst-case requirement (max constraint over reachable transitions).
    required: float
    #: Requirement provable on *every* reachable transition (min; 0 when
    #: some transition lacks the constraint).
    required_universal: float
    sep_min: float
    sep_max: float

    @property
    def status(self) -> str:
        if (self.first.definite and self.second.definite
                and self.sep_min > 0
                and self.sep_max < self.required_universal):
            return "violation"
        if self.sep_max >= 0 and self.sep_min < self.required:
            return "possible"
        return "safe"

    @property
    def margin(self) -> float:
        """Slack before the constraint could fire: negative is bad."""
        return self.sep_min - self.required

    def describe(self) -> str:
        return (
            f"{self.kind} {self.required:g} ps between "
            f"{self.first_port!r} and {self.second_port!r} on {self.node}: "
            f"separation [{self.sep_min:g}, {self.sep_max:g}] ps "
            f"(margin {self.margin:g} ps)"
        )


@dataclass
class ArrivalAnalysis:
    """Result of :func:`propagate`: per-wire windows plus all timing checks."""

    arrivals: Dict[Wire, List[Interval]]
    checks: List[TimingCheck]

    def safe_margin(self) -> Optional[float]:
        """Worst margin over checks that are statically safe (None if no
        constrained pairs exist).

        Pairs whose ordering is impossible (``sep_max < 0``: the "second"
        pulse provably precedes the first) are vacuously safe and excluded —
        their margin is meaningless.
        """
        margins = [
            c.margin for c in self.checks
            if c.status == "safe" and c.sep_max >= 0
        ]
        return min(margins) if margins else None


def _node_order(circuit: Circuit) -> List[Node]:
    """Nodes in dataflow topological order (raises on cycles).

    The order comes straight from the compiled IR — one shared traversal
    instead of a private graph rebuild; any valid topological order yields
    identical arrival windows (the propagation is pure dataflow).
    """
    compiled = compile_circuit(circuit, validate=False)
    if not compiled.is_acyclic:
        raise PylseError(
            "Circuit contains feedback loops; arrival windows are unbounded"
        )
    return compiled.topo_nodes()


def propagate(circuit: Circuit) -> ArrivalAnalysis:
    """Run the interval abstract interpretation over an acyclic circuit."""
    arrivals: Dict[Wire, List[Interval]] = {}
    facts: Dict[PylseMachine, _MachineFacts] = {}

    def facts_of(element: Transitional) -> _MachineFacts:
        machine = element.machine
        known = facts.get(machine)
        if known is None:
            known = facts[machine] = _MachineFacts(machine)
        return known

    for node in _node_order(circuit):
        element = node.element
        if isinstance(element, InGen):
            wire = node.output_wires["out"]
            arrivals[wire] = [
                Interval(lo=t, hi=t, definite=True,
                         via=f"in:{wire.observed_as}@{t:g}")
                for t in element.times
            ]
            continue

        if isinstance(element, Transitional):
            windows = facts_of(element).windows
            produced: Dict[str, List[Interval]] = {}
            for port, wire in node.input_wires.items():
                hops = [
                    (produced.setdefault(out, []), dmin, dmax, always,
                     f"{node.name} +[{dmin:g}, {dmax:g}]")
                    for out, dmin, dmax, always in windows.get(port, ())
                ]
                if not hops:
                    continue
                for interval in arrivals.get(wire, ()):
                    for into, dmin, dmax, always, via in hops:
                        into.append(Interval(
                            lo=interval.lo + dmin,
                            hi=interval.hi + dmax,
                            definite=interval.definite and always,
                            via=via,
                            parent=interval,
                        ))
            for out, wire in node.output_wires.items():
                arrivals[wire] = _merge_intervals(produced.get(out, []))
            continue

        if isinstance(element, Functional):
            # A hole's Python body is opaque: any input pulse *may* produce
            # any output pulse, and none is guaranteed.
            produced = {}
            for port, wire in node.input_wires.items():
                for interval in arrivals.get(wire, []):
                    for out in element.outputs:
                        d = nominal_delay(element.delays[out])
                        produced.setdefault(out, []).append(Interval(
                            lo=interval.lo + d,
                            hi=interval.hi + d,
                            definite=False,
                            via=f"{node.name} +[{d:g}, {d:g}]",
                            parent=interval,
                        ))
            for out, wire in node.output_wires.items():
                arrivals[wire] = _merge_intervals(produced.get(out, []))
            continue

        raise PylseError(
            f"{node.name}: cannot statically analyze element {element!r}"
        )

    checks = _collect_checks(circuit, arrivals, facts_of)
    return ArrivalAnalysis(arrivals=arrivals, checks=checks)


def _constraint_requirements(
    machine: PylseMachine,
) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """Setup requirements: (constrained input, trigger) -> (max, universal).

    ``max`` is the worst tau_dist any reachable transition on the trigger
    imposes on the constrained input; ``universal`` is the requirement
    provable whatever state the machine is in (the min over those
    transitions, 0 when one of them lacks the constraint).
    """
    reachable = machine.reachable_states()
    result: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for trigger in machine.inputs:
        on_trigger = [
            t for t in machine.transitions
            if t.trigger == trigger and t.source in reachable
        ]
        if not on_trigger:
            continue
        per_input: Dict[str, List[float]] = {}
        for t in on_trigger:
            expanded = dict(expand_constraints(t, machine.inputs))
            for sym in machine.inputs:
                per_input.setdefault(sym, []).append(expanded.get(sym, 0.0))
        for sym, dists in per_input.items():
            worst = max(dists)
            if worst <= 0:
                continue
            result[(sym, trigger)] = (worst, min(dists))
    return result


def _hold_requirements(
    machine: PylseMachine,
) -> Dict[str, Tuple[float, float]]:
    """Hold requirements: triggering input -> (max, universal) tau_tran.

    A pulse on *any* input at t makes the cell unstable until
    ``t + tau_tran``; a second pulse inside that window is the
    Error-kappa-Tran case. Keyed by the *first* pulse's input.
    """
    reachable = machine.reachable_states()
    result: Dict[str, Tuple[float, float]] = {}
    for trigger in machine.inputs:
        times = [
            t.transition_time for t in machine.transitions
            if t.trigger == trigger and t.source in reachable
        ]
        if times and max(times) > 0:
            result[trigger] = (max(times), min(times))
    return result


def _collect_checks(
    circuit: Circuit,
    arrivals: Dict[Wire, List[Interval]],
    facts_of: Callable[[Transitional], _MachineFacts],
) -> List[TimingCheck]:
    checks: List[TimingCheck] = []
    for node in circuit.cells():
        element = node.element
        if not isinstance(element, Transitional):
            continue
        port_intervals = {
            port: arrivals.get(wire, [])
            for port, wire in node.input_wires.items()
        }

        def pairs(first_port: str, second_port: str):
            for i1 in port_intervals.get(first_port, []):
                for i2 in port_intervals.get(second_port, []):
                    if i1 is i2:
                        continue  # a pulse cannot precede itself
                    yield i1, i2

        facts = facts_of(element)
        for (constrained, trigger), (worst, universal) in \
                facts.setup.items():
            for i1, i2 in pairs(constrained, trigger):
                checks.append(TimingCheck(
                    node=node.name, cell=element.name, kind="setup",
                    first_port=constrained, second_port=trigger,
                    first=i1, second=i2,
                    required=worst, required_universal=universal,
                    sep_min=i2.lo - i1.hi, sep_max=i2.hi - i1.lo,
                ))

        if facts.hold:
            for first_port, (worst, universal) in facts.hold.items():
                for second_port in element.inputs:
                    for i1, i2 in pairs(first_port, second_port):
                        checks.append(TimingCheck(
                            node=node.name, cell=element.name, kind="hold",
                            first_port=first_port, second_port=second_port,
                            first=i1, second=i2,
                            required=worst, required_universal=universal,
                            sep_min=i2.lo - i1.hi, sep_max=i2.hi - i1.lo,
                        ))
    return checks
