"""Timed Automata data structures (Definition 4.1).

A Timed Automaton ``A = <L, l0, Sigma, C, E, I>`` has locations, an initial
location, actions (here: channel sends ``ch!`` and receives ``ch?``, or the
internal action), clocks, edges guarded by clock constraints, and per-
location clock invariants.

Times are represented as *scaled integers*: UPPAAL requires integer
constants in clock constraints, so all picosecond values are multiplied by
:data:`SCALE` (10 — one decimal digit of precision, exactly as the paper
upscales ``209.0`` ps to ``2090``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..core.errors import PylseError

#: Factor between picoseconds and the integer time units used in TA
#: constraints (one decimal digit of precision).
SCALE = 10


def scale_time(value: float) -> int:
    """Convert picoseconds to scaled integer time units.

    Raises if the value cannot be represented exactly at :data:`SCALE`
    precision (within float tolerance).
    """
    scaled = value * SCALE
    rounded = round(scaled)
    if abs(scaled - rounded) > 1e-6:
        raise PylseError(
            f"Time value {value} ps is not representable at 1/{SCALE} ps "
            "precision required for Timed Automata translation"
        )
    return int(rounded)


Op = Literal["<", "<=", "==", ">=", ">"]


@dataclass(frozen=True)
class Constraint:
    """An atomic clock constraint ``clock op constant`` (scaled integer)."""

    clock: str
    op: Op
    value: int

    def __str__(self) -> str:
        return f"{self.clock} {self.op} {self.value}"


@dataclass(frozen=True)
class Action:
    """A channel action: ``ch!`` (send) or ``ch?`` (receive)."""

    channel: str
    kind: Literal["!", "?"]

    def __str__(self) -> str:
        return f"{self.channel}{self.kind}"


@dataclass(frozen=True)
class Edge:
    """A TA edge ``<l, alpha, phi, lambda, l'>``.

    ``action`` is ``None`` for the internal action; ``guard`` is a
    conjunction of constraints; ``resets`` lists the clocks reset to zero.
    """

    source: str
    target: str
    action: Optional[Action] = None
    guard: Tuple[Constraint, ...] = ()
    resets: Tuple[str, ...] = ()

    def __str__(self) -> str:
        act = str(self.action) if self.action else "tau"
        guard = " && ".join(map(str, self.guard)) or "true"
        resets = ", ".join(self.resets)
        return f"{self.source} --{act}; {guard}; {{{resets}}}--> {self.target}"


@dataclass
class TimedAutomaton:
    """One automaton of a network; locations are plain strings."""

    name: str
    initial: str
    #: Provenance: 'cell' (a machine's main TA), 'firing', 'input' (pulse
    #: generator), or 'sink' (circuit-output receiver). Table 3's counts
    #: cover 'cell' + 'firing' only.
    role: str = "cell"
    locations: List[str] = field(default_factory=list)
    clocks: List[str] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    invariants: Dict[str, Tuple[Constraint, ...]] = field(default_factory=dict)
    #: Locations that denote timing-constraint violations (for Query 2).
    error_locations: List[str] = field(default_factory=list)
    #: Marker locations entered at the instant an output is emitted
    #: (``fta_end`` in the paper's Query 1).
    end_locations: List[str] = field(default_factory=list)

    def add_location(
        self,
        name: str,
        invariant: Sequence[Constraint] = (),
        error: bool = False,
        end: bool = False,
    ) -> str:
        if name in self.locations:
            raise PylseError(f"TA {self.name}: duplicate location {name!r}")
        self.locations.append(name)
        if invariant:
            self.invariants[name] = tuple(invariant)
        if error:
            self.error_locations.append(name)
        if end:
            self.end_locations.append(name)
        return name

    def add_edge(
        self,
        source: str,
        target: str,
        action: Optional[Action] = None,
        guard: Sequence[Constraint] = (),
        resets: Sequence[str] = (),
    ) -> Edge:
        for loc in (source, target):
            if loc not in self.locations:
                raise PylseError(f"TA {self.name}: unknown location {loc!r}")
        edge = Edge(source, target, action, tuple(guard), tuple(resets))
        self.edges.append(edge)
        return edge

    def validate(self) -> None:
        if self.initial not in self.locations:
            raise PylseError(
                f"TA {self.name}: initial location {self.initial!r} undefined"
            )
        clock_set = set(self.clocks)
        for edge in self.edges:
            for constraint in edge.guard:
                if constraint.clock not in clock_set:
                    raise PylseError(
                        f"TA {self.name}: edge {edge} guards unknown clock "
                        f"{constraint.clock!r}"
                    )
            for clock in edge.resets:
                if clock not in clock_set:
                    raise PylseError(
                        f"TA {self.name}: edge {edge} resets unknown clock "
                        f"{clock!r}"
                    )
        for loc, constraints in self.invariants.items():
            for constraint in constraints:
                if constraint.clock not in clock_set:
                    raise PylseError(
                        f"TA {self.name}: invariant at {loc} uses unknown clock "
                        f"{constraint.clock!r}"
                    )

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


@dataclass
class TANetwork:
    """A network of TAs running in parallel with binary channel handshakes.

    ``channels`` are the externally meaningful channels (circuit wires);
    ``internal_channels`` carry fire messages between a cell's main TA and
    its firing TAs. Clock names are global across the network (each TA's
    clocks are prefixed by its name at construction).
    """

    automata: List[TimedAutomaton] = field(default_factory=list)
    channels: List[str] = field(default_factory=list)
    internal_channels: List[str] = field(default_factory=list)
    #: The never-reset global time clock (present in every network).
    global_clock: str = "global"
    #: name -> automaton, kept beside ``automata`` by :meth:`add_automaton`.
    _by_name: Dict[str, TimedAutomaton] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self._by_name = {ta.name: ta for ta in self.automata}

    def add_automaton(self, ta: TimedAutomaton) -> TimedAutomaton:
        ta.validate()
        if ta.name in self._by_name:
            raise PylseError(f"Duplicate automaton name {ta.name!r}")
        self.automata.append(ta)
        self._by_name[ta.name] = ta
        return ta

    def all_clocks(self) -> List[str]:
        clocks = [self.global_clock]
        for ta in self.automata:
            clocks.extend(ta.clocks)
        return clocks

    def all_channels(self) -> List[str]:
        return list(self.channels) + list(self.internal_channels)

    # ------------------------------------------------------------------
    # statistics for Table 3
    # ------------------------------------------------------------------
    @property
    def n_automata(self) -> int:
        return len(self.automata)

    @property
    def n_locations(self) -> int:
        return sum(ta.n_locations for ta in self.automata)

    @property
    def n_edges(self) -> int:
        return sum(ta.n_edges for ta in self.automata)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def find(self, name: str) -> TimedAutomaton:
        ta = self._by_name.get(name)
        if ta is None:
            raise PylseError(f"No automaton named {name!r}")
        return ta
