"""Zone-graph reachability for TA networks: the bundled model checker.

UPPAAL is unavailable offline, so this module re-implements the standard
forward zone-graph algorithm it is built on (see DESIGN.md):

* symbolic states are (location vector, canonical DBM zone) pairs, stored
  delay-closed (every state includes its time successors up to invariants);
* successors come from internal edges and binary channel handshakes
  (sender ``ch!`` + receiver ``ch?`` in two different automata, guards
  conjoined, resets unioned);
* a passed list with zone-inclusion subsumption prunes the search;
* ExtraM extrapolation over per-clock maximum constants guarantees
  termination even though the global clock is never reset;
* active-clock reduction (Daws & Yovine, RTSS 1996; UPPAAL's default):
  each zone is a DBM over only the clocks live in its location vector —
  the global clock plus, per automaton, the clocks its location can read
  (in a guard or invariant) before resetting them. A backward fixpoint
  computes liveness once per (automaton, location); since a target's
  live clocks are live at the source or reset by the edge, one index
  gather (``m[np.ix_(take, take)]``) projects away the clocks that die
  and performs the resets. The reduction is exact for location
  reachability, so verdicts, races and coverage are those of the
  full-dimension zone graph; only the state counts fall;
* same-instant persistent sets (Godefroid, LNCS 1032; for timed systems
  Bengtsson, Jonsson, Lilius and Yi, CONCUR 1998): at a state whose zone
  pins the global clock, simultaneous steps of different cells would be
  explored in every order. There the explorer fires only the internal
  steps (tau edges and fire handshakes) of the first cell, in automaton
  order, whose steps provably commute with everything else that can
  happen at that instant (:meth:`ModelChecker._independent`), and falls
  back to the full expansion when no cell qualifies or a chosen successor
  is already covered (the cycle proviso). Steps entering an error, end or
  queried location are never chosen, and wire deliveries never are, so
  the same queries fail at the same locations, and simultaneous arrivals
  (PL402), coverage and dead ends are those of the full search. The
  search reaches a subset of the location vectors in fewer states; a
  violating state may be reached through another order of one instant's
  steps.

The checker decides the paper's two query shapes while exploring:
**Query 2** (no error location reachable) and **Query 1** (a firing TA's
``fta_end`` location — occupied exactly at the instant an output pulse is
emitted — only ever coincides with an allowed global time).
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core._np import np
from ..core.errors import PylseError
from ..ta.automaton import Constraint, Edge, TANetwork
from ..ta.queries import Query
from .dbm import DBM, INF, LE_ZERO, bound, zero_zone

GuardOps = Tuple[Tuple[int, int, int], ...]  # (i, j, encoded bound)

#: Most location-vector frames the explorer's cache keeps. Nearly every
#: state has a location vector of its own, so the cache must forget; each
#: waiting state carries its own frame, so the cache only shares frames
#: between successors built close together.
FRAME_CACHE_SIZE = 1024


def _add(a: int, b: int) -> int:
    """Encoded-bound sum of two finite bounds (see :mod:`repro.mc.dbm`)."""
    return a + b - ((a | b) & 1)


def _upper_bounds(ops: GuardOps) -> Dict[int, int]:
    """Per clock, its tightest upper bound among ``ops``."""
    uppers: Dict[int, int] = {}
    for clock, j, encoded in ops:
        if j == 0 and clock:
            uppers[clock] = min(encoded, uppers.get(clock, encoded))
    return uppers


def _urgent(guard: GuardOps, invariant: GuardOps) -> bool:
    """True when some clock's guard lower bound meets its invariant bound.

    Then no delay can pass while the edge is enabled: the clock already
    sits at the largest value the location allows.
    """
    uppers = _upper_bounds(invariant)
    return any(
        i == 0 and clock in uppers and _add(uppers[clock], low) <= LE_ZERO
        for i, clock, low in guard
    )


def _exclusive(guard_a: GuardOps, guard_b: GuardOps) -> bool:
    """True when some clock's bounds in the two guards contradict."""
    for first, second in ((guard_a, guard_b), (guard_b, guard_a)):
        uppers = _upper_bounds(first)
        if any(i == 0 and clock in uppers and _add(uppers[clock], low) < LE_ZERO
               for i, clock, low in second):
            return True
    return False


def _rank(edge: "_CompiledEdge") -> int:
    return edge.rank


#: One counterexample step: (transition label, earliest global time,
#: latest global time) — times are scaled integers (see
#: :func:`repro.ta.automaton.scale_time`); the upper bound is ``None``
#: when the state's invariants leave it open.
TraceStep = Tuple[str, int, Optional[int]]


@dataclass
class Violation:
    """One property failure found during exploration.

    ``trace`` is the counterexample: the sequence of fired transitions from
    the initial state to the violating one (UPPAAL likewise "will return a
    trace showing the path that led to the particular error state",
    Section 5.3). ``steps`` is the same path with the global-clock window
    of each intermediate state attached — the raw material a concrete
    witness schedule is extracted from — and ``locations`` snapshots the
    full location vector of the violating state.
    """

    query: str            # 'query1', 'query2', or 'no_deadlock'
    automaton: str
    location: str
    detail: str
    trace: List[str] = field(default_factory=list)
    steps: List[TraceStep] = field(default_factory=list)
    locations: List[Tuple[str, str]] = field(default_factory=list)

    def format_trace(self) -> str:
        if not self.trace:
            return "(initial state)"
        return "\n".join(f"  {k + 1}. {step}" for k, step in enumerate(self.trace))


@dataclass(frozen=True)
class RaceCandidate:
    """Two pulses that can reach one cell at the same instant.

    ``automaton`` is the receiving cell's main TA (= the node name),
    ``location`` the TA location it occupies, and ``channel_a``/
    ``channel_b`` the two wire channels whose enabled sends are
    simultaneously feasible — the zone conjunction of both send guards is
    non-empty over ``window`` (scaled global-clock bounds). Whether the
    arrival *order* matters is a machine-level question the PL402 lint
    rule answers on top of this purely reachability-level fact.
    """

    automaton: str
    location: str
    channel_a: str
    channel_b: str
    window: Tuple[int, Optional[int]]


@dataclass(frozen=True)
class Coverage:
    """What the exploration actually touched.

    ``fired_edges`` holds ``(automaton, source, target)`` name triples of
    every edge that produced at least one feasible successor (subsumed or
    not); when a run **completed**, an edge absent from the set provably
    never fires under the modeled environment — the PL401 evidence.
    ``visited_locations`` maps each automaton to the locations it occupied
    in some reachable state.
    """

    fired_edges: FrozenSet[Tuple[str, str, str]]
    visited_locations: Dict[str, FrozenSet[str]]


@dataclass
class CheckResult:
    """Outcome of a model-checking run."""

    states_explored: int
    transitions_fired: int
    elapsed_seconds: float
    completed: bool
    violations: List[Violation] = field(default_factory=list)
    #: Why exploration stopped early: ``"max_states"`` or ``"time_limit"``
    #: (``None`` when it ran to exhaustion). Explicit, never silent — the
    #: budget semantics PL4xx reports as ``truncated``.
    truncation_reason: Optional[str] = None
    #: Simultaneous-arrival candidates (collected when ``run`` is asked to).
    races: List[RaceCandidate] = field(default_factory=list)
    coverage: Optional[Coverage] = None

    @property
    def satisfied(self) -> bool:
        """True iff exploration finished and found no violation."""
        return self.completed and not self.violations

    @property
    def truncated(self) -> bool:
        """True when a state or time budget cut the exploration short."""
        return not self.completed

    def violations_for(self, query: str) -> List[Violation]:
        return [v for v in self.violations if v.query == query]


class _CompiledEdge:
    """An edge with guards/resets/targets resolved to integer indices.

    ``channel`` is the action's channel (None for an internal edge),
    ``rank`` orders sends as the full expansion meets them (channel by
    channel, senders in network order), ``partners`` lists the receive
    edges of other automata on a send's channel, ``cell`` is the cell
    (see :meth:`ModelChecker._index_steps`) whose internal step the edge starts
    — a tau edge or a send on a private fire channel — or None, and
    ``settled`` is True when the target's invariants can never cut the
    step (see :meth:`ModelChecker._settled`).
    """

    __slots__ = ("ta_index", "source", "target", "guard_ops", "resets", "edge",
                 "channel", "rank", "partners", "cell", "settled")

    def __init__(self, ta_index: int, source: int, target: int,
                 guard_ops: GuardOps, resets: Tuple[int, ...], edge: Edge):
        self.ta_index = ta_index
        self.source = source
        self.target = target
        self.guard_ops = guard_ops
        self.resets = resets
        self.edge = edge
        self.channel = edge.action.channel if edge.action else None
        self.rank = 0
        self.partners: Tuple["_CompiledEdge", ...] = ()
        self.cell: Optional[int] = None
        self.settled: Optional[bool] = None


class _Frame:
    """The clock frame of one location vector, cached per vector.

    ``clocks[k]`` is the network clock index at zone position ``k``
    (position 0 is the reference clock; the global clock, index 1, is
    always active and so always at position 1). ``pos`` inverts it,
    ``max_constants`` is the ExtraM vector sliced to the frame, and
    ``invariant_ops`` holds the vector's invariants in frame positions.
    """

    __slots__ = ("clocks", "pos", "max_constants", "invariant_ops")

    def __init__(self, clocks: List[int], max_constants: Sequence[int],
                 invariant_ops: GuardOps):
        self.clocks = clocks
        self.pos = {clock: k for k, clock in enumerate(clocks)}
        self.max_constants = np.asarray(
            [max_constants[c] for c in clocks], dtype=np.int64
        )
        self.invariant_ops = self.remap(invariant_ops)

    def remap(self, ops: Sequence[Tuple[int, int, int]]) -> GuardOps:
        pos = self.pos
        return tuple((pos[i], pos[j], encoded) for i, j, encoded in ops)


class ModelChecker:
    """Explore a TA network's zone graph and decide Query 1 / Query 2.

    ``global_slack`` widens the extrapolation constant of never-reset clocks
    (the global clock and input-schedule clocks) beyond the largest constant
    that appears in any constraint, so exact output instants stay
    representable throughout the schedule.
    """

    def __init__(
        self,
        network: TANetwork,
        max_states: Optional[int] = None,
        time_limit: Optional[float] = None,
        global_slack: int = 2000,
        use_inclusion: bool = True,
    ):
        self.network = network
        self.max_states = max_states
        self.time_limit = time_limit
        self.global_slack = global_slack
        #: When False, the passed list only deduplicates exact zones (no
        #: subsumption) — the ablation of bench_ablation_mc.py.
        self.use_inclusion = use_inclusion
        self._compile()

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        net = self.network
        self.clock_index: Dict[str, int] = {
            name: k + 1 for k, name in enumerate(net.all_clocks())
        }
        self.n_clocks = len(self.clock_index)
        self.global_idx = self.clock_index[net.global_clock]
        self.ta_names = [ta.name for ta in net.automata]
        #: automaton name -> index, built once here; the query compilers
        #: below share it instead of rebuilding their own ``{name: k}``
        #: dicts (the explorer-side twin of the IR's ``node_index``).
        self.ta_index: Dict[str, int] = {
            name: k for k, name in enumerate(self.ta_names)
        }
        self.ta_roles = [ta.role for ta in net.automata]
        self.loc_index: List[Dict[str, int]] = []
        self.loc_names: List[List[str]] = []
        self.initial_locs: List[int] = []
        self.invariant_ops: List[List[GuardOps]] = []
        self.error_locs: List[FrozenSet[int]] = []
        self.end_locs: List[FrozenSet[int]] = []
        #: Per automaton: its compiled edges, in network order.
        self.edges_of: List[List[_CompiledEdge]] = []
        self.senders: Dict[str, List[_CompiledEdge]] = {}
        self.receivers: Dict[str, List[_CompiledEdge]] = {}
        #: Per (automaton, location): the clocks live there (see _liveness).
        self.live: List[List[FrozenSet[int]]] = []
        self._frames: "OrderedDict[Tuple[int, ...], _Frame]" = OrderedDict()
        max_const = [0] * (self.n_clocks + 1)
        #: clock -> the automata that read or reset it.
        owners: Dict[int, set] = defaultdict(set)

        def note_constant(constraint: Constraint) -> None:
            idx = self.clock_index[constraint.clock]
            max_const[idx] = max(max_const[idx], abs(constraint.value))
            used.add(idx)

        for ta_index, ta in enumerate(net.automata):
            used = {self.clock_index[c] for edge in ta.edges
                    for c in edge.resets}
            index = {loc: k for k, loc in enumerate(ta.locations)}
            self.loc_index.append(index)
            self.loc_names.append(list(ta.locations))
            self.initial_locs.append(index[ta.initial])
            self.error_locs.append(
                frozenset(index[loc] for loc in ta.error_locations)
            )
            self.end_locs.append(
                frozenset(index[loc] for loc in ta.end_locations)
            )
            inv_ops: List[GuardOps] = []
            for loc in ta.locations:
                ops: List[Tuple[int, int, int]] = []
                for constraint in ta.invariants.get(loc, ()):
                    note_constant(constraint)
                    ops.extend(self._constraint_ops(constraint))
                inv_ops.append(tuple(ops))
            self.invariant_ops.append(inv_ops)
            ta_edges: List[_CompiledEdge] = []
            for edge in ta.edges:
                for constraint in edge.guard:
                    note_constant(constraint)
                compiled = _CompiledEdge(
                    ta_index,
                    index[edge.source],
                    index[edge.target],
                    tuple(
                        op
                        for constraint in edge.guard
                        for op in self._constraint_ops(constraint)
                    ),
                    tuple(self.clock_index[c] for c in edge.resets),
                    edge,
                )
                ta_edges.append(compiled)
                if edge.action is None:
                    continue
                if edge.action.kind == "!":
                    self.senders.setdefault(edge.action.channel, []).append(compiled)
                else:
                    self.receivers.setdefault(edge.action.channel, []).append(compiled)
            self.edges_of.append(ta_edges)
            self.live.append(self._liveness(inv_ops, ta_edges))
            for clock in used:
                owners[clock].add(ta_index)

        # Never-reset clocks track absolute time; give them slack so exact
        # instants survive extrapolation for the whole schedule.
        reset_clocks = {
            self.clock_index[c]
            for ta in net.automata
            for edge in ta.edges
            for c in edge.resets
        }
        biggest = max(max_const) if max_const else 0
        for idx in range(1, self.n_clocks + 1):
            if idx not in reset_clocks:
                max_const[idx] = biggest + self.global_slack
        self.max_constants = max_const
        if self.global_idx not in reset_clocks:
            owners.pop(self.global_idx, None)
        #: True when no clock is read or reset by two automata.
        self.private_clocks = all(len(tas) == 1 for tas in owners.values())
        self._index_steps(owners)

    def _constraint_ops(self, constraint: Constraint) -> List[Tuple[int, int, int]]:
        i = self.clock_index[constraint.clock]
        v = constraint.value
        if constraint.op == "<=":
            return [(i, 0, bound(v, False))]
        if constraint.op == "<":
            return [(i, 0, bound(v, True))]
        if constraint.op == ">=":
            return [(0, i, bound(-v, False))]
        if constraint.op == ">":
            return [(0, i, bound(-v, True))]
        if constraint.op == "==":
            return [(i, 0, bound(v, False)), (0, i, bound(-v, False))]
        raise PylseError(f"Unknown constraint operator {constraint.op!r}")

    @staticmethod
    def _liveness(inv_ops: List[GuardOps],
                  edges: List[_CompiledEdge]) -> List[FrozenSet[int]]:
        """Per location, the clocks read before being reset (backward fixpoint).

        ``live(l)`` is the least set with ``reads(inv(l)) ⊆ live(l)`` and,
        for every edge ``l -> l'``, ``reads(guard) ∪ (live(l') − resets)
        ⊆ live(l)``. Hence ``live(l') ⊆ live(l) ∪ resets`` on every edge:
        a clock that becomes live is one the edge resets.
        """
        def reads(ops: GuardOps) -> set:
            return {c for i, j, _ in ops for c in (i, j) if c}

        live = [reads(ops) for ops in inv_ops]
        flows = []
        for edge in edges:
            live[edge.source] |= reads(edge.guard_ops)
            flows.append((edge.source, edge.target, frozenset(edge.resets)))
        changed = True
        while changed:
            changed = False
            for source, target, resets in flows:
                need = live[target] - resets
                if not need <= live[source]:
                    live[source] |= need
                    changed = True
        return [frozenset(clocks) for clocks in live]

    def _index_steps(self, owners: Dict[int, set]) -> None:
        """Index, per (automaton, location), the steps that start there,
        and mark where one cell's steps may be fired alone.

        ``out_steps[ta][loc]`` is None when no tau edge and no send leaves
        ``loc``, else (tau steps as 1-tuples in edge order, sends in rank
        order). Ranks and partner lists reproduce the order in which a scan
        of every channel's senders and receivers meets the handshakes, so
        the search order does not depend on how steps are found.

        A *cell* is a connected group of automata under the network's
        internal (fire) channels: a translated gate's main TA and its
        firing TAs; every other automaton is a cell of its own. A cell's
        *internal steps* are its tau edges and its fire handshakes. The
        persistent-set reduction of :meth:`_successors` fires one cell's
        internal steps alone, and only where this static analysis proves
        the facts its argument needs (:meth:`_independent` checks the rest
        per state):

        * the cell is a star: one automaton (the hub) sends on its fire
          channels and only the others (the spokes) receive on them, and
          no clock its automata read or reset is read or reset outside it
          (the global clock is never reset, so anyone may read it);
        * per location, :meth:`_location_facts` records whether an
          automaton may *initiate* chosen steps there (its tau edges and
          fire sends are all *urgent*: the guard's lower bound meets the
          location's invariant, so no delay can pass while the edge is
          enabled; no fire receive or wire send leaves it; every wire
          receive leaving it has a guard exclusive with each of those
          edges — a fire-chain location has no receive edge, a wait
          location's hold-error receives need ``c_h < tau_tran`` where its
          exit needs ``c_h == tau_tran``), whether it may *receive* a
          chosen fire handshake there (only fire receives leave it: a
          firing TA's ``f0``), and its wire edges, which must be disabled
          for every spoke while the hub's fire sends are chosen (a firing
          TA that emits at this instant could otherwise return to ``f0``
          and take the hub's message).
        """
        rank = 0
        for channel, senders in self.senders.items():
            receivers = self.receivers.get(channel, ())
            for send in senders:
                send.rank = rank
                rank += 1
                send.partners = tuple(
                    recv for recv in receivers
                    if recv.ta_index != send.ta_index
                )

        # Cells: union-find over the automata of each fire channel.
        n = len(self.ta_names)
        private = set(self.network.internal_channels)
        parent = list(range(n))

        def find(k: int) -> int:
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for channel in private:
            members = [e.ta_index for e in self.senders.get(channel, [])]
            members += [e.ta_index for e in self.receivers.get(channel, [])]
            for k in members[1:]:
                parent[find(k)] = find(members[0])
        roots = [find(k) for k in range(n)]
        cell_of_root: Dict[int, int] = {}
        for root in roots:
            cell_of_root.setdefault(root, len(cell_of_root))
        cell_of = [cell_of_root[root] for root in roots]
        n_cells = len(cell_of_root)
        hubs: List[set] = [set() for _ in range(n_cells)]
        spokes: List[set] = [set() for _ in range(n_cells)]
        for channel in private:
            for e in self.senders.get(channel, []):
                hubs[cell_of[e.ta_index]].add(e.ta_index)
            for e in self.receivers.get(channel, []):
                spokes[cell_of[e.ta_index]].add(e.ta_index)
        eligible = [
            len(hubs[cell]) <= 1 and not hubs[cell] & spokes[cell]
            for cell in range(n_cells)
        ]
        for tas in owners.values():
            cells = {cell_of[k] for k in tas}
            if len(cells) > 1:
                for cell in cells:
                    eligible[cell] = False
        #: Per cell: its hub (None when it sends on no fire channel) and
        #: its spokes.
        self.hubs: List[Optional[int]] = [
            next(iter(h)) if h else None for h in hubs
        ]
        self.spokes: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in spokes]

        self._private = private
        self._facts: Dict[Tuple[int, int], tuple] = {}
        self.out_steps: List[List[Optional[tuple]]] = []
        for ta_index, edges in enumerate(self.edges_of):
            cell = cell_of[ta_index] if eligible[cell_of[ta_index]] else None
            table: List = [None] * len(self.loc_names[ta_index])
            for edge in edges:
                if edge.channel is None:
                    edge.cell = cell
                    slot = 0
                elif edge.edge.action.kind == "!":
                    if edge.channel in private:
                        edge.cell = cell
                    slot = 1
                else:
                    continue
                entry = table[edge.source]
                if entry is None:
                    entry = table[edge.source] = ([], [])
                entry[slot].append((edge,) if slot == 0 else edge)
            self.out_steps.append([
                None if entry is None else (tuple(entry[0]), tuple(entry[1]))
                for entry in table
            ])

    def _location_facts(self, ta_index: int, loc: int) -> tuple:
        """(may initiate, may receive, sends on a fire channel, wire edges)
        of one location of an automaton (see :meth:`_index_steps`);
        computed on first use."""
        facts = self._facts.get((ta_index, loc))
        if facts is None:
            private = self._private
            inv = self.invariant_ops[ta_index][loc]
            leaving = [e for e in self.edges_of[ta_index] if e.source == loc]
            starts = [e for e in leaving if e.cell is not None]
            wire = tuple(e for e in leaving
                         if e.channel is not None and e.channel not in private)
            fire_recvs = [e for e in leaving if e.channel in private
                          and e.edge.action.kind == "?"]
            facts = self._facts[ta_index, loc] = (
                bool(starts) and len(starts) + len(wire) == len(leaving)
                and all(e.edge.action.kind == "?" for e in wire)
                and all(_urgent(e.guard_ops, inv) for e in starts)
                and all(_exclusive(r.guard_ops, e.guard_ops)
                        for r in wire for e in starts),
                bool(fire_recvs) and len(fire_recvs) == len(leaving),
                any(e.channel is not None for e in starts),
                wire,
            )
        return facts

    def _settled(self, edge: _CompiledEdge) -> bool:
        """True when the target's invariants hold after every firing.

        Each target bound must follow from the source invariant and the
        guard (which hold before the step), or bound only clocks the edge
        resets by at least zero. Then the step is enabled wherever its
        guard is. Computed on first use.
        """
        if edge.settled is None:
            inv = self.invariant_ops[edge.ta_index]
            known: Dict[Tuple[int, int], int] = {}
            for i, j, encoded in inv[edge.source] + edge.guard_ops:
                known[i, j] = min(encoded, known.get((i, j), INF))
            resets = set(edge.resets)
            edge.settled = True
            for i, j, encoded in inv[edge.target]:
                # A reset clock reads 0 after the step, as the reference does.
                i, j = (0 if i in resets else i), (0 if j in resets else j)
                held = LE_ZERO if i == j else known.get((i, j), INF)
                if held > encoded:
                    edge.settled = False
        return edge.settled

    def _frame(self, locvec: Tuple[int, ...]) -> _Frame:
        """The (cached) active-clock frame of a location vector.

        The cache is a least-recently-used map of at most
        :data:`FRAME_CACHE_SIZE` frames: almost every state has a location
        vector of its own, so an unbounded map grows with the search.
        """
        frames = self._frames
        frame = frames.get(locvec)
        if frame is not None:
            frames.move_to_end(locvec)
        else:
            active = {self.global_idx}
            for ta_index, loc in enumerate(locvec):
                active |= self.live[ta_index][loc]
            frame = _Frame(
                [0, *sorted(active)],
                self.max_constants,
                tuple(
                    op
                    for ta_index, loc in enumerate(locvec)
                    for op in self.invariant_ops[ta_index][loc]
                ),
            )
            frames[locvec] = frame
            if len(frames) > FRAME_CACHE_SIZE:
                frames.popitem(last=False)
        return frame

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------
    def run(
        self,
        queries: Sequence[Query] = (),
        collect_races: bool = False,
    ) -> CheckResult:
        """Explore the reachable zone graph, checking ``queries`` on the fly.

        ``collect_races=True`` additionally records, for every explored
        state, pairs of distinct channels whose pulses can arrive at one
        cell at the same instant (see :class:`RaceCandidate`) — the
        reachability half of the PL402 input-order-race lint rule.
        """
        started = _time.monotonic()
        fta_allowed = self._compile_query1(queries)
        check_errors = any(q.kind == "no_errors" for q in queries)
        check_deadlock = any(q.kind == "no_deadlock" for q in queries)
        error_filter = self._compile_query2(queries)
        reach_targets = self._compile_reachable(queries)
        reached: set = set()
        # Locations a chosen step may not enter: every error and end
        # location, and every location a query names.
        self._visible = [
            set(errors | ends) for errors, ends in zip(self.error_locs,
                                                      self.end_locs)
        ]
        for ta_index, loc in error_filter | reach_targets:
            self._visible[ta_index].add(loc)
        for ta_index, (loc, _) in fta_allowed.items():
            self._visible[ta_index].add(loc)
        errors: Optional[Sequence[FrozenSet[int]]] = None
        if check_errors and error_filter:
            errors = [frozenset() for _ in self.ta_names]
            for ta_index, loc in error_filter:
                errors[ta_index] |= {loc}
        elif check_errors:
            errors = self.error_locs

        locvec = tuple(self.initial_locs)
        frame = self._frame(locvec)
        initial_zone = self._settle(
            zero_zone(len(frame.clocks) - 1), frame, frame.invariant_ops
        )
        if initial_zone is None:
            raise PylseError("Initial state violates invariants")

        passed: Dict[Tuple[int, ...], List[DBM]] = {locvec: [initial_zone]}
        # Per explored state: (parent state index, fired edges, global
        # clock window on entry), for counterexample reconstruction with
        # concrete times.
        lo, hi = initial_zone.clock_bounds(self.global_idx)
        provenance: List[Tuple[int, Optional[tuple], int, Optional[int]]] = [
            (-1, None, lo, hi)
        ]
        # Each waiting state carries its frame, so expanding it needs no
        # lookup in (or rebuild from) the bounded frame cache.
        waiting = deque([(locvec, initial_zone, frame, 0)])
        violations: List[Violation] = []
        races: List[RaceCandidate] = []
        race_keys: set = set()
        fired_edges: set = set()
        visited: List[set] = [{loc} for loc in locvec]
        states = 1
        fired = 0
        self._check_state(
            locvec, initial_zone, fta_allowed, errors, violations, provenance,
            0,
        )
        self._note_reached(locvec, reach_targets, reached)
        completed = True
        truncation_reason: Optional[str] = None

        while waiting:
            if self.max_states is not None and states >= self.max_states:
                completed = False
                truncation_reason = "max_states"
                break
            if (
                self.time_limit is not None
                and _time.monotonic() - started > self.time_limit
            ):
                completed = False
                truncation_reason = "time_limit"
                break
            locvec, zone, frame, state_index = waiting.popleft()
            if collect_races:
                self._collect_races(locvec, zone, frame, race_keys, races)
            _, _, lo, hi = provenance[state_index]
            successors = self._successors(
                locvec, zone, frame, passed if lo == hi else None
            )
            for new_locvec, new_zone, new_frame, edges in successors:
                fired += 1
                for compiled in edges:
                    edge = compiled.edge
                    fired_edges.add(
                        (self.ta_names[compiled.ta_index], edge.source,
                         edge.target)
                    )
                bucket = passed.setdefault(new_locvec, [])
                if self._covered(bucket, new_zone):
                    continue
                if self.use_inclusion:
                    bucket[:] = [z for z in bucket if not new_zone.includes(z)]
                bucket.append(new_zone)
                for compiled in edges:
                    visited[compiled.ta_index].add(compiled.target)
                lo, hi = new_zone.clock_bounds(self.global_idx)
                provenance.append((state_index, edges, lo, hi))
                new_index = len(provenance) - 1
                states += 1
                self._check_state(
                    new_locvec, new_zone, fta_allowed, errors, violations,
                    provenance, new_index,
                )
                self._note_reached(new_locvec, reach_targets, reached)
                waiting.append((new_locvec, new_zone, new_frame, new_index))
            if check_deadlock and not successors:
                violations.append(
                    Violation(
                        query="no_deadlock",
                        automaton="(network)",
                        location=self._describe_locvec(locvec),
                        detail="state has no action successor",
                        trace=self._trace(provenance, state_index),
                        steps=self._trace_steps(provenance, state_index),
                        locations=self._locvec_pairs(locvec),
                    )
                )

        if reach_targets and completed and not reached:
            locations = ", ".join(
                f"{self.ta_names[ta]}.{self.loc_names[ta][loc]}"
                for ta, loc in sorted(reach_targets)
            )
            violations.append(
                Violation(
                    query="reachable",
                    automaton="(network)",
                    location=locations,
                    detail="E<> unsatisfied: none of the locations is reachable",
                )
            )
        return CheckResult(
            states_explored=states,
            transitions_fired=fired,
            elapsed_seconds=_time.monotonic() - started,
            completed=completed,
            violations=violations,
            truncation_reason=truncation_reason,
            races=races,
            coverage=Coverage(
                fired_edges=frozenset(fired_edges),
                visited_locations={
                    self.ta_names[k]: frozenset(
                        self.loc_names[k][loc] for loc in locs
                    )
                    for k, locs in enumerate(visited)
                },
            ),
        )

    def _locvec_pairs(self, locvec) -> List[Tuple[str, str]]:
        return [
            (self.ta_names[k], self.loc_names[k][loc])
            for k, loc in enumerate(locvec)
        ]

    # ------------------------------------------------------------------
    # race candidates (PL402's reachability half)
    # ------------------------------------------------------------------
    def _collect_races(self, locvec, zone, frame: _Frame, seen: set,
                       out: List[RaceCandidate]) -> None:
        """Record channel pairs deliverable to one cell at a common instant.

        A candidate needs (a) a cell-role automaton whose current location
        can consume pulses from two distinct channels, (b) an enabled
        sender on each, and (c) a non-empty zone once *both* send guards
        are conjoined — i.e. one global instant at which both pulses can
        be in flight. Candidates are deduplicated on (automaton, location,
        channel pair) across the whole run.
        """
        sends = [
            send
            for table, loc in zip(self.out_steps, locvec)
            if table[loc] is not None
            for send in table[loc][1]
        ]
        if len(sends) < 2:
            return
        sends.sort(key=_rank)
        enabled_sends: Dict[str, List[_CompiledEdge]] = {}
        for send in sends:
            enabled_sends.setdefault(send.channel, []).append(send)
        if len(enabled_sends) < 2:
            return
        receivable: Dict[int, set] = {}
        for channel in enabled_sends:
            for recv in self.receivers.get(channel, ()):
                if (self.ta_roles[recv.ta_index] == "cell"
                        and recv.source == locvec[recv.ta_index]):
                    receivable.setdefault(recv.ta_index, set()).add(channel)
        for ta_index in sorted(receivable):
            live = sorted(receivable[ta_index])
            for i, ch_a in enumerate(live):
                for ch_b in live[i + 1:]:
                    key = (ta_index, locvec[ta_index], ch_a, ch_b)
                    if key in seen:
                        continue
                    window = self._simultaneous_window(
                        zone, frame, enabled_sends[ch_a],
                        enabled_sends[ch_b],
                    )
                    if window is None:
                        continue
                    seen.add(key)
                    out.append(RaceCandidate(
                        automaton=self.ta_names[ta_index],
                        location=self.loc_names[ta_index][locvec[ta_index]],
                        channel_a=ch_a,
                        channel_b=ch_b,
                        window=window,
                    ))

    def _simultaneous_window(self, zone: DBM, frame: _Frame, sends_a,
                             sends_b):
        """Global-clock window where both sends are enabled at once."""
        for send_a in sends_a:
            for send_b in sends_b:
                if send_a.ta_index == send_b.ta_index:
                    continue
                z = zone.copy()
                if self._conjoin(
                    z, frame.remap(send_a.guard_ops + send_b.guard_ops)
                ):
                    return z.clock_bounds(self.global_idx)
        return None

    def _compile_reachable(self, queries):
        """Set of (automaton index, location index) for E<> queries."""
        targets = set()
        for q in queries:
            if q.kind != "reachable":
                continue
            for ta_name, loc_name in q.error_locations:
                ta_index = self.ta_index[ta_name]
                targets.add((ta_index, self.loc_index[ta_index][loc_name]))
        return targets

    @staticmethod
    def _note_reached(locvec, reach_targets, reached) -> None:
        if not reach_targets or reached:
            return
        for ta_index, loc in reach_targets:
            if locvec[ta_index] == loc:
                reached.add((ta_index, loc))
                return

    def _describe_locvec(self, locvec) -> str:
        interesting = [
            f"{self.ta_names[k]}.{self.loc_names[k][loc]}"
            for k, loc in enumerate(locvec)
            if self.loc_names[k][loc] != self.network.automata[k].initial
        ]
        return ", ".join(interesting) if interesting else "(all initial)"

    def _trace(self, provenance, state_index) -> List[str]:
        return [label for label, _, _ in
                self._trace_steps(provenance, state_index)]

    def _trace_steps(self, provenance, state_index) -> List[TraceStep]:
        """The path to ``state_index`` with global-time windows attached."""
        steps: List[TraceStep] = []
        index = state_index
        while index > 0:
            parent, edges, lo, hi = provenance[index]
            if edges is not None:
                steps.append((self._label(edges), lo, hi))
            index = parent
        steps.reverse()
        return steps

    # ------------------------------------------------------------------
    def _successors(self, locvec, zone, frame: _Frame, passed=None):
        """The successors of a state, as (location vector, zone, frame,
        edges).

        A step is a tau edge or a send/receive pair, and successors come
        in a fixed order: tau steps by automaton, then handshakes by
        channel, sender and receiver. ``passed`` is given when the state's
        zone pins the global clock (no delay is possible); then a
        *persistent set* may stand in for all steps (Godefroid, LNCS 1032;
        for timed systems Bengtsson, Jonsson, Lilius and Yi, CONCUR 1998):
        the internal steps of the first cell, in automaton order, that
        :meth:`_independent` accepts. No step any other automaton can take
        at this instant depends on them, so firing them first loses no
        reachable location, and the steps not chosen are never fired here.
        Cycle proviso: if a chosen successor is already covered by the
        passed list, the state is expanded fully after all.
        """
        steps = self._steps(locvec)
        done: Dict[tuple, Optional[Tuple[Tuple[int, ...], DBM, _Frame]]] = {}
        if passed is not None and len(steps) > 1:
            chosen = self._persistent(locvec, zone, frame, steps)
            if chosen is not None and len(chosen) < len(steps):
                for step in chosen:
                    done[step] = self._fire(zone, frame, locvec, step)
                results = [r for r in done.values() if r is not None]
                if results and not any(
                    self._covered(passed.get(new_locvec), new_zone)
                    for new_locvec, new_zone, _ in results
                ):
                    return [(*result, step) for step, result in done.items()
                            if result is not None]
        successors = []
        for step in steps:
            result = (done[step] if step in done
                      else self._fire(zone, frame, locvec, step))
            if result is not None:
                successors.append((*result, step))
        return successors

    def _steps(self, locvec) -> List[tuple]:
        """Every step whose edges leave the current locations."""
        steps: List[tuple] = []
        sends: List[_CompiledEdge] = []
        for table, loc in zip(self.out_steps, locvec):
            entry = table[loc]
            if entry is not None:
                steps.extend(entry[0])
                sends.extend(entry[1])
        if sends:
            sends.sort(key=_rank)
            for send in sends:
                for recv in send.partners:
                    if recv.source == locvec[recv.ta_index]:
                        steps.append((send, recv))
        return steps

    def _persistent(self, locvec, zone, frame, steps):
        """The internal steps of the first cell that may fire them alone."""
        by_cell: Dict[int, List[tuple]] = {}
        for step in steps:
            cell = step[0].cell
            if cell is not None:
                by_cell.setdefault(cell, []).append(step)
        for cell in sorted(by_cell):
            if self._independent(cell, by_cell[cell], locvec, zone, frame):
                return by_cell[cell]
        return None

    def _independent(self, cell, steps, locvec, zone, frame) -> bool:
        """Whether ``steps``, all of one cell's enabled internal steps, form
        a persistent set of a state whose zone pins the global clock.

        With the static facts of :meth:`_index_steps`, the checks below give:

        * every step is invisible: it enters no error, ``end`` or E<>
          target location, and no location a query names;
        * every automaton a step moves as initiator has a step that is
          enabled on the whole zone (its guards hold on the zone and
          cannot be cut by the target's invariant) and urgent, so each
          valuation of the zone can fire a chosen step, no delay passes
          until one fires, and that automaton's wire receives stay
          disabled meanwhile (their guards exclude the enabled step's);
        * an automaton a step moves as receiver (a firing TA in ``f0``)
          has no other edge, and the only sender on its channels is the
          hub, which does not move until a chosen step fires;
        * while the hub's fire sends are chosen, every spoke's wire edges
          are disabled on the zone, so no spoke can emit, return to
          ``f0`` and take a fire message from the hub at this instant.

        So no automaton a chosen step moves can move otherwise before a
        chosen step fires, and since no clock of the cell is shared, every
        step of the other automata commutes with the chosen ones. A
        fire-chain location has no receive edge, a wait location receives
        only into hold-error locations whose guards exclude its exit, and
        a firing TA receives only from its own cell: translated circuits
        meet every fact by construction.
        """
        visible = self._visible
        facts = self._location_facts
        m = zone.m
        pos = frame.pos
        total: Dict[int, bool] = {}
        for step in steps:
            for edge in step:
                if edge.target in visible[edge.ta_index]:
                    return False
            first = step[0]
            ta_index = first.ta_index
            if not facts(ta_index, first.source)[0]:
                return False
            if len(step) == 2 and not facts(step[1].ta_index,
                                             step[1].source)[1]:
                return False
            if not total.get(ta_index):
                total[ta_index] = all(
                    self._settled(edge) and all(
                        m[pos[i], pos[j]] <= encoded
                        for i, j, encoded in edge.guard_ops
                    )
                    for edge in step
                )
        if not all(total.values()):
            return False
        hub = self.hubs[cell]
        if hub in total and facts(hub, locvec[hub])[2]:
            for spoke in self.spokes[cell]:
                for edge in facts(spoke, locvec[spoke])[3]:
                    if not self._disabled(m, pos, edge.guard_ops):
                        return False
        return True

    @staticmethod
    def _disabled(m, pos, ops: GuardOps) -> bool:
        """True when one of ``ops`` alone contradicts the zone."""
        for i, j, encoded in ops:
            back = m[pos[j], pos[i]]
            if back < INF and _add(int(back), encoded) < LE_ZERO:
                return True
        return False

    def _covered(self, bucket: Optional[List[DBM]], zone: DBM) -> bool:
        """True when the passed list already holds ``zone``."""
        if not bucket:
            return False
        if self.use_inclusion:
            return any(existing.includes(zone) for existing in bucket)
        key = zone.key()
        return any(existing.key() == key for existing in bucket)

    def _label(self, edges: Sequence[_CompiledEdge]) -> str:
        """Human-readable description of a fired (set of) edge(s)."""
        parts = []
        for compiled in edges:
            edge = compiled.edge
            action = str(edge.action) if edge.action else "tau"
            parts.append(
                f"{self.ta_names[compiled.ta_index]}: "
                f"{edge.source} --{action}--> {edge.target}"
            )
        return " | ".join(parts)

    def _fire(self, zone: DBM, frame: _Frame, locvec,
              edges: Sequence[_CompiledEdge]):
        """Guard the source zone, then move it into the target's frame;
        returns (target location vector, zone, frame), or None.

        Every target clock is live at the source or reset by the edges
        (see :meth:`_liveness`), so ``take`` maps it to its source
        position, or to the reference clock 0 when reset: one
        :meth:`DBM.gather` projects out the clocks that die and performs
        the resets.
        """
        guards = frame.remap([op for edge in edges for op in edge.guard_ops])
        z = zone.copy() if guards else zone
        if not self._conjoin(z, guards):
            return None
        new_locvec = list(locvec)
        for edge in edges:
            new_locvec[edge.ta_index] = edge.target
        new_locvec = tuple(new_locvec)
        target = self._frame(new_locvec)
        resets = {clock for edge in edges for clock in edge.resets}
        take = [
            0 if clock in resets else frame.pos[clock]
            for clock in target.clocks
        ]
        if self.private_clocks:
            # Every other automaton's invariant held before the step and
            # reads only clocks the step leaves alone.
            entry = target.remap([
                op for edge in edges
                for op in self.invariant_ops[edge.ta_index][edge.target]
            ])
        else:
            entry = target.invariant_ops
        z = self._settle(z.gather(take), target, entry)
        if z is None:
            return None
        return new_locvec, z, target

    def _settle(self, z: DBM, frame: _Frame,
                entry: GuardOps) -> Optional[DBM]:
        """Apply the ``entry`` invariants, delay-close, apply every
        invariant, extrapolate.

        ``constrain``, ``up`` and the frame gather keep the zone canonical,
        so the only full closure is the one ExtraM's loosened bounds need —
        and none when extrapolation changed no bound.
        """
        if not self._conjoin(z, entry):
            return None
        z.up()
        if not self._conjoin(z, frame.invariant_ops):
            return None
        if z.extrapolate(frame.max_constants):
            z.canonicalize()
        return z

    @staticmethod
    def _conjoin(z: DBM, ops: GuardOps) -> bool:
        """Conjoin guard or invariant bounds; False once the zone empties."""
        return all(z.constrain(i, j, encoded) for i, j, encoded in ops)

    # ------------------------------------------------------------------
    # property checks
    # ------------------------------------------------------------------
    def _compile_query1(self, queries):
        """automaton index -> (location index, allowed global times)."""
        fta_allowed: Dict[int, Tuple[int, FrozenSet[int]]] = {}
        for q in queries:
            if q.kind != "output_times":
                continue
            for prop in q.properties:
                ta_index = self.ta_index.get(prop.automaton)
                if ta_index is None:
                    raise PylseError(
                        f"Query 1 names unknown automaton {prop.automaton!r}"
                    )
                loc = self.loc_index[ta_index].get(prop.location)
                if loc is None:
                    raise PylseError(
                        f"Query 1 names unknown location "
                        f"{prop.automaton}.{prop.location}"
                    )
                fta_allowed[ta_index] = (loc, frozenset(prop.allowed_times))
        return fta_allowed

    def _compile_query2(self, queries):
        """Set of (automaton index, location index) to treat as errors."""
        pairs = set()
        for q in queries:
            if q.kind != "no_errors":
                continue
            for ta_name, loc_name in q.error_locations:
                ta_index = self.ta_index[ta_name]
                pairs.add((ta_index, self.loc_index[ta_index][loc_name]))
        return pairs

    def _check_state(
        self, locvec, zone, fta_allowed, errors, violations, provenance,
        state_index,
    ) -> None:
        """Record the Query 2 and Query 1 violations of a stored state.

        ``errors`` holds per automaton the locations Query 2 forbids (None
        when Query 2 is not asked).
        """
        if errors is not None:
            for ta_index, (loc, bad) in enumerate(zip(locvec, errors)):
                if loc in bad:
                    violations.append(
                        Violation(
                            query="query2",
                            automaton=self.ta_names[ta_index],
                            location=self.loc_names[ta_index][loc],
                            detail="error location is reachable",
                            trace=self._trace(provenance, state_index),
                            steps=self._trace_steps(provenance, state_index),
                            locations=self._locvec_pairs(locvec),
                        )
                    )
        if fta_allowed:
            global_idx = self.global_idx
            for ta_index, (end_loc, allowed) in fta_allowed.items():
                if locvec[ta_index] != end_loc:
                    continue
                lower, upper = zone.clock_bounds(global_idx)
                if upper is None or lower != upper:
                    violations.append(
                        Violation(
                            query="query1",
                            automaton=self.ta_names[ta_index],
                            location=self.loc_names[ta_index][end_loc],
                            detail=(
                                f"output instant not unique: global in "
                                f"[{lower}, {upper}]"
                            ),
                            trace=self._trace(provenance, state_index),
                            steps=self._trace_steps(provenance, state_index),
                            locations=self._locvec_pairs(locvec),
                        )
                    )
                elif lower not in allowed:
                    violations.append(
                        Violation(
                            query="query1",
                            automaton=self.ta_names[ta_index],
                            location=self.loc_names[ta_index][end_loc],
                            detail=(
                                f"output at global == {lower}, allowed "
                                f"{sorted(allowed)}"
                            ),
                            trace=self._trace(provenance, state_index),
                            steps=self._trace_steps(provenance, state_index),
                            locations=self._locvec_pairs(locvec),
                        )
                    )
