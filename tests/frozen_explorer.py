"""A frozen copy of the full-dimension zone explorer, kept as a test oracle.

This is ``repro.mc.explorer.ModelChecker`` as it stood before active-clock
zones: every zone is a DBM over *all* clocks of the network, resets are
applied in place and every successor is fully re-closed after ExtraM.
``tests/test_explorer_oracle.py`` runs it beside the production explorer
and asserts that both reach the same location vectors with the same
violations, races and coverage. Do not optimise or refactor it: its
value is that it does not change. The result dataclasses and the DBM
operations come from the package (the DBM has its own reference tests
in ``tests/test_dbm.py``).
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.errors import PylseError
from repro.mc.dbm import DBM, bound, zero_zone
from repro.mc.explorer import (
    CheckResult,
    Coverage,
    RaceCandidate,
    TraceStep,
    Violation,
)
from repro.ta.automaton import Constraint, Edge, TANetwork
from repro.ta.queries import Query

GuardOps = Tuple[Tuple[int, int, int], ...]  # (i, j, encoded bound)


class _CompiledEdge:
    """An edge with guards/resets/targets resolved to integer indices."""

    __slots__ = ("ta_index", "source", "target", "guard_ops", "resets", "edge")

    def __init__(self, ta_index: int, source: int, target: int,
                 guard_ops: GuardOps, resets: Tuple[int, ...], edge: Edge):
        self.ta_index = ta_index
        self.source = source
        self.target = target
        self.guard_ops = guard_ops
        self.resets = resets
        self.edge = edge


class FullDimensionChecker:
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
        self.internal_edges: List[List[_CompiledEdge]] = []
        self.senders: Dict[str, List[_CompiledEdge]] = {}
        self.receivers: Dict[str, List[_CompiledEdge]] = {}
        max_const = [0] * (self.n_clocks + 1)

        def note_constant(constraint: Constraint) -> None:
            idx = self.clock_index[constraint.clock]
            max_const[idx] = max(max_const[idx], abs(constraint.value))

        for ta_index, ta in enumerate(net.automata):
            index = {loc: k for k, loc in enumerate(ta.locations)}
            self.loc_index.append(index)
            self.loc_names.append(list(ta.locations))
            self.initial_locs.append(index[ta.initial])
            self.error_locs.append(
                frozenset(index[loc] for loc in ta.error_locations)
            )
            inv_ops: List[GuardOps] = []
            for loc in ta.locations:
                ops: List[Tuple[int, int, int]] = []
                for constraint in ta.invariants.get(loc, ()):
                    note_constant(constraint)
                    ops.extend(self._constraint_ops(constraint))
                inv_ops.append(tuple(ops))
            self.invariant_ops.append(inv_ops)
            self.internal_edges.append([])
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
                if edge.action is None:
                    self.internal_edges[ta_index].append(compiled)
                elif edge.action.kind == "!":
                    self.senders.setdefault(edge.action.channel, []).append(compiled)
                else:
                    self.receivers.setdefault(edge.action.channel, []).append(compiled)

        # Per (automaton, location): the channels a pulse could be consumed
        # from there — the receiver half of the race-candidate test.
        self.recv_channels: List[Dict[int, List[str]]] = [
            {} for _ in net.automata
        ]
        for channel, recvs in self.receivers.items():
            for recv in recvs:
                bucket = self.recv_channels[recv.ta_index].setdefault(
                    recv.source, []
                )
                if channel not in bucket:
                    bucket.append(channel)

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

        initial_zone = zero_zone(self.n_clocks)
        locvec = tuple(self.initial_locs)
        initial_zone = self._settle(initial_zone, locvec)
        if initial_zone is None:
            raise PylseError("Initial state violates invariants")

        passed: Dict[Tuple[int, ...], List[DBM]] = {locvec: [initial_zone]}
        # Per explored state: (parent state index, transition label, global
        # clock window on entry), for counterexample reconstruction with
        # concrete times.
        lo, hi = initial_zone.clock_bounds(self.global_idx)
        provenance: List[Tuple[int, Optional[str], int, Optional[int]]] = [
            (-1, None, lo, hi)
        ]
        waiting = deque([(locvec, initial_zone, 0)])
        violations: List[Violation] = []
        races: List[RaceCandidate] = []
        race_keys: set = set()
        fired_edges: set = set()
        visited: List[set] = [set() for _ in self.ta_names]
        states = 1
        fired = 0
        self._note_visited(locvec, visited)
        self._check_state(
            locvec, initial_zone, fta_allowed, check_errors, error_filter,
            violations, provenance, 0,
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
            locvec, zone, state_index = waiting.popleft()
            if collect_races:
                self._collect_races(locvec, zone, race_keys, races)
            any_successor = False
            for new_locvec, new_zone, label, edges in self._successors(
                locvec, zone
            ):
                any_successor = True
                fired += 1
                for compiled in edges:
                    edge = compiled.edge
                    fired_edges.add(
                        (self.ta_names[compiled.ta_index], edge.source,
                         edge.target)
                    )
                bucket = passed.setdefault(new_locvec, [])
                if self.use_inclusion:
                    if any(existing.includes(new_zone) for existing in bucket):
                        continue
                    bucket[:] = [z for z in bucket if not new_zone.includes(z)]
                else:
                    key = new_zone.key()
                    if any(existing.key() == key for existing in bucket):
                        continue
                bucket.append(new_zone)
                lo, hi = new_zone.clock_bounds(self.global_idx)
                provenance.append((state_index, label, lo, hi))
                new_index = len(provenance) - 1
                states += 1
                self._note_visited(new_locvec, visited)
                self._check_state(
                    new_locvec, new_zone, fta_allowed, check_errors,
                    error_filter, violations, provenance, new_index,
                )
                self._note_reached(new_locvec, reach_targets, reached)
                waiting.append((new_locvec, new_zone, new_index))
            if check_deadlock and not any_successor:
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

    def _note_visited(self, locvec, visited: List[set]) -> None:
        for ta_index, loc in enumerate(locvec):
            visited[ta_index].add(loc)

    def _locvec_pairs(self, locvec) -> List[Tuple[str, str]]:
        return [
            (self.ta_names[k], self.loc_names[k][loc])
            for k, loc in enumerate(locvec)
        ]

    # ------------------------------------------------------------------
    # race candidates (PL402's reachability half)
    # ------------------------------------------------------------------
    def _collect_races(self, locvec, zone, seen: set,
                       out: List[RaceCandidate]) -> None:
        """Record channel pairs deliverable to one cell at a common instant.

        A candidate needs (a) a cell-role automaton whose current location
        can consume pulses from two distinct channels, (b) an enabled
        sender on each, and (c) a non-empty zone once *both* send guards
        are conjoined — i.e. one global instant at which both pulses can
        be in flight. Candidates are deduplicated on (automaton, location,
        channel pair) across the whole run.
        """
        enabled_sends: Dict[str, List[_CompiledEdge]] = {}
        for channel, senders in self.senders.items():
            for send in senders:
                if send.source == locvec[send.ta_index]:
                    enabled_sends.setdefault(channel, []).append(send)
        if len(enabled_sends) < 2:
            return
        for ta_index, role in enumerate(self.ta_roles):
            if role != "cell":
                continue
            receivable = self.recv_channels[ta_index].get(locvec[ta_index])
            if not receivable:
                continue
            live = sorted(ch for ch in receivable if ch in enabled_sends)
            for i, ch_a in enumerate(live):
                for ch_b in live[i + 1:]:
                    key = (ta_index, locvec[ta_index], ch_a, ch_b)
                    if key in seen:
                        continue
                    window = self._simultaneous_window(
                        zone, enabled_sends[ch_a], enabled_sends[ch_b]
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

    def _simultaneous_window(self, zone: DBM, sends_a, sends_b):
        """Global-clock window where both sends are enabled at once."""
        for send_a in sends_a:
            for send_b in sends_b:
                if send_a.ta_index == send_b.ta_index:
                    continue
                z = zone.copy()
                if self._apply_guards(z, (send_a, send_b)):
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

    @staticmethod
    def _trace(provenance, state_index) -> List[str]:
        return [label for label, _, _ in
                FullDimensionChecker._trace_steps(provenance, state_index)]

    @staticmethod
    def _trace_steps(provenance, state_index) -> List[TraceStep]:
        """The path to ``state_index`` with global-time windows attached."""
        steps: List[TraceStep] = []
        index = state_index
        while index > 0:
            parent, label, lo, hi = provenance[index]
            if label is not None:
                steps.append((label, lo, hi))
            index = parent
        steps.reverse()
        return steps

    # ------------------------------------------------------------------
    def _successors(self, locvec, zone):
        for ta_index in range(len(self.ta_names)):
            for edge in self.internal_edges[ta_index]:
                if edge.source != locvec[ta_index]:
                    continue
                result = self._fire(zone, locvec, [edge])
                if result is not None:
                    yield (*result, self._label([edge]), (edge,))
        for channel, senders in self.senders.items():
            receivers = self.receivers.get(channel, [])
            for send in senders:
                if send.source != locvec[send.ta_index]:
                    continue
                for recv in receivers:
                    if (
                        recv.ta_index == send.ta_index
                        or recv.source != locvec[recv.ta_index]
                    ):
                        continue
                    result = self._fire(zone, locvec, [send, recv])
                    if result is not None:
                        yield (*result, self._label([send, recv]),
                               (send, recv))

    def _label(self, edges: List[_CompiledEdge]) -> str:
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

    def _fire(self, zone: DBM, locvec, edges: List[_CompiledEdge]):
        z = zone.copy()
        if not self._apply_guards(z, edges):
            return None
        for edge in edges:
            for clock in edge.resets:
                z.reset(clock)
        new_locvec = list(locvec)
        for edge in edges:
            new_locvec[edge.ta_index] = edge.target
        new_locvec = tuple(new_locvec)
        z = self._settle(z, new_locvec)
        if z is None:
            return None
        return new_locvec, z

    def _settle(self, z: DBM, locvec) -> Optional[DBM]:
        """Apply invariants, delay-close, re-apply, extrapolate, canonicalize.

        ``constrain``, ``up`` and ``reset`` keep the zone canonical, so the
        only full closure is the one ExtraM's loosened bounds need.
        """
        if not self._apply_invariants(z, locvec):
            return None
        z.up()
        if not self._apply_invariants(z, locvec):
            return None
        z.extrapolate(self.max_constants)
        z.canonicalize()
        return z

    @staticmethod
    def _apply_guards(z: DBM, edges) -> bool:
        """Conjoin the edges' guards; False as soon as the zone empties."""
        return all(
            z.constrain(i, j, encoded)
            for edge in edges
            for i, j, encoded in edge.guard_ops
        )

    def _apply_invariants(self, z: DBM, locvec) -> bool:
        """Conjoin the location invariants; False as soon as the zone empties."""
        return all(
            z.constrain(i, j, encoded)
            for ta_index, loc in enumerate(locvec)
            for i, j, encoded in self.invariant_ops[ta_index][loc]
        )

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
        self, locvec, zone, fta_allowed, check_errors, error_filter,
        violations, provenance, state_index,
    ) -> None:
        if check_errors:
            for ta_index, loc in enumerate(locvec):
                if (ta_index, loc) in error_filter or (
                    not error_filter and loc in self.error_locs[ta_index]
                ):
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
            global_idx = self.clock_index[self.network.global_clock]
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
