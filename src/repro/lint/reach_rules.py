"""Reachability lint (PL4xx): zone-based model checking as a lint pass.

This module bridges the precise exploration engine of :mod:`repro.mc` and
the lint layer: the circuit is translated to its TA network (Figure 14),
the zone graph is explored exhaustively (within an explicit budget), and
what the exploration proves becomes findings:

* **PL401** — a cell transition that never fires under this circuit's
  wiring and input schedules (dead *in context*, unlike PL102's dead at
  the machine level). Emitted only when exploration completed.
* **PL402** — an input-order race: two pulses whose arrival zones overlap
  (they can reach one cell at the same instant) and whose dispatch order
  changes the reached state or fired outputs.
* **PL403** — a statically reachable setup/hold violation, carrying a
  **concrete witness schedule** extracted from the zone graph.
* **PL404** — a stuck state: a reachable dead end in which some automaton
  is still mid-work ("good" deadlock on an exhausted finite schedule is
  expected and not reported, per Section 5.3).

Every PL403/PL402 finding is graded by **replaying its witness through**
``Simulation.simulate``: a reproduced violation confirms the finding (and
attaches the pulse's causal chain from :mod:`repro.obs`); a refuted
witness downgrades it to ``possible``. The systematic downgrade cause is a
real semantic gap: the TA model interleaves same-instant pulses one
channel handshake at a time (so a hold-error location can be entered
between them), while the simulator dispatches a simultaneous group
atomically.

The whole analysis sits behind an **incremental cache** keyed by
:func:`repro.core.ir.lint_cache_key` — ``(hash_version, structural_hash,
rule subset, budget)`` — with the same contract as the serve result
cache: a warm re-lint of an unchanged design is a dict hit.
Budgets are explicit, never silent: a truncated exploration is reported
as ``truncated`` with its reason, PL401 is withheld (absence unproven),
and the remaining findings are a lower bound. An analysis cut short by
the wall-clock ``time_limit`` is never cached — where it stops depends
on machine load, not on the key — while a ``max_states`` truncation is
deterministic and cached like any other analysis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache import (
    DiskCache,
    LINT_NAMESPACE,
    LRUCache,
    MISSING,
    TieredCache,
)
from ..core.circuit import Circuit
from ..core.errors import PylseError, SimulationError
from ..core.ir import CompiledCircuit, compile_circuit, lint_cache_key
from ..core.simulation import Simulation
from ..core.transitional import Transitional
from ..mc.explorer import ModelChecker
from ..obs import Observer
from ..ta.automaton import SCALE
from ..ta.queries import deadlock_query, no_error_query
from ..ta.translate import channel_name, translate_circuit
from .machine_rules import _delta_map, _outcome, machine_spec, reachable_states

#: The reachability rule family, in ID order.
REACH_RULES: Tuple[str, ...] = ("PL401", "PL402", "PL403", "PL404")

#: Default exploration budget: generous enough to exhaust every basic cell
#: and the small Table 3 designs, bounded enough that a pathological or
#: huge design cannot hang a lint run (it truncates, explicitly).
DEFAULT_MAX_STATES = 20_000
DEFAULT_TIME_LIMIT = 15.0

#: Seeds swept when grading a PL402 race: the simulator's simultaneous-
#: group tie-break is a seeded shuffle, so outcome differences across
#: seeds demonstrate the schedule-dependence dynamically.
RACE_REPLAY_SEEDS: Tuple[int, ...] = (0, 1, 2, 3)


@dataclass(frozen=True)
class ReachBudget:
    """Explicit state/time budget for one exploration (never silent)."""

    max_states: Optional[int] = DEFAULT_MAX_STATES
    time_limit: Optional[float] = DEFAULT_TIME_LIMIT


@dataclass(frozen=True)
class WitnessStep:
    """One counterexample step in circuit time (picoseconds)."""

    label: str
    time: float
    #: Latest time the state admits; ``None`` when its invariants leave
    #: the window open (the step still *can* happen at ``time``).
    time_max: Optional[float]

    def render(self) -> str:
        if self.time_max is not None and self.time_max != self.time:
            return f"t in [{self.time:g}, {self.time_max:g}]: {self.label}"
        return f"t={self.time:g}: {self.label}"


@dataclass(frozen=True)
class Witness:
    """A concrete witness schedule extracted from the zone graph.

    ``inputs`` is the input schedule that drives the circuit into the
    violating state (the environment TAs replay exactly these pulses), and
    ``steps`` the fired-transition path with the global-time window of
    every intermediate state. Replaying the circuit as scheduled —
    ``Simulation(circuit).simulate()`` — exercises the witness.
    """

    inputs: Tuple[Tuple[str, Tuple[float, ...]], ...]
    steps: Tuple[WitnessStep, ...]

    def schedule(self) -> Dict[str, List[float]]:
        """The input schedule as a plain dict (label -> pulse times)."""
        return {label: list(times) for label, times in self.inputs}

    def render(self) -> List[str]:
        lines = [
            f"input {label}: pulses at {', '.join(f'{t:g}' for t in times)} ps"
            for label, times in self.inputs
        ]
        lines.extend(step.render() for step in self.steps)
        return lines

    def to_jsonable(self) -> dict:
        return {
            "inputs": {label: list(times) for label, times in self.inputs},
            "steps": [
                {"label": s.label, "time": s.time, "time_max": s.time_max}
                for s in self.steps
            ],
        }


@dataclass(frozen=True)
class DeadTransition:
    """PL401 raw material: a transition no reachable state ever takes."""

    node: str
    cell: str
    transition_id: int
    source_state: str
    trigger: str
    label: str


@dataclass(frozen=True)
class RaceFinding:
    """PL402 raw material: a deliverable, outcome-changing race."""

    node: str
    cell: str
    state: str
    port_a: str
    port_b: str
    priority: int
    outcome_a: str
    outcome_b: str
    window: Tuple[float, Optional[float]]
    confidence: str      # 'confirmed' | 'possible'
    replay: str


@dataclass(frozen=True)
class TimingWitness:
    """PL403 raw material: a reachable error location plus its witness."""

    node: str
    cell: str
    error_location: str
    kind: str            # 'setup' | 'hold'
    symbol: str
    time: float          # earliest violation instant, ps
    witness: Witness
    confidence: str      # 'confirmed' | 'possible'
    replay: str
    provenance: Tuple[str, ...]


@dataclass(frozen=True)
class StuckState:
    """PL404 raw material: a dead end with work still pending."""

    anchor: Optional[str]          # node name to hang the finding on
    pending: Tuple[str, ...]       # human-readable "who is stuck where"
    steps: Tuple[WitnessStep, ...]


@dataclass(frozen=True)
class ReachAnalysis:
    """Everything one exploration proved, design-name-agnostic.

    This is the cached value: it holds only strings and numbers (no
    circuit references), so serving it to a later ``lint_circuit`` call on
    a structurally identical circuit is sound. Findings are materialized
    per call from this record.
    """

    digest: str
    rules: Tuple[str, ...]
    budget: ReachBudget
    states_explored: int
    transitions_fired: int
    elapsed_seconds: float
    truncated: bool
    truncation_reason: Optional[str]
    #: Why the analysis did not run at all (no cells, Functional holes);
    #: everything below is empty when set.
    skipped: Optional[str]
    dead: Tuple[DeadTransition, ...]
    races: Tuple[RaceFinding, ...]
    timing: Tuple[TimingWitness, ...]
    stuck: Tuple[StuckState, ...]

    def summary(self) -> Dict[str, object]:
        """The report-facing summary block (see ``LintReport.reach``)."""
        return {
            "states": self.states_explored,
            "transitions": self.transitions_fired,
            "elapsed": self.elapsed_seconds,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "rules": list(self.rules),
            "budget": {
                "max_states": self.budget.max_states,
                "time_limit": self.budget.time_limit,
            },
        }


# ----------------------------------------------------------------------
# The reach-analysis JSON codec (the disk tier's payload format)
# ----------------------------------------------------------------------
#: Format tag of a serialized :class:`ReachAnalysis` (bump on shape
#: changes: the persistent tier quarantines documents it cannot decode).
REACH_ANALYSIS_FORMAT = "repro-reach-analysis-v1"


def _steps_to_jsonable(steps: Tuple[WitnessStep, ...]) -> list:
    return [[s.label, s.time, s.time_max] for s in steps]


def _steps_from_jsonable(doc) -> Tuple[WitnessStep, ...]:
    return tuple(
        WitnessStep(label=label, time=time, time_max=time_max)
        for label, time, time_max in doc
    )


def reach_analysis_to_jsonable(analysis: ReachAnalysis) -> dict:
    """A stable JSON form of a :class:`ReachAnalysis` (see docs/caching.md).

    Covers every field — the analysis already holds only strings, numbers,
    and ``None`` — so the round trip through
    :func:`reach_analysis_from_jsonable` reconstructs an object that
    compares equal to the original.
    """
    return {
        "format": REACH_ANALYSIS_FORMAT,
        "digest": analysis.digest,
        "rules": list(analysis.rules),
        "budget": {
            "max_states": analysis.budget.max_states,
            "time_limit": analysis.budget.time_limit,
        },
        "states_explored": analysis.states_explored,
        "transitions_fired": analysis.transitions_fired,
        "elapsed_seconds": analysis.elapsed_seconds,
        "truncated": analysis.truncated,
        "truncation_reason": analysis.truncation_reason,
        "skipped": analysis.skipped,
        "dead": [
            {
                "node": d.node, "cell": d.cell,
                "transition_id": d.transition_id,
                "source_state": d.source_state,
                "trigger": d.trigger, "label": d.label,
            }
            for d in analysis.dead
        ],
        "races": [
            {
                "node": r.node, "cell": r.cell, "state": r.state,
                "port_a": r.port_a, "port_b": r.port_b,
                "priority": r.priority,
                "outcome_a": r.outcome_a, "outcome_b": r.outcome_b,
                "window": [r.window[0], r.window[1]],
                "confidence": r.confidence, "replay": r.replay,
            }
            for r in analysis.races
        ],
        "timing": [
            {
                "node": t.node, "cell": t.cell,
                "error_location": t.error_location,
                "kind": t.kind, "symbol": t.symbol, "time": t.time,
                "witness": {
                    "inputs": [
                        [label, list(times)]
                        for label, times in t.witness.inputs
                    ],
                    "steps": _steps_to_jsonable(t.witness.steps),
                },
                "confidence": t.confidence, "replay": t.replay,
                "provenance": list(t.provenance),
            }
            for t in analysis.timing
        ],
        "stuck": [
            {
                "anchor": s.anchor,
                "pending": list(s.pending),
                "steps": _steps_to_jsonable(s.steps),
            }
            for s in analysis.stuck
        ],
    }


def reach_analysis_from_jsonable(doc: dict) -> ReachAnalysis:
    """Rebuild a :class:`ReachAnalysis` from its JSON form.

    Strict: a document of any other shape (or format tag) raises
    :class:`PylseError`, which the tiered cache treats as corruption —
    the entry is quarantined and the analysis recomputed.
    """
    try:
        if doc.get("format") != REACH_ANALYSIS_FORMAT:
            raise ValueError(
                f"unsupported reach-analysis format {doc.get('format')!r}"
            )
        return ReachAnalysis(
            digest=doc["digest"],
            rules=tuple(doc["rules"]),
            budget=ReachBudget(
                max_states=doc["budget"]["max_states"],
                time_limit=doc["budget"]["time_limit"],
            ),
            states_explored=doc["states_explored"],
            transitions_fired=doc["transitions_fired"],
            elapsed_seconds=doc["elapsed_seconds"],
            truncated=doc["truncated"],
            truncation_reason=doc["truncation_reason"],
            skipped=doc["skipped"],
            dead=tuple(DeadTransition(**d) for d in doc["dead"]),
            races=tuple(
                RaceFinding(
                    **{**r, "window": (r["window"][0], r["window"][1])}
                )
                for r in doc["races"]
            ),
            timing=tuple(
                TimingWitness(
                    node=t["node"], cell=t["cell"],
                    error_location=t["error_location"],
                    kind=t["kind"], symbol=t["symbol"], time=t["time"],
                    witness=Witness(
                        inputs=tuple(
                            (label, tuple(times))
                            for label, times in t["witness"]["inputs"]
                        ),
                        steps=_steps_from_jsonable(t["witness"]["steps"]),
                    ),
                    confidence=t["confidence"], replay=t["replay"],
                    provenance=tuple(t["provenance"]),
                )
                for t in doc["timing"]
            ),
            stuck=tuple(
                StuckState(
                    anchor=s["anchor"],
                    pending=tuple(s["pending"]),
                    steps=_steps_from_jsonable(s["steps"]),
                )
                for s in doc["stuck"]
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise PylseError(
            f"malformed reach-analysis document: {err}"
        ) from None


# ----------------------------------------------------------------------
# The incremental cache (same layering as repro.serve's result store).
# ----------------------------------------------------------------------
DEFAULT_REACH_CACHE_SIZE = 64

#: One in-memory tier per process, shared by every store below: a
#: same-process warm re-lint is a dict hit whether or not a disk tier is
#: attached, and promoting a disk hit warms it for the next call.
_reach_memory = LRUCache(DEFAULT_REACH_CACHE_SIZE)

#: The memory-only store (no ``cache_dir``).
_reach_store = TieredCache(_reach_memory)

#: ``cache_dir`` -> store with that persistent tier attached. A memo so
#: repeated lints against one directory share the disk counters (and the
#: DiskCache object) instead of rebuilding them per call.
_disk_stores: Dict[str, TieredCache] = {}


def _reach_store_for(cache_dir) -> TieredCache:
    if cache_dir is None:
        return _reach_store
    path = str(cache_dir)
    store = _disk_stores.get(path)
    if store is None:
        store = _disk_stores[path] = TieredCache(
            _reach_memory,
            DiskCache(cache_dir, LINT_NAMESPACE),
            encode=reach_analysis_to_jsonable,
            decode=reach_analysis_from_jsonable,
        )
    return store


def reach_cache_stats() -> Dict[str, int]:
    """Hits/misses/size of the process-wide reachability-analysis cache."""
    return _reach_memory.stats()


def clear_reach_cache() -> None:
    """Drop every in-memory analysis (tests and benchmarks use this).

    The persistent tier is left alone — clear it with ``python -m repro
    cache clear --cache-dir DIR --namespace lint``.
    """
    _reach_memory.clear()
    _disk_stores.clear()


def _normalize_rules(rules: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if rules is None:
        return REACH_RULES
    wanted = tuple(sorted(set(rules) & set(REACH_RULES)))
    return wanted


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
def analyze_reach(
    circuit: Circuit,
    budget: Optional[ReachBudget] = None,
    rules: Optional[Sequence[str]] = None,
    use_cache: bool = True,
    cache_dir=None,
) -> Tuple[ReachAnalysis, bool]:
    """Run (or serve from cache) the PL4xx analysis for one circuit.

    Returns ``(analysis, cached)`` where ``cached`` says whether the
    result came from the incremental cache. ``rules`` selects the PL4xx
    subset to compute — a deselected PL402 skips race collection and a
    deselected PL403 skips witness replay, so the subset is part of the
    cache key. With ``cache_dir`` set, finished analyses also persist to
    the ``lint`` namespace of that store (:mod:`repro.cache.disk`), so a
    warm re-lint of an unchanged design is a hit even in a fresh process.
    An analysis truncated by ``time_limit`` is not stored in either tier:
    the same key could finish on a less loaded machine.
    """
    budget = budget if budget is not None else ReachBudget()
    rules = _normalize_rules(rules)
    compiled = compile_circuit(circuit, validate=False)
    key = lint_cache_key(
        compiled.structural_hash,
        rules=rules,
        max_states=budget.max_states,
        time_limit=budget.time_limit,
    )
    store = _reach_store_for(cache_dir)
    if use_cache:
        hit = store.get(key)
        if hit is not MISSING:
            return hit, True  # type: ignore[return-value]
    analysis = _compute_analysis(circuit, compiled, budget, rules)
    if use_cache and analysis.truncation_reason != "time_limit":
        store.put(key, analysis)
    return analysis, False


def _skipped(compiled: CompiledCircuit, budget: ReachBudget,
             rules: Tuple[str, ...], reason: str) -> ReachAnalysis:
    return ReachAnalysis(
        digest=compiled.structural_hash, rules=rules, budget=budget,
        states_explored=0, transitions_fired=0, elapsed_seconds=0.0,
        truncated=False, truncation_reason=None, skipped=reason,
        dead=(), races=(), timing=(), stuck=(),
    )


def _compute_analysis(
    circuit: Circuit,
    compiled: CompiledCircuit,
    budget: ReachBudget,
    rules: Tuple[str, ...],
) -> ReachAnalysis:
    if not rules:
        return _skipped(compiled, budget, rules, "no PL4xx rule selected")
    if not compiled.cells():
        return _skipped(compiled, budget, rules, "no cells to analyze")
    try:
        translation = translate_circuit(circuit)
    except PylseError as err:
        # Functional holes have no transition system — the analysis covers
        # the Transitional subset, exactly like `repro verify`.
        return _skipped(compiled, budget, rules, str(err))

    queries = []
    if "PL403" in rules:
        queries.append(no_error_query(translation))
    if "PL404" in rules:
        queries.append(deadlock_query())
    checker = ModelChecker(
        translation.network,
        max_states=budget.max_states,
        time_limit=budget.time_limit,
    )
    result = checker.run(queries, collect_races="PL402" in rules)

    inputs = _input_schedule(compiled)
    dead = (
        _dead_transitions(compiled, result)
        if "PL401" in rules and result.completed else ()
    )
    timing = (
        _timing_witnesses(circuit, compiled, translation, result, inputs)
        if "PL403" in rules else ()
    )
    races = (
        _race_findings(circuit, compiled, result)
        if "PL402" in rules else ()
    )
    stuck = (
        _stuck_states(translation, result)
        if "PL404" in rules else ()
    )
    return ReachAnalysis(
        digest=compiled.structural_hash,
        rules=rules,
        budget=budget,
        states_explored=result.states_explored,
        transitions_fired=result.transitions_fired,
        elapsed_seconds=result.elapsed_seconds,
        truncated=result.truncated,
        truncation_reason=result.truncation_reason,
        skipped=None,
        dead=tuple(dead),
        races=tuple(races),
        timing=tuple(timing),
        stuck=tuple(stuck),
    )


def _input_schedule(compiled: CompiledCircuit):
    """(label, times) pairs for every input generator, elaboration order."""
    pairs = []
    for node in compiled.input_nodes():
        wire = node.output_wires["out"]
        pairs.append((wire.observed_as, tuple(node.element.times)))
    return tuple(pairs)


def _witness_steps(violation) -> Tuple[WitnessStep, ...]:
    return tuple(
        WitnessStep(
            label=label,
            time=lo / SCALE,
            time_max=None if hi is None else hi / SCALE,
        )
        for label, lo, hi in violation.steps
    )


# ----------------------------------------------------------------------
# PL401: transitions dead in circuit context
# ----------------------------------------------------------------------
def _dead_transitions(compiled: CompiledCircuit, result) -> List[DeadTransition]:
    fired = result.coverage.fired_edges if result.coverage else frozenset()
    dead: List[DeadTransition] = []
    for node in compiled.cells():
        element = node.element
        if not isinstance(element, Transitional):
            continue
        spec = machine_spec(element)
        machine_reachable = reachable_states(spec)
        for t in element.machine.transitions:
            if t.source not in machine_reachable:
                continue  # dead at the machine level already: PL102's story
            entry = (node.name, t.source, f"q0_{t.id}")
            if entry not in fired:
                dead.append(DeadTransition(
                    node=node.name,
                    cell=element.name,
                    transition_id=t.id,
                    source_state=t.source,
                    trigger=t.trigger,
                    label=t.label,
                ))
    return dead


# ----------------------------------------------------------------------
# PL403: reachable timing violations with witnesses
# ----------------------------------------------------------------------
_WIRE_RE = re.compile(r"output wire '([^']+)'")


def _node_from_error(compiled: CompiledCircuit,
                     err: BaseException) -> Optional[str]:
    """The node a wrapped SimulationError points at, via its output wire."""
    match = _WIRE_RE.search(str(err))
    if match is None:
        return None
    wid = compiled.wire_index.get(match.group(1))
    if wid is None:
        return None
    node_id, _ = compiled.wire_source[wid]
    return compiled.nodes[node_id].name


def _replay_once(circuit: Circuit, compiled: CompiledCircuit):
    """One observed replay of the circuit's own schedule.

    Returns ``(failing_node, error)`` — both ``None`` when the run
    completes cleanly. The observer records provenance so a raised
    violation carries the causal chain of the offending pulse group.
    """
    sim = Simulation(circuit)
    observer = Observer()
    try:
        try:
            sim.simulate(observer=observer)
        finally:
            # Leave no per-run element state behind: lint must not change
            # what a later simulate() of the same circuit observes.
            sim.reset()
    except SimulationError as err:
        return _node_from_error(compiled, err), err
    return None, None


def _error_edge_kind(main_ta, location: str, node_name: str) -> str:
    """'hold' when the edge into ``location`` guards the handler clock."""
    hold_clock = f"c_{node_name}_h"
    for edge in main_ta.edges:
        if edge.target != location:
            continue
        if any(c.clock == hold_clock for c in edge.guard):
            return "hold"
        return "setup"
    return "setup"


def _parse_error_location(cell: str, location: str) -> Optional[str]:
    """The input symbol out of ``<CELL>_err_<sym>_<n>``."""
    prefix = f"{cell}_err_"
    if not location.startswith(prefix):
        return None
    rest = location[len(prefix):]
    symbol, _, counter = rest.rpartition("_")
    if not symbol or not counter.isdigit():
        return None
    return symbol


def _timing_witnesses(
    circuit: Circuit,
    compiled: CompiledCircuit,
    translation,
    result,
    inputs,
) -> List[TimingWitness]:
    violations = result.violations_for("query2")
    if not violations:
        return []
    failing_node, replay_err = _replay_once(circuit, compiled)
    witnesses: List[TimingWitness] = []
    seen = set()
    for violation in violations:
        node_name = violation.automaton
        main_ta = translation.main_tas.get(node_name)
        if main_ta is None:
            continue
        node = compiled.nodes[compiled.node_index[node_name]]
        cell = node.element.name
        symbol = _parse_error_location(cell, violation.location)
        if symbol is None:
            continue
        kind = _error_edge_kind(main_ta, violation.location, node_name)
        key = (node_name, symbol, kind)
        if key in seen:
            continue  # BFS order: the first witness is the shortest
        seen.add(key)
        steps = _witness_steps(violation)
        when = steps[-1].time if steps else 0.0
        if failing_node == node_name:
            confidence = "confirmed"
            replay = (
                "witness replay reproduced the violation: "
                + str(replay_err).splitlines()[0]
            )
            chain = getattr(replay_err, "provenance", None)
            provenance = tuple(chain.splitlines()) if chain else ()
        else:
            confidence = "possible"
            if failing_node is not None:
                replay = (
                    f"witness replay raised first at {failing_node!r}, "
                    f"not here"
                )
            else:
                replay = (
                    "witness replay completed without a violation (the TA "
                    "model interleaves same-instant pulses the simulator "
                    "dispatches atomically)"
                )
            provenance = ()
        witnesses.append(TimingWitness(
            node=node_name,
            cell=cell,
            error_location=violation.location,
            kind=kind,
            symbol=symbol,
            time=when,
            witness=Witness(inputs=inputs, steps=steps),
            confidence=confidence,
            replay=replay,
            provenance=provenance,
        ))
    return witnesses


# ----------------------------------------------------------------------
# PL402: input-order races
# ----------------------------------------------------------------------
def _describe_outcome(first: str, second: str, outcome) -> str:
    state, fired = outcome
    fired_text = ", ".join(
        f"{out} x{count}" if count > 1 else out for out, count in fired
    ) or "nothing"
    return f"{first} then {second} -> state {state!r}, fires {fired_text}"


def _seed_sweep(circuit: Circuit) -> Tuple[str, str]:
    """Grade schedule-dependence by replaying under swept tie-break seeds."""
    outcomes = set()
    for seed in RACE_REPLAY_SEEDS:
        sim = Simulation(circuit)
        try:
            try:
                events = sim.simulate(seed=seed)
                outcomes.add(
                    ("events", tuple(sorted(
                        (label, tuple(times))
                        for label, times in events.items()
                    )))
                )
            finally:
                sim.reset()
        except SimulationError as err:
            outcomes.add(("error", type(err).__name__, str(err)))
    if len(outcomes) > 1:
        return "confirmed", (
            f"replay under {len(RACE_REPLAY_SEEDS)} tie-break seeds produced "
            f"{len(outcomes)} distinct outcomes"
        )
    return "possible", (
        f"replay under {len(RACE_REPLAY_SEEDS)} tie-break seeds was "
        "outcome-identical (the nominal schedule may never take the racing "
        "branch both ways)"
    )


def _race_findings(
    circuit: Circuit, compiled: CompiledCircuit, result
) -> List[RaceFinding]:
    if not result.races:
        return []
    chan_dest: Dict[str, Tuple[str, str]] = {}
    for wid, dest in enumerate(compiled.wire_dest):
        if dest is None:
            continue
        node_id, port = dest
        chan_dest[channel_name(compiled.wires[wid])] = (
            compiled.nodes[node_id].name, port
        )
    candidates = []
    for cand in result.races:
        dest_a = chan_dest.get(cand.channel_a)
        dest_b = chan_dest.get(cand.channel_b)
        if dest_a is None or dest_b is None:
            continue
        if dest_a[0] != cand.automaton or dest_b[0] != cand.automaton:
            continue
        node = compiled.nodes[compiled.node_index[cand.automaton]]
        element = node.element
        if not isinstance(element, Transitional):
            continue
        machine = element.machine
        if cand.location not in machine.states:
            continue  # mid-transition arrivals are PL403's hold-error story
        port_a, port_b = sorted((dest_a[1], dest_b[1]))
        spec = machine_spec(element)
        delta = _delta_map(spec)
        first = delta.get((cand.location, port_a))
        second = delta.get((cand.location, port_b))
        if (first is None or second is None
                or len(first) != 1 or len(second) != 1):
            continue
        if first[0].priority != second[0].priority:
            continue  # the Dispatch Relation orders them deterministically
        a = _outcome(delta, cand.location, port_a, port_b)
        b = _outcome(delta, cand.location, port_b, port_a)
        if a is None or b is None or a == b:
            continue
        candidates.append((cand, node, element, port_a, port_b,
                           first[0].priority, a, b))
    if not candidates:
        return []
    confidence, replay = _seed_sweep(circuit)
    findings = []
    for cand, node, element, port_a, port_b, priority, a, b in candidates:
        lo, hi = cand.window
        findings.append(RaceFinding(
            node=node.name,
            cell=element.name,
            state=cand.location,
            port_a=port_a,
            port_b=port_b,
            priority=priority,
            outcome_a=_describe_outcome(port_a, port_b, a),
            outcome_b=_describe_outcome(port_b, port_a, b),
            window=(lo / SCALE, None if hi is None else hi / SCALE),
            confidence=confidence,
            replay=replay,
        ))
    return findings


# ----------------------------------------------------------------------
# PL404: stuck states
# ----------------------------------------------------------------------
def _stuck_states(translation, result) -> List[StuckState]:
    network = translation.network
    error_locs = {
        ta.name: set(ta.error_locations) for ta in network.automata
    }
    roles = {ta.name: ta.role for ta in network.automata}
    initial = {ta.name: ta.initial for ta in network.automata}
    machine_states = {
        name: _cell_rest_states(translation, name)
        for name in translation.main_tas
    }
    input_final = {
        ta.name: ta.locations[-1]
        for ta in network.automata if ta.role == "input"
    }
    stuck: List[StuckState] = []
    seen = set()
    for violation in result.violations_for("no_deadlock"):
        locs = violation.locations
        if any(loc in error_locs.get(ta, ()) for ta, loc in locs):
            # The run ended in an error location: that is the PL403
            # finding, not a separate stuck state.
            continue
        pending: List[str] = []
        anchor: Optional[str] = None
        for ta, loc in locs:
            role = roles.get(ta)
            if role == "cell" and loc not in machine_states.get(ta, ()):
                pending.append(f"{ta} is mid-transition at {loc}")
                anchor = anchor or ta
            elif role == "firing" and loc != initial[ta]:
                pending.append(f"{ta} holds an undelivered pulse at {loc}")
            elif role == "input" and loc != input_final.get(ta, loc):
                pending.append(f"{ta} still has pulses to emit (at {loc})")
        if not pending:
            continue  # good deadlock: schedule exhausted, everything at rest
        key = tuple(pending)
        if key in seen:
            continue
        seen.add(key)
        stuck.append(StuckState(
            anchor=anchor,
            pending=tuple(pending),
            steps=_witness_steps(violation),
        ))
    return stuck


def _cell_rest_states(translation, node_name: str) -> set:
    """The machine-state locations of one cell's main TA.

    Figure 14 expands each machine state with q*/wait/error locations; the
    rest states are exactly the original machine's states, which the main
    TA records as the locations present before expansion — recovered here
    as the locations that are neither error locations nor q-chain/wait
    locations (``q<i>_<transition id>``).
    """
    ta = translation.main_tas[node_name]
    q_like = re.compile(r"^q\d+_\d+$")
    return {
        loc for loc in ta.locations
        if loc not in ta.error_locations and not q_like.match(loc)
    }


# ----------------------------------------------------------------------
# Findings emission (used by lint_circuit's emit closure)
# ----------------------------------------------------------------------
def reach_findings(analysis: ReachAnalysis, emit) -> None:
    """Materialize an analysis into findings via ``emit``.

    ``emit`` is ``lint_circuit``'s closure: ``emit(rule_id, message,
    path=..., data=..., severity=..., **location_fields)`` — selection and
    suppression are applied there, so cached analyses still honor the
    caller's ``--select``/``--ignore`` and waivers.
    """
    from .findings import Severity

    for d in analysis.dead:
        emit(
            "PL401",
            f"transition {d.transition_id} ({d.label}) of {d.node} "
            f"({d.cell}) never fires in this circuit: exhaustive "
            f"exploration ({analysis.states_explored} states) finds no "
            f"schedule that delivers {d.trigger!r} in state "
            f"{d.source_state!r}",
            node=d.node, state=d.source_state, transition_id=d.transition_id,
            data={"trigger": d.trigger, "cell": d.cell},
        )
    for r in analysis.races:
        lo, hi = r.window
        window = (
            f"[{lo:g}, {hi:g}]" if hi is not None else f"[{lo:g}, inf)"
        )
        emit(
            "PL402",
            f"pulses on {r.port_a!r} and {r.port_b!r} can reach {r.node} "
            f"({r.cell}) at the same instant (global time {window} ps) in "
            f"state {r.state!r} with equal priority {r.priority}, and "
            f"dispatch order changes the outcome: {r.outcome_a}; vs "
            f"{r.outcome_b} — {r.replay} ({r.confidence})",
            node=r.node, state=r.state, port=r.port_a,
            severity=(
                Severity.WARNING if r.confidence == "confirmed"
                else Severity.INFO
            ),
            data={
                "ports": [r.port_a, r.port_b],
                "window": [lo, hi],
                "outcomes": [r.outcome_a, r.outcome_b],
                "confidence": r.confidence,
            },
        )
    for t in analysis.timing:
        path = t.provenance if t.provenance else tuple(t.witness.render())
        emit(
            "PL403",
            f"{t.kind} violation at {t.node} ({t.cell}) is statically "
            f"reachable: a pulse on {t.symbol!r} at t={t.time:g} ps drives "
            f"the cell into error location {t.error_location!r} — "
            f"{t.replay} ({t.confidence})",
            node=t.node, port=t.symbol,
            severity=(
                Severity.ERROR if t.confidence == "confirmed"
                else Severity.WARNING
            ),
            path=path,
            data={
                "kind": t.kind,
                "error_location": t.error_location,
                "witness": t.witness.to_jsonable(),
                "confidence": t.confidence,
                "time": t.time,
            },
        )
    for s in analysis.stuck:
        emit(
            "PL404",
            "stuck state: " + "; ".join(s.pending) + " — no automaton can "
            "make progress, yet work is pending (not the 'good' deadlock "
            "of an exhausted schedule)",
            node=s.anchor,
            path=tuple(step.render() for step in s.steps),
            data={"pending": list(s.pending)},
        )
