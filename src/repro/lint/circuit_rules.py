"""Circuit-level lint: the ``lint_circuit`` / ``lint_machine`` entry points.

``lint_circuit`` runs three layers over a circuit:

1. **machine lint** — every distinct cell's PyLSE Machine goes through the
   PL1xx rules once, with the instantiating node names attached;
2. **structural lint** — single-driver/reader bookkeeping (PL204, PL202),
   combinational feedback loops (PL201), structural clock reachability
   (PL203), and Figure 11 path-balance skew (PL205);
3. **timing lint** — the interval abstract interpretation of
   :mod:`repro.lint.intervals`, classifying every (cell, constraint) pair
   as statically violated (PL301), possibly violated (PL302), or safe
   (PL303) with a quantified margin;
4. **reachability lint** (opt-in via ``reach=True``) — the zone-based model
   checker of :mod:`repro.mc` run exhaustively over the translated TA
   network, proving dead transitions (PL401), input-order races (PL402),
   reachable timing violations with replayed witnesses (PL403), and stuck
   states (PL404). See :mod:`repro.lint.reach_rules`; results come from an
   incremental cache keyed by the circuit's structural hash.

Suppression is layered: a cell class can carry ``lint_suppress`` (rule IDs
or prefixes the analyzer skips for that cell and its nodes), and callers
can pass ``suppressions={node_name_or_star: [patterns]}`` for per-node
waivers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.analysis import balance_report, clock_skew
from ..core.circuit import Circuit, working_circuit
from ..core.element import InGen
from ..core.ir import compile_circuit
from ..core.transitional import Transitional
from .findings import Finding, Location, Severity
from .intervals import TimingCheck, propagate
from .machine_rules import MachineLike, machine_findings, machine_spec
from .reach_rules import REACH_RULES, ReachBudget, analyze_reach, reach_findings
from .report import LintReport
from .rules import is_selected, matches, rule

Patterns = Optional[Union[str, Sequence[str]]]


def _patterns(value: Patterns) -> Optional[Tuple[str, ...]]:
    """Normalize a ``--select``-style value: comma string or sequence."""
    if value is None:
        return None
    if isinstance(value, str):
        value = value.split(",")
    cleaned = tuple(p.strip() for p in value if p and p.strip())
    return cleaned


def lint_machine(
    obj: MachineLike,
    select: Patterns = None,
    ignore: Patterns = None,
) -> LintReport:
    """Statically analyze one machine (PylseMachine, Transitional class or
    instance); returns a :class:`LintReport` of PL1xx findings.

    The cell's own ``lint_suppress`` list is honored on top of ``ignore``.
    """
    spec = machine_spec(obj)
    ignore_pats = list(_patterns(ignore) or ())
    ignore_pats.extend(getattr(obj, "lint_suppress", ()) or ())
    findings = machine_findings(
        spec, select=_patterns(select), ignore=tuple(ignore_pats)
    )
    findings.sort(key=lambda f: (f.rule, f.location.qualified_name()))
    return LintReport(findings=tuple(findings))


def _is_stateless_fabric(element) -> bool:
    """True for elements that cannot hold a pulse back (1-state machines).

    A combinational cycle through only such elements re-circulates forever;
    Functional holes are treated as state-holding because their Python body
    may absorb pulses.
    """
    return (
        isinstance(element, Transitional)
        and len(element.machine.states) < 2
    )


def _worst_by_pair(checks: Iterable[TimingCheck]) -> List[TimingCheck]:
    """Keep the worst-margin check per (node, kind, port pair)."""
    worst: Dict[Tuple[str, str, str, str], TimingCheck] = {}
    for check in checks:
        key = (check.node, check.kind, check.first_port, check.second_port)
        kept = worst.get(key)
        if kept is None or check.margin < kept.margin:
            worst[key] = check
    return [worst[k] for k in sorted(worst)]


def lint_circuit(
    circuit: Optional[Circuit] = None,
    select: Patterns = None,
    ignore: Patterns = None,
    suppressions: Optional[Mapping[str, Sequence[str]]] = None,
    tolerance: float = 0.0,
    design: Optional[str] = None,
    reach: bool = False,
    reach_budget: Optional[ReachBudget] = None,
    reach_cache_dir=None,
) -> LintReport:
    """Run the full static analysis over a circuit.

    ``tolerance`` does double duty, as in :func:`balance_report`: it is the
    allowed path-balance skew (PL205) and the minimum acceptable timing
    margin — a statically-safe pair whose margin is below it is reported as
    PL302.

    ``reach=True`` additionally runs the PL4xx zone-based reachability
    layer within ``reach_budget`` (state/time caps with explicit
    ``truncated`` reporting); the underlying analysis is served from the
    incremental cache when the circuit's structural hash, rule subset,
    and budget all match a previous run (analyses cut short by the time
    limit are never cached). ``reach_cache_dir`` additionally persists
    finished analyses on disk (the ``lint`` namespace of a
    :mod:`repro.cache` store), so the warm path survives process
    restarts.
    """
    circuit = circuit if circuit is not None else working_circuit()
    select = _patterns(select)
    ignore = _patterns(ignore) or ()
    suppressions = dict(suppressions or {})

    node_suppress: Dict[str, Tuple[str, ...]] = {}
    for node in circuit.cells():
        cell_level = tuple(getattr(node.element, "lint_suppress", ()) or ())
        node_level = tuple(suppressions.get(node.name, ()))
        node_suppress[node.name] = cell_level + node_level
    global_suppress = tuple(suppressions.get("*", ()))

    findings: List[Finding] = []

    def emit(rule_id: str, message: str, path: Tuple[str, ...] = (),
             data: Optional[Mapping[str, object]] = None,
             severity: Optional[Severity] = None,
             **location_fields) -> None:
        if not is_selected(rule_id, select, ignore):
            return
        if matches(rule_id, global_suppress):
            return
        node_name = location_fields.get("node")
        if node_name and matches(rule_id, node_suppress.get(node_name, ())):
            return
        findings.append(Finding(
            rule=rule_id,
            severity=severity if severity is not None else rule(rule_id).severity,
            message=message,
            location=Location(design=design, **location_fields),
            path=path,
            data=data,
        ))

    # ------------------------------------------------------------------
    # Layer 1: machine lint, once per distinct cell configuration.
    # ------------------------------------------------------------------
    groups: Dict[Tuple[str, str], Tuple[Transitional, List[str]]] = {}
    for node in circuit.cells():
        element = node.element
        if not isinstance(element, Transitional):
            continue
        overrides = getattr(element, "overrides", {}) or {}
        key = (element.name, repr(sorted(overrides.items(), key=repr)))
        if key in groups:
            groups[key][1].append(node.name)
        else:
            groups[key] = (element, [node.name])
    for (cell_name, _), (element, nodes) in sorted(groups.items()):
        cell_ignore = tuple(ignore) + tuple(
            getattr(element, "lint_suppress", ()) or ()
        )
        for finding in machine_findings(
            machine_spec(element), select=select, ignore=cell_ignore,
            design=design, nodes=nodes,
        ):
            if not matches(finding.rule, global_suppress):
                findings.append(finding)

    # ------------------------------------------------------------------
    # Layer 2: structural lint.
    # ------------------------------------------------------------------
    # PL204: consumed wires with no driver.
    for wire, (node, port) in sorted(
        circuit.dest_of.items(), key=lambda kv: (kv[1][0].name, kv[1][1])
    ):
        if wire not in circuit.source_of:
            emit("PL204",
                 f"wire {wire.name!r} feeds input {port!r} of {node.name} "
                 f"but has no driver",
                 node=node.name, port=port, wire=wire.name)

    # PL202: driven wires nobody consumes or observes.
    for wire in circuit.wires:
        if wire in circuit.dest_of or wire.is_user_named:
            continue
        src_node, src_port = circuit.source_of[wire]
        if isinstance(src_node.element, InGen):
            continue
        emit("PL202",
             f"output {src_port!r} of {src_node.name} drives wire "
             f"{wire.name!r} which is neither consumed nor observed; its "
             f"pulses are silently dropped",
             node=src_node.name, port=src_port, wire=wire.name)

    # PL201: cycles made only of stateless fabric. The compiled IR already
    # carries the cyclic SCCs with members sorted by node name — no private
    # node graph or {name: node} rebuild.
    compiled = compile_circuit(circuit, validate=False)
    has_cycles = not compiled.is_acyclic
    for component in compiled.cyclic_sccs:
        members = [compiled.nodes[i].name for i in component]
        if all(
            _is_stateless_fabric(compiled.nodes[i].element)
            for i in component
        ):
            emit("PL201",
                 f"feedback loop through stateless fabric only "
                 f"({', '.join(members)}): every pulse entering the loop "
                 f"re-circulates forever",
                 node=members[0],
                 data={"nodes": members})

    # PL203: clk ports no circuit input can reach.
    fed = compiled.reachable(compiled.input_ids)
    for wid, dest in enumerate(compiled.wire_dest):
        src = compiled.wire_source[wid][0]
        if dest is not None and dest[1] == "clk" and src not in fed:
            clocked = compiled.nodes[dest[0]].name
            emit("PL203",
                 f"clk port of {clocked} is driven by "
                 f"{compiled.nodes[src].name}, which no circuit input "
                 f"reaches: the gate will never read out",
                 node=clocked, port="clk")

    # PL205: imbalanced convergent data arrivals (Figure 11 arithmetic).
    if not has_cycles:
        for skew in balance_report(circuit, tolerance=tolerance):
            detail = ", ".join(
                f"{port} in [{lo:g}, {hi:g}]"
                for port, (lo, hi) in sorted(skew.arrivals.items())
            )
            emit("PL205",
                 f"data inputs of {skew.node} ({skew.cell}) arrive with "
                 f"{skew.skew:g} ps skew ({detail}); consider a JTL on the "
                 f"early path",
                 node=skew.node,
                 data={"skew": skew.skew})

    # ------------------------------------------------------------------
    # Layer 3: timing lint via interval abstract interpretation.
    # ------------------------------------------------------------------
    timing: Dict[str, object] = {}
    timing_skipped = has_cycles
    if not has_cycles and circuit.cells():
        analysis = propagate(circuit)
        violations = [c for c in analysis.checks if c.status == "violation"]
        possibles = [c for c in analysis.checks if c.status == "possible"]
        close = [
            c for c in analysis.checks
            if c.status == "safe" and c.sep_max >= 0
            and tolerance > 0 and c.margin < tolerance
        ]
        for check in _worst_by_pair(violations):
            emit("PL301",
                 f"every schedule violates the {check.kind} constraint: "
                 f"{check.describe()}",
                 path=(
                     check.first.path(f"{check.node}.{check.first_port}"),
                     check.second.path(f"{check.node}.{check.second_port}"),
                 ),
                 data={"margin": check.margin, "kind": check.kind},
                 node=check.node, port=check.second_port)
        for check in _worst_by_pair(possibles):
            emit("PL302",
                 f"some schedules violate the {check.kind} constraint: "
                 f"{check.describe()}",
                 path=(
                     check.first.path(f"{check.node}.{check.first_port}"),
                     check.second.path(f"{check.node}.{check.second_port}"),
                 ),
                 data={"margin": check.margin, "kind": check.kind},
                 node=check.node, port=check.second_port)
        for check in _worst_by_pair(close):
            emit("PL302",
                 f"{check.kind} constraint is met but the margin "
                 f"{check.margin:g} ps is below the required tolerance "
                 f"{tolerance:g} ps: {check.describe()}",
                 data={"margin": check.margin, "kind": check.kind},
                 node=check.node, port=check.second_port)
        margin = analysis.safe_margin()
        timing = {
            "checks": len(analysis.checks),
            "violations": len(violations),
            "possible": len(possibles),
            "safe_margin": margin,
        }
        if (analysis.checks and not violations and not possibles and not close
                and margin is not None):
            emit("PL303",
                 f"all {len(analysis.checks)} constraint pair(s) are "
                 f"statically safe; worst margin {margin:g} ps")

    # ------------------------------------------------------------------
    # Layer 4 (opt-in): reachability lint via zone-based model checking.
    # ------------------------------------------------------------------
    reach_summary: Dict[str, object] = {}
    reach_skipped: Optional[str] = None
    if reach:
        enabled = tuple(
            r for r in REACH_RULES if is_selected(r, select, ignore)
        )
        if not enabled:
            reach_skipped = "all PL4xx rules deselected"
        else:
            analysis, cached = analyze_reach(
                circuit, budget=reach_budget, rules=enabled,
                cache_dir=reach_cache_dir,
            )
            if analysis.skipped is not None:
                reach_skipped = analysis.skipped
            else:
                reach_findings(analysis, emit)
                reach_summary = dict(analysis.summary(), cached=cached)

    # ------------------------------------------------------------------
    # Structural clock summary (replaces the old name-prefix heuristic).
    # ------------------------------------------------------------------
    clocks: Dict[str, Dict[str, object]] = {
        label: {"sinks": len(sinks), "skew": clock_skew(label, circuit)}
        for label, sinks in compiled.clock_wires.items()
    }

    findings.sort(key=lambda f: (-int(f.severity), f.rule,
                                 f.location.qualified_name()))
    return LintReport(
        findings=tuple(findings),
        design=design,
        timing=timing,
        timing_skipped=timing_skipped,
        clocks=clocks,
        structural_hash=compiled.structural_hash,
        reach=reach_summary,
        reach_skipped=reach_skipped,
    )
