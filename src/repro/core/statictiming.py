"""Timing-slack analysis: how close a run came to violating constraints.

The simulator *rejects* runs that violate hold windows or past constraints
(Figures 3 and 13); this module quantifies how much margin a *passing* run
had — the dynamic-timing-analysis view EDA flows build on:

* **hold slack** of a dispatch = ``tau_arr - tau_done`` (how long after the
  cell re-stabilized the pulse arrived);
* **setup slack** = ``min over constraints (tau_arr - (Theta[sigma'] +
  tau_dist))`` (how much later than the earliest legal instant the
  triggering pulse arrived).

A slack of 0 is legal but brittle: any positive delay noise on the
offending path flips it into a violation, so ``worst_slacks`` is the
quantity to compare against expected variability (see
:mod:`repro.core.montecarlo` for the empirical counterpart).

Margins are computed by replaying a recorded simulation trace
(``simulate(record=True)``) through each cell's machine, so they reflect
exactly the dispatch order the simulator used (``TraceEntry.order``,
seeded tie-breaks included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .errors import PylseError
from .ir import compile_circuit
from .machine import Configuration
from .simulation import Simulation
from .transitional import Transitional


@dataclass(frozen=True)
class MarginRecord:
    """Timing slack of one pulse consumed by one cell."""

    node: str
    cell: str
    time: float
    port: str
    transition_id: int
    hold_slack: float     # math.inf when the cell was long since stable
    setup_slack: float    # math.inf when no constraint applied

    @property
    def worst(self) -> float:
        return min(self.hold_slack, self.setup_slack)

    def __str__(self) -> str:
        def fmt(value: float) -> str:
            return "inf" if math.isinf(value) else f"{value:g}"

        return (
            f"t={self.time:g} {self.node}({self.cell}).{self.port} "
            f"[transition {self.transition_id}]: hold {fmt(self.hold_slack)}, "
            f"setup {fmt(self.setup_slack)}"
        )


def timing_margins(sim: Simulation) -> List[MarginRecord]:
    """Per-pulse slack records for the last recorded run.

    Requires ``sim.simulate(record=True)`` to have been called; holes are
    skipped (they carry no timing constraints).
    """
    if not sim.trace:
        raise PylseError(
            "No trace recorded: run simulate(record=True) before "
            "timing_margins()"
        )
    nodes = compile_circuit(sim.circuit).node_by_name
    configs: Dict[str, Configuration] = {}
    records: List[MarginRecord] = []
    for entry in sim.trace:
        node = nodes[entry.node]
        element = node.element
        if not isinstance(element, Transitional):
            continue
        machine = element.machine
        config = configs.get(entry.node, machine.initial_configuration())
        for symbol in entry.order:
            transition = machine.delta(config.state, symbol)
            hold = entry.time - config.tau_done
            if math.isinf(config.tau_done):
                hold = math.inf
            setup = math.inf
            for constrained, tau_dist in machine._constraint_items(transition):
                last = config.theta[constrained]
                if not math.isinf(last):
                    setup = min(setup, entry.time - (last + tau_dist))
            records.append(
                MarginRecord(
                    node=entry.node,
                    cell=element.name,
                    time=entry.time,
                    port=symbol,
                    transition_id=transition.id,
                    hold_slack=hold,
                    setup_slack=setup,
                )
            )
            config, _ = machine.step(config, symbol, entry.time)
        configs[entry.node] = config
    return records


def worst_slacks(records: List[MarginRecord]) -> Dict[str, MarginRecord]:
    """The tightest record per node (min of hold and setup slack)."""
    worst: Dict[str, MarginRecord] = {}
    for record in records:
        current = worst.get(record.node)
        if current is None or record.worst < current.worst:
            worst[record.node] = record
    return worst


def critical_path(records: List[MarginRecord], n: int = 5) -> List[MarginRecord]:
    """The ``n`` globally tightest records, tightest first."""
    finite = [r for r in records if not math.isinf(r.worst)]
    return sorted(finite, key=lambda r: r.worst)[:n]


def slack_report(sim: Simulation, n: int = 10) -> str:
    """Human-readable slack summary of a recorded run."""
    records = timing_margins(sim)
    tightest = critical_path(records, n)
    lines = [
        f"timing slack report: {len(records)} dispatches across "
        f"{len({r.node for r in records})} cells",
    ]
    if not tightest:
        lines.append("  no finite slacks (no timing constraints exercised)")
        return "\n".join(lines)
    lines.append(f"  tightest {len(tightest)}:")
    for record in tightest:
        lines.append(f"    {record}")
    overall = tightest[0]
    lines.append(
        f"  worst slack: {overall.worst:g} ps at {overall.node} "
        f"(any added skew beyond this on that path violates timing)"
    )
    return "\n".join(lines)
