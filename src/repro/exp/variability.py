"""Section 5.2's robustness evaluation: sweeping Gaussian delay variability.

Re-runs the 8-input bitonic sorter under increasing per-delay noise and
classifies each run as OK, mis-sorted, or timing violation — the failure
modes the paper says variability analysis should expose ("such variance can
lead to pulses arriving at their destination cells too early or late,
causing the design to fail unexpectedly").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from ..core.circuit import Circuit, fresh_circuit
from ..core.helpers import inp_at
from ..core.montecarlo import measure_yield
from ..designs import bitonic_sorter
from .dynamic_checks import bitonic_rank_order

DEFAULT_SIGMAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_VALUES = (20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0)


@dataclass
class SweepRow:
    sigma: float
    ok: int
    mis_sorted: int
    violations: int

    @property
    def total(self) -> int:
        return self.ok + self.mis_sorted + self.violations


def _sorter(values: Tuple[float, ...]) -> Circuit:
    """A fresh bitonic sorter over ``values`` (module-level: picklable)."""
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(values)]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(len(values))])
    return circuit


def run(
    sigmas: Sequence[float] = DEFAULT_SIGMAS,
    seeds: Sequence[int] = tuple(range(20)),
    values: Sequence[float] = DEFAULT_VALUES,
) -> List[SweepRow]:
    factory = partial(_sorter, tuple(values))
    predicate = partial(bitonic_rank_order, n=len(values))
    rows: List[SweepRow] = []
    for sigma in sigmas:
        result = measure_yield(factory, predicate, sigma, seeds)
        rows.append(
            SweepRow(sigma, result.passed, result.mis_behaved, result.violations)
        )
    return rows


def render(rows: List[SweepRow]) -> str:
    lines = [
        "Section 5.2 variability robustness sweep (bitonic-8):",
        f"{'sigma (ps)':>10} {'ok':>5} {'mis-sorted':>11} {'violations':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.sigma:>10.2f} {row.ok:>5} {row.mis_sorted:>11} "
            f"{row.violations:>11}"
        )
    return "\n".join(lines)


def main() -> str:
    report = render(run())
    print(report)
    return report
