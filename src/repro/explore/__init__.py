"""Design-space exploration: parameterized families, sweeps, Pareto fronts.

The explorer generalizes the paper's fixed Table 2/3 evaluation into a
sweep engine over *parameterized* design families (n-bit adders, depth-d
race trees, n-word memories, n-input bitonic sorters). Each grid point is
costed statically with :func:`repro.core.energy.circuit_cost`, measured
with the full Monte-Carlo stack (:func:`repro.core.montecarlo.measure_yield`
over the batched drain / persistent pool), and cached by the same
:class:`repro.exp.measure.Measurer` the yield service uses, so sweep
points and served requests share one key contract and one store.

Entry point: ``python -m repro explore <family> --grid n=2,4,8``.
"""

from .engine import (
    ExploreEngine,
    ExplorePoint,
    SweepResult,
    grid_points,
    parse_grid,
)
from .families import DesignFamily, FamilyFactory, families, family_names
from .pareto import dominates, pareto_frontier

__all__ = [
    "DesignFamily",
    "ExploreEngine",
    "ExplorePoint",
    "FamilyFactory",
    "SweepResult",
    "dominates",
    "families",
    "family_names",
    "grid_points",
    "pareto_frontier",
    "parse_grid",
]
