"""The sweep engine: cached Monte-Carlo measurement over parameter grids.

One :class:`ExploreEngine` walks a declarative parameter grid over a
:class:`~repro.explore.families.DesignFamily` and measures each point
through a :class:`~repro.exp.measure.Measurer`, the measurement layer the
yield service (:mod:`repro.serve.service`) uses too, so a sweep point and
a served request for the same circuit share semantics and one store:

* ``(family, params)`` is the measurer's memo key, so repeated sweeps
  over the same grid never re-elaborate or re-hash a design point;
* resolution (factory, baseline predicate, static cost, latency) is
  cached by :func:`~repro.core.ir.structural_hash` and order fingerprint
  — two parameter assignments that elaborate to the same circuit share
  one entry;
* results are cached under :func:`~repro.core.ir.result_cache_key`, so a
  warm sweep is pure cache lookups. With ``cache_dir`` set the persistent
  tier makes a re-run sweep in a *fresh process* recompute nothing, and
  shares its ``results`` namespace with ``repro serve --cache-dir`` (see
  docs/caching.md). The point resolutions persist too (the
  ``resolutions`` namespace), so that re-run elaborates no point whose
  result is stored: a point is elaborated only at its first result miss.

Every measured point is element-wise identical to a direct
:func:`~repro.core.montecarlo.measure_yield` call with the same
parameters — caching can change *when* a result is computed, never its
value (the determinism contract that makes the key sound).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.energy import CircuitCost
from ..core.errors import PylseError
from ..core.montecarlo import YieldResult
from ..core.serialize import yield_result_from_jsonable
from ..exp.measure import Measurer, Resolved
from .families import FamilyFactory, get_family
from .pareto import pareto_frontier


@dataclass(frozen=True)
class ExplorePoint:
    """One measured grid point: parameters, cost, latency, yield."""

    family: str
    params: Tuple[Tuple[str, int], ...]
    digest: str
    cost: CircuitCost
    latency_ps: float
    result: YieldResult
    #: Whether the measurement came from the result cache (diagnostic —
    #: cached and computed results are element-wise identical).
    cached: bool = field(compare=False, default=False)

    @property
    def yield_fraction(self) -> float:
        return self.result.yield_fraction

    def objective(self) -> Tuple[float, float, float]:
        """The minimized (cost, latency, 1 - yield) triple."""
        return (
            float(self.cost.jjs),
            self.latency_ps,
            1.0 - self.result.yield_fraction,
        )


@dataclass(frozen=True)
class SweepResult:
    """A full grid sweep plus its Pareto frontier."""

    family: str
    grid: Tuple[Tuple[str, Tuple[int, ...]], ...]
    sigma: float
    n_seeds: int
    seed0: int
    batch: Union[int, str, None]
    points: Tuple[ExplorePoint, ...]

    @property
    def pareto(self) -> Tuple[ExplorePoint, ...]:
        """The non-dominated points under (cost, latency, 1 - yield)."""
        return tuple(pareto_frontier(self.points, key=ExplorePoint.objective))


def parse_grid(specs: Sequence[str]) -> Dict[str, List[int]]:
    """Parse CLI grid specs ``["n=2,4,8", ...]`` into an ordered dict.

    Values must be integers (every family parameter is one); duplicates
    within one axis are rejected — they would silently re-measure (well,
    re-look-up) the same point.
    """
    grid: Dict[str, List[int]] = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        name = name.strip()
        if not sep or not name or not values.strip():
            raise PylseError(
                f"grid spec must look like 'name=v1,v2,...', got {spec!r}"
            )
        if name in grid:
            raise PylseError(f"duplicate grid axis {name!r}")
        parsed: List[int] = []
        for token in values.split(","):
            token = token.strip()
            try:
                parsed.append(int(token))
            except ValueError:
                raise PylseError(
                    f"grid axis {name!r}: values must be integers, "
                    f"got {token!r}"
                ) from None
        if len(set(parsed)) != len(parsed):
            raise PylseError(f"grid axis {name!r} has duplicate values")
        grid[name] = parsed
    if not grid:
        raise PylseError("empty grid: give at least one 'name=v1,v2,...'")
    return grid


def grid_points(grid: Mapping[str, Sequence[int]]) -> List[Dict[str, int]]:
    """The cartesian product of the grid axes, in declaration order."""
    names = list(grid)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[name] for name in names))
    ]


class ExploreEngine:
    """See the module docstring; one instance amortizes across sweeps."""

    def __init__(self, workers: Optional[int] = 1, cache_dir=None):
        self.measurer = Measurer(workers, cache_dir=cache_dir)

    @property
    def computations(self) -> int:
        """Monte-Carlo measurements actually computed (result misses)."""
        return self.measurer.computations

    @property
    def elaborations(self) -> int:
        """Design points elaborated and compiled (memo and disk misses,
        and the check of a disk-warm point at its first result miss)."""
        return self.measurer.elaborations

    def resolve(self, family: str, params: Mapping[str, int]) -> Resolved:
        """Elaborate/compile/baseline a design point, memoized by digest."""
        factory = FamilyFactory(family, params)
        return self.measurer.resolve(factory, (family, factory.params))

    def measure(
        self,
        family: str,
        params: Mapping[str, int],
        sigma: float,
        n_seeds: int,
        seed0: int = 0,
        batch: Union[int, str, None] = None,
    ) -> ExplorePoint:
        """One cached yield measurement for one design point."""
        document, cached, resolved = self.measurer.measure(
            self.resolve(family, params), sigma, n_seeds, seed0, batch
        )
        return ExplorePoint(
            family=family,
            params=get_family(family).normalize(params),
            digest=resolved.digest,
            cost=resolved.cost,
            latency_ps=resolved.latency_ps,
            result=yield_result_from_jsonable(document),
            cached=cached,
        )

    # -- sweeps ---------------------------------------------------------
    def sweep(
        self,
        family: str,
        grid: Mapping[str, Sequence[int]],
        sigma: float = 0.5,
        n_seeds: int = 25,
        seed0: int = 0,
        batch: Union[int, str, None] = None,
        progress: Optional[Callable[[ExplorePoint], None]] = None,
    ) -> SweepResult:
        """Measure every point of the grid's cartesian product."""
        points: List[ExplorePoint] = []
        for assignment in grid_points(grid):
            point = self.measure(
                family, assignment, sigma=sigma, n_seeds=n_seeds,
                seed0=seed0, batch=batch,
            )
            points.append(point)
            if progress is not None:
                progress(point)
        return SweepResult(
            family=family,
            grid=tuple((name, tuple(values)) for name, values in grid.items()),
            sigma=float(sigma),
            n_seeds=n_seeds,
            seed0=seed0,
            batch=batch,
            points=tuple(points),
        )

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The measurer's counters and caches (``Measurer.stats``)."""
        return self.measurer.stats()
