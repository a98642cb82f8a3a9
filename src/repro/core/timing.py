"""Time values and timing distributions.

Section 5.1 notes that "PyLSE allows you to express the timing behavior of an
SCE cell as a distribution", and Section 5.2 describes simulation-time
variability where "every individual propagation delay ... will have a small
amount of delay, by default taken from a Gaussian distribution, added to or
subtracted from it".

This module provides:

* :class:`Normal` and :class:`Uniform` delay distributions that can be used
  anywhere a firing delay is expected; with plain numbers they are the only
  kinds of delay, which :func:`nominal_delay` checks where one is placed;
* :class:`VariabilitySpec`, the normalized form of the ``variability``
  argument to ``Simulation.simulate`` (a bool, a dict, or a callable).

All times are picoseconds, matching the paper's examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, Union

from .errors import PylseError

#: Fraction of the nominal delay used as the default Gaussian sigma when
#: ``variability=True`` is passed without further configuration.
DEFAULT_VARIABILITY_FRACTION = 0.05


class Distribution:
    """The base of the delay distributions :class:`Normal` and :class:`Uniform`.

    A run samples them from its counter streams
    (:class:`repro.core.batchsim.CounterNoise`); no other subclass is a
    valid delay.
    """

    mean: float

    def nominal(self) -> float:
        """The deterministic value used when variability is disabled."""
        return self.mean


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian-distributed delay, truncated at zero.

    >>> Normal(9.2, 0.5).nominal()
    9.2
    """

    mean: float
    stddev: float

    def __post_init__(self) -> None:
        if self.mean < 0:
            raise PylseError(f"Normal delay mean must be >= 0, got {self.mean}")
        if self.stddev < 0:
            raise PylseError(f"Normal delay stddev must be >= 0, got {self.stddev}")


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniformly-distributed delay over ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise PylseError(
                f"Uniform delay bounds must satisfy 0 <= low <= high, "
                f"got [{self.low}, {self.high}]"
            )

    @property
    def mean(self) -> float:  # type: ignore[override]
        return (self.low + self.high) / 2.0


DelayLike = Union[float, int, Normal, Uniform]


def nominal_delay(delay: DelayLike, owner: str = "") -> float:
    """Collapse a delay to its deterministic value, checking its kind.

    A delay is a finite non-negative number, a :class:`Normal` or a
    :class:`Uniform`. Anything else, a custom :class:`Distribution`
    included, raises :class:`PylseError` whose message starts with
    ``owner`` (the cell or hole placing the delay) when one is given.
    """
    if isinstance(delay, (Normal, Uniform)):
        return delay.nominal()
    if (isinstance(delay, (int, float)) and not isinstance(delay, bool)
            and 0 <= delay < math.inf):
        return float(delay)
    where = f"{owner}: " if owner else ""
    raise PylseError(
        f"{where}Delay must be a finite non-negative number, Normal or "
        f"Uniform, got {delay!r}"
    )


#: Signature of a user-supplied variability function: it receives the nominal
#: delay and the node the pulse fires from, and returns the perturbed delay.
VariabilityFn = Callable[[float, "object"], float]


@dataclass
class VariabilitySpec:
    """Normalized view of ``Simulation.simulate(variability=...)``.

    ``variability`` may be:

    * ``False`` — deterministic simulation (the default);
    * ``True`` — Gaussian noise on every firing delay;
    * a ``dict`` with optional keys ``cell_types`` (iterable of cell-name
      strings), ``instances`` (iterable of node names or node objects),
      ``stddev`` (absolute sigma) and ``fraction`` (sigma as a fraction
      of the nominal delay);
    * a callable ``f(delay, node) -> delay`` for full control.

    A seed names one set of counter-based per-(seed, node) streams
    (:class:`repro.core.batchsim.CounterNoise`). A run draws its Gaussian
    noise, its ``Normal`` / ``Uniform`` delay samples and, when seeded or
    noisy, its priority tie-breaks from them. A draw is addressed by its
    position in its node's stream, so a per-seed run and one lane of the
    vectorized Monte-Carlo drain agree bit for bit, and a seeded run with
    variability off equals that seed's run at zero noise. A callable
    replaces the Gaussian noise on constant delays only.
    """

    enabled: bool = False
    cell_types: Optional[frozenset[str]] = None
    instances: Optional[frozenset[str]] = None
    stddev: Optional[float] = None
    fraction: float = DEFAULT_VARIABILITY_FRACTION
    custom: Optional[VariabilityFn] = None

    @classmethod
    def normalize(
        cls, variability: Union[bool, dict, VariabilityFn]
    ) -> "VariabilitySpec":
        if variability is False or variability is None:
            return cls(enabled=False)
        if variability is True:
            return cls(enabled=True)
        if callable(variability):
            return cls(enabled=True, custom=variability)
        if isinstance(variability, dict):
            unknown = set(variability) - {
                "cell_types", "instances", "stddev", "fraction"
            }
            if unknown:
                raise PylseError(
                    f"Unknown variability keys: {sorted(unknown)}; "
                    "expected 'cell_types', 'instances', 'stddev', "
                    "'fraction'"
                )
            cell_types = variability.get("cell_types")
            instances = variability.get("instances")
            return cls(
                enabled=True,
                cell_types=frozenset(cls._names(cell_types)) if cell_types else None,
                instances=frozenset(cls._names(instances)) if instances else None,
                stddev=variability.get("stddev"),
                fraction=variability.get("fraction", DEFAULT_VARIABILITY_FRACTION),
            )
        raise PylseError(
            f"variability must be a bool, dict, or callable, got {type(variability).__name__}"
        )

    @staticmethod
    def _names(items: Iterable) -> Iterable[str]:
        for item in items:
            yield item if isinstance(item, str) else getattr(item, "name", str(item))

    def applies_to(self, cell_name: str, instance_name: str) -> bool:
        """Whether this spec perturbs delays of the given node."""
        if not self.enabled:
            return False
        if self.cell_types is None and self.instances is None:
            return True
        if self.cell_types is not None and cell_name in self.cell_types:
            return True
        if self.instances is not None and instance_name in self.instances:
            return True
        return False

    def applies_by_node(self, compiled) -> Tuple[bool, ...]:
        """:meth:`applies_to` for every node of a compiled circuit, by index.

        Memoised on the compiled circuit per node selection, since every
        noisy run of a sweep asks for the same one.
        """
        key = ("applies", self.enabled, self.cell_types, self.instances)
        return compiled._memo(key, lambda: tuple(
            not nd.is_input and self.applies_to(nd.cell, nd.name)
            for nd in compiled.dispatch
        ))

    def perturb(self, delay: float, node: object) -> float:
        """Apply the callable variability to a nominal firing delay."""
        return max(0.0, float(self.custom(delay, node)))
