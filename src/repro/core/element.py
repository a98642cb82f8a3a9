"""The Element protocol: anything that can sit at a node of a circuit.

Three families implement it (Section 4.1's design levels):

* :class:`repro.core.transitional.Transitional` — cells defined as PyLSE
  Machines (Cell Definition level);
* :class:`repro.core.functional.Functional` — "holes" wrapping plain Python
  (Hole Description level);
* :class:`InGen` — input generators created by ``inp``/``inp_at`` that feed
  externally supplied pulses into the network.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import PylseError

#: An output firing: (output port name, delay after *now* at which the pulse
#: appears on the port's wire).
Firing = Tuple[str, float]


class Element:
    """Abstract node payload.

    Concrete elements expose ``inputs`` and ``outputs`` (ordered port-name
    lists), a ``name`` identifying the cell type, and
    :meth:`handle_inputs`, the simulator's entry point. ``Transitional``
    cells are the exception: the simulator steps their machine directly.
    """

    name: str = "<element>"
    inputs: Sequence[str] = ()
    outputs: Sequence[str] = ()

    def handle_inputs(self, active: Sequence[str], time: float) -> List[Firing]:
        """Process the set of input ports that pulsed simultaneously at ``time``.

        Returns the list of output firings this causes. Implementations may
        raise a :class:`~repro.core.errors.SimulationError` on timing
        violations.
        """
        raise NotImplementedError


def check_ports(name: str, inputs: Sequence[str], outputs: Sequence[str]) -> None:
    """Sanity-check port name lists; shared by all element families."""
    for kind, ports in (("input", inputs), ("output", outputs)):
        seen = set()
        for port in ports:
            if not isinstance(port, str) or not port:
                raise PylseError(
                    f"{name}: {kind} port names must be non-empty strings, "
                    f"got {port!r}"
                )
            if port in seen:
                raise PylseError(f"{name}: duplicate {kind} port {port!r}")
            seen.add(port)
    overlap = set(inputs) & set(outputs)
    if overlap:
        raise PylseError(
            f"{name}: ports {sorted(overlap)} are both inputs and outputs"
        )


class InGen(Element):
    """Input generator: produces pulses at fixed, externally specified times.

    Created by :func:`repro.core.helpers.inp_at` and
    :func:`repro.core.helpers.inp`. It has a single output port ``out`` and no
    inputs; the simulator seeds its pulse heap from :attr:`times`.
    """

    name = "InGen"
    inputs: Sequence[str] = ()
    outputs = ("out",)

    def __init__(self, times: Sequence[float]):
        cleaned = []
        for t in times:
            t = float(t)
            if t < 0:
                raise PylseError(f"Input pulse times must be >= 0, got {t}")
            cleaned.append(t)
        self.times: Tuple[float, ...] = tuple(sorted(cleaned))

    def handle_inputs(self, active: Sequence[str], time: float) -> List[Firing]:
        raise PylseError("InGen elements do not accept inputs")

    def __repr__(self) -> str:
        preview = ", ".join(f"{t:g}" for t in self.times[:4])
        suffix = ", ..." if len(self.times) > 4 else ""
        return f"InGen([{preview}{suffix}])"
