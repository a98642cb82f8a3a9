"""Exception hierarchy for the PyLSE reproduction.

All library errors derive from :class:`PylseError` so user code can catch a
single class, mirroring ``pylse.pylse_exceptions.PylseError`` in the paper
(Figure 13).
"""

from __future__ import annotations


class PylseError(Exception):
    """Base class for every error raised by this library."""


class WellFormednessError(PylseError):
    """A cell definition is not a well-formed transition system.

    Raised at class-definition or instantiation time by the Cell Definition
    level checks of Section 4.2: unrecognized field names, references to
    unknown triggers or outputs, a missing ``idle`` start state, incomplete
    specification of transitions, or a cell that never fires an output.
    """


class FanoutError(PylseError):
    """A wire is used as an input to more than one element.

    In SCE, outputs cannot be shared directly; a splitter cell must be used
    (Section 4.2, Circuit Design level checks).
    """


class WireError(PylseError):
    """A wire is used incorrectly (double-driven, dangling, renamed, ...)."""


class SimulationError(PylseError):
    """Generic runtime failure inside the discrete-event simulator.

    When a simulation runs with an observer attached
    (:mod:`repro.obs`), dispatch failures carry the causal chain of the
    offending pulse group — every ancestor pulse back to the circuit
    inputs — in :attr:`provenance` (and appended to the message), turning
    the paper's Figure 13 "what violated" report into a "why" report.
    """

    #: Rendered causal chain of the pulse group that triggered the error,
    #: or None when no observer was attached.
    provenance = None

    #: Name of the node whose dispatch raised the error, or None when the
    #: error was not raised while dispatching to a node.
    node = None


class TransitionTimeViolation(SimulationError):
    """An input pulse arrived while the machine was still transitioning.

    This is the Error-kappa-Tran rule of Figure 6: an input arrived at a time
    ``tau_arr < tau_done``, i.e. during the unstable period modeling the cell's
    hold time.
    """


class PriorInputViolation(SimulationError):
    """A past constraint (setup time) was violated.

    This is the Error-kappa-Cons rule of Figure 6: some input was seen more
    recently than the transition's ``past_constraints`` allow.
    """


class HoleError(PylseError):
    """A Functional ("hole") element was defined or invoked incorrectly."""


class UnconnectedInputError(PylseError):
    """An element input port has no wire driving it at simulation time."""
