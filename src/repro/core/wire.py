"""Wires: the stateless connections between PyLSE elements.

In SFQ logic, wires are stateless and gates stateful (Figure 1b of the
paper); a wire simply carries transient pulses from exactly one producer to
at most one consumer. Enforcing single-consumer is the circuit-level fanout
check of Section 4.2 and is done by :mod:`repro.core.circuit`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .errors import WireError


class Wire:
    """A named, single-driver, single-reader pulse-carrying wire.

    Wires are given automatically generated names (``_0``, ``_1``, ...) when
    created anonymously; :func:`repro.core.helpers.inspect` or the ``name=``
    argument of the cell helper functions attach a user-visible name. The
    simulation's ``events`` mapping is keyed by these names.

    Anonymous names are provisional until the wire attaches to a circuit:
    :meth:`repro.core.circuit.Circuit._adopt_wire` re-assigns them from a
    *per-circuit* counter, so a circuit's ``_k`` names depend only on its
    own construction order — not on how many wires other circuits in the
    process created before (which used to leak through this class-global
    counter into goldens and serialized forms).
    """

    #: Fallback counter for wires that never join a circuit.
    _name_counter = itertools.count()

    __slots__ = ("name", "observed_as", "_user_named", "_circuit")

    def __init__(self, name: Optional[str] = None):
        if name is not None and not isinstance(name, str):
            raise WireError(f"Wire name must be a string, got {type(name).__name__}")
        if name is not None and name == "":
            raise WireError("Wire name must be a non-empty string")
        self._user_named = name is not None
        self.name = name if name is not None else f"_{next(Wire._name_counter)}"
        #: Alias set via inspect(); falls back to the wire's own name.
        self.observed_as: str = self.name
        #: The circuit this wire is registered with (set by Circuit.add_node)
        #: so observe() can reject duplicate user-visible names immediately.
        self._circuit = None

    @property
    def is_user_named(self) -> bool:
        """True if the wire was explicitly named by the user."""
        return self._user_named

    def observe(self, name: str) -> "Wire":
        """Attach a user-visible name for observation during simulation.

        If the wire already belongs to a circuit and ``name`` collides with
        another wire's user-visible name there, this raises
        :class:`~repro.core.errors.WireError` at the call site instead of
        deferring the ambiguity to :meth:`Circuit.validate`.
        """
        if not name or not isinstance(name, str):
            raise WireError(f"Observation name must be a non-empty string, got {name!r}")
        if self._user_named and self.observed_as == name:
            # Already observed under this name: nothing changes, so the
            # circuit keeps its version and its compiled IR.
            return self
        if self._circuit is not None:
            self._circuit._rename_wire(self, name)
        self.observed_as = name
        self._user_named = True
        return self

    def __repr__(self) -> str:
        if self.observed_as != self.name:
            return f"Wire({self.name!r} as {self.observed_as!r})"
        return f"Wire({self.name!r})"

    @classmethod
    def _reset_names(cls) -> None:
        """Restart automatic wire naming (used when resetting the workspace)."""
        cls._name_counter = itertools.count()
