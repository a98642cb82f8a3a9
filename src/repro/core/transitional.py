"""The Cell Definition level: ``Transitional`` elements (Section 4.1).

An SCE cell is modeled as a class implementing :class:`Transitional`, giving
input/output names and a list of transitions as class attributes. Each
transition is a Python dictionary matching Figure 4's anatomy::

    {'src': 'idle', 'trigger': 'clk', 'dst': 'idle',
     'transition_time': 3.0,               # tau_tran (hold time)
     'firing': 'q',                        # outputs emitted (tau_fire below)
     'past_constraints': {'*': 2.8},       # tau_dist (setup time)
     'priority': 0}                        # optional; defaults to list order

``trigger`` may be a single input or a list of inputs (expanded into one
transition each). ``firing`` may be an output name, a list of names (delays
taken from the cell's ``firing_delay``), or a dict mapping outputs to
explicit delays. ``past_constraints`` may be a number (meaning ``'*'``) or a
dict keyed by input names and/or ``'*'``.

Parsing performs the Section 4.2 well-formedness checks and builds an
immutable :class:`~repro.core.machine.PylseMachine`, once per class and set
of overrides. A placed instance holds no run state: the simulator keeps each
cell's configuration ``<q, tau_done, Theta>`` and steps it through the
machine.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .element import Element, check_ports
from .errors import WellFormednessError
from .machine import PylseMachine, Transition
from .timing import DelayLike

_TRANSITION_FIELDS = {
    "src",
    "source",
    "trigger",
    "dst",
    "dest",
    "transition_time",
    "firing",
    "past_constraints",
    "priority",
}

RawTransition = Mapping[str, object]
FiringDelaySpec = Union[DelayLike, Mapping[str, DelayLike], None]


def _resolve_firing(
    cls_name: str,
    index: int,
    firing: object,
    outputs: Sequence[str],
    firing_delay: FiringDelaySpec,
) -> Dict[str, DelayLike]:
    """Normalize a transition's ``firing`` field into ``{output: delay}``."""

    def default_delay(out: str) -> DelayLike:
        if firing_delay is None:
            raise WellFormednessError(
                f"{cls_name}: transition {index} fires {out!r} but the cell "
                "defines no 'firing_delay' and the transition gives no "
                "explicit delay"
            )
        if isinstance(firing_delay, Mapping):
            try:
                return firing_delay[out]
            except KeyError:
                raise WellFormednessError(
                    f"{cls_name}: 'firing_delay' dict has no entry for output "
                    f"{out!r}"
                ) from None
        return firing_delay

    if firing is None:
        return {}
    if isinstance(firing, str):
        return {firing: default_delay(firing)}
    if isinstance(firing, Mapping):
        return dict(firing)
    if isinstance(firing, (list, tuple, set, frozenset)):
        result: Dict[str, DelayLike] = {}
        for out in firing:
            if not isinstance(out, str):
                raise WellFormednessError(
                    f"{cls_name}: transition {index} 'firing' list must contain "
                    f"output names, got {out!r}"
                )
            result[out] = default_delay(out)
        return result
    raise WellFormednessError(
        f"{cls_name}: transition {index} has invalid 'firing' value {firing!r}; "
        "expected an output name, list of names, or dict of name -> delay"
    )


def _resolve_past_constraints(
    cls_name: str, index: int, constraints: object
) -> Dict[str, float]:
    if constraints is None:
        return {}
    if isinstance(constraints, (int, float)):
        return {"*": float(constraints)}
    if isinstance(constraints, Mapping):
        result = {}
        for sym, dist in constraints.items():
            if not isinstance(sym, str):
                raise WellFormednessError(
                    f"{cls_name}: transition {index} 'past_constraints' keys must "
                    f"be input names or '*', got {sym!r}"
                )
            if not isinstance(dist, (int, float)):
                raise WellFormednessError(
                    f"{cls_name}: transition {index} 'past_constraints' value for "
                    f"{sym!r} must be a number, got {dist!r}"
                )
            result[sym] = float(dist)
        return result
    raise WellFormednessError(
        f"{cls_name}: transition {index} has invalid 'past_constraints' "
        f"{constraints!r}; expected a number or a dict"
    )


def _is_time(value: object) -> bool:
    """Whether ``value`` is a finite real number (a bool is not)."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def parse_transitions(
    cls_name: str,
    outputs: Sequence[str],
    raw_transitions: Sequence[RawTransition],
    firing_delay: FiringDelaySpec = None,
    transition_time_overrides: Optional[Mapping[Tuple[str, str], float]] = None,
) -> List[Transition]:
    """Expand and normalize the user's transition dictionaries.

    Returns the flat list of :class:`Transition` objects ready to build a
    :class:`PylseMachine`. ``transition_time_overrides`` maps
    ``(src, trigger)`` pairs to replacement transition times (the
    per-instance override mechanism of Section 4.1).
    """
    if not isinstance(raw_transitions, (list, tuple)):
        raise WellFormednessError(
            f"{cls_name}: 'transitions' must be a list of dicts"
        )
    if not isinstance(transition_time_overrides, (Mapping, type(None))):
        raise WellFormednessError(
            f"{cls_name}: 'transition_time' overrides must be a dict of "
            f"(src, trigger) -> time, got {transition_time_overrides!r}"
        )
    overrides = dict(transition_time_overrides or {})
    for key, value in overrides.items():
        if not _is_time(value):
            raise WellFormednessError(
                f"{cls_name}: 'transition_time' override for {key!r} must be "
                f"a finite number, got {value!r}"
            )
    parsed: List[Transition] = []
    for raw_index, raw in enumerate(raw_transitions):
        if not isinstance(raw, Mapping):
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} must be a dict, got "
                f"{type(raw).__name__}"
            )
        unknown = set(raw) - _TRANSITION_FIELDS
        if unknown:
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} has unrecognized field(s) "
                f"{sorted(unknown)}; recognized fields are "
                f"{sorted(_TRANSITION_FIELDS)}"
            )
        if "src" in raw and "source" in raw or "dst" in raw and "dest" in raw:
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} gives both long and short "
                "forms of src/dst"
            )
        src = raw.get("src", raw.get("source"))
        dst = raw.get("dst", raw.get("dest"))
        trigger = raw.get("trigger")
        if not isinstance(src, str) or not isinstance(dst, str):
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} needs string 'src' and 'dst'"
            )
        if trigger is None:
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} is missing its 'trigger'"
            )
        triggers = [trigger] if isinstance(trigger, str) else list(trigger)
        if not triggers:
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} has an empty trigger list"
            )
        priority = raw.get("priority", raw_index)
        if not isinstance(priority, int) or priority < 0:
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} priority must be a "
                f"non-negative integer, got {priority!r}"
            )
        transition_time = raw.get("transition_time", 0.0)
        if not _is_time(transition_time):
            raise WellFormednessError(
                f"{cls_name}: transition {raw_index} 'transition_time' must be a "
                f"finite number, got {transition_time!r}"
            )
        firing = _resolve_firing(
            cls_name, raw_index, raw.get("firing"), outputs, firing_delay
        )
        constraints = _resolve_past_constraints(
            cls_name, raw_index, raw.get("past_constraints")
        )
        for trig in triggers:
            if not isinstance(trig, str):
                raise WellFormednessError(
                    f"{cls_name}: transition {raw_index} trigger list must "
                    f"contain input names, got {trig!r}"
                )
            tt = overrides.get((src, trig), float(transition_time))
            parsed.append(
                Transition(
                    id=len(parsed),
                    source=src,
                    trigger=trig,
                    dest=dst,
                    priority=priority,
                    transition_time=tt,
                    firing=firing,
                    past_constraints=constraints,
                )
            )
    pairs = {(t.source, t.trigger) for t in parsed}
    for key, value in overrides.items():
        if key not in pairs:
            raise WellFormednessError(
                f"{cls_name}: 'transition_time' override {key!r}: {value!r} "
                "names no (src, trigger) pair of a transition"
            )
    return parsed


def _freeze(owner: str, option: str, value: object) -> object:
    """A hashable stand-in for an override value.

    Mappings become sorted item tuples; every other value is tagged with
    its type, so ``2`` and ``2.0`` (equal, and equal in hash) key distinct
    machines. Every valid override (numbers, ``Normal``, ``Uniform`` and
    dicts of them) can be keyed, so a value that cannot is rejected here,
    naming ``owner`` and the ``option`` it was passed as.
    """
    try:
        if isinstance(value, Mapping):
            return tuple(sorted(
                (k, _freeze(owner, option, v)) for k, v in value.items()
            ))
        hash(value)
    except TypeError:
        raise WellFormednessError(
            f"{owner}: invalid {option} value {value!r}"
        ) from None
    return (type(value), value)


class Transitional(Element):
    """Base class for cells defined as PyLSE Machines.

    Subclasses set class attributes ``name``, ``inputs``, ``outputs``, and
    ``transitions`` (the raw dict form above), plus optionally
    ``firing_delay``. A placed instance is an immutable (class, overrides)
    value around a shared, validated :class:`PylseMachine`, built once per
    distinct set of overrides; the run state ``<q, tau_done, Theta>``
    lives in the simulator, never on the instance.

    Per-instance keyword overrides (Section 4.1, Full-Circuit level):

    * ``firing_delay=`` — number, ``Normal``, ``Uniform``, or
      ``{output: delay}`` dict;
    * ``transition_time=`` — ``{(src, trigger): time}`` dict;
    * ``name_override=`` — a different cell-type label for this instance
      (and its machine, which error messages name).
    """

    #: Required class attributes (checked on the first machine build).
    name: str
    inputs: Sequence[str]
    outputs: Sequence[str]
    transitions: Sequence[RawTransition]
    firing_delay: FiringDelaySpec = None

    _machines: Dict[tuple, PylseMachine]

    def __init__(
        self,
        firing_delay: FiringDelaySpec = None,
        transition_time: Optional[Mapping[Tuple[str, str], float]] = None,
        name_override: Optional[str] = None,
        **extra,
    ):
        if extra:
            raise WellFormednessError(
                f"{type(self).__name__}: unknown instantiation option(s) "
                f"{sorted(extra)}"
            )
        self.machine = self._class_machine(
            name_override, firing_delay, transition_time
        )
        if name_override is not None:
            self.name = name_override
        #: Creation-time overrides, kept verbatim for serialization.
        self.overrides: Dict[str, object] = {}
        if firing_delay is not None:
            self.overrides["firing_delay"] = firing_delay
        if transition_time is not None:
            self.overrides["transition_time"] = dict(transition_time)
        if name_override is not None:
            self.overrides["name_override"] = name_override

    # ------------------------------------------------------------------
    # machine construction
    # ------------------------------------------------------------------
    @classmethod
    def _check_class_attrs(cls) -> None:
        for attr in ("name", "inputs", "outputs", "transitions"):
            if getattr(cls, attr, None) is None:
                raise WellFormednessError(
                    f"{cls.__name__}: Transitional subclasses must define "
                    f"the {attr!r} class attribute"
                )

    @classmethod
    def _class_machine(
        cls,
        name_override: Optional[str] = None,
        firing_delay: FiringDelaySpec = None,
        transition_time: Optional[Mapping[Tuple[str, str], float]] = None,
    ) -> PylseMachine:
        """The validated machine for this class under the given overrides.

        Built, with the class-attribute and port checks, once per
        ``(class, name_override, firing_delay, transition_time)`` and kept
        in the class's own ``_machines`` dict (subclasses get their own).
        """
        machines = cls.__dict__.get("_machines")
        if machines is None:
            machines = cls._machines = {}
        # None (no override) keys as itself: _freeze never returns None.
        owner = cls.__name__
        key = (
            name_override,
            None if firing_delay is None
            else _freeze(owner, "firing_delay", firing_delay),
            None if transition_time is None
            else _freeze(owner, "transition_time", transition_time),
        )
        machine = machines.get(key)
        if machine is None:
            cls._check_class_attrs()
            name = cls.name if name_override is None else name_override
            check_ports(name, cls.inputs, cls.outputs)
            machine = PylseMachine(
                name=name,
                inputs=cls.inputs,
                outputs=cls.outputs,
                transitions=parse_transitions(
                    cls.__name__,
                    cls.outputs,
                    cls.transitions,
                    cls.firing_delay if firing_delay is None else firing_delay,
                    transition_time,
                ),
            )
            machines[key] = machine
        return machine

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
