"""The Hole Description level: ``Functional`` elements (Section 4.1).

Holes wrap pure Python in a pulse-communicating interface so abstract
behavioral models can be mixed with transition-based cells ("fostering agile
development"). A hole does *not* follow the formal semantics of Section 3 —
it is called whenever pulses arrive, with a ``1`` for each input port that
pulsed at that instant, a ``0`` for the others, and the current time as the
final argument. Truthy return values produce output pulses after the hole's
firing delay.

Two entry points:

* subclass :class:`Functional`, or
* decorate a plain function with :func:`hole` (Figure 9's memory example).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from .circuit import working_circuit
from .element import Element, Firing, check_ports
from .errors import HoleError
from .timing import DelayLike, nominal_delay
from .wire import Wire

HoleFn = Callable[..., object]
DelaySpec = Union[DelayLike, Mapping[str, DelayLike]]


class Functional(Element):
    """A non-transition-based element driven by a Python callable.

    Parameters mirror the paper: a callable mapping time-tagged input pulses
    to output pulses, the input and output port names, and the firing delay
    for each output (a single value or an ``{output: delay}`` dict).
    """

    def __init__(
        self,
        func: HoleFn,
        inputs: Sequence[str],
        outputs: Sequence[str],
        delay: DelaySpec,
        name: Optional[str] = None,
    ):
        if not callable(func):
            raise HoleError(f"Functional element needs a callable, got {func!r}")
        if not outputs:
            raise HoleError("Functional element must declare at least one output")
        self.func = func
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.name = name or getattr(func, "__name__", "hole")
        check_ports(self.name, self.inputs, self.outputs)
        self.delays: Dict[str, DelayLike] = self._normalize_delays(delay)

    def _normalize_delays(self, delay: DelaySpec) -> Dict[str, DelayLike]:
        if isinstance(delay, Mapping):
            missing = set(self.outputs) - set(delay)
            if missing:
                raise HoleError(
                    f"{self.name}: delay dict is missing output(s) {sorted(missing)}"
                )
            extra = set(delay) - set(self.outputs)
            if extra:
                raise HoleError(
                    f"{self.name}: delay dict names unknown output(s) {sorted(extra)}"
                )
            delays = dict(delay)
        else:
            delays = {out: delay for out in self.outputs}
        for out, d in delays.items():
            nominal_delay(d, f"{self.name}: output {out!r}")
        return delays

    def handle_inputs(self, active: Sequence[str], time: float) -> List[Firing]:
        args = [1 if port in active else 0 for port in self.inputs]
        result = self.func(*args, time)
        values = self._normalize_result(result)
        return [
            (out, nominal_delay(self.delays[out]))
            for out, value in zip(self.outputs, values)
            if value
        ]

    def raw_firings(self, active: Sequence[str], time: float):
        """Same as handle_inputs but keeps distribution-valued delays."""
        args = [1 if port in active else 0 for port in self.inputs]
        result = self.func(*args, time)
        values = self._normalize_result(result)
        return [
            (out, self.delays[out])
            for out, value in zip(self.outputs, values)
            if value
        ]

    def _normalize_result(self, result: object) -> Sequence[object]:
        if result is None:
            return [0] * len(self.outputs)
        if isinstance(result, (list, tuple)):
            if len(result) != len(self.outputs):
                raise HoleError(
                    f"{self.name}: hole returned {len(result)} value(s) but has "
                    f"{len(self.outputs)} output(s)"
                )
            return result
        if len(self.outputs) != 1:
            raise HoleError(
                f"{self.name}: hole returned a single value but has "
                f"{len(self.outputs)} outputs; return a sequence"
            )
        return [result]

    def __repr__(self) -> str:
        return f"Functional({self.name!r})"


def hole(
    delay: DelaySpec,
    inputs: Sequence[str],
    outputs: Sequence[str],
    name: Optional[str] = None,
) -> Callable[[HoleFn], Callable[..., object]]:
    """Decorator turning a Python function into an instantiable hole.

    The decorated function, when called with input :class:`Wire` objects,
    places a fresh :class:`Functional` node in the working circuit and
    returns its output wire(s) — one wire if there is a single output, a
    tuple otherwise::

        @hole(delay=5.0, inputs=['a', 'b'], outputs=['q'])
        def or_model(a, b, time):
            return a or b

        q = or_model(w1, w2)
    """

    def decorate(func: HoleFn) -> Callable[..., object]:
        def instantiate(*wires: Wire, **overrides):
            if len(wires) != len(inputs):
                raise HoleError(
                    f"{func.__name__}: expected {len(inputs)} input wire(s), "
                    f"got {len(wires)}"
                )
            for w in wires:
                if not isinstance(w, Wire):
                    raise HoleError(
                        f"{func.__name__}: inputs must be Wire objects, got {w!r}"
                    )
            element = Functional(
                func,
                inputs,
                outputs,
                overrides.pop("delay", delay),
                name=name or func.__name__,
            )
            out_names = overrides.pop("names", None)
            if overrides:
                raise HoleError(
                    f"{func.__name__}: unknown option(s) {sorted(overrides)}"
                )
            if out_names is None:
                out_wires = [Wire() for _ in outputs]
            else:
                out_names = (
                    out_names.split() if isinstance(out_names, str) else list(out_names)
                )
                if len(out_names) != len(outputs):
                    raise HoleError(
                        f"{func.__name__}: expected {len(outputs)} output name(s)"
                    )
                out_wires = [Wire(n) for n in out_names]
            working_circuit().add_node(element, list(wires), out_wires)
            if len(out_wires) == 1:
                return out_wires[0]
            return tuple(out_wires)

        instantiate.__name__ = func.__name__
        instantiate.__doc__ = func.__doc__
        instantiate.hole_func = func
        instantiate.hole_inputs = tuple(inputs)
        instantiate.hole_outputs = tuple(outputs)
        return instantiate

    return decorate
