"""The PyLSE Machine: Mealy machines with timed, prioritized transitions.

This module is a direct implementation of Section 3 of the paper:

* :class:`Transition` — one edge with its Trigger (input, priority,
  transition time), Firing Outputs (output -> firing delay), and Past
  Constraints (input-or-``'*'`` -> minimum distance);
* :class:`PylseMachine` — the tuple ``M = <Q, q_init, Sigma, Lambda, delta,
  mu, theta>`` of Definition 3.1;
* :class:`Configuration` — ``kappa = <q, tau_done, Theta>``;
* :meth:`PylseMachine.step` — the Transition Relation (rules Normal-kappa,
  Error-kappa Tran and Error-kappa Cons of Figure 6);
* :meth:`PylseMachine.dispatch` — the Dispatch Relation (simultaneous inputs
  handled in priority order);
* :meth:`PylseMachine.trace` — the Trace Relation (folding dispatch over an
  input sequence and accumulating outputs).

The machine itself is purely functional: ``step`` and friends take and return
configurations, never mutating shared state. A cell placed in a circuit
(:class:`repro.core.transitional.Transitional`) holds only its machine; the
simulator keeps each cell's configuration and steps it through the
precomputed dispatch table ``_fast``, re-raising violations through
:meth:`PylseMachine.step`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    PriorInputViolation,
    PylseError,
    TransitionTimeViolation,
    WellFormednessError,
)
from .timing import DelayLike, Distribution, nominal_delay

#: Wildcard symbol in past constraints: "any input".
WILDCARD = "*"


def expand_constraints(
    transition: "Transition", inputs: Sequence[str]
) -> Iterable[Tuple[str, float]]:
    """Expand a transition's past constraints over the wildcard.

    An explicit per-input constraint overrides the wildcard for that input.
    Shared by the simulator (:meth:`PylseMachine.step`) and the static
    analyzer (:mod:`repro.lint`), which also works on transition lists that
    never passed machine validation.
    """
    constraints = transition.past_constraints
    if WILDCARD in constraints:
        star = constraints[WILDCARD]
        for sym in inputs:
            yield sym, constraints.get(sym, star)
    else:
        for sym, dist in constraints.items():
            yield sym, dist


@dataclass(frozen=True)
class Transition:
    """A fully normalized PyLSE Machine edge (Figure 4).

    ``firing`` maps each output emitted by this edge to its firing delay
    (``tau_fire``). ``past_constraints`` maps each constrained input (or the
    wildcard ``'*'``) to the minimum time (``tau_dist``) that must have
    elapsed since that input was last seen.
    """

    id: int
    source: str
    trigger: str
    dest: str
    priority: int
    transition_time: float = 0.0
    firing: Mapping[str, DelayLike] = field(default_factory=dict)
    past_constraints: Mapping[str, float] = field(default_factory=dict)

    def is_self_loop(self) -> bool:
        return self.source == self.dest

    @property
    def label(self) -> str:
        """Canonical transition name, e.g. ``idle--clk->a_and_b``.

        ``delta`` is a function, so ``(source, trigger)`` — and therefore the
        label — is unique within a machine. The observability layer
        (:mod:`repro.obs`) keys per-cell transition counters by this name.
        """
        return f"{self.source}--{self.trigger}->{self.dest}"

    def __str__(self) -> str:
        fire = ",".join(self.firing) or "{}"
        return (
            f"{self.source} --{self.trigger}[p{self.priority}, "
            f"tt={self.transition_time:g}]/{fire}--> {self.dest}"
        )


@dataclass(frozen=True)
class Configuration:
    """``kappa = <q, tau_done, Theta>`` from Section 3.1.

    ``tau_done`` is the end of the unstable (transitioning) period; ``theta``
    maps each input symbol to the last time it was seen (``-inf`` initially).
    """

    state: str
    tau_done: float
    theta: Mapping[str, float]

    def last_seen(self, symbol: str) -> float:
        return self.theta[symbol]


class PylseMachine:
    """``M = <Q, q_init, Sigma, Lambda, delta, mu, theta>`` (Definition 3.1).

    Construction validates well-formedness per Section 4.2:

    * transitions reference only declared states, inputs, and outputs;
    * the machine is *fully specified*: for every state, every input has an
      edge (``delta`` is a total function);
    * at least one transition fires an output;
    * the initial state exists (conventionally ``idle``).
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        transitions: Sequence[Transition],
        initial: str = "idle",
    ):
        self.name = name
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self.transitions: Tuple[Transition, ...] = tuple(transitions)
        self.initial = initial
        self.states: Tuple[str, ...] = self._collect_states()
        self._delta: Dict[Tuple[str, str], Transition] = {}
        self._validate()
        # Precomputed per-edge dispatch entries for the simulator hot loop:
        # (dest, transition_time, firing items, expanded past constraints,
        # transition, transition label). Wildcard constraints are expanded
        # here, once, instead of per step; the label rides along so the
        # observability layer never recomputes names in the inner loop.
        self._fast: Dict[
            Tuple[str, str],
            Tuple[str, float, Tuple[Tuple[str, DelayLike], ...],
                  Tuple[Tuple[str, float], ...], Transition, str],
        ] = {
            key: (
                t.dest,
                t.transition_time,
                tuple(t.firing.items()),
                tuple(self._constraint_items(t)),
                t,
                t.label,
            )
            for key, t in self._delta.items()
        }
        #: Whether some firing delay is a ``Normal`` or ``Uniform``, which a
        #: run samples from its counter streams.
        self.has_distributions: bool = any(
            isinstance(d, Distribution)
            for t in self.transitions for d in t.firing.values()
        )
        #: Output -> the delay it fires after, for each output that every
        #: transition firing it fires after the same constant > 0.
        #: (Listed in the first transition's firing order, then the rest.)
        first = self.transitions[0]
        self.fixed_delays: Dict[str, DelayLike] = {}
        for out in dict.fromkeys(chain(first.firing, self.outputs)):
            delays = [t.firing[out] for t in self.transitions if out in t.firing]
            if delays and all(
                not isinstance(d, Distribution) and d > 0 and d == delays[0]
                for d in delays
            ):
                self.fixed_delays[out] = delays[0]
        #: Whether the machine only delays and fans out its input: one
        #: input, one self-loop transition with no transition time and no
        #: past constraint, firing every output after a constant > 0. Its
        #: firings are then ``fixed_delays``, in firing order.
        self.pure_delay: bool = (
            len(self.inputs) == 1
            and len(self.transitions) == 1
            and first.is_self_loop()
            and first.transition_time == 0
            and not first.past_constraints
            and all(out in self.fixed_delays for out in first.firing)
        )
        #: theta template for initial configurations (copied, never mutated).
        self._init_theta: Dict[str, float] = {
            sym: -math.inf for sym in self.inputs
        }

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _collect_states(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for t in self.transitions:
            for state in (t.source, t.dest):
                if state not in seen:
                    seen.append(state)
        return tuple(seen)

    def _validate(self) -> None:
        if not self.inputs:
            raise WellFormednessError(f"{self.name}: machine has no inputs")
        if not self.transitions:
            raise WellFormednessError(f"{self.name}: machine has no transitions")
        if self.initial not in self.states:
            raise WellFormednessError(
                f"{self.name}: initial state {self.initial!r} does not appear in any "
                f"transition (states: {sorted(self.states)})"
            )
        input_set = set(self.inputs)
        output_set = set(self.outputs)
        fires_something = False
        for t in self.transitions:
            if t.trigger not in input_set:
                raise WellFormednessError(
                    f"{self.name}: transition {t.id} triggered by unknown input "
                    f"{t.trigger!r} (inputs: {sorted(input_set)})"
                )
            for out in t.firing:
                if out not in output_set:
                    raise WellFormednessError(
                        f"{self.name}: transition {t.id} fires unknown output "
                        f"{out!r} (outputs: {sorted(output_set)})"
                    )
                nominal_delay(
                    t.firing[out], f"{self.name}: transition {t.id} output {out!r}"
                )
            for sym, dist in t.past_constraints.items():
                if sym != WILDCARD and sym not in input_set:
                    raise WellFormednessError(
                        f"{self.name}: transition {t.id} constrains unknown input "
                        f"{sym!r} (use inputs or '*')"
                    )
                if dist < 0 or math.isnan(dist) or math.isinf(dist):
                    raise WellFormednessError(
                        f"{self.name}: transition {t.id} has invalid past-constraint "
                        f"time {dist!r} for {sym!r}"
                    )
            if t.transition_time < 0:
                raise WellFormednessError(
                    f"{self.name}: transition {t.id} has negative transition time "
                    f"{t.transition_time}"
                )
            if t.firing:
                fires_something = True
            key = (t.source, t.trigger)
            if key in self._delta:
                raise WellFormednessError(
                    f"{self.name}: transitions {self._delta[key].id} and {t.id} both "
                    f"leave state {t.source!r} on input {t.trigger!r}; delta must be "
                    "a function (use priorities on distinct triggers instead)"
                )
            self._delta[key] = t
        if not fires_something:
            raise WellFormednessError(
                f"{self.name}: no transition ever fires an output"
            )
        missing = [
            (state, sym)
            for state in self.states
            for sym in self.inputs
            if (state, sym) not in self._delta
        ]
        if missing:
            pretty = ", ".join(f"({s!r}, {i!r})" for s, i in missing[:8])
            more = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
            raise WellFormednessError(
                f"{self.name}: machine is not fully specified; missing transitions "
                f"for {pretty}{more}"
            )

    # ------------------------------------------------------------------
    # semantics (Figure 6)
    # ------------------------------------------------------------------
    def initial_configuration(self) -> Configuration:
        """``kappa_init = <q_init, 0, {sigma -> -inf}>``."""
        return Configuration(
            state=self.initial,
            tau_done=0.0,
            theta=self._init_theta.copy(),
        )

    def delta(self, state: str, symbol: str) -> Transition:
        """The transition function; total by construction."""
        try:
            return self._delta[(state, symbol)]
        except KeyError:
            raise PylseError(
                f"{self.name}: no transition from {state!r} on {symbol!r}"
            ) from None

    def step(
        self, config: Configuration, symbol: str, tau_arr: float
    ) -> Tuple[Configuration, List[Tuple[str, DelayLike]]]:
        """The Transition Relation: one input pulse at time ``tau_arr``.

        Implements Normal-kappa on success; raises
        :class:`TransitionTimeViolation` (Error-kappa Tran) or
        :class:`PriorInputViolation` (Error-kappa Cons) when the pulse's
        timing is illegal — the simulation-level rendering of entering
        ``q_err``.

        Returns the successor configuration and the fired outputs as
        ``(output, firing delay)`` pairs; the caller turns delays into
        absolute pulse times.
        """
        transition = self.delta(config.state, symbol)
        if tau_arr < config.tau_done:
            raise TransitionTimeViolation(
                f"Transition time violation on FSM '{self.name}'. "
                f"Input '{symbol}' arrived at {tau_arr} while the machine was "
                f"still transitioning into state '{config.state}' (stable at "
                f"{config.tau_done}); pulses are illegal during the "
                f"'transition_time' window."
            )
        for constrained, tau_dist in self._constraint_items(transition):
            last = config.theta[constrained]
            if tau_arr < last + tau_dist:
                too_soon = last + tau_dist - tau_arr
                raise PriorInputViolation(
                    f"Prior input violation on FSM '{self.name}'. A constraint on "
                    f"transition '{transition.id}', triggered at time {tau_arr}, "
                    f"given via the 'past_constraints' field says it is an error "
                    f"to trigger this transition if input '{constrained}' was seen "
                    f"as recently as {tau_dist} time units ago. It was last seen "
                    f"at {last}, which is {too_soon} time units too soon."
                )
        next_config = Configuration(
            state=transition.dest,
            tau_done=transition.transition_time + tau_arr,
            theta={**config.theta, symbol: tau_arr},
        )
        return next_config, list(transition.firing.items())

    def _constraint_items(
        self, transition: Transition
    ) -> Iterable[Tuple[str, float]]:
        """Expand a transition's past constraints over the wildcard."""
        return expand_constraints(transition, self.inputs)

    def choose(
        self,
        state: str,
        symbols: FrozenSet[str] | Iterable[str],
        rng: Optional[random.Random] = None,
    ) -> str:
        """Pick the next symbol to dispatch from a simultaneous set.

        This is the ``argmin`` over transition priorities in the Dispatch
        Relation. Ties are broken nondeterministically in the formal
        semantics; here, a seeded ``rng`` reproduces that, and without one
        the tie-break is deterministic (input declaration order) so
        simulations are repeatable.
        """
        candidates = sorted(
            symbols, key=lambda sym: self.inputs.index(sym)
        )
        if not candidates:
            raise PylseError(f"{self.name}: dispatch called with no inputs")
        best = min(self.delta(state, sym).priority for sym in candidates)
        tied = [sym for sym in candidates if self.delta(state, sym).priority == best]
        if rng is not None and len(tied) > 1:
            return rng.choice(tied)
        return tied[0]

    def dispatch(
        self,
        config: Configuration,
        symbols: Iterable[str],
        tau_arr: float,
        rng: Optional[random.Random] = None,
    ) -> Tuple[Configuration, List[Tuple[str, float]]]:
        """The Dispatch + Trace relations for one simultaneous input set.

        Processes every symbol in ``symbols`` (all arriving at ``tau_arr``)
        in priority order, accumulating outputs as ``(output, absolute pulse
        time)`` pairs using the nominal firing delays.
        """
        remaining = set(symbols)
        unknown = remaining - set(self.inputs)
        if unknown:
            raise PylseError(
                f"{self.name}: dispatch got unknown input(s) {sorted(unknown)}"
            )
        outs: List[Tuple[str, float]] = []
        while remaining:
            symbol = self.choose(config.state, frozenset(remaining), rng)
            remaining.discard(symbol)
            config, fired = self.step(config, symbol, tau_arr)
            outs.extend(
                (out, tau_arr + nominal_delay(delay)) for out, delay in fired
            )
        return config, outs

    def trace(
        self,
        pulses: Iterable[Tuple[str, float]],
        rng: Optional[random.Random] = None,
    ) -> List[Tuple[str, float]]:
        """Run the machine over a full input sequence from its initial
        configuration, returning all ``(output, time)`` firings.

        ``pulses`` is an iterable of ``(input symbol, arrival time)``; pulses
        sharing an arrival time are grouped into one simultaneous set, per
        the Trace Relation.
        """
        ordered = sorted(pulses, key=lambda p: p[1])
        config = self.initial_configuration()
        outs: List[Tuple[str, float]] = []
        index = 0
        while index < len(ordered):
            tau_arr = ordered[index][1]
            group = set()
            while index < len(ordered) and ordered[index][1] == tau_arr:
                group.add(ordered[index][0])
                index += 1
            config, fired = self.dispatch(config, group, tau_arr, rng)
            outs.extend(fired)
        return sorted(outs, key=lambda p: p[1])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def transitions_from(self, state: str) -> List[Transition]:
        return [t for t in self.transitions if t.source == state]

    def reachable_states(self) -> FrozenSet[str]:
        """States reachable from the initial state via any input sequence.

        A fully-specified machine may still contain unreachable states (no
        path of transitions leads there from ``q_init``); the static
        analyzer (:mod:`repro.lint`, rule PL101) reports them.
        """
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            state = stack.pop()
            for sym in self.inputs:
                dest = self._delta[(state, sym)].dest
                if dest not in seen:
                    seen.add(dest)
                    stack.append(dest)
        return frozenset(seen)

    def __repr__(self) -> str:
        return (
            f"PylseMachine({self.name!r}, {len(self.states)} states, "
            f"{len(self.transitions)} transitions)"
        )
