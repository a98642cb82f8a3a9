"""The discrete-event simulator (Section 4.3).

``Simulation.simulate`` runs the Network Relation of Figure 6 over the
working circuit (or an explicit one): a priority heap of pending pulses is
drained one simultaneous group at a time; each group is dispatched to its
destination element; newly fired pulses are pushed back onto the heap until
it is empty or the ``until`` target time is reached (needed for circuits
with feedback loops).

The result is the ``events`` dictionary mapping every named wire to the
ordered list of pulse times that appeared on it — the object the paper's
Section 5.2 dynamic-correctness checks are written against.

The inner loop is the hot path behind every workload in this repo (Table 2,
the bitonic scaling study, the Section 5.2 Monte-Carlo sweeps), so
``simulate`` front-loads every decision before draining the heap:

* every node's *dispatch plan entry* — its machine (a ``Transitional``
  cell) or its bound deliver method (any other element), and a
  per-output-port route to ``(event series, destination entry)`` so
  ``emit`` costs one dict probe — is part of the compiled IR
  (:attr:`~repro.core.ir.CompiledCircuit.plan`), built once per circuit
  revision; a run allocates only its event series and activity counters;
* the drain holds every cell's run state — the configuration
  ``<q, tau_done, Theta>`` of Section 3 — in node-indexed lists and steps
  it through the machine's precomputed dispatch table; placed cells are
  immutable, so nothing is reset between runs;
* the heap holds flat primitive tuples (see :mod:`repro.core.events`), not
  ``Pulse`` objects;
* how a firing delay is resolved is settled once per run: a nominal run
  adds scalar delays directly, a variability run calls its counter-noise
  instance's resolver. Tracing and observer bookkeeping
  sit behind one local flag, so the common ``simulate()`` call with no
  noise and no trace pays for none of it;
* splitters and JTLs (pure-delay cells, which have no state to keep)
  fire without a machine step, and on a nominal run that books nothing
  their hops expand at the push instead of passing through the heap,
  with the heap's groups unchanged (see :meth:`Simulation._drain`).

There is one drain loop. Observability (:mod:`repro.obs`) is threaded
through it: pass ``observer=Observer()`` to record pulse provenance (every
pulse's causal parents, back to the circuit inputs) and per-cell metrics.
With no observer and no trace the loop skips all of it behind that flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .circuit import Circuit, working_circuit
from .errors import PylseError, SimulationError
from .events import PulseHeap
from .ir import (
    PLAN_DELIVER, PLAN_HOP, PLAN_INDEX, PLAN_MACHINE, PLAN_NODE, PLAN_ROUTES,
    CompiledCircuit, compile_circuit,
)
from .machine import Configuration
from .node import Node
from .timing import VariabilitySpec

Events = Dict[str, List[float]]


class _Unfoldable(SimulationError):
    """A folded run reached a case only the heap orders exactly; the
    run starts over unfolded."""

    def __init__(self, time: float):
        super().__init__(f"fold left unresolved at t={time:g}")


@dataclass(frozen=True)
class TraceEntry:
    """One dispatch step: a simultaneous pulse group delivered to a node."""

    time: float
    node: str
    cell: str
    ports: Tuple[str, ...]
    state_before: Optional[str]
    state_after: Optional[str]
    fired: Tuple[Tuple[str, float], ...]   # (output port, absolute time)
    #: The group's inputs in the order the machine dispatched them (empty
    #: for holes); seeded runs break priority ties from their counter
    #: stream, so this can differ from ``ports``.
    order: Tuple[str, ...] = ()
    #: Provenance ids of the fired pulses, filled when an observer with
    #: provenance enabled accompanies ``record=True``; empty otherwise.
    fired_pids: Tuple[int, ...] = ()

    def __str__(self) -> str:
        ports = "+".join(self.ports)
        fired = (
            ", ".join(f"{port}@{t:g}" for port, t in self.fired) or "-"
        )
        state = (
            f" [{self.state_before} -> {self.state_after}]"
            if self.state_before is not None
            else ""
        )
        return f"t={self.time:g}: {self.node}({self.cell}) <- {ports}{state} => {fired}"


class Simulation:
    """Discrete-event simulation of a circuit of PyLSE Machines and holes.

    >>> from repro import inp_at, inp, and_s, Simulation
    >>> # ... build circuit ...
    >>> sim = Simulation()
    >>> events = sim.simulate()
    >>> print(sim.plot())           # ASCII waveform  # doctest: +SKIP
    """

    def __init__(self, circuit: Union[Circuit, CompiledCircuit, None] = None):
        if isinstance(circuit, CompiledCircuit):
            # A pre-compiled design (e.g. shipped to a Monte-Carlo worker):
            # simulate against its circuit; compile_circuit() will hit the
            # memoized view instead of recompiling.
            circuit = circuit.circuit
        self.circuit = circuit if circuit is not None else working_circuit()
        self.events: Events = {}
        self.until: Optional[float] = None
        self.pulses_processed: int = 0
        #: node name -> (input pulses consumed, output pulses emitted);
        #: filled during simulate() and consumed by repro.core.energy.
        self.activity: Dict[str, List[int]] = {}
        #: dispatch-level trace, filled when simulate(record=True).
        self.trace: List[TraceEntry] = []
        #: the observer of the last simulate(observer=...) call, if any.
        self.observer = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the last run's artifacts from this simulation.

        Drops the events, trace, activity counters, pulse count and the
        attached observer. The circuit needs no reset: every run's state
        (cell configurations, noise streams, event series) lives in
        ``simulate()``, so each run starts from the initial configuration
        whether or not this is called.
        """
        self.events = {}
        self.until = None
        self.pulses_processed = 0
        self.activity = {}
        self.trace = []
        self.observer = None

    # ------------------------------------------------------------------
    def simulate(
        self,
        until: Optional[float] = None,
        variability: Union[bool, dict, Callable[[float, Node], float]] = False,
        seed: Optional[int] = None,
        record: bool = False,
        max_pulses: Optional[int] = 1_000_000,
        observer=None,
    ) -> Events:
        """Run the circuit until the heap drains or ``until`` is reached.

        ``variability`` adds Gaussian noise to firing delays (Section 5.2):
        ``True`` for all cells, a dict selecting ``cell_types`` /
        ``instances`` and the noise magnitude, or a callable
        ``f(delay, node) -> delay`` for full control. ``seed`` names one
        set of counter streams, from which a run draws its noise, its
        ``Normal`` / ``Uniform`` delay samples and its nondeterministic
        priority tie-breaks: a seeded run equals that seed's lane of a
        batched Monte-Carlo drain, and with variability off it equals
        the seed's run at zero noise. Unseeded, ties fall in input
        declaration order (noisy runs and distribution samples draw
        fresh entropy).
        ``record=True`` keeps a dispatch-level trace in ``self.trace`` (one
        :class:`TraceEntry` per simultaneous pulse group, with machine
        states before/after) — the debugging view of the Network Relation.
        ``max_pulses`` (default one million) guards against unbounded
        feedback loops simulated without an ``until`` horizon; pass None to
        disable. ``observer`` attaches a :class:`repro.obs.Observer` that
        collects pulse provenance and per-cell metrics from the drain;
        timing-violation errors then carry the causal chain of the
        offending pulse group. Every combination of these options runs
        the same drain loop; what differs is settled before it starts.
        """
        circuit = self.circuit
        # Validates the circuit (once per revision) and yields the frozen
        # dispatch topology; repeated simulate() calls hit the memo.
        compiled = compile_circuit(circuit)
        spec = VariabilitySpec.normalize(variability)
        samples = spec.enabled or compiled.has_distributions
        self.until = until
        self.activity = {}
        self.trace = []
        self.observer = observer
        if observer is not None:
            observer.begin(circuit)
        run = (compiled, spec, seed, samples, until, max_pulses, observer,
               record)
        # A run that resolves no delay and books nothing expands pure-delay
        # hops at the push. Where that could order or count anything
        # differently (an error, an overflow, a float sum that does not
        # advance), the run starts over unfolded and its outcome stands.
        if (compiled.plan.folds and not samples and not record
                and observer is None):
            try:
                return self._run(*run, fold=True)
            except SimulationError:
                pass
        return self._run(*run, fold=False)

    def _run(
        self,
        compiled: CompiledCircuit,
        spec: VariabilitySpec,
        seed: Optional[int],
        samples: bool,
        until: Optional[float],
        max_pulses: Optional[int],
        observer,
        record: bool,
        fold: bool,
    ) -> Events:
        """One run from the initial configuration: allocate its state,
        seed the heap with the input schedules and drain it."""
        plan = compiled.plan
        entries = plan.entries

        # The run's own state: one series per distinct wire label (wires
        # sharing an observation label share it; insertion order is the
        # wires' elaboration order) and per-node activity counters.
        series = [[] for _ in plan.series_labels]
        events: Events = dict(zip(plan.series_labels, series))
        size = len(entries)
        pulses_in = [0] * size
        pulses_out = [0] * size

        # A run that perturbs or samples delays resolves them through
        # counter-based per-(seed, node) streams, and a seeded or noisy run
        # draws its ties there: the width-1 form of the vectorized
        # Monte-Carlo drain, bit-identical to one lane of a batched pass
        # over the same seed. Otherwise the drain adds constant delays
        # inline and breaks ties in declaration order.
        resolve = tie_source = None
        if samples or seed is not None:
            from .batchsim import CounterNoise

            counter = CounterNoise.for_run(
                seed, spec.applies_by_node(compiled), spec, compiled.nodes
            )
            if samples:
                resolve = counter.resolver(compiled.has_distributions)
            if spec.enabled or seed is not None:
                tie_source = counter.tie_rng

        heap = PulseHeap()
        push = heap.push_raw
        self.pulses_processed = 0

        for i in compiled.input_ids:
            node = entries[i][PLAN_NODE]
            (slot, _d, dkey, drec, dport, label), = (
                entries[i][PLAN_ROUTES].values()
            )
            out = series[slot]
            times = node.element.times  # type: ignore[attr-defined]
            out.extend(times)
            if drec is None:
                if observer is not None:
                    for t in times:
                        observer.on_input(node.name, label, t, -1, "")
                continue
            for t in times:
                push(t, dkey, drec, dport)
                if observer is not None:
                    observer.on_input(node.name, label, t, dkey, dport)

        try:
            self._drain(
                heap, series, pulses_in, pulses_out, until, max_pulses,
                observer, record, resolve, tie_source, fold,
            )
        finally:
            self.activity = {
                entries[i][PLAN_NODE].name: [pulses_in[i], pulses_out[i]]
                for i in compiled.cell_ids
            }
            if observer is not None:
                observer.end(heap.max_depth, self.pulses_processed)

        for out in series:
            out.sort()
        self.events = events
        return events

    # ------------------------------------------------------------------
    def _drain(
        self,
        heap: PulseHeap,
        series: List[List[float]],
        pulses_in: List[int],
        pulses_out: List[int],
        until: Optional[float],
        max_pulses: Optional[int],
        observer,
        record: bool,
        resolve: Optional[Callable[[object, int], float]],
        tie_source: Optional[Callable[[int], object]],
        fold: bool = False,
    ) -> None:
        """Drain the heap: pop a simultaneous group, dispatch it, push.

        Every cell's configuration ``<q, tau_done, Theta>`` lives here, in
        lists indexed by the dense node index, created on the node's first
        dispatch. Heap payloads are plan entries; emitted pulses join the
        run's ``series`` and the node's ``pulses_in``/``pulses_out``
        counters advance per group. A group steps it through the machine's
        precomputed dispatch table; a timing violation re-raises through
        :meth:`PylseMachine.step`, so the error messages are the formal
        semantics' own, and simultaneous inputs are ordered by
        :meth:`PylseMachine.choose` with the node's tie-break chooser,
        ``tie_source(index)`` (its counter stream), or in declaration order
        when ``tie_source`` is None.

        A pure-delay cell has no configuration: unless the run books, a
        popped pulse fires the cell's fold record directly. With ``fold``
        (a run that resolves no delay and books nothing), a pulse that a
        machine fires after a fixed delay (``PylseMachine.fixed_delays``)
        into a pure-delay cell does not enter the heap either: the cell
        fires in place, hop by hop with the same float sums, and only the
        first consumer that is not such a cell gets a push. That keeps
        every group the heap would form:

        * each folded hop lands strictly later than the dispatch feeding
          it, so its pushes precede every pop at their instant, as the
          hop's own pop would (a sum that does not advance raises, and
          the run starts over unfolded);
        * a cell's arrivals come in nondecreasing time order (its one
          feeder fires the port after one constant delay, and pops come
          in time order), so ``last[j]`` collapses a second pulse at one
          instant as :meth:`PulseHeap.pop_simultaneous` would;
        * a hop folds only up to ``until``, and ``max_pulses`` is checked
          at every hop; a run past the limit raises, and the run starts
          over unfolded.

        With ``resolve`` None every delay is a constant, added directly (it
        was validated non-negative when the machine / hole was built);
        otherwise ``resolve(delay, index)`` (the run's
        :meth:`CounterNoise.resolver`) draws its noise and samples.
        The observer hooks and the ``record=True`` trace share one
        local flag checked per group and per firing, so a plain run pays
        for neither. ``until`` and ``max_pulses`` are normalized to
        infinities, which saves two None-checks per iteration. The pulse
        count and heap high-water mark are written back on every exit, the
        error paths included.
        """
        pending = heap._heap
        pop = heap.pop_simultaneous
        push = heap.push_raw
        stop = math.inf if until is None else until
        limit = math.inf if max_pulses is None else max_pulses
        observe = observer is not None
        book = observe or record
        trace = self.trace
        size = len(pulses_in)
        state: List[Optional[str]] = [None] * size
        tau_done: List[float] = [0.0] * size
        theta: List[Optional[Dict[str, float]]] = [None] * size
        ties: list = [None] * size
        # Per pure-delay cell: the time of its last folded dispatch.
        last: List[Optional[float]] = [None] * size
        # The group's (input, transition label) steps, for the observer
        # and the trace.
        taken: Optional[List[Tuple[str, str]]] = None
        processed = 0
        # Heap high-water mark, sampled at the top of each iteration (i.e.
        # after the previous group's pushes) so an unobserved run pays
        # nothing per push.
        max_depth = len(pending) if observe else 0

        def expand(t: float, rec: tuple, processed: int) -> int:
            """Fire the pure-delay cell of ``rec`` reached at ``t``, and
            every one it leads to; returns the new pulse count."""
            stack = [(t, rec)]
            while stack:
                t, rec = stack.pop()
                j = rec[PLAN_INDEX]
                if last[j] == t:
                    continue
                if processed >= limit:
                    self._overflow(max_pulses, t)
                processed += 1
                last[j] = t
                hop = rec[PLAN_HOP]
                pulses_in[j] += 1
                pulses_out[j] += len(hop)
                for delay, slot, dkey, drec, dport in hop:
                    t2 = t + delay
                    series[slot].append(t2)
                    if drec is not None:
                        if t2 <= t:
                            raise _Unfoldable(t)
                        if drec[PLAN_HOP] is not None and t2 <= stop:
                            stack.append((t2, drec))
                        else:
                            push(t2, dkey, drec, dport)
            return processed

        try:
            while pending:
                if observe:
                    depth = len(pending)
                    if depth > max_depth:
                        max_depth = depth
                rec, ports, time = pop()
                if time > stop:
                    break
                if processed >= limit:
                    self._overflow(max_pulses, time)
                processed += len(ports)
                index = rec[PLAN_INDEX]
                hop = None if book else rec[PLAN_HOP]
                if hop is not None:
                    # A pure-delay cell: one input, so one port.
                    pulses_in[index] += 1
                    pulses_out[index] += len(hop)
                    for delay, slot, dkey, drec, dport in hop:
                        if resolve is not None:
                            delay = resolve(delay, index)
                        t = time + delay
                        series[slot].append(t)
                        if drec is not None:
                            if (fold and drec[PLAN_HOP] is not None
                                    and t <= stop):
                                if t <= time:
                                    raise _Unfoldable(time)
                                processed = expand(t, drec, processed)
                            else:
                                push(t, dkey, drec, dport)
                    continue
                machine = rec[PLAN_MACHINE]
                if machine is not None:
                    st = state[index]
                    if st is None:
                        st = machine.initial
                        th = theta[index] = machine._init_theta.copy()
                    else:
                        th = theta[index]
                    td = tau_done[index]
                if book:
                    node = rec[PLAN_NODE]
                    element = node.element
                    state_before = st if machine is not None else None
                    parents = (
                        observer.group_parents(node.node_id, ports, time)
                        if observe else ()
                    )
                    emitted = []
                    taken = []
                try:
                    if machine is None:
                        firings = rec[PLAN_DELIVER](ports, time)
                    else:
                        fast = machine._fast
                        if len(ports) == 1:
                            symbol = ports[0]
                            remaining = None
                        else:
                            remaining = set(ports)
                            firings = []
                        while True:
                            if remaining is not None:
                                if len(remaining) == 1:
                                    symbol = remaining.pop()
                                else:
                                    tie = ties[index]
                                    if tie is None and tie_source is not None:
                                        tie = ties[index] = tie_source(index)
                                    symbol = machine.choose(
                                        st, frozenset(remaining), tie
                                    )
                                    remaining.discard(symbol)
                            entry = fast.get((st, symbol))
                            if entry is None:
                                machine.delta(st, symbol)  # raises
                            dest, transition_time, fired, constraints, _t, tlabel = entry
                            if time < td:
                                machine.step(Configuration(st, td, th), symbol, time)
                            for constrained, tau_dist in constraints:
                                if time < th[constrained] + tau_dist:
                                    machine.step(
                                        Configuration(st, td, th), symbol, time
                                    )
                            if taken is not None:
                                taken.append((symbol, tlabel))
                            th[symbol] = time
                            st = dest
                            td = transition_time + time
                            if remaining is None:
                                firings = fired
                                break
                            firings.extend(fired)
                            if not remaining:
                                break
                        state[index] = st
                        tau_done[index] = td
                except SimulationError as err:
                    chain = (
                        observer.on_violation(
                            node.name, element.name, ports, time, parents, err
                        )
                        if observe else None
                    )
                    self._dispatch_error(rec[PLAN_NODE], ports, err, chain)
                pulses_in[index] += len(ports)
                pulses_out[index] += len(firings)
                routes = rec[PLAN_ROUTES]
                for out_port, delay in firings:
                    if resolve is not None:
                        delay = resolve(delay, index)
                    t = time + delay
                    slot, _d, dkey, drec, dport, label = routes[out_port]
                    series[slot].append(t)
                    if drec is not None:
                        if (fold and drec[PLAN_HOP] is not None
                                and out_port in machine.fixed_delays
                                and t <= stop):
                            if t <= time:
                                raise _Unfoldable(time)
                            processed = expand(t, drec, processed)
                        else:
                            push(t, dkey, drec, dport)
                    if book:
                        emitted.append(
                            (out_port, label, t, delay, dkey, dport,
                             drec is not None)
                        )
                if book:
                    pids = None
                    if observe:
                        pids = observer.record_group(
                            node.name, element.name, ports, time,
                            tuple(step[1] for step in taken), emitted,
                            parents,
                        )
                    if record:
                        trace.append(
                            TraceEntry(
                                time=time,
                                node=node.name,
                                cell=element.name,
                                ports=tuple(ports),
                                state_before=state_before,
                                state_after=(
                                    st if machine is not None else None
                                ),
                                fired=tuple((e[0], e[2]) for e in emitted),
                                order=tuple(step[0] for step in taken),
                                fired_pids=tuple(pids) if pids else (),
                            )
                        )
            if fold and processed > limit:
                # The heap might have dispatched its last group past the
                # limit (the folded order ends elsewhere): let it decide.
                raise _Unfoldable(math.inf)
        finally:
            self.pulses_processed = processed
            heap.max_depth = max_depth

    # ------------------------------------------------------------------
    def _overflow(self, max_pulses: int, time: float) -> None:
        raise SimulationError(
            f"Simulation exceeded {max_pulses} pulses at t={time:g} "
            "without draining; a feedback loop probably needs an "
            "'until' horizon (or raise max_pulses)"
        )

    def _dispatch_error(
        self,
        node: Node,
        ports: Sequence[str],
        err: SimulationError,
        chain: Optional[str] = None,
    ) -> None:
        """Re-raise a dispatch failure with node/port context attached.

        The raised error names the node on its ``node`` attribute. When an
        observer recorded provenance, ``chain`` is the causal chain of the
        offending pulse group; it is appended to the message and kept on
        the raised error's ``provenance`` attribute.
        """
        first_out = next(iter(node.output_wires.values()), None)
        where = f"'{first_out.name}'" if first_out is not None else "(no output)"
        inputs = ", ".join(f"'{p}'" for p in ports)
        message = (
            f"Error while sending input(s) {inputs} to the node with output "
            f"wire {where}:\n{err}"
        )
        if chain is not None:
            message += f"\nCausal chain:\n{chain}"
        wrapped = type(err)(message)
        wrapped.provenance = chain
        wrapped.node = node.name
        raise wrapped from None

    # ------------------------------------------------------------------
    def render_trace(self, provenance: bool = False) -> str:
        """The recorded dispatch trace as text (one line per group).

        With ``provenance=True`` (requires ``simulate(record=True,
        observer=Observer())``), each fired pulse is followed by its full
        causal chain back to the circuit inputs.
        """
        if not self.trace:
            raise PylseError(
                "No trace recorded: run simulate(record=True) first"
            )
        if not provenance:
            return "\n".join(str(entry) for entry in self.trace)
        graph = self.observer.graph if self.observer is not None else None
        if graph is None:
            raise PylseError(
                "render_trace(provenance=True) needs simulate(record=True, "
                "observer=Observer()) with provenance enabled"
            )
        from ..obs.provenance import format_chain

        lines = []
        for entry in self.trace:
            lines.append(str(entry))
            for pid in entry.fired_pids:
                lines.append(format_chain(graph, pid, indent="    "))
        return "\n".join(lines)

    def render_chain(self, label: str, occurrence: int = -1) -> str:
        """Causal chain of the n-th pulse on a wire (default: the last).

        Requires the previous ``simulate()`` call to have run with an
        observer collecting provenance.
        """
        if self.observer is None or self.observer.graph is None:
            raise PylseError(
                "No provenance recorded: run simulate(observer=Observer()) "
                "first"
            )
        return self.observer.chain(label, occurrence)

    def plot(self, width: int = 72, file=None) -> str:
        """Render the last simulation's pulses as an ASCII waveform.

        Each named wire gets a row; ``|`` marks a pulse. The rendering is
        returned and also printed to ``file`` (stdout by default) to match
        the paper's ``sim.plot()`` usage. (The paper uses matplotlib — see
        DESIGN.md; an optional matplotlib backend is used if importable.)
        """
        if not self.events:
            raise PylseError("Nothing to plot: run simulate() first")
        rendering = render_waveforms(self.events, width=width)
        print(rendering, file=file)
        self._try_matplotlib()
        return rendering

    def _try_matplotlib(self) -> None:
        try:
            from . import plot as _plot
        except ImportError:
            return
        try:
            _plot.matplotlib_plot(self.events)
        except ImportError:
            # matplotlib itself is an optional dependency; anything else
            # (a genuine plotting bug) propagates to the caller.
            return


def render_waveforms(events: Events, width: int = 72) -> str:
    """Draw pulse trains as fixed-width ASCII art.

    Each wire is one row; ``|`` marks a pulse, positioned proportionally to
    its time within the simulation span, with the pulse times listed after.
    """
    max_time = max((ts[-1] for ts in events.values() if ts), default=0.0)
    span = max(max_time, 1e-9)
    name_width = max((len(k) for k in events), default=4)
    lines = []
    for name, times in events.items():
        row = ["_"] * width
        for t in times:
            col = min(width - 1, int(t / span * (width - 1)))
            row[col] = "|"
        stamps = ", ".join(f"{t:g}" for t in times[:8])
        if len(times) > 8:
            stamps += ", ..."
        count = f"{len(times)} pulse{'s' if len(times) != 1 else ''}"
        detail = f" ({count}: {stamps})" if times else " (no pulses)"
        lines.append(f"{name:<{name_width}} {''.join(row)}{detail}")
    return "\n".join(lines)
