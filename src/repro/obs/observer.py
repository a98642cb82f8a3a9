"""The ``Observer``: the opt-in hook object the simulator drains into.

Attach one via ``Simulation.simulate(observer=Observer())`` and the drain
loop reports every circuit-input pulse, dispatch group, fired pulse, and
timing violation to it. The observer composes the two collection
back-ends:

* :class:`~repro.obs.provenance.ProvenanceGraph` — the causal DAG of
  pulses (``provenance=True``);
* :class:`~repro.obs.metrics.SimMetrics` — per-cell counters and delay
  histograms (``metrics=True``).

Either can be switched off independently; Monte-Carlo sweeps, for
example, collect metrics only (the graph grows with pulse count).

``Simulation._drain`` calls the hooks at the same points — same hooks,
same order, same arguments — with or without variability or a recorded
trace, so a plain and a ``record=True`` run of the same stimulus build
identical provenance graphs and metrics (property-tested in
``tests/test_differential.py`` against a frozen copy of the former
nominal loop).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.errors import PylseError
from .metrics import DEFAULT_BIN_WIDTH, SimMetrics
from .provenance import (
    INPUT_CELL,
    ProvenanceGraph,
    format_chain,
    format_group_chain,
)

#: An emitted firing as reported by the drain loop:
#: (output port, wire label, absolute time, resolved delay,
#:  dest node id, dest port, pushed-to-heap flag).
EmitRecord = Tuple[str, str, float, float, int, str, bool]


class Observer:
    """Collects provenance and/or metrics from one or more simulations.

    An observer may be reused across ``simulate()`` calls; counters and
    the graph keep accumulating (``metrics.runs`` counts the calls).
    Create a fresh observer per run when per-run numbers are wanted.
    """

    def __init__(
        self,
        provenance: bool = True,
        metrics: bool = True,
        delay_bin_width: float = DEFAULT_BIN_WIDTH,
    ):
        if not provenance and not metrics:
            raise PylseError(
                "Observer with provenance=False and metrics=False would "
                "observe nothing; enable at least one collector"
            )
        self.graph: Optional[ProvenanceGraph] = (
            ProvenanceGraph() if provenance else None
        )
        self.metrics: Optional[SimMetrics] = (
            SimMetrics(delay_bin_width) if metrics else None
        )
        self._runs_seen = 0

    # ------------------------------------------------------------------
    # hooks called by the simulation drain loop
    # ------------------------------------------------------------------
    def begin(self, circuit) -> None:
        """Called once at ``simulate()`` start, before the heap is seeded."""
        self._runs_seen += 1
        if self.metrics is not None and self._runs_seen > 1:
            self.metrics.runs += 1

    def on_input(
        self, node_name: str, label: str, time: float, key: int, port: str
    ) -> None:
        """A circuit-input pulse was seeded (``key == -1``: no consumer)."""
        if self.metrics is not None:
            self.metrics.input_pulses += 1
        graph = self.graph
        if graph is not None:
            pid = graph.new_pulse(label, time, node_name, INPUT_CELL, "out")
            if key >= 0:
                graph.register_pending(key, port, time, pid)

    def group_parents(
        self, key: int, ports: Sequence[str], time: float
    ) -> Tuple[int, ...]:
        """Resolve a popped group to the pids it consumes (pre-dispatch)."""
        if self.graph is None:
            return ()
        return self.graph.take_parents(key, ports, time)

    def record_group(
        self,
        node_name: str,
        cell_name: str,
        ports: Sequence[str],
        time: float,
        tlabels: Tuple[str, ...],
        emitted: List[EmitRecord],
        parents: Tuple[int, ...],
    ) -> Optional[List[int]]:
        """A dispatch group completed, firing ``emitted`` pulses.

        Returns the provenance ids of the fired pulses (after duplicate
        collapse) when provenance is enabled, else None.
        """
        metrics = self.metrics
        if metrics is not None:
            cell = metrics.cell(node_name, cell_name)
            cell.groups += 1
            cell.pulses_in += len(ports)
            cell.pulses_out += len(emitted)
            metrics.groups += 1
            transitions = cell.transitions
            for label in tlabels:
                transitions[label] = transitions.get(label, 0) + 1
            delays = cell.delays
            for _port, _label, _t, delay, _key, _dport, _pushed in emitted:
                delays.add(delay)
        graph = self.graph
        if graph is None:
            return None
        pids: List[int] = []
        for out_port, label, t, _delay, key, dport, pushed in emitted:
            pid = graph.new_pulse(
                label, t, node_name, cell_name, out_port, parents, tlabels
            )
            if pushed:
                pid = graph.register_pending(key, dport, t, pid)
            pids.append(pid)
        return pids

    def on_violation(
        self,
        node_name: str,
        cell_name: str,
        ports: Sequence[str],
        time: float,
        parents: Tuple[int, ...],
        err: Exception,
    ) -> Optional[str]:
        """Dispatch raised; returns the group's causal chain (or None)."""
        metrics = self.metrics
        if metrics is not None:
            cell = metrics.cell(node_name, cell_name)
            # The failed group is counted so violation rates have a
            # denominator; Simulation.activity, by contrast, only counts
            # groups that dispatched successfully.
            cell.groups += 1
            cell.pulses_in += len(ports)
            cell.violations += 1
            metrics.groups += 1
        if self.graph is None:
            return None
        return format_group_chain(
            self.graph, node_name, cell_name, tuple(ports), time, parents
        )

    def end(self, max_heap_depth: int, pulses_processed: int) -> None:
        """Called (also on the error path) when the drain finishes."""
        if self.metrics is not None:
            self.metrics.max_heap_depth = max(
                self.metrics.max_heap_depth, max_heap_depth
            )
            self.metrics.pulses_processed += pulses_processed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def chain(self, label: str, occurrence: int = -1) -> str:
        """Causal chain of the n-th pulse on a wire (default: the last)."""
        if self.graph is None:
            raise PylseError(
                "This observer was created with provenance=False; "
                "no causal chains were recorded"
            )
        return format_chain(self.graph, self.graph.pulse_at(label, occurrence))
