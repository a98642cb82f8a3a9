"""Differential harness: the drain loop against a frozen nominal oracle.

``FrozenFastSimulation`` below overrides ``Simulation._drain`` with a
test-local copy of the former no-variability, no-trace loop whose cells
step through the formal semantics itself: ``PylseMachine.choose`` orders
a simultaneous group and ``PylseMachine.step`` folds it over immutable
``Configuration`` values, kept per node in a dict. It shares no step code
with the production drain's dispatch-table fast path. The properties lock
the production drain to it on random circuits (from the generator in
``tests/test_random_circuits.py``, variability off), both as a plain run
and with ``record=True`` trace bookkeeping on: identical event
dictionaries, identical provenance graphs, identical metrics — node for
node, pulse for pulse, parent for parent.

Any drift (a hook called in a different order, a different grouping of
simultaneous pulses, a missed duplicate collapse) shows up as a
JSON-payload mismatch here.
"""

import json
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batchsim import run_batch
from repro.core.circuit import fresh_circuit
from repro.core.errors import (
    PriorInputViolation,
    SimulationError,
    TransitionTimeViolation,
)
from repro.core.helpers import inp, inp_at
from repro.core.montecarlo import measure_yield
from repro.core.parallel import default_engine
from repro.core.ir import (
    PLAN_DELIVER,
    PLAN_INDEX,
    PLAN_MACHINE,
    PLAN_NODE,
    PLAN_ROUTES,
)
from repro.core.simulation import Simulation
from repro.designs import bitonic_sorter
from repro.obs import Observer
from repro.sfq import jtl

from test_parallel import minmax_factory, minmax_ok
from test_random_circuits import build_random_circuit


def oracle_dispatch(machine, config, ports, time, rng):
    """The Dispatch relation over immutable configurations.

    Returns the successor configuration, the fired ``(output, delay)``
    pairs and the labels of the taken transitions, in dispatch order.
    """
    remaining = set(ports)
    fired, labels = [], []
    while remaining:
        symbol = machine.choose(config.state, frozenset(remaining), rng)
        remaining.discard(symbol)
        labels.append(machine.delta(config.state, symbol).label)
        config, outs = machine.step(config, symbol, time)
        fired.extend(outs)
    return config, fired, labels


class FrozenFastSimulation(Simulation):
    """``Simulation`` whose drain is the frozen nominal oracle loop.

    Only nominal, unrecorded runs are in its domain; it must not change
    with the production drain it checks.
    """

    def _drain(self, heap, series, pulses_in, pulses_out, until,
               max_pulses, observer, record, resolve, tie_source,
               fold=False):
        # ``fold`` is ignored: the oracle dispatches every pulse from the
        # heap, so it is also the unfolded reference for folded runs.
        assert not record, "oracle covers unrecorded runs"
        self.oracle_drained = True
        configs = {}

        def deliver(rec, ports, time):
            machine = rec[PLAN_MACHINE]
            if machine is None:
                return rec[PLAN_DELIVER](ports, time), ()
            index = rec[PLAN_INDEX]
            config = configs.get(index) or machine.initial_configuration()
            configs[index], firings, labels = oracle_dispatch(
                machine, config, ports, time,
                tie_source(index) if tie_source is not None else None,
            )
            return firings, tuple(labels)

        pending = heap._heap
        pop = heap.pop_simultaneous
        push = heap.push_raw
        stop = math.inf if until is None else until
        limit = math.inf if max_pulses is None else max_pulses
        observe = observer is not None
        processed = self.pulses_processed
        max_depth = len(pending) if observe else 0
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
            if observe:
                node = rec[PLAN_NODE]
                parents = observer.group_parents(node.node_id, ports, time)
                try:
                    firings, tlabels = deliver(rec, ports, time)
                except SimulationError as err:
                    self.pulses_processed = processed
                    heap.max_depth = max_depth
                    chain = observer.on_violation(
                        node.name, node.element.name, ports, time, parents, err
                    )
                    self._dispatch_error(node, ports, err, chain)
            else:
                try:
                    firings, tlabels = deliver(rec, ports, time)
                except SimulationError as err:
                    self.pulses_processed = processed
                    self._dispatch_error(rec[PLAN_NODE], ports, err)
            index = rec[PLAN_INDEX]
            pulses_in[index] += len(ports)
            pulses_out[index] += len(firings)
            routes = rec[PLAN_ROUTES]
            if observe:
                emitted = []
                for out_port, delay in firings:
                    if resolve is not None:
                        delay = resolve(delay, index)
                    t = time + delay
                    slot, _d, dkey, drec, dport, label = routes[out_port]
                    series[slot].append(t)
                    pushed = drec is not None
                    if pushed:
                        push(t, dkey, drec, dport)
                    emitted.append(
                        (out_port, label, t, delay, dkey, dport, pushed)
                    )
                observer.record_group(
                    node.name, node.element.name, ports, time, tlabels,
                    emitted, parents,
                )
            else:
                for out_port, delay in firings:
                    if resolve is not None:
                        delay = resolve(delay, index)
                    t = time + delay
                    slot, _d, dkey, drec, dport, _label = routes[out_port]
                    series[slot].append(t)
                    if drec is not None:
                        push(t, dkey, drec, dport)
        heap.max_depth = max_depth
        self.pulses_processed = processed


def run_oracle(circuit):
    """The frozen nominal loop, observer attached."""
    observer = Observer()
    sim = FrozenFastSimulation(circuit)
    events = sim.simulate(observer=observer)
    assert sim.oracle_drained, "simulate() bypassed the oracle drain"
    return events, observer


def run_drain(circuit, record):
    """The production drain, observer attached, trace on or off."""
    observer = Observer()
    events = Simulation(circuit).simulate(record=record, observer=observer)
    return events, observer


def runs_under_test(circuit):
    """The drain as a plain run and as a record=True run."""
    return [run_drain(circuit, record) for record in (False, True)]


class TestDrainLoopsAgree:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_events_and_provenance_identical(self, seed, n_inputs, n_cells):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        ref_events, ref_obs = run_oracle(circuit)
        for events, obs in runs_under_test(circuit):
            assert events == ref_events
            assert obs.graph.to_jsonable() == ref_obs.graph.to_jsonable()

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 5),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_metrics_identical(self, seed, n_inputs, n_cells):
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        _, ref_obs = run_oracle(circuit)
        for _, obs in runs_under_test(circuit):
            assert obs.metrics.to_jsonable() == ref_obs.metrics.to_jsonable()

    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_chains_of_every_output_identical(self, seed, n_inputs, n_cells):
        """Rendered causal chains agree wire-by-wire, pulse-by-pulse."""
        circuit = build_random_circuit(seed, n_inputs, n_cells)
        _, ref_obs = run_oracle(circuit)
        labels = sorted(ref_obs.graph.by_label)
        for _, obs in runs_under_test(circuit):
            assert sorted(obs.graph.by_label) == labels
            for label in labels:
                ref_pids = ref_obs.graph.pulses_on(label)
                assert len(obs.graph.pulses_on(label)) == len(ref_pids)
                for occurrence in range(len(ref_pids)):
                    assert obs.chain(label, occurrence) == ref_obs.chain(
                        label, occurrence
                    )

    def test_violations_identical(self):
        """Inputs a few ps apart land inside setup and hold windows.

        Both drains must then stop at the same pulse group with the same
        error and causal chain, or agree on every event when the circuit
        survives. The count guard keeps the case seeing violations of
        both kinds: a drain that skips the past-constraint check, or that
        never updates Theta, passes the widely spaced circuits above.
        """
        kinds = ("dro", "dro", "m", "s", "jtl")   # DRO: setup and hold
        raised = {PriorInputViolation: 0, TransitionTimeViolation: 0}
        for seed in range(80):
            circuit = build_random_circuit(
                seed, n_inputs=3 + seed % 3, n_cells=4 + seed % 7,
                kinds=kinds, spacing=0.3 * (seed % 7),
            )
            outcomes = []
            for run in (run_oracle, partial(run_drain, record=False),
                        partial(run_drain, record=True)):
                try:
                    events, obs = run(circuit)
                except SimulationError as err:
                    outcomes.append((type(err), str(err), err.provenance))
                else:
                    outcomes.append((
                        events, obs.graph.to_jsonable(),
                        obs.metrics.to_jsonable(),
                    ))
            assert outcomes[1] == outcomes[0], seed
            assert outcomes[2] == outcomes[0], seed
            if isinstance(outcomes[0][0], type):
                raised[outcomes[0][0]] += 1
        assert min(raised.values()) >= 5, raised

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_provenance_graph_covers_all_events(self, seed):
        """Every pulse instant on every wire has a provenance record.

        Counts can differ: two pulses fired onto the same wire at the
        same instant (e.g. a merger dispatched on both inputs at once)
        both land in the event series, but collapse into one delivered
        pulse in the heap — and the provenance graph mirrors what the
        simulator delivers, merging the duplicates' parents.
        """
        circuit = build_random_circuit(seed, n_inputs=3, n_cells=8)
        events, observer = run_drain(circuit, record=False)
        graph = observer.graph
        for label, times in events.items():
            pids = graph.pulses_on(label)
            recorded = [graph.record(p).time for p in pids]
            assert sorted(set(recorded)) == sorted(set(times))
            assert len(recorded) <= len(times)


class TestEngineMatchesSequential:
    """The pooled YieldEngine against the sequential reference path.

    A ``batch`` width below the seed count puts ``workers=2`` on the pool
    of the cached default engine, so every example reuses the same warm
    pool and worker-resident circuits — precisely the state-carryover
    surface a per-seed bug would hide in.
    """

    @given(
        sigma=st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        start=st.integers(0, 500),
        n_seeds=st.integers(2, 16),
    )
    @settings(max_examples=8, deadline=None)
    def test_outcomes_identical(self, sigma, start, n_seeds):
        seeds = range(start, start + n_seeds)
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds, workers=1
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            workers=2, batch=0,
        )
        assert default_engine(2).last_backend == "pool"
        assert pooled == sequential
        assert list(pooled.failures.items()) == list(
            sequential.failures.items()
        )

    @given(
        sigma=st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
        n_seeds=st.integers(2, 12),
    )
    @settings(max_examples=8, deadline=None)
    def test_stats_identical(self, sigma, n_seeds):
        sequential = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=range(n_seeds),
            workers=1, collect_stats=True,
        )
        pooled = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=range(n_seeds),
            workers=2, batch=n_seeds - 1, collect_stats=True,
        )
        assert default_engine(2).last_backend == "pool"
        assert (
            pooled.stats.to_jsonable() == sequential.stats.to_jsonable()
        )


def _capturing(store):
    """Predicate that records the exact event dict it judged.

    ``json.dumps`` with sorted keys is a bit-exact float serialization,
    so any per-seed timestamp drift between the two drains flips the
    comparison below.
    """

    def predicate(events):
        store.append(json.dumps(events, sort_keys=True))
        return True

    return predicate


class TestBatchedMatchesSequential:
    """The vectorized batched drain against the per-seed reference.

    ``batch=0`` draws the same counter-stream noise one seed at a
    time; the batched drain (any lane width) must match element-wise:
    same outcomes in the same order, same failures dict, the same event
    dictionaries, and bit-identical aggregated stats — including when
    lanes diverge and are replayed. Event dicts are compared as a
    multiset because predicate call order may interleave batched and
    replayed lanes.
    """

    @given(
        circuit_seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 10),
        sigma=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        n_seeds=st.integers(1, 24),
        width=st.sampled_from([None, 1, 3, 17]),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_events_and_outcomes_identical(
        self, circuit_seed, n_inputs, n_cells, sigma, n_seeds, width
    ):
        def factory():
            return build_random_circuit(circuit_seed, n_inputs, n_cells)

        reference_events, batched_events = [], []
        reference = measure_yield(
            factory, _capturing(reference_events), sigma,
            seeds=range(n_seeds), batch=0,
        )
        batched = measure_yield(
            factory, _capturing(batched_events), sigma,
            seeds=range(n_seeds), batch=width,
        )
        assert batched == reference  # outcome tallies + failures by seed
        assert list(batched.failures.items()) == list(
            reference.failures.items()
        )
        assert sorted(batched_events) == sorted(reference_events)

    @given(
        sigma=st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
        start=st.integers(0, 500),
        n_seeds=st.integers(1, 20),
        width=st.sampled_from([None, 1, 3, 17]),
    )
    @settings(max_examples=12, deadline=None)
    def test_stats_identical(self, sigma, start, n_seeds, width):
        seeds = range(start, start + n_seeds)
        reference = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            collect_stats=True, batch=0,
        )
        batched = measure_yield(
            minmax_factory, minmax_ok, sigma=sigma, seeds=seeds,
            collect_stats=True, batch=width,
        )
        assert batched == reference
        assert batched.stats.to_jsonable() == reference.stats.to_jsonable()

    def test_forced_divergence_still_identical(self):
        """At sigma far past the reorder threshold most lanes diverge;
        the replays must still reproduce the reference exactly."""
        seeds = range(120)
        reference = measure_yield(
            minmax_factory, minmax_ok, sigma=40.0, seeds=seeds, batch=0,
        )
        batched = measure_yield(
            minmax_factory, minmax_ok, sigma=40.0, seeds=seeds,
        )
        assert batched == reference
        assert list(batched.failures.items()) == list(
            reference.failures.items()
        )
        assert batched.fallback_seeds       # divergence actually happened
        assert sum(batched.divergence.values()) == len(
            batched.fallback_seeds
        )
        assert batched.batched_lanes + len(batched.fallback_seeds) == 120


def bitonic4_factory():
    with fresh_circuit() as circuit:
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate((40, 10, 30, 20))]
        bitonic_sorter(ins, output_names=[f"o{k}" for k in range(4)])
    return circuit


class TestPlainSimulateIsBatchLane:
    """A plain ``simulate(variability={"stddev": s}, seed=k)`` equals lane
    k of a batched drain, event for event and bit for bit: no option
    chooses the noise, every noisy run draws from the counter streams."""

    @pytest.mark.parametrize("factory,sigma", [
        (minmax_factory, 1.0), (bitonic4_factory, 0.5),
    ])
    def test_events_identical(self, factory, sigma):
        _assert_lanes_are_plain_runs(factory, sigma, range(32))

    @pytest.mark.parametrize("n_seeds", [300, 7])
    def test_refill_heavy_lanes_stay_batched(self, n_seeds):
        """Twenty pulses through four JTLs draw twenty normals per node, so
        every stream refills past its pass-start block. 300 seeds run a
        full 256-lane batch and a 44-lane tail; no lane diverges."""

        def factory():
            with fresh_circuit() as circuit:
                jtl(jtl(jtl(jtl(inp(start=10, period=30, n=20)))))
            return circuit

        _assert_lanes_are_plain_runs(factory, 0.8, range(n_seeds))


def _assert_lanes_are_plain_runs(factory, sigma, seeds):
    """Every seed stays batched, and its lane's events are JSON-identical
    to a plain noisy ``simulate()`` of that seed."""
    batched = []
    _outcomes, _stats, report = run_batch(
        Simulation(factory()), _capturing(batched), sigma, seeds
    )
    assert report.batched_lanes == len(seeds)
    direct = [
        json.dumps(
            Simulation(factory()).simulate(
                variability={"stddev": sigma}, seed=seed
            ),
            sort_keys=True,
        )
        for seed in seeds
    ]
    assert batched == direct
