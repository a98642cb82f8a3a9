"""Tests for the observability layer (repro.obs).

Covers the tentpole acceptance story: the paper's Figure 13 timing
violation, simulated with an observer attached, reports the full causal
chain of the offending pulse group back to a circuit input — with the
exact rendered content pinned down — plus provenance chains on healthy
runs, the metrics JSON schema round-trip, delay-histogram merging, and
Monte-Carlo stats aggregation (sequential == parallel, bit for bit).
"""

import json

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.errors import PriorInputViolation, PylseError
from repro.core.helpers import inp, inp_at
from repro.core.montecarlo import measure_yield
from repro.core.simulation import Simulation
from repro.exp.registry import (
    PulseCountPredicate,
    RegistryFactory,
    build_in_fresh_circuit,
    registry,
)
from repro.obs import (
    DelayHistogram,
    Observer,
    SimMetrics,
    format_chain,
)
from repro.sfq import jtl, s
from repro.sfq.functions import and_s


def figure13_circuit():
    """The paper's Figure 13 stimulus: B arrives 1ps before a clock edge."""
    with fresh_circuit() as circuit:
        a = inp_at(125, 175, 225, 275, name="A")
        b = inp_at(99, 185, 225, 265, name="B")
        clk = inp(start=50, period=50, n=6, name="CLK")
        and_s(a, b, clk, name="Q")
    return circuit


def two_jtl_circuit():
    with fresh_circuit() as circuit:
        a = inp_at(10.0, name="A")
        jtl(jtl(a), name="q")
    return circuit


class TestFigure13Provenance:
    """The violation error carries the causal chain, exactly."""

    EXPECTED_CHAIN = "clk@100 -> and0(AND)\n  CLK@100 (circuit input 'CLK')"

    def test_violation_chain_exact_content(self):
        sim = Simulation(figure13_circuit())
        with pytest.raises(PriorInputViolation) as excinfo:
            sim.simulate(observer=Observer())
        err = excinfo.value
        assert err.provenance == self.EXPECTED_CHAIN
        assert "Causal chain:" in str(err)
        assert self.EXPECTED_CHAIN in str(err)
        # The chain bottoms out at a circuit input.
        assert "circuit input" in err.provenance

    def test_violation_chain_in_general_drain(self):
        """record=True adds the trace bookkeeping: same chain."""
        sim = Simulation(figure13_circuit())
        with pytest.raises(PriorInputViolation) as excinfo:
            sim.simulate(record=True, observer=Observer())
        assert excinfo.value.provenance == self.EXPECTED_CHAIN

    def test_without_observer_no_chain(self):
        sim = Simulation(figure13_circuit())
        with pytest.raises(PriorInputViolation) as excinfo:
            sim.simulate()
        assert excinfo.value.provenance is None
        assert "Causal chain:" not in str(excinfo.value)

    def test_violation_counted_in_metrics(self):
        observer = Observer()
        with pytest.raises(PriorInputViolation):
            Simulation(figure13_circuit()).simulate(observer=observer)
        cell = observer.metrics.cells["and0"]
        assert cell.violations == 1
        # The failed group is part of the denominator.
        assert cell.groups >= 1


class TestChains:
    EXPECTED = (
        "q@20 <- jtl1(JTL) via idle--a->idle\n"
        "  _0@15 <- jtl0(JTL) via idle--a->idle\n"
        "    A@10 (circuit input 'A')"
    )

    def test_multi_hop_chain_exact_content(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate(observer=Observer())
        assert sim.render_chain("q") == self.EXPECTED

    def test_observer_chain_query(self):
        observer = Observer()
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        assert observer.chain("q") == self.EXPECTED
        assert observer.chain("A") == "A@10 (circuit input 'A')"

    def test_chain_occurrence_selection(self):
        with fresh_circuit() as circuit:
            a = inp_at(10.0, 30.0, name="A")
            jtl(a, name="q")
        observer = Observer()
        Simulation(circuit).simulate(observer=observer)
        first = observer.chain("q", 0)
        last = observer.chain("q", -1)
        assert "A@10" in first and "A@30" in last

    def test_chain_unknown_wire_raises(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate(observer=Observer())
        with pytest.raises(PylseError, match="No pulse recorded"):
            sim.render_chain("nope")

    def test_chain_occurrence_out_of_range(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate(observer=Observer())
        with pytest.raises(PylseError, match="out of range"):
            sim.render_chain("q", 7)

    def test_render_chain_without_observer_raises(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate()
        with pytest.raises(PylseError, match="No provenance recorded"):
            sim.render_chain("q")

    def test_reconvergent_fanin_renders_see_above(self):
        # Split one pulse and rejoin it: both chain branches reach the
        # same ancestor, printed once and referenced after.
        from repro.sfq import c

        with fresh_circuit() as circuit:
            a = inp_at(10.0, name="A")
            left, right = s(a)
            c(jtl(left), jtl(right), name="q")
        sim = Simulation(circuit)
        sim.simulate(observer=Observer())
        chain = sim.render_chain("q")
        assert chain.count("(circuit input 'A')") == 1
        assert "(see above)" in chain

    def test_provenance_with_variability(self):
        """Chains are recorded under delay noise too."""
        observer = Observer()
        sim = Simulation(two_jtl_circuit())
        sim.simulate(variability={"stddev": 0.5}, seed=7, observer=observer)
        chain = sim.render_chain("q")
        assert "(circuit input 'A')" in chain
        assert "jtl1(JTL)" in chain


class TestRenderTraceProvenance:
    def test_trace_lines_annotated_with_chains(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate(record=True, observer=Observer())
        text = sim.render_trace(provenance=True)
        assert "jtl1(JTL)" in text
        assert "    q@20 <- jtl1(JTL) via idle--a->idle" in text
        assert "A@10 (circuit input 'A')" in text

    def test_trace_provenance_requires_observer(self):
        sim = Simulation(two_jtl_circuit())
        sim.simulate(record=True)
        with pytest.raises(PylseError, match="provenance"):
            sim.render_trace(provenance=True)

    def test_plain_trace_unchanged_by_observer(self):
        sim1 = Simulation(two_jtl_circuit())
        sim1.simulate(record=True)
        plain = sim1.render_trace()
        sim2 = Simulation(two_jtl_circuit())
        sim2.simulate(record=True, observer=Observer())
        assert sim2.render_trace() == plain


class TestObserverConfig:
    def test_both_collectors_off_rejected(self):
        with pytest.raises(PylseError, match="observe nothing"):
            Observer(provenance=False, metrics=False)

    def test_metrics_only_has_no_graph(self):
        observer = Observer(provenance=False, metrics=True)
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        assert observer.graph is None
        assert observer.metrics.pulses_processed > 0
        with pytest.raises(PylseError, match="provenance=False"):
            observer.chain("q")

    def test_provenance_only_has_no_metrics(self):
        observer = Observer(provenance=True, metrics=False)
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        assert observer.metrics is None
        assert "A@10" in observer.chain("q")

    def test_observer_reuse_accumulates_runs(self):
        observer = Observer(provenance=False, metrics=True)
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        assert observer.metrics.runs == 2
        assert observer.metrics.cells["jtl0"].groups == 2

    def test_events_identical_with_and_without_observer(self):
        circuit = two_jtl_circuit()
        base = Simulation(circuit).simulate()
        observed = Simulation(circuit).simulate(observer=Observer())
        assert observed == base


class TestMetrics:
    def _collect(self):
        observer = Observer(provenance=False, metrics=True)
        entry = next(e for e in registry() if e.name == "Min-Max")
        Simulation(build_in_fresh_circuit(entry)).simulate(observer=observer)
        return observer.metrics

    def test_counters_match_activity(self):
        observer = Observer(provenance=False, metrics=True)
        entry = next(e for e in registry() if e.name == "Min-Max")
        sim = Simulation(build_in_fresh_circuit(entry))
        sim.simulate(observer=observer)
        for name, (pulses_in, pulses_out) in sim.activity.items():
            cell = observer.metrics.cells.get(name)
            if cell is None:  # node never dispatched
                assert pulses_in == 0
                continue
            assert cell.pulses_in == pulses_in
            assert cell.pulses_out == pulses_out

    def test_max_heap_depth_positive(self):
        metrics = self._collect()
        assert metrics.max_heap_depth >= 1
        assert metrics.pulses_processed > 0
        assert metrics.input_pulses > 0

    @pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
    def test_overflow_keeps_counts(self, record):
        """A max_pulses overflow still reports what the drain processed:
        the pulse count and the heap high-water mark are written back
        before the error propagates, in every drain mode."""
        entry = next(e for e in registry() if e.name == "Bitonic Sort 4")
        sim = Simulation(build_in_fresh_circuit(entry))
        observer = Observer()
        with pytest.raises(PylseError, match="exceeded 10 pulses"):
            sim.simulate(max_pulses=10, observer=observer, record=record)
        assert sim.pulses_processed == 10
        assert observer.metrics.pulses_processed == 10
        assert observer.metrics.max_heap_depth >= 1

    def test_json_roundtrip_is_identity(self):
        metrics = self._collect()
        text = metrics.to_json()
        rebuilt = SimMetrics.from_json(text)
        assert rebuilt.to_json() == text
        payload = json.loads(text)
        assert payload["format"] == "repro-obs-metrics-v1"
        assert sorted(payload["cells"]) == list(payload["cells"])

    def test_from_json_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="repro-obs-metrics-v1"):
            SimMetrics.from_jsonable({"format": "nope"})

    def test_render_mentions_every_cell(self):
        metrics = self._collect()
        table = metrics.render()
        for name in metrics.cells:
            assert name in table

    def test_provenance_jsonable_schema(self):
        observer = Observer()
        Simulation(two_jtl_circuit()).simulate(observer=observer)
        payload = observer.graph.to_jsonable()
        assert payload["format"] == "repro-obs-provenance-v1"
        pulses = payload["pulses"]
        assert [p["pid"] for p in pulses] == list(range(len(pulses)))
        roots = [p for p in pulses if not p["parents"]]
        assert all(p["cell"] == "InGen" for p in roots)


class TestPendingCollapse:
    def test_three_way_duplicate_collapse_merges_parents(self):
        """>2 same-slot pulses: later records drop, parents accumulate."""
        from repro.obs import ProvenanceGraph

        graph = ProvenanceGraph()
        roots = [
            graph.new_pulse(f"in{i}", 0.0, f"g{i}", "InGen", "out")
            for i in range(3)
        ]
        survivor = None
        for root in roots:
            pid = graph.new_pulse("w", 10.0, "m0", "M", "q", (root,))
            survivor = graph.register_pending(5, "a", 10.0, pid)
        assert survivor == 3  # the first emitted pulse represents all three
        record = graph.record(survivor)
        assert record.parents == tuple(roots)
        # Duplicates were removed; pid == index invariant holds.
        assert [r.pid for r in graph.records] == list(range(len(graph)))
        assert graph.pulses_on("w") == [survivor]
        (consumed,) = graph.take_parents(5, ["a"], 10.0)
        assert consumed == survivor


class TestDelayHistogram:
    def test_add_and_stats(self):
        hist = DelayHistogram(bin_width=1.0)
        for delay in (0.2, 0.7, 1.5, 3.0):
            hist.add(delay)
        assert hist.count == 4
        assert hist.bins == {0: 2, 1: 1, 3: 1}
        assert hist.min == 0.2 and hist.max == 3.0
        assert hist.mean == pytest.approx((0.2 + 0.7 + 1.5 + 3.0) / 4)

    def test_merge_sums_bins_and_bounds(self):
        a, b = DelayHistogram(1.0), DelayHistogram(1.0)
        a.add(0.5)
        b.add(0.6)
        b.add(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.bins == {0: 2, 5: 1}
        assert a.min == 0.5 and a.max == 5.0

    def test_merge_rejects_mismatched_bin_width(self):
        a, b = DelayHistogram(1.0), DelayHistogram(0.5)
        with pytest.raises(ValueError, match="bin width"):
            a.merge(b)

    def test_empty_histogram(self):
        hist = DelayHistogram()
        assert hist.mean is None and hist.min is None and hist.max is None
        rebuilt = DelayHistogram.from_jsonable(hist.to_jsonable())
        assert rebuilt.count == 0 and rebuilt.mean is None

    def test_rejects_nonpositive_bin_width(self):
        with pytest.raises(ValueError):
            DelayHistogram(0.0)


class TestYieldStats:
    def _setup(self):
        entry = next(e for e in registry() if e.name == "Min-Max")
        factory = RegistryFactory(entry.name)
        baseline = Simulation(factory()).simulate()
        return factory, PulseCountPredicate(baseline)

    def test_collect_stats_populates_result(self):
        factory, predicate = self._setup()
        result = measure_yield(
            factory, predicate, sigma=0.5, seeds=range(4), collect_stats=True
        )
        assert result.stats is not None
        assert result.stats.runs == 4
        assert result.stats.cells  # per-cell breakdown present

    def test_stats_off_by_default(self):
        factory, predicate = self._setup()
        result = measure_yield(factory, predicate, sigma=0.5, seeds=range(2))
        assert result.stats is None

    def test_parallel_stats_bit_identical_to_sequential(self):
        factory, predicate = self._setup()
        seq = measure_yield(
            factory, predicate, sigma=1.0, seeds=range(8),
            workers=1, collect_stats=True,
        )
        par = measure_yield(
            factory, predicate, sigma=1.0, seeds=range(8),
            workers=3, collect_stats=True, batch=2,
        )
        assert seq.stats.to_json() == par.stats.to_json()
        assert seq.failures == par.failures
        assert (seq.passed, seq.mis_behaved, seq.violations) == (
            par.passed, par.mis_behaved, par.violations
        )

    def test_stats_survive_violations(self):
        """Seeds that violate still contribute metrics to the aggregate."""
        factory, predicate = self._setup()
        result = measure_yield(
            factory, predicate, sigma=6.0, seeds=range(12),
            collect_stats=True,
        )
        assert result.stats.runs == 12
        if result.violations:
            total = sum(
                cell.violations for cell in result.stats.cells.values()
            )
            assert total == result.violations


class TestLatencyQuantiles:
    """Nearest-rank quantile regression: index is ceil(q*n)-1, not int(q*n)."""

    def _stats(self, samples):
        from repro.obs import LatencyStats

        stats = LatencyStats()
        for sample in samples:
            stats.add(sample)
        return stats

    def test_p50_of_ten_is_fifth_smallest(self):
        stats = self._stats(range(1, 11))
        # ceil(0.5 * 10) = 5th smallest (1-indexed) = 5; the old
        # int(q * n) indexing returned the 6th.
        assert stats.quantile(0.50) == 5

    def test_p99_of_hundred_is_99th_not_max(self):
        stats = self._stats(range(1, 101))
        assert stats.quantile(0.99) == 99
        assert stats.quantile(1.0) == 100

    def test_single_sample_every_quantile(self):
        stats = self._stats([7.0])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert stats.quantile(q) == 7.0

    def test_empty_window_is_none(self):
        stats = self._stats([])
        assert stats.quantile(0.5) is None
