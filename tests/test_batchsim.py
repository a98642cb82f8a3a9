"""Tests for the vectorized multi-seed drain (``repro.core.batchsim``).

The element-wise batched == sequential property lives in
``tests/test_differential.py``; this file covers the module's contract
surface: the counter noise streams (width-1 draws against lanes of wide
ones, a golden pin, the bounded root memo), eligibility, width
resolution, the divergence report and its exposure on ``YieldResult``
and the CLI, and reuse of a warm ``Simulation`` / compiled-circuit memo
across batched drains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batchsim
from repro.core.batchsim import (
    DEFAULT_MAX_BATCH,
    BatchReport,
    CounterNoise,
    batch_eligible,
    resolve_batch,
    run_batch,
)
from repro.core.circuit import fresh_circuit
from repro.core.errors import PylseError
from repro.core.functional import hole
from repro.core.helpers import inp_at
from repro.core.ir import compile_circuit
from repro.core.montecarlo import measure_yield
from repro.core.simulation import Simulation
from repro.core.timing import Normal, Uniform, VariabilitySpec
from repro.designs import min_max
from repro.sfq import jtl

from test_montecarlo import minmax_factory, minmax_ok


def hole_factory():
    """A Functional (hole) element: not Transitional, so not batchable."""

    @hole(delay=3.0, inputs=["a", "b"], outputs=["q"])
    def or_model(a, b, time):
        return a or b

    with fresh_circuit() as circuit:
        a = inp_at(10.0, name="A")
        b = inp_at(20.0, name="B")
        or_model(a, b).observe("Q")
    return circuit


def hole_ok(events):
    return len(events["Q"]) == 2


#: Seeds across the folding of negatives and past 32 bits.
SEEDS = st.one_of(
    st.integers(-50, 300), st.integers(-(2 ** 40), 2 ** 40),
)
#: Enough draws per stream to run past the pre-drawn block and refill
#: twice (a refill doubles what the stream has drawn).
DRAWS = st.integers(1, 3 * batchsim._BLOCK + 3)


def _vector_draw(noise, kind, index):
    if kind == "normal":
        return noise.normal(index)
    if kind == "uniform":
        return noise.uniform(index)
    return noise.tie(index, 1_000_003)


def _scalar_draw(noise, kind, index):
    if kind == "normal":
        return noise._next(index, batchsim._NORMAL)
    if kind == "uniform":
        return noise._next(index, batchsim._UNIFORM)
    return noise.tie_scalar(index, 1_000_003)


def _bits(value):
    """Exact identity of a draw: float.hex for floats, the int for ties."""
    return value.hex() if isinstance(value, float) else int(value)


def _width1(seed, index, predrawn, spec=None):
    """A width-1 instance, with ``index`` in the up-front pre-draw or not."""
    applies = [False] * (index + 1)
    applies[index] = predrawn
    return CounterNoise.for_run(
        seed, applies, spec or VariabilitySpec.normalize(True)
    )


class TestCounterStreams:
    """A width-1 draw is lane ``l`` of a width-N draw, bit for bit."""

    @given(
        seeds=st.lists(SEEDS, min_size=1, max_size=6),
        index=st.integers(0, 300),
        kind=st.sampled_from(["normal", "uniform", "tie"]),
        draws=DRAWS,
        predrawn=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_width1_draw_is_lane_of_width_n(
        self, seeds, index, kind, draws, predrawn
    ):
        wide = CounterNoise.for_seeds(seeds)
        narrow = [_width1(seed, index, predrawn) for seed in seeds]
        for _ in range(draws):
            vector = _vector_draw(wide, kind, index)
            for lane, noise in enumerate(narrow):
                scalar = _scalar_draw(noise, kind, index)
                assert type(scalar) is (float if kind != "tie" else int)
                assert _bits(scalar) == _bits(vector[lane].item())

    @given(
        seeds=st.lists(SEEDS, min_size=1, max_size=5),
        index=st.integers(0, 40),
        delay=st.one_of(
            st.floats(0.0, 60.0),
            st.integers(0, 60),
            st.builds(Normal, st.floats(0.0, 30.0), st.floats(0.0, 40.0)),
            st.builds(
                lambda low, width: Uniform(low, low + width),
                st.floats(0.0, 30.0), st.floats(0.0, 30.0),
            ),
        ),
        stddev=st.one_of(st.none(), st.floats(0.0, 80.0)),
        fraction=st.floats(0.0, 3.0),
        applies=st.booleans(),
        draws=DRAWS,
    )
    @settings(max_examples=60, deadline=None)
    def test_resolve_scalar_is_lane_of_resolve(
        self, seeds, index, delay, stddev, fraction, applies, draws
    ):
        spec = VariabilitySpec.normalize(
            {"stddev": stddev, "fraction": fraction}
        )
        wide = CounterNoise.for_seeds(seeds)
        narrow = [_width1(seed, index, applies, spec) for seed in seeds]
        for _ in range(draws):
            vector = wide.resolve(delay, index, spec, applies)
            for lane, noise in enumerate(narrow):
                scalar = noise.resolve_scalar(delay, index)
                expected = (
                    vector if isinstance(vector, float)
                    else vector[lane].item()
                )
                assert type(scalar) is float
                assert scalar.hex() == expected.hex()

    @given(
        seeds=st.lists(SEEDS, min_size=1, max_size=5),
        index=st.integers(0, 40),
        delays=st.lists(
            st.one_of(st.floats(0.0, 60.0), st.integers(0, 60)),
            min_size=1, max_size=4,
        ),
        stddev=st.one_of(st.none(), st.floats(0.0, 80.0)),
        fraction=st.floats(0.0, 3.0),
        applies=st.booleans(),
        draws=DRAWS,
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_delay_resolver_is_lane_of_resolve(
        self, seeds, index, delays, stddev, fraction, applies, draws
    ):
        """The per-run resolver of a circuit without distributions pops
        the pre-drawn normals itself, refills included: still bit for bit
        the lane's value."""
        spec = VariabilitySpec.normalize(
            {"stddev": stddev, "fraction": fraction}
        )
        wide = CounterNoise.for_seeds(seeds)
        resolvers = [
            _width1(seed, index, applies, spec).resolver(False)
            for seed in seeds
        ]
        for k in range(draws):
            delay = delays[k % len(delays)]
            vector = wide.resolve(delay, index, spec, applies)
            for lane, resolve in enumerate(resolvers):
                scalar = resolve(delay, index)
                expected = (
                    vector if isinstance(vector, float)
                    else vector[lane].item()
                )
                assert type(scalar) is float
                assert scalar.hex() == expected.hex()

    def test_resolver_keeps_the_general_path_where_needed(self):
        spec = VariabilitySpec.normalize(True)
        noise = CounterNoise.for_run(3, [True], spec)
        assert noise.resolver(True) == noise.resolve_scalar
        custom = VariabilitySpec.normalize(lambda delay, node: delay + 1.0)
        noise = CounterNoise.for_run(3, [True], custom, [None])
        assert noise.resolver(False) == noise.resolve_scalar

    def test_pre_drawn_table_matches_lanes(self):
        """Thousands of pre-drawn and refilled normals against batch
        lanes: a last-bit difference in ``log`` shows up about once in
        300 draws, more often than the property above samples."""
        seeds = [0, -7, 2 ** 33 + 1, 12345]
        nodes = 300
        wide = CounterNoise.for_seeds(seeds)
        narrow = [
            CounterNoise.for_run(
                seed, [True] * nodes, VariabilitySpec.normalize(True)
            )
            for seed in seeds
        ]
        for index in range(nodes):
            for _ in range(batchsim._BLOCK + 2):
                vector = wide.normal(index).tolist()
                assert [
                    noise._next(index, batchsim._NORMAL) for noise in narrow
                ] == vector

    @pytest.mark.parametrize("delay", [
        Normal(-0.0, 0.0), Normal(float("nan"), 1.0),
    ])
    def test_clip_matches_numpy_maximum(self, delay):
        """Signed zero and NaN clip as ``np.maximum(0.0, v)`` does."""
        seeds = list(range(8))
        spec = VariabilitySpec.normalize(True)
        vector = CounterNoise.for_seeds(seeds).resolve(delay, 0, spec, True)
        for lane, seed in enumerate(seeds):
            scalar = _width1(seed, 0, True).resolve_scalar(delay, 0)
            assert scalar.hex() == vector[lane].item().hex()

    def test_one_pre_draw_serves_every_perturbed_node(self):
        spec = VariabilitySpec.normalize(True)
        noise = CounterNoise.for_run(5, [True, False, True], spec)
        assert set(noise._blocks) == {(0, 0), (2, 0)}
        assert all(len(b) == batchsim._BLOCK for b in noise._blocks.values())

    @pytest.mark.parametrize("kind", ["normal", "uniform", "tie"])
    def test_wide_rows_are_read_only(self, kind):
        """A row shares its block with the draws other lanes still read,
        so writing into it must fail loudly."""
        noise = CounterNoise.for_seeds([1, 2, 3])
        if kind == "tie":
            row = noise._next(0, batchsim._TIE)
        else:
            row = _vector_draw(noise, kind, 0)
        assert row.shape == (3,) and not row.flags.writeable
        with pytest.raises(ValueError):
            row[1] = 0

    def test_pass_pre_draws_perturbed_and_normal_nodes(self, monkeypatch):
        """A pass pre-draws, in one call, the normals of every node the
        spec perturbs or that has a Normal delay, and of no other node."""
        with fresh_circuit() as circuit:
            jtl(jtl(jtl(inp_at(10.0)), firing_delay=Normal(5.0, 1.0)))
        compiled = compile_circuit(circuit)
        index = {nd.name: nd.index for nd in compiled.dispatch}
        spec = VariabilitySpec.normalize({"instances": ["jtl0"]})
        fills = []
        fill = CounterNoise._fill

        def recording(noise, indices, kind, count):
            fills.append((list(indices), kind, count))
            fill(noise, indices, kind, count)

        monkeypatch.setattr(CounterNoise, "_fill", recording)
        batchsim._drain(
            compiled, spec, CounterNoise.for_seeds(range(4)), False, None
        )
        assert fills == [
            ([index["jtl0"], index["jtl1"]], batchsim._NORMAL,
             batchsim._WIDE_BLOCK),
        ]


#: Draws captured before the width-1 pre-draw existed, as
#: ``(kind, seed, node, draw number, value)``: normals and uniforms as
#: ``float.hex``, ties as ``tie(node, 1_000_003)``. Changing these draws
#: requires bumping ``_NOISE_VERSION`` in ``result_cache_key``, or a disk
#: hit would differ from a fresh computation.
GOLDEN_DRAWS = (
    ("normal", 0, 0, 0, "-0x1.9eb000f3008b6p-1"),
    ("normal", 7, 3, 1, "-0x1.863beb664e74bp-1"),
    ("normal", -3, 11, 9, "0x1.0cf7c7c55b8ddp+0"),
    ("normal", 1099511627781, 117, 20, "-0x1.2b62e62d4c400p+0"),
    ("normal", -34359738369, 2, 30, "0x1.46699535020ddp+0"),
    ("uniform", 0, 0, 0, "0x1.56e61b2491eaep-1"),
    ("uniform", 7, 3, 1, "0x1.83e7e97c3e152p-1"),
    ("uniform", -3, 11, 9, "0x1.0897adcbef9b5p-2"),
    ("uniform", 1099511627781, 117, 20, "0x1.0a66930aa6f4ep-1"),
    ("uniform", -34359738369, 2, 30, "0x1.e53531ff403b8p-1"),
    ("tie", 0, 0, 0, 344608),
    ("tie", 7, 3, 1, 538792),
    ("tie", -3, 11, 9, 298317),
    ("tie", 1099511627781, 117, 20, 756580),
    ("tie", -34359738369, 2, 30, 151082),
)


class TestGoldenStreams:
    @pytest.mark.parametrize("kind,seed,node,position,value", GOLDEN_DRAWS)
    def test_vector_draw(self, kind, seed, node, position, value):
        """The golden seed at a middle lane of batches of every width,
        drawn through a pass-start pre-draw; the deeper positions lie past
        at least two refills."""
        for width in (1, 3, 128, 257):
            lane = width // 2
            seeds = list(range(1000, 1000 + width))
            seeds[lane] = seed
            noise = CounterNoise.for_seeds(seeds)
            noise._fill([node], batchsim._NORMAL, batchsim._WIDE_BLOCK)
            for _ in range(position):
                _vector_draw(noise, kind, node)
            draw = _vector_draw(noise, kind, node)
            assert _bits(draw[lane].item()) == value, width

    @pytest.mark.parametrize("kind,seed,node,position,value", GOLDEN_DRAWS)
    def test_scalar_draw(self, kind, seed, node, position, value):
        noise = _width1(seed, node, True)
        for _ in range(position):
            _scalar_draw(noise, kind, node)
        assert _bits(_scalar_draw(noise, kind, node)) == value


class TestRootMemo:
    def test_memo_stays_bounded_and_roots_unchanged(self):
        def fresh(seed):
            entropy = 2 * seed if seed >= 0 else -2 * seed - 1
            return np.random.SeedSequence(entropy).generate_state(
                1, np.uint64
            )[0]

        probes = (0, -1, 2 ** 40, -(2 ** 35))
        before = {seed: batchsim._root(seed) for seed in probes}
        for seed in range(10 ** 9, 10 ** 9 + batchsim._ROOT_CACHE_SIZE + 50):
            batchsim._root(seed)
        info = batchsim._seed_root.cache_info()
        assert info.maxsize == batchsim._ROOT_CACHE_SIZE
        assert info.currsize <= batchsim._ROOT_CACHE_SIZE
        for seed in probes:
            assert batchsim._root(seed) == before[seed] == fresh(seed)


class TestEligibility:
    def test_transitional_design_is_eligible(self):
        compiled = compile_circuit(minmax_factory())
        assert batch_eligible(compiled)

    def test_result_is_memoized_on_the_compiled_circuit(self):
        compiled = compile_circuit(minmax_factory())
        assert batch_eligible(compiled) is batch_eligible(compiled)
        assert "batch_eligible" in compiled._cache

    def test_hole_design_is_not_eligible(self):
        compiled = compile_circuit(hole_factory())
        assert not batch_eligible(compiled)

    def test_ineligible_design_falls_back_wholesale(self):
        """A hole circuit sweeps correctly — on the sequential path,
        reported as `ineligible` — and matches the batch=0 run."""
        batched = measure_yield(hole_factory, hole_ok, 2.0, seeds=range(6))
        reference = measure_yield(
            hole_factory, hole_ok, 2.0, seeds=range(6), batch=0
        )
        assert batched == reference
        assert batched.batched_lanes == 0
        assert batched.fallback_seeds == list(range(6))
        assert batched.divergence == {"ineligible": 6}

    @pytest.mark.parametrize("seed", [0, 5, -3])
    def test_ineligible_design_draws_counter_noise(self, seed):
        """The hole's two firings take the first two normals of its
        counter stream, exactly as a batch lane would draw them."""
        circuit = hole_factory()
        (index,) = [
            nd.index for nd in compile_circuit(circuit).dispatch
            if not nd.is_input
        ]
        noise = CounterNoise.for_seeds([seed])
        sigma = 2.0
        expected = [
            t + np.maximum(0.0, 3.0 + sigma * noise.normal(index))[0].item()
            for t in (10.0, 20.0)
        ]
        events = Simulation(circuit).simulate(
            variability={"stddev": sigma}, seed=seed
        )
        assert [t.hex() for t in events["Q"]] == [t.hex() for t in expected]


class TestResolveBatch:
    def test_auto_and_none_cap_at_default(self):
        assert resolve_batch(None, 10) == 10
        assert resolve_batch("auto", 10) == 10
        assert resolve_batch(None, 10_000) == DEFAULT_MAX_BATCH

    def test_explicit_widths_pass_through(self):
        assert resolve_batch(0, 10) == 0
        assert resolve_batch(7, 10) == 7
        assert resolve_batch(500, 10) == 500

    @pytest.mark.parametrize("bad", [True, False, -1, 2.5, "wide"])
    def test_invalid_widths_rejected(self, bad):
        with pytest.raises(PylseError, match="batch"):
            resolve_batch(bad, 10)


class TestBatchReport:
    def test_merge_accumulates(self):
        a = BatchReport(batched_lanes=3, fallback_seeds=[7],
                        divergence={"order": 1})
        b = BatchReport(batched_lanes=2, fallback_seeds=[9, 11],
                        divergence={"order": 2, "violation": 1})
        a.merge(b)
        assert a.batched_lanes == 5
        assert a.fallback_seeds == [7, 9, 11]
        assert a.divergence == {"order": 3, "violation": 1}

    def test_count_skips_zero(self):
        report = BatchReport()
        report.count("order", 0)
        assert report.divergence == {}
        report.count("order", 2)
        report.count("order")
        assert report.divergence == {"order": 3}


class TestDivergenceObservability:
    def test_yield_result_accounts_for_every_seed(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(50)
        )
        assert result.batched_lanes + len(result.fallback_seeds) == 50
        assert sum(result.divergence.values()) == len(result.fallback_seeds)
        # sigma 12 on Min-Max deterministically reorders some lanes
        assert result.divergence.get("order")

    def test_reference_run_reports_nothing(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(50), batch=0
        )
        assert result.batched_lanes == 0
        assert result.fallback_seeds == []
        assert result.divergence == {}

    def test_fallback_seeds_in_seed_order(self):
        result = measure_yield(
            minmax_factory, minmax_ok, 12.0, seeds=range(100, 150)
        )
        assert result.fallback_seeds == sorted(result.fallback_seeds)
        assert all(100 <= s < 150 for s in result.fallback_seeds)


class TestCli:
    def test_batch_flag_and_stats_report(self, capsys):
        from repro.__main__ import main

        assert main(["yield", "Min-Max", "--sigma", "12", "--seeds", "40",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "batched lanes:" in out
        assert "divergence causes:" in out and "order:" in out

    def test_default_output_is_batch_free(self, capsys):
        """The CI smoke job diffs batched vs --batch 0 output verbatim.

        Min-Max batches most lanes; every lane of the clocked adder
        replays (cause `grouping`)."""
        from repro.__main__ import main

        for design, sigma in (("Min-Max", "12"), ("Adder (Sync)", "2")):
            assert main(["yield", design, "--sigma", sigma,
                         "--seeds", "40"]) == 0
            batched = capsys.readouterr().out
            assert main(["yield", design, "--sigma", sigma,
                         "--seeds", "40", "--batch", "0"]) == 0
            reference = capsys.readouterr().out
            assert "batched" not in batched
            assert batched == reference


class TestEdgeCases:
    def test_empty_seed_list(self):
        sim = Simulation(minmax_factory())
        outcomes, stats, report = run_batch(sim, minmax_ok, 1.0, [])
        assert outcomes == [] and stats == []
        assert report == BatchReport()

    def test_seed_none_draws_fresh_entropy(self):
        """seed=None lanes are non-reproducible by design (fresh
        SeedSequence entropy), unlike every integer seed."""
        from repro.core.batchsim import CounterNoise

        a = CounterNoise.for_seeds([None]).normal(0)
        b = CounterNoise.for_seeds([None]).normal(0)
        c = CounterNoise.for_seeds([3]).normal(0)
        d = CounterNoise.for_seeds([3]).normal(0)
        assert a[0] != b[0]
        assert c[0] == d[0]

    def test_overflow_diverges_and_matches_reference(self):
        """A max_pulses cutoff mid-batch masks every lane out; the
        replays then hit the same cutoff, so outcomes still match the
        per-seed reference run with the same limit."""
        sim = Simulation(minmax_factory())
        outcomes, _, report = run_batch(
            sim, minmax_ok, 1.0, range(8), max_pulses=3
        )
        assert report.divergence.get("overflow") == 8
        ref_sim = Simulation(minmax_factory())
        ref_outcomes, _, _ = run_batch(
            ref_sim, minmax_ok, 1.0, range(8), batch=0, max_pulses=3
        )
        assert outcomes == ref_outcomes

    def test_simultaneous_arrivals_tie_break_matches_reference(self):
        """Simultaneous pulses on AND's equal-priority a/b transitions
        force the dispatch tie-break draw; the batch steps with the
        majority's pick and replays minority lanes, which must agree
        with each lane's own sequential draw."""
        from repro.sfq import and_s

        def factory():
            with fresh_circuit() as circuit:
                a = inp_at(10.0, name="A")
                b = inp_at(10.0, name="B")
                clk = inp_at(30.0, name="CLK")
                and_s(a, b, clk, name="Q")
            return circuit

        def ok(events):
            return len(events["Q"]) == 1

        for sigma in (0.0, 4.0):
            batched = measure_yield(factory, ok, sigma, seeds=range(24))
            reference = measure_yield(
                factory, ok, sigma, seeds=range(24), batch=0
            )
            assert batched == reference
            assert list(batched.failures.items()) == list(
                reference.failures.items()
            )


class TestWarmReuse:
    """One Simulation + one compiled circuit across many batched drains."""

    def test_no_recompile_and_no_lane_state_leak(self):
        circuit = minmax_factory()
        sim = Simulation(circuit)
        compiled = compile_circuit(circuit)

        first = run_batch(sim, minmax_ok, 9.0, range(30))
        # warm memo: same compiled object, no structural recompilation
        assert compile_circuit(circuit) is compiled
        # an interleaved plain simulate() must not perturb batch state
        sim.reset()
        sim.simulate()
        second = run_batch(sim, minmax_ok, 9.0, range(30))
        assert compile_circuit(circuit) is compiled
        assert second[0] == first[0]
        assert second[2].batched_lanes == first[2].batched_lanes
        assert second[2].fallback_seeds == first[2].fallback_seeds
        assert second[2].divergence == first[2].divergence

    def test_batched_then_reset_then_sequential_is_clean(self):
        """A batched drain leaves the Simulation reusable: reset() +
        noise-free simulate() reproduces the nominal events."""
        circuit = minmax_factory()
        sim = Simulation(circuit)
        baseline = sim.simulate()
        run_batch(sim, minmax_ok, 20.0, range(40))
        sim.reset()
        assert sim.simulate() == baseline

    def test_stats_collection_reuses_the_same_sim(self):
        circuit = minmax_factory()
        sim = Simulation(circuit)
        outcomes1, stats1, _ = run_batch(
            sim, minmax_ok, 9.0, range(12), collect_stats=True
        )
        outcomes2, stats2, _ = run_batch(
            sim, minmax_ok, 9.0, range(12), collect_stats=True
        )
        assert outcomes1 == outcomes2
        assert [s.to_jsonable() for s in stats1] == [
            s.to_jsonable() for s in stats2
        ]
