"""Tests for the design-space explorer (repro.explore).

Covers the acceptance contract: grid parsing, family validation, sweeps
over several families, per-point element-wise identity with a direct
``measure_yield`` call, cache-warm second passes, Pareto non-domination,
and the ``python -m repro explore`` CLI in all three formats.
"""

import csv
import io
import json

import pytest

from repro.__main__ import main
from repro.core.errors import PylseError
from repro.core.montecarlo import measure_yield
from repro.core.simulation import Simulation
from repro.exp.registry import PulseCountPredicate
from repro.explore import (
    ExploreEngine,
    FamilyFactory,
    dominates,
    families,
    family_names,
    grid_points,
    pareto_frontier,
    parse_grid,
)


class TestParseGrid:
    def test_single_axis(self):
        assert parse_grid(["n=2,4,8"]) == {"n": [2, 4, 8]}

    def test_multiple_axes_preserve_order(self):
        grid = parse_grid(["words=4,16", "bits=1,2"])
        assert list(grid) == ["words", "bits"]

    def test_whitespace_tolerated(self):
        assert parse_grid([" n = 2 , 4 "]) == {"n": [2, 4]}

    def test_rejects_missing_equals(self):
        with pytest.raises(PylseError, match="name=v1"):
            parse_grid(["n:2,4"])

    def test_rejects_duplicate_axis(self):
        with pytest.raises(PylseError, match="duplicate grid axis"):
            parse_grid(["n=2", "n=4"])

    def test_rejects_duplicate_values(self):
        with pytest.raises(PylseError, match="duplicate values"):
            parse_grid(["n=2,2"])

    def test_rejects_non_integer(self):
        with pytest.raises(PylseError, match="integers"):
            parse_grid(["n=2,x"])

    def test_rejects_empty(self):
        with pytest.raises(PylseError, match="empty grid"):
            parse_grid([])

    def test_grid_points_cartesian_order(self):
        points = grid_points({"a": [1, 2], "b": [10, 20]})
        assert points == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]


class TestPareto:
    def test_dominates_basics(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))   # equal: no dominance

    def test_dominates_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            dominates((1.0,), (1.0, 2.0))

    def test_frontier_keeps_nondominated_in_order(self):
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 3.0)]
        front = pareto_frontier(points, key=lambda p: p)
        assert front == [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]

    def test_frontier_keeps_duplicates(self):
        points = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        front = pareto_frontier(points, key=lambda p: p)
        assert front == [(1.0, 1.0), (1.0, 1.0)]


class TestFamilies:
    def test_expected_families_registered(self):
        assert set(family_names()) == {
            "bitonic", "adder_sync", "adder_xsfq", "racetree", "memory"
        }

    def test_normalize_orders_and_validates(self):
        memory = families()["memory"]
        assert memory.normalize({"bits": 2, "words": 4}) == (
            ("words", 4), ("bits", 2)
        )

    def test_normalize_rejects_unknown_param(self):
        with pytest.raises(PylseError, match="no parameter"):
            families()["bitonic"].normalize({"n": 4, "depth": 2})

    def test_normalize_rejects_missing_param(self):
        with pytest.raises(PylseError, match="needs parameter"):
            families()["memory"].normalize({"words": 4})

    def test_normalize_rejects_out_of_range(self):
        with pytest.raises(PylseError, match=r"\[1, 16\]"):
            families()["adder_sync"].normalize({"n": 17})

    def test_normalize_rejects_non_power_of_two(self):
        with pytest.raises(PylseError, match="power of two"):
            families()["bitonic"].normalize({"n": 6})

    def test_normalize_rejects_bool(self):
        with pytest.raises(PylseError, match="integer"):
            families()["racetree"].normalize({"depth": True})

    def test_factory_is_deterministic(self):
        from repro.core.ir import compile_circuit

        factory = FamilyFactory("racetree", {"depth": 2})
        digest = compile_circuit(factory()).structural_hash
        assert compile_circuit(factory()).structural_hash == digest

    def test_factory_roundtrips_through_pickle(self):
        import pickle

        factory = FamilyFactory("bitonic", {"n": 4})
        clone = pickle.loads(pickle.dumps(factory))
        baseline = Simulation(factory()).simulate()
        assert Simulation(clone()).simulate() == baseline

    def test_every_default_grid_point_elaborates(self):
        for family in families().values():
            names = [name for name, _ in family.default_grid]
            smallest = {
                name: values[0] for name, values in family.default_grid
            }
            assert set(names) == {spec.name for spec in family.params}
            circuit = FamilyFactory(family.name, smallest)()
            assert Simulation(circuit).simulate()


class TestEngine:
    def test_sweep_three_families(self):
        engine = ExploreEngine()
        for name, grid in [
            ("bitonic", {"n": [2, 4]}),
            ("racetree", {"depth": [1, 2]}),
            ("adder_xsfq", {"n": [1, 2]}),
        ]:
            sweep = engine.sweep(name, grid, sigma=0.3, n_seeds=6)
            assert len(sweep.points) == 2
            for point in sweep.points:
                assert point.result.runs == 6
                assert point.cost.jjs > 0
                assert point.latency_ps > 0
                assert not point.cached

    def test_point_matches_direct_measure_yield(self):
        """Acceptance: element-wise identical to the uncached path."""
        engine = ExploreEngine()
        for name, params in [
            ("bitonic", {"n": 4}),
            ("racetree", {"depth": 2}),
            ("adder_sync", {"n": 2}),
        ]:
            point = engine.measure(name, params, sigma=0.4, n_seeds=8)
            factory = FamilyFactory(name, params)
            baseline = Simulation(factory()).simulate()
            direct = measure_yield(
                factory, PulseCountPredicate(baseline), 0.4, seeds=range(8)
            )
            assert point.result == direct
            assert point.result.failures == direct.failures

    def test_second_sweep_is_pure_cache_hits(self):
        engine = ExploreEngine()
        grid = {"depth": [1, 2, 3]}
        cold = engine.sweep("racetree", grid, sigma=0.5, n_seeds=6)
        assert engine.computations == 3
        warm = engine.sweep("racetree", grid, sigma=0.5, n_seeds=6)
        assert engine.computations == 3           # nothing recomputed
        assert engine.elaborations == 3           # nothing re-elaborated
        assert all(point.cached for point in warm.points)
        assert [p.result for p in warm.points] == [p.result for p in cold.points]

    def test_cache_key_separates_sigma_and_seeds(self):
        engine = ExploreEngine()
        first = engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=5)
        assert not engine.measure(
            "bitonic", {"n": 2}, sigma=0.6, n_seeds=5
        ).cached
        assert not engine.measure(
            "bitonic", {"n": 2}, sigma=0.5, n_seeds=6
        ).cached
        assert not engine.measure(
            "bitonic", {"n": 2}, sigma=0.5, n_seeds=5, seed0=1
        ).cached
        again = engine.measure("bitonic", {"n": 2}, sigma=0.5, n_seeds=5)
        assert again.cached and again.result == first.result

    def test_resolution_memoized_across_measurements(self):
        engine = ExploreEngine()
        engine.measure("bitonic", {"n": 4}, sigma=0.5, n_seeds=4)
        engine.measure("bitonic", {"n": 4}, sigma=0.9, n_seeds=4)
        # Different sigma misses the result cache but shares resolution.
        assert engine.elaborations == 1
        assert engine.computations == 2

    def test_sweep_pareto_is_nondominated(self):
        """Acceptance: no frontier point is dominated; every off-frontier
        point is dominated by someone."""
        engine = ExploreEngine()
        sweep = engine.sweep("adder_xsfq", {"n": [1, 2, 4]},
                             sigma=0.4, n_seeds=6)
        front = sweep.pareto
        assert front
        objectives = [point.objective() for point in sweep.points]
        for point in front:
            assert not any(
                dominates(other, point.objective()) for other in objectives
            )
        for point in sweep.points:
            if point not in front:
                assert any(
                    dominates(other, point.objective())
                    for other in objectives
                )

    def test_sweep_rejects_bad_grid_value(self):
        engine = ExploreEngine()
        with pytest.raises(PylseError, match="power of two"):
            engine.sweep("bitonic", {"n": [3]}, n_seeds=2)

    def test_unknown_family_rejected(self):
        with pytest.raises(PylseError, match="unknown design family"):
            ExploreEngine().measure("nope", {}, sigma=0.5, n_seeds=2)

    def test_stats_shape(self):
        engine = ExploreEngine()
        engine.measure("racetree", {"depth": 1}, sigma=0.5, n_seeds=3)
        stats = engine.stats()
        assert stats["computations"] == 1
        assert stats["elaborations"] == 1
        assert stats["coalesced"] == 0
        assert stats["cache"]["result"]["misses"] == 1
        assert stats["cache"]["compiled"]["size"] == 1
        assert "result_disk" not in stats["cache"]


class TestExploreCli:
    def test_list_families(self, capsys):
        assert main(["explore", "--list"]) == 0
        out = capsys.readouterr().out
        for name in family_names():
            assert name in out

    def test_missing_family_is_usage_error(self, capsys):
        assert main(["explore"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_text_sweep(self, capsys):
        assert main(["explore", "racetree", "--grid", "depth=1,2",
                     "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "family 'racetree'" in out
        assert "depth=1" in out and "depth=2" in out
        assert "pareto frontier:" in out

    def test_json_sweep_schema(self, capsys):
        assert main(["explore", "bitonic", "--grid", "n=2,4",
                     "--seeds", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-explore-v2"
        assert payload["grid"] == {"n": [2, 4]}
        assert len(payload["points"]) == 2
        point = payload["points"][0]
        assert point["params"] == {"n": 2}
        assert point["cost"]["jjs"] > 0
        assert point["result"]["runs"] == 5
        assert any(p["pareto"] for p in payload["points"])
        assert payload["passes"][0]["computations"] == 2
        assert payload["engine"]["computations"] == 2
        assert set(payload["engine"]["cache"]) == {"result", "compiled"}

    def test_repeat_second_pass_cache_warm(self, capsys):
        assert main(["explore", "racetree", "--grid", "depth=1,2",
                     "--seeds", "4", "--repeat", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first, second = payload["passes"]
        assert first["computations"] == 2
        assert second["computations"] == 0
        assert second["result_cache_hits"] == 2

    def test_csv_sweep(self, capsys):
        assert main(["explore", "memory", "--grid", "words=4,8",
                     "--grid", "bits=1", "--seeds", "3",
                     "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["family", "words", "bits", "cells"]
        assert len(rows) == 3
        assert rows[1][0] == "memory" and rows[1][1] == "4"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        assert main(["explore", "racetree", "--grid", "depth=1",
                     "--seeds", "3", "--format", "json",
                     "-o", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(target.read_text())["family"] == "racetree"

    def test_default_grid_used_without_flag(self, capsys):
        assert main(["explore", "racetree", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "depth=3" in out   # default grid is depth=1,2,3

    def test_unknown_axis_rejected(self, capsys):
        assert main(["explore", "bitonic", "--grid", "depth=2",
                     "--seeds", "3"]) == 1
        assert "no parameter" in capsys.readouterr().err

    def test_unknown_family_rejected(self, capsys):
        assert main(["explore", "nope", "--seeds", "3"]) == 1
        assert "unknown design family" in capsys.readouterr().err

    def test_bad_repeat_rejected(self, capsys):
        assert main(["explore", "racetree", "--grid", "depth=1",
                     "--repeat", "0"]) == 1
        assert "--repeat" in capsys.readouterr().err
