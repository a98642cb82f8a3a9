"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "JTL" in out and "Min-Max" in out

    def test_datasheet(self, capsys):
        assert main(["datasheet", "AND"]) == 0
        out = capsys.readouterr().out
        assert "Cell: AND" in out and "q@9.2" in out

    def test_datasheet_unknown_cell(self, capsys):
        assert main(["datasheet", "NOPE"]) == 2
        assert "Unknown cell" in capsys.readouterr().err

    def test_dot(self, capsys):
        assert main(["dot", "DRO"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "DRO"')

    def test_simulate(self, capsys):
        assert main(["simulate", "JTL"]) == 0
        out = capsys.readouterr().out
        assert "pulses" in out

    def test_simulate_with_vcd(self, tmp_path, capsys):
        vcd = tmp_path / "out.vcd"
        assert main(["simulate", "Min-Max", "--vcd", str(vcd)]) == 0
        assert vcd.exists()
        assert "$timescale" in vcd.read_text()

    def test_yield_sequential(self, capsys):
        assert main(["yield", "Min-Max", "--sigma", "0.1",
                     "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "Monte-Carlo yield for Min-Max" in out
        assert "runs: 5" in out
        assert "yield:" in out

    def test_yield_parallel_matches_cli_contract(self, capsys):
        assert main(["yield", "Min-Max", "--sigma", "0.1", "--seeds", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "workers: 2" in out

    def test_yield_help_has_no_backend_knobs(self, capsys):
        """--workers (with --batch) is the only backend control."""
        with pytest.raises(SystemExit):
            main(["yield", "--help"])
        out = capsys.readouterr().out
        assert "--workers" in out
        assert "--engine" not in out and "--min-seeds-parallel" not in out

    def test_yield_stats(self, capsys):
        assert main(["yield", "Min-Max", "--sigma", "0.1", "--seeds", "3",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "yield:" in out
        assert "simulation metrics (3 runs)" in out

    def test_yield_stats_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "sweep.json"
        assert main(["yield", "Min-Max", "--sigma", "0.1", "--seeds", "3",
                     "--stats-json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-obs-metrics-v1"
        assert payload["runs"] == 3

    def test_yield_unknown_design(self, capsys):
        assert main(["yield", "NOPE"]) == 2

    def test_yield_negative_workers_exits_1(self, capsys):
        assert main(["yield", "Min-Max", "--seeds", "2",
                     "--workers", "-1"]) == 1
        err = capsys.readouterr().err
        assert "workers must be a non-negative integer" in err

    def test_yield_unpicklable_predicate_exits_1(self, capsys, monkeypatch):
        # A closure predicate cannot be shipped to pool workers; the CLI
        # must surface the PylseError as a clean nonzero exit, not a
        # mid-pool traceback.
        import repro.__main__ as cli

        monkeypatch.setattr(
            cli, "PulseCountPredicate", lambda baseline: (lambda events: True)
        )
        assert main(["yield", "Min-Max", "--seeds", "4",
                     "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert "picklable" in err

    def test_verify_satisfied(self, capsys):
        assert main(["verify", "JTL"]) == 0
        assert "SATISFIED" in capsys.readouterr().out

    def test_verify_budget_exhaustion_nonzero_exit(self, capsys):
        code = main(["verify", "Bitonic Sort 4", "--max-states", "50",
                     "--time-limit", "5"])
        assert code == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_energy(self, capsys):
        assert main(["energy", "Min-Max"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out and "aJ" in out

    def test_unknown_design(self, capsys):
        assert main(["simulate", "NOPE"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliExtensions:
    def test_lint_clean_design(self, capsys):
        assert main(["lint", "Min-Max"]) == 0
        out = capsys.readouterr().out
        assert "== Min-Max ==" in out
        assert "0 error(s)" in out

    def test_lint_reports_imbalance(self, capsys):
        # The race tree's leaf C elements see deliberately skewed inputs:
        # warnings, so the default --fail-on error still exits 0.
        assert main(["lint", "Race Tree"]) == 0
        assert "PL205 warning" in capsys.readouterr().out
        assert main(["lint", "Race Tree", "--fail-on", "warning"]) == 1

    def test_lint_reports_clock_structurally(self, capsys):
        main(["lint", "Adder (Sync)"])
        out = capsys.readouterr().out
        assert "clock 'clk': reaches 7 clocked cell(s)" in out

    def test_lint_multiple_designs(self, capsys):
        assert main(["lint", "Min-Max", "Race Tree"]) == 0
        out = capsys.readouterr().out
        assert "== Min-Max ==" in out and "== Race Tree ==" in out

    def test_lint_all_registry_designs_error_free(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert out.count("== ") >= 16

    def test_lint_select_and_ignore(self, capsys):
        assert main(["lint", "Race Tree", "--select", "PL3"]) == 0
        assert "PL205" not in capsys.readouterr().out
        assert main(["lint", "Race Tree", "--ignore", "PL205",
                     "--fail-on", "warning"]) == 0

    def test_lint_sarif_format(self, capsys):
        assert main(["lint", "Adder (Sync)", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in doc["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_lint_json_format_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "lint.json"
        assert main(["lint", "Min-Max", "--format", "json",
                     "-o", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["format"] == "repro-lint-v1"
        assert doc["reports"][0]["design"] == "Min-Max"

    def test_lint_requires_names_or_all(self, capsys):
        assert main(["lint"]) == 2

    def test_lint_unknown_design(self, capsys):
        assert main(["lint", "NOPE"]) == 2

    def test_trace(self, capsys):
        assert main(["trace", "JTL"]) == 0
        out = capsys.readouterr().out
        assert "jtl0(JTL)" in out
        assert "timing slack report" in out

    def test_trace_stats(self, capsys):
        assert main(["trace", "Min-Max", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "simulation metrics" in out
        assert "max heap depth" in out
        assert "idle--a->idle" in out  # transition tallies by label

    def test_trace_stats_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["trace", "Min-Max", "--stats-json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-obs-metrics-v1"
        assert "jtl0" in payload["cells"]

    def test_trace_provenance_wire(self, capsys):
        assert main(["trace", "Min-Max", "--provenance", "high"]) == 0
        out = capsys.readouterr().out
        assert "causal chain of last pulse on 'high':" in out
        assert "(circuit input" in out

    def test_trace_provenance_trace_mode(self, capsys):
        assert main(["trace", "JTL", "--provenance", "trace"]) == 0
        out = capsys.readouterr().out
        assert "(circuit input" in out

    def test_trace_provenance_unknown_wire_exits_1(self, capsys):
        assert main(["trace", "Min-Max", "--provenance", "nope"]) == 1
        assert "No pulse recorded" in capsys.readouterr().err

    def test_export_stdout(self, capsys):
        assert main(["export", "JTL"]) == 0
        out = capsys.readouterr().out
        assert '"format": "repro-circuit-v1"' in out

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "circuit.json"
        assert main(["export", "Min-Max", "-o", str(target)]) == 0
        import json

        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-circuit-v1"

    def test_export_roundtrips_via_library(self, tmp_path, capsys):
        from repro.core.serialize import circuit_from_json
        from repro.core.simulation import Simulation

        target = tmp_path / "mm.json"
        main(["export", "Min-Max", "-o", str(target)])
        rebuilt = circuit_from_json(target.read_text())
        events = Simulation(rebuilt).simulate()
        assert events["low"] == [89.0, 209.0, 329.0]


class TestCacheCli:
    """`python -m repro cache stats|gc|clear` against real stores.

    The stores are written by the actual consumers — the yield service,
    the explore engine, and the reach lint — so these tests also pin that
    one directory serves all three (distinct namespaces, one CLI).
    """

    @pytest.fixture()
    def populated_store(self, tmp_path):
        from repro.exp.registry import build_in_fresh_circuit, registry
        from repro.explore.engine import ExploreEngine
        from repro.lint.reach_rules import analyze_reach, clear_reach_cache
        from repro.serve import YieldService

        store = tmp_path / "store"
        YieldService(cache_dir=store).yield_(
            {"design": "Min-Max", "sigma": 0.5, "n_seeds": 4}
        )
        ExploreEngine(cache_dir=store).measure(
            "bitonic", {"n": 2}, sigma=0.5, n_seeds=4
        )
        entry = next(e for e in registry() if e.name == "AND")
        clear_reach_cache()
        analyze_reach(build_in_fresh_circuit(entry), cache_dir=store)
        return store

    def test_stats_text_and_json(self, populated_store, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(populated_store)]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "lint" in out

        assert main(["cache", "stats", "--cache-dir",
                     str(populated_store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["namespaces"]["results"]["entries"] == 2
        assert payload["namespaces"]["lint"]["entries"] == 1

    def test_gc_bounds_the_store(self, populated_store, capsys):
        assert main(["cache", "gc", "--cache-dir", str(populated_store),
                     "--max-bytes", "1K"]) == 0
        assert "gc: removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir",
                     str(populated_store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bytes"] <= 1024

    def test_clear_namespace_then_all(self, populated_store, capsys):
        assert main(["cache", "clear", "--cache-dir", str(populated_store),
                     "--namespace", "lint"]) == 0
        assert "namespace 'lint'" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir",
                     str(populated_store)]) == 0
        assert "whole store" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir",
                     str(populated_store), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_gc_rejects_bad_size(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "lots"]) == 1
        assert "size must look like" in capsys.readouterr().err

    def test_serve_cli_accepts_cache_dir(self, tmp_path, capsys):
        # The explore path exercises --cache-dir end-to-end through the
        # CLI; a second run against the same store computes nothing.
        store = tmp_path / "explore-store"
        assert main(["explore", "bitonic", "--grid", "n=2", "--seeds", "4",
                     "--cache-dir", str(store), "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["passes"][0]["computations"] == 1
        assert main(["explore", "bitonic", "--grid", "n=2", "--seeds", "4",
                     "--cache-dir", str(store), "--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["passes"][0]["computations"] == 0
        # The point's resolution came from the store: nothing elaborated.
        assert second["passes"][0]["elaborations"] == 0
        assert second["passes"][0]["resolution_disk_hits"] == 1
        # Identical measurements; only the cached diagnostic flips.
        strip = [
            [dict(p, cached=None) for p in run["points"]]
            for run in (first, second)
        ]
        assert strip[0] == strip[1]
        assert all(p["cached"] for p in second["points"])

    def test_explore_rerun_counts_disk_result_hits(self, tmp_path, capsys):
        """A re-run served from the disk store counts its hits: the
        memory tier of the new engine never saw them."""
        store = str(tmp_path / "explore-store")
        args = ["explore", "bitonic", "--grid", "n=2,4", "--seeds", "4",
                "--cache-dir", store]
        assert main(args + ["--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)["passes"][0]
        assert (first["result_cache_hits"], first["result_disk_hits"]) == (0, 0)
        assert main(args + ["--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)["passes"][0]
        assert second["computations"] == 0
        assert second["result_cache_hits"] == 0
        assert second["result_disk_hits"] == 2
        assert main(args) == 0
        assert "0 result-cache hit(s), 2 from disk" in capsys.readouterr().out
