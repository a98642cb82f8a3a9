"""Emitter tests: text rendering plus golden JSON and SARIF 2.1.0 outputs.

The golden files under tests/goldens_lint/ pin the exact report formats; an
intentional format change must regenerate them (see the module docstring of
tools/gen_lint_goldens.py).
"""

import json
import pathlib

from repro.core.circuit import reset_working_circuit
from repro.core.helpers import inp_at
from repro.lint import (
    ReachBudget,
    json_payload,
    lint_circuit,
    render_text,
    sarif_payload,
    sarif_rule_index,
)
from repro.sfq import and_s, jtl

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens_lint"


def build_reference_circuit():
    """A small deterministic circuit with one finding of each severity:
    a guaranteed setup violation (error), a dangling wire (warning) — and,
    in isolation, a statically-safe margin (info) is exercised elsewhere."""
    a = inp_at(10.0, name="a")
    b = inp_at(10.0, name="b")
    clk = inp_at(12.0, name="clk")
    and_s(jtl(a), jtl(b), jtl(clk), name="q")
    spare = inp_at(0.0, name="spare")
    jtl(spare)  # dangling: PL202
    return lint_circuit(design="reference")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestGoldens:
    def test_json_matches_golden(self):
        report = build_reference_circuit()
        golden = (GOLDEN_DIR / "reference.json").read_text()
        assert _dump(json_payload([report])) == golden

    def test_sarif_matches_golden(self):
        report = build_reference_circuit()
        golden = (GOLDEN_DIR / "reference.sarif").read_text()
        assert _dump(sarif_payload([report])) == golden


class TestSarifStructure:
    def test_sarif_is_2_1_0(self):
        report = build_reference_circuit()
        doc = sarif_payload([report])
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_rule_indices_align(self):
        report = build_reference_circuit()
        doc = sarif_payload([report])
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == sorted(r["id"] for r in rules)
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_severity_levels_map_to_sarif(self):
        _, index = sarif_rule_index()
        report = build_reference_circuit()
        doc = sarif_payload([report])
        levels = {r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]}
        assert levels["PL301"] == "error"
        assert levels["PL202"] == "warning"
        assert set(index) >= set(levels)

    def test_logical_locations_carry_design(self):
        report = build_reference_circuit()
        doc = sarif_payload([report])
        loc = doc["runs"][0]["results"][0]["locations"][0]["logicalLocations"][0]
        assert loc["fullyQualifiedName"].startswith("reference::")
        assert loc["kind"] in {"node", "port", "wire", "machine", "circuit"}

    def test_violation_path_rides_in_properties(self):
        report = build_reference_circuit()
        doc = sarif_payload([report])
        pl301 = [
            r for r in doc["runs"][0]["results"] if r["ruleId"] == "PL301"
        ]
        assert pl301
        assert any("in:clk@12" in hop
                   for r in pl301 for hop in r["properties"]["path"])


class TestJsonAndText:
    def test_json_payload_shape(self):
        report = build_reference_circuit()
        payload = json_payload([report])
        assert payload["format"] == "repro-lint-v1"
        (entry,) = payload["reports"]
        assert entry["design"] == "reference"
        assert entry["counts"]["error"] == 2
        rules = {f["rule"] for f in entry["findings"]}
        assert {"PL301", "PL202"} <= rules

    def test_text_render(self):
        report = build_reference_circuit()
        text = render_text([report])
        assert text.startswith("== reference ==")
        assert "PL301 error" in text
        assert "in:clk@12" in text
        assert "summary: 2 error(s)" in text


class TestSarifTruncation:
    @staticmethod
    def _reach_report(design, max_states):
        a = inp_at(10.0, 50.0, name="a")
        jtl(jtl(a), name="q")
        report = lint_circuit(
            design=design, reach=True,
            reach_budget=ReachBudget(max_states=max_states, time_limit=None),
        )
        reset_working_circuit()
        return report

    def test_truncated_reach_adds_an_execution_notification(self):
        truncated = self._reach_report("cut", max_states=2)
        complete = self._reach_report("whole", max_states=None)
        assert truncated.reach["truncated"] and not complete.reach["truncated"]
        run = sarif_payload([complete, truncated])["runs"][0]
        (invocation,) = run["invocations"]
        assert invocation["executionSuccessful"] is True
        (note,) = invocation["toolExecutionNotifications"]
        assert note["level"] == "warning"
        assert note["properties"] == {
            "design": "cut",
            "truncation_reason": "max_states",
            "states": truncated.reach["states"],
        }
        assert note["message"]["text"].startswith(
            "cut: reach analysis truncated (max_states) after 2 state(s)"
        )
        assert "invocations" not in sarif_payload([complete])["runs"][0]
