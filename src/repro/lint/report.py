"""Lint reports and the text / JSON / SARIF 2.1.0 emitters.

A :class:`LintReport` bundles the findings for one lint target (a design,
an ad-hoc circuit, or a single machine) with the timing summary the
interval analysis produced. The module-level emitters accept a list of
reports so ``repro lint --all`` renders every registry design into a single
document — one SARIF ``run``, one JSON payload, one text stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .findings import Finding, Severity
from .rules import sarif_rule_index

#: SARIF 2.1.0 constants.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-lint"


@dataclass
class LintReport:
    """Findings plus analysis summaries for one lint target."""

    findings: Tuple[Finding, ...]
    #: Registry design name, or None for ad-hoc circuits / single machines.
    design: Optional[str] = None
    #: Timing summary from the interval analysis: ``checks`` (pair count),
    #: ``safe_margin`` (worst provable slack in ps, None when unconstrained).
    timing: Mapping[str, object] = field(default_factory=dict)
    #: True when the timing analysis was skipped (feedback loops).
    timing_skipped: bool = False
    #: Structural clock summary: input label -> {"sinks": n, "skew": (lo, hi)}.
    clocks: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: The compiled circuit's structural hash (baseline fingerprints key on
    #: it); None for single-machine reports.
    structural_hash: Optional[str] = None
    #: Reachability (PL4xx) summary: states/transitions/elapsed/truncated/
    #: cached — empty when the layer did not run.
    reach: Mapping[str, object] = field(default_factory=dict)
    #: Why the reachability layer was skipped (requested but not runnable:
    #: Functional holes, no cells); None when it ran or was not requested.
    reach_skipped: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        result = {s.label: 0 for s in Severity}
        for finding in self.findings:
            result[finding.severity.label] += 1
        return result

    def max_severity(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings), default=None)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]

    def render_text(self) -> str:
        lines: List[str] = []
        title = self.design if self.design is not None else "<circuit>"
        lines.append(f"== {title} ==")
        for finding in self.findings:
            lines.append(finding.render())
        for label, info in sorted(self.clocks.items()):
            lo, hi = info["skew"]  # type: ignore[misc]
            lines.append(
                f"clock {label!r}: reaches {info['sinks']} clocked cell(s), "
                f"arrival window [{lo:g}, {hi:g}] ps (skew {hi - lo:g} ps)"
            )
        if self.reach_skipped is not None:
            lines.append(f"reach: skipped ({self.reach_skipped})")
        elif self.reach:
            trunc = (
                f", truncated ({self.reach.get('truncation_reason')})"
                if self.reach.get("truncated") else ""
            )
            cached = " [cached]" if self.reach.get("cached") else ""
            lines.append(
                f"reach: {self.reach.get('states', 0)} state(s), "
                f"{self.reach.get('transitions', 0)} transition(s) explored "
                f"in {self.reach.get('elapsed', 0.0):.2f}s{trunc}{cached}"
            )
        if self.timing_skipped:
            lines.append("timing: skipped (feedback loops)")
        elif self.timing:
            margin = self.timing.get("safe_margin")
            margin_text = (
                f", worst safe margin {margin:g} ps" if margin is not None else ""
            )
            lines.append(
                f"timing: {self.timing.get('checks', 0)} constraint pair(s) "
                f"checked{margin_text}"
            )
        counts = self.counts()
        lines.append(
            f"summary: {counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['info']} info"
        )
        return "\n".join(lines)

    def to_jsonable(self) -> dict:
        payload: dict = {
            "design": self.design,
            "findings": [f.to_jsonable() for f in self.findings],
            "counts": self.counts(),
        }
        if self.structural_hash is not None:
            payload["structural_hash"] = self.structural_hash
        if self.reach_skipped is not None:
            payload["reach"] = {"skipped": self.reach_skipped}
        elif self.reach:
            payload["reach"] = dict(self.reach)
        if self.clocks:
            payload["clocks"] = {
                label: {"sinks": info["sinks"], "skew": list(info["skew"])}  # type: ignore[index]
                for label, info in self.clocks.items()
            }
        if self.timing_skipped:
            payload["timing"] = {"skipped": True}
        elif self.timing:
            payload["timing"] = dict(self.timing)
        return payload


def max_severity(reports: Sequence[LintReport]) -> Optional[Severity]:
    """Worst severity across a batch of reports (None when all clean)."""
    severities = [s for r in reports if (s := r.max_severity()) is not None]
    return max(severities, default=None)


def render_text(reports: Sequence[LintReport]) -> str:
    """The human-readable multi-design report."""
    return "\n\n".join(r.render_text() for r in reports)


def json_payload(reports: Sequence[LintReport]) -> dict:
    """The machine-readable report (``--format json``)."""
    return {
        "format": "repro-lint-v1",
        "tool": TOOL_NAME,
        "reports": [r.to_jsonable() for r in reports],
    }


def sarif_payload(reports: Sequence[LintReport]) -> dict:
    """A SARIF 2.1.0 log with one run covering every report.

    Findings become ``results`` whose ``logicalLocations`` carry the
    design-qualified element path; the full rule catalog rides along in
    ``tool.driver.rules`` so viewers can show titles and rationales. A
    truncated reach analysis adds a ``toolExecutionNotifications`` entry to
    ``invocations[0]``; the run has no ``invocations`` otherwise.
    """
    rules, index = sarif_rule_index()
    results = []
    notifications = []
    for report in reports:
        if report.reach.get("truncated"):
            title = report.design if report.design is not None else "<circuit>"
            reason = report.reach.get("truncation_reason")
            states = report.reach.get("states", 0)
            notifications.append({
                "level": "warning",
                "message": {"text": (
                    f"{title}: reach analysis truncated ({reason}) after "
                    f"{states} state(s); PL4xx findings may be incomplete"
                )},
                "properties": {
                    "design": report.design,
                    "truncation_reason": reason,
                    "states": states,
                },
            })
        for finding in report.findings:
            qualified = finding.location.qualified_name()
            if report.design is not None:
                qualified = f"{report.design}::{qualified}"
            result: dict = {
                "ruleId": finding.rule,
                "ruleIndex": index[finding.rule],
                "level": finding.severity.sarif_level,
                "message": {"text": finding.message},
                "locations": [{
                    "logicalLocations": [{
                        "name": finding.location.qualified_name(),
                        "fullyQualifiedName": qualified,
                        "kind": finding.location.kind,
                    }],
                }],
            }
            properties: dict = {}
            if report.design is not None:
                properties["design"] = report.design
            if finding.path:
                properties["path"] = list(finding.path)
            if finding.data:
                properties.update(finding.data)
            if properties:
                result["properties"] = properties
            results.append(result)
    run: dict = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "informationUri": "https://doi.org/10.1145/3519939.3523438",
                "rules": rules,
            },
        },
        "results": results,
    }
    if notifications:
        run["invocations"] = [{
            "executionSuccessful": True,
            "toolExecutionNotifications": notifications,
        }]
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}
