"""Structural JSON serialization of circuits.

A placed circuit of standard cells and input generators round-trips through
a documented JSON format (``repro-circuit-v1``), so elaborated designs can
be archived, diffed, and exchanged without re-running the Python that built
them. Functional holes wrap arbitrary callables and are rejected (their
behavior is code, not structure).

Timing distributions (``Normal``/``Uniform``) and per-instance overrides
(``firing_delay``, ``transition_time``, ``jjs``) are preserved.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional, Type

from .circuit import Circuit
from .element import InGen
from .errors import PylseError
from .ir import compile_circuit
from .timing import Normal, Uniform
from .transitional import Transitional
from .wire import Wire

if TYPE_CHECKING:
    from .montecarlo import YieldResult

FORMAT = "repro-circuit-v1"


def _encode_delay(value):
    if isinstance(value, Normal):
        return {"dist": "normal", "mean": value.mean, "stddev": value.stddev}
    if isinstance(value, Uniform):
        return {"dist": "uniform", "low": value.low, "high": value.high}
    return value


def _decode_delay(value):
    if isinstance(value, dict):
        if value.get("dist") == "normal":
            return Normal(value["mean"], value["stddev"])
        if value.get("dist") == "uniform":
            return Uniform(value["low"], value["high"])
        return {k: _decode_delay(v) for k, v in value.items()}
    return value


def _encode_overrides(overrides: Dict[str, object]) -> Dict[str, object]:
    encoded: Dict[str, object] = {}
    for key, value in overrides.items():
        if key == "transition_time":
            encoded[key] = {
                f"{src}:{trigger}": time
                for (src, trigger), time in value.items()  # type: ignore[union-attr]
            }
        elif key == "firing_delay":
            if isinstance(value, dict):
                encoded[key] = {k: _encode_delay(v) for k, v in value.items()}
            else:
                encoded[key] = _encode_delay(value)
        else:
            encoded[key] = value
    return encoded


def _decode_overrides(encoded: Dict[str, object]) -> Dict[str, object]:
    decoded: Dict[str, object] = {}
    for key, value in encoded.items():
        if key == "transition_time":
            decoded[key] = {
                tuple(pair.split(":", 1)): time
                for pair, time in value.items()  # type: ignore[union-attr]
            }
        elif key == "firing_delay":
            decoded[key] = _decode_delay(value)
        else:
            decoded[key] = value
    return decoded


def circuit_to_json(circuit: Circuit, indent: Optional[int] = 2) -> str:
    """Serialize a circuit's structure (cells, wiring, input schedules).

    Consumes the compiled IR's node order (elaboration order), tolerantly
    compiled so partially-built circuits still serialize for diffing.
    """
    compiled = compile_circuit(circuit, validate=False)
    nodes: List[dict] = []
    for node in compiled.nodes:
        element = node.element
        if isinstance(element, InGen):
            wire = node.output_wires["out"]
            nodes.append({
                "kind": "input",
                "name": node.name,
                "wire": wire.name,
                "observed_as": wire.observed_as,
                "times": list(element.times),
            })
            continue
        if not isinstance(element, Transitional):
            raise PylseError(
                f"Cannot serialize node {node.name}: Functional (hole) "
                "elements wrap arbitrary Python and have no structural form"
            )
        nodes.append({
            "kind": "cell",
            "name": node.name,
            "cell": type(element).__name__,
            "overrides": _encode_overrides(element.overrides),
            "inputs": {
                port: wire.name for port, wire in node.input_wires.items()
            },
            "outputs": {
                port: {"wire": wire.name, "observed_as": wire.observed_as}
                for port, wire in node.output_wires.items()
            },
        })
    return json.dumps({"format": FORMAT, "nodes": nodes}, indent=indent)


def _default_cell_registry() -> Dict[str, Type[Transitional]]:
    from ..sfq import BASIC_CELLS, EXTENSION_CELLS

    return {cls.__name__: cls for cls in BASIC_CELLS + EXTENSION_CELLS}


def circuit_from_json(
    text: str,
    extra_cells: Optional[Dict[str, Type[Transitional]]] = None,
) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_json` output.

    Custom cell classes (outside the standard library and extensions) must
    be supplied via ``extra_cells`` keyed by class name.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise PylseError(f"Invalid circuit JSON: {err}") from None
    if payload.get("format") != FORMAT:
        raise PylseError(
            f"Unsupported circuit format {payload.get('format')!r}; "
            f"expected {FORMAT!r}"
        )
    registry = _default_cell_registry()
    if extra_cells:
        registry.update(extra_cells)

    circuit = Circuit()
    wires: Dict[str, Wire] = {}
    #: (wire, label) aliases to attach once the wire has joined the circuit.
    pending: List[tuple] = []

    def get_wire(name: str, observed_as: Optional[str] = None) -> Wire:
        # An auto-shaped name (``_`` plus digits) was assigned by the
        # circuit, not the user: rebuild the wire anonymous so it keeps its
        # per-circuit ``_k`` name and stays out of the structural hash's
        # user labels. Its alias, if any, is attached after placement, the
        # way a cell output is observed after elaboration.
        if name not in wires:
            auto = name[:1] == "_" and name[1:].isdigit()
            wires[name] = Wire(None if auto else name)
            if observed_as and observed_as != name:
                if auto:
                    pending.append((wires[name], observed_as))
                else:
                    wires[name].observe(observed_as)
        return wires[name]

    def place(element, in_wires, out_wires, name) -> None:
        circuit.add_node(element, in_wires, out_wires, name=name)
        for wire, label in pending:
            wire.observe(label)
        pending.clear()

    for spec in payload.get("nodes", []):
        kind = spec.get("kind")
        if kind == "input":
            wire = get_wire(spec["wire"], spec.get("observed_as"))
            element = InGen(spec["times"])
            place(element, [], [wire], spec.get("name"))
        elif kind == "cell":
            cell_name = spec["cell"]
            if cell_name not in registry:
                raise PylseError(
                    f"Unknown cell class {cell_name!r}; pass it via extra_cells"
                )
            cls = registry[cell_name]
            element = cls(**_decode_overrides(spec.get("overrides", {})))
            in_wires = [
                get_wire(spec["inputs"][port]) for port in element.inputs
            ]
            out_wires = [
                get_wire(
                    spec["outputs"][port]["wire"],
                    spec["outputs"][port].get("observed_as"),
                )
                for port in element.outputs
            ]
            place(element, in_wires, out_wires, spec.get("name"))
        else:
            raise PylseError(f"Unknown node kind {kind!r} in circuit JSON")
    return circuit


class SerializedCircuitFactory:
    """A picklable ``CircuitFactory`` over a ``repro-circuit-v1`` document.

    Stores only the JSON text, so instances ship cleanly to the process-pool
    workers of :mod:`repro.core.parallel` and rebuild a *fresh* circuit per
    call — the contract :func:`repro.core.montecarlo.measure_yield` requires
    of its factory. This is how the yield service (:mod:`repro.serve`) turns
    a client-submitted circuit into an engine task.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        # Fail fast on malformed documents (and normalize str-vs-obj input
        # at the caller): a bad circuit should be rejected at request time,
        # not inside a worker process.
        if not isinstance(text, str):
            raise PylseError(
                f"SerializedCircuitFactory expects the circuit JSON text, "
                f"got {type(text).__name__}"
            )
        self.text = text

    def __call__(self) -> Circuit:
        return circuit_from_json(self.text)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SerializedCircuitFactory):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"SerializedCircuitFactory({len(self.text)} chars)"


#: Format tag of the served yield-result JSON schema (docs/serving.md).
RESULT_FORMAT = "repro-yield-result-v1"


def yield_result_to_jsonable(result: "YieldResult") -> Dict[str, object]:
    """A stable, backend-independent JSON form of a :class:`YieldResult`.

    Covers exactly the fields that participate in ``YieldResult`` equality
    — sigma, counts, and the seed-keyed failures map — and deliberately
    omits the batched-drain diagnostics (``batched_lanes``,
    ``fallback_seeds``, ``divergence``): those describe *how* a backend ran
    the sweep, differ between equally-correct backends, and would break the
    byte-identical cache contract of :mod:`repro.serve`. Keys are sorted
    (failures by seed), so equal results always serialize to equal text.
    """
    return {
        "format": RESULT_FORMAT,
        "sigma": result.sigma,
        "runs": result.runs,
        "passed": result.passed,
        "mis_behaved": result.mis_behaved,
        "violations": result.violations,
        "yield": result.yield_fraction,
        # JSON object keys are strings; sorted by numeric seed so the
        # rendered text is independent of dict insertion order.
        "failures": {
            str(seed): kind
            for seed, kind in sorted(result.failures.items())
        },
    }


def yield_result_from_jsonable(doc: Dict[str, object]) -> "YieldResult":
    """Rebuild a :class:`YieldResult` from its JSON form.

    The inverse of :func:`yield_result_to_jsonable` on the fields that
    participate in equality: a round-tripped result compares equal to the
    original (the omitted batched-drain diagnostics are ``compare=False``,
    and per-cell ``stats`` are never serialized — a measurement that
    collected them cannot round-trip through this form). This is how the
    persistent disk tier of :mod:`repro.cache` rehydrates explorer
    results.
    """
    from .montecarlo import YieldResult

    if not isinstance(doc, dict):
        raise PylseError(
            f"yield-result document must be an object, "
            f"got {type(doc).__name__}"
        )
    if doc.get("format") != RESULT_FORMAT:
        raise PylseError(
            f"unsupported yield-result format {doc.get('format')!r} "
            f"(expected {RESULT_FORMAT!r})"
        )
    try:
        failures_doc = doc.get("failures", {})
        if not isinstance(failures_doc, dict):
            raise TypeError("'failures' must be an object")
        return YieldResult(
            sigma=float(doc["sigma"]),
            runs=int(doc["runs"]),
            passed=int(doc["passed"]),
            mis_behaved=int(doc["mis_behaved"]),
            violations=int(doc["violations"]),
            failures={
                int(seed): str(kind)
                for seed, kind in failures_doc.items()
            },
        )
    except (KeyError, TypeError, ValueError) as err:
        raise PylseError(
            f"malformed yield-result document: {err}"
        ) from None
