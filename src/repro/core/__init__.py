"""Core PyLSE reproduction: machines, circuits, simulation, analysis."""

from .analysis import (
    SkewFinding,
    balance_report,
    clock_skew,
    path_delays,
    total_jjs,
)
from .circuit import Circuit, fresh_circuit, reset_working_circuit, working_circuit
from .element import Element, InGen
from .errors import (
    FanoutError,
    HoleError,
    PriorInputViolation,
    PylseError,
    SimulationError,
    TransitionTimeViolation,
    UnconnectedInputError,
    WellFormednessError,
    WireError,
)
from .functional import Functional, hole
from .helpers import inp, inp_at, inspect
from .ir import CompiledCircuit, compile_circuit, structural_hash
from .htmlwave import events_to_html, save_html
from .machine import Configuration, PylseMachine, Transition, WILDCARD
from .montecarlo import YieldResult, critical_sigma, measure_yield, yield_curve
from .parallel import (
    YieldEngine,
    default_engine,
    resolve_workers,
    shutdown_default_engines,
)
from .serialize import circuit_from_json, circuit_to_json
from .simulation import Events, Simulation, TraceEntry, render_waveforms
from .statictiming import (
    MarginRecord,
    critical_path,
    slack_report,
    timing_margins,
    worst_slacks,
)
from .timing import Normal, Uniform, VariabilitySpec
from .transitional import Transitional, parse_transitions
from .vcd import events_to_vcd, save_vcd
from .wire import Wire

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "compile_circuit",
    "structural_hash",
    "SkewFinding",
    "balance_report",
    "clock_skew",
    "MarginRecord",
    "TraceEntry",
    "circuit_from_json",
    "circuit_to_json",
    "critical_path",
    "events_to_html",
    "events_to_vcd",
    "path_delays",
    "save_html",
    "slack_report",
    "timing_margins",
    "worst_slacks",
    "save_vcd",
    "total_jjs",
    "YieldEngine",
    "YieldResult",
    "critical_sigma",
    "default_engine",
    "measure_yield",
    "resolve_workers",
    "shutdown_default_engines",
    "yield_curve",
    "Configuration",
    "Element",
    "Events",
    "FanoutError",
    "Functional",
    "HoleError",
    "InGen",
    "Normal",
    "PriorInputViolation",
    "PylseError",
    "PylseMachine",
    "Simulation",
    "SimulationError",
    "Transition",
    "Transitional",
    "TransitionTimeViolation",
    "Uniform",
    "UnconnectedInputError",
    "VariabilitySpec",
    "WILDCARD",
    "WellFormednessError",
    "Wire",
    "WireError",
    "fresh_circuit",
    "hole",
    "inp",
    "inp_at",
    "inspect",
    "parse_transitions",
    "render_waveforms",
    "reset_working_circuit",
    "working_circuit",
]
