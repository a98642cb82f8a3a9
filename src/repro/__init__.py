"""repro — a reproduction of PyLSE (PLDI 2022).

A pulse-transfer level language for superconductor electronics, embedded in
Python. The public API mirrors the paper's ``pylse`` package::

    import repro as pylse

    a = pylse.inp_at(125, 175, 225, 275, name='A')
    b = pylse.inp_at(75, 185, 225, 265, name='B')
    clk = pylse.inp(start=50, period=50, n=6, name='CLK')
    out = pylse.and_s(a, b, clk, name='Q')
    sim = pylse.Simulation()
    events = sim.simulate()
    assert events['Q'] == [209.2, 259.2, 309.2]
    sim.plot()

Subpackages:

* :mod:`repro.core` — PyLSE Machine formalism, circuits, simulation;
* :mod:`repro.sfq` — the 16-cell standard library;
* :mod:`repro.designs` — the paper's six larger designs;
* :mod:`repro.ta` — translation to Timed Automata and UPPAAL export;
* :mod:`repro.mc` — a zone-based model checker for the generated TA;
* :mod:`repro.analog` — a junction-level (RCSJ) analog circuit simulator;
* :mod:`repro.exp` — harnesses regenerating each table/figure.
"""

from time import time_ns as _time_ns

#: When this package began importing (ns since the epoch). A package file
#: modified later may not be the code this process runs, so
#: :func:`repro.exp.measure.source_digest` then gives up.
_IMPORTED_NS = _time_ns()

from .core import (
    Circuit,
    CompiledCircuit,
    compile_circuit,
    structural_hash,
    SkewFinding,
    balance_report,
    clock_skew,
    events_to_html,
    events_to_vcd,
    path_delays,
    measure_yield,
    yield_curve,
    critical_sigma,
    YieldEngine,
    YieldResult,
    save_html,
    circuit_to_json,
    circuit_from_json,
    slack_report,
    timing_margins,
    worst_slacks,
    critical_path,
    TraceEntry,
    MarginRecord,
    save_vcd,
    total_jjs,
    Configuration,
    Events,
    FanoutError,
    Functional,
    HoleError,
    Normal,
    PriorInputViolation,
    PylseError,
    PylseMachine,
    Simulation,
    SimulationError,
    Transition,
    Transitional,
    TransitionTimeViolation,
    Uniform,
    WellFormednessError,
    Wire,
    WireError,
    fresh_circuit,
    hole,
    inp,
    inp_at,
    inspect,
    render_waveforms,
    reset_working_circuit,
    working_circuit,
)
from .sfq import (
    AND,
    BASIC_CELLS,
    EXTENSION_CELLS,
    NDRO,
    T1,
    ndro,
    t1,
    C,
    DRO,
    DRO_C,
    DRO_SR,
    INV,
    InvC,
    JOIN,
    JTL,
    M,
    NAND,
    NOR,
    OR,
    S,
    SFQ,
    XNOR,
    XOR,
    and_s,
    c,
    c_inv,
    dro,
    dro_c,
    dro_sr,
    inv_s,
    join,
    jtl,
    m,
    nand_s,
    nor_s,
    or_s,
    s,
    split,
    xnor_s,
    xor_s,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "Circuit", "CompiledCircuit", "compile_circuit", "structural_hash",
    "SkewFinding", "balance_report",
    "clock_skew", "critical_sigma", "events_to_html", "events_to_vcd",
    "measure_yield", "path_delays", "save_html", "save_vcd", "total_jjs",
    "yield_curve", "YieldEngine", "YieldResult", "circuit_to_json",
    "circuit_from_json",
    "slack_report", "timing_margins", "worst_slacks", "critical_path",
    "TraceEntry", "MarginRecord", "Configuration", "Events", "FanoutError", "Functional",
    "HoleError", "Normal", "PriorInputViolation", "PylseError",
    "PylseMachine", "Simulation", "SimulationError", "Transition",
    "Transitional", "TransitionTimeViolation", "Uniform",
    "WellFormednessError", "Wire", "WireError", "fresh_circuit", "hole",
    "inp", "inp_at", "inspect", "render_waveforms", "reset_working_circuit",
    "working_circuit",
    # cells
    "AND", "BASIC_CELLS", "C", "DRO", "DRO_C", "DRO_SR", "EXTENSION_CELLS",
    "INV", "InvC", "JOIN", "JTL", "M", "NAND", "NDRO", "NOR", "OR", "S",
    "SFQ", "T1", "XNOR", "XOR",
    "and_s", "c", "c_inv", "dro", "dro_c", "dro_sr", "inv_s", "join", "jtl",
    "m", "nand_s", "ndro", "nor_s", "or_s", "s", "split", "t1", "xnor_s",
    "xor_s",
]
