"""The 22 evaluated designs (Table 3): builders plus canonical stimuli.

Each entry knows how to elaborate its circuit into the working circuit with
a violation-free input schedule, so every experiment (simulation counts, TA
translation statistics, model checking) can iterate over the same registry.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.circuit import Circuit, fresh_circuit
from ..core.helpers import inp, inp_at
from ..core.transitional import Transitional
from ..designs import adder_sync, adder_xsfq, bitonic, minmax, racetree
from ..sfq import BASIC_CELLS, functions as fn


@dataclass(frozen=True)
class DesignEntry:
    """One Table 3 row: a name, a builder, and whether it is a basic cell."""

    name: str
    build: Callable[[], None]       # elaborates into the working circuit
    is_basic_cell: bool
    #: DSL size: transitions written for basic cells, source lines for designs
    dsl_size: int


def _cell_stimulus(cell_cls) -> Dict[str, List[float]]:
    """A violation-free pulse schedule exercising one basic cell."""
    name = cell_cls.name
    if name in ("C", "C_INV", "M"):
        return {"a": [30.0, 110.0], "b": [60.0, 140.0]}
    if name in ("S", "JTL"):
        return {"a": [30.0, 80.0]}
    if name in ("AND", "OR", "NAND", "NOR", "XOR", "XNOR"):
        return {"a": [30.0, 115.0], "b": [65.0, 130.0], "clk": [50.0, 100.0, 150.0]}
    if name == "INV":
        return {"a": [30.0, 115.0], "clk": [50.0, 100.0, 150.0]}
    if name in ("DRO", "DRO_C"):
        return {"a": [30.0, 115.0], "clk": [50.0, 100.0, 150.0]}
    if name == "DRO_SR":
        return {"a": [30.0, 115.0], "rst": [70.0], "clk": [50.0, 100.0, 150.0]}
    if name == "JOIN":
        return {
            "a_t": [20.0], "b_f": [45.0], "a_f": [80.0], "b_t": [105.0]
        }
    raise ValueError(f"No stimulus defined for cell {name}")


def _build_basic_cell(cell_cls) -> Callable[[], None]:
    def build() -> None:
        stimulus = _cell_stimulus(cell_cls)
        wires = [
            inp_at(*stimulus[port], name=port.upper())
            for port in cell_cls.inputs
        ]
        element = cell_cls()
        from ..core.circuit import working_circuit
        from ..core.wire import Wire

        outs = [Wire(f"OUT_{port}") for port in cell_cls.outputs]
        working_circuit().add_node(element, wires, outs)

    return build


def _build_min_max() -> None:
    a = inp_at(115.0, 215.0, 315.0, name="A")
    b = inp_at(64.0, 184.0, 304.0, name="B")
    low, high = minmax.min_max(a, b)
    low.observe("low")
    high.observe("high")


def _build_race_tree() -> None:
    times = racetree.race_tree_inputs(3.0, 15.0)
    wires = {k: inp_at(v, name=k) for k, v in times.items()}
    leaves = racetree.race_tree(
        wires["x1"], wires["t1"], wires["x2a"], wires["t2"],
        wires["x2b"], wires["t3"],
    )
    for leaf, label in zip(leaves, "abcd"):
        leaf.observe(label)


def _build_adder_sync() -> None:
    schedule = adder_sync.adder_test_times(1, 0, 1)
    a = inp_at(*schedule["a"], name="a")
    b = inp_at(*schedule["b"], name="b")
    cin = inp_at(*schedule["cin"], name="cin")
    clk = inp(start=50.0, period=adder_sync.CLOCK_PERIOD, n=5, name="clk")
    total, carry = adder_sync.full_adder(a, b, cin, clk)
    total.observe("sum")
    carry.observe("cout")


def _build_adder_xsfq() -> None:
    def rail(bit: int, name: str):
        true = inp_at(*([10.0] if bit else []), name=f"{name}_t")
        false = inp_at(*([] if bit else [10.0]), name=f"{name}_f")
        return (true, false)

    total, carry = adder_xsfq.xsfq_full_adder(
        rail(1, "a"), rail(1, "b"), rail(0, "c")
    )
    total[0].observe("sum_t")
    total[1].observe("sum_f")
    carry[0].observe("cout_t")
    carry[1].observe("cout_f")


def _build_bitonic(n: int) -> Callable[[], None]:
    def build() -> None:
        base = {4: [20.0, 55.0, 5.0, 40.0],
                8: [20.0, 70.0, 10.0, 45.0, 5.0, 90.0, 33.0, 60.0]}[n]
        ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(base)]
        bitonic.bitonic_sorter(ins, output_names=[f"o{k}" for k in range(n)])

    return build


def _source_lines(obj) -> int:
    return len(inspect.getsource(obj).splitlines())


def _build_entries() -> Tuple[DesignEntry, ...]:
    entries = [
        DesignEntry(
            name=cls.name,
            build=_build_basic_cell(cls),
            is_basic_cell=True,
            dsl_size=len(cls.transitions),
        )
        for cls in BASIC_CELLS
    ]
    entries += [
        DesignEntry("Min-Max", _build_min_max, False,
                    _source_lines(minmax.min_max)),
        DesignEntry("Race Tree", _build_race_tree, False,
                    _source_lines(racetree.race_tree)),
        DesignEntry("Adder (Sync)", _build_adder_sync, False,
                    _source_lines(adder_sync.full_adder)),
        DesignEntry("Adder (xSFQ)", _build_adder_xsfq, False,
                    _source_lines(adder_xsfq.xsfq_full_adder)),
        DesignEntry("Bitonic Sort 4", _build_bitonic(4), False,
                    _source_lines(bitonic.bitonic_sorter)),
        DesignEntry("Bitonic Sort 8", _build_bitonic(8), False,
                    _source_lines(bitonic.bitonic_sorter)),
    ]
    return tuple(entries)


@functools.lru_cache(maxsize=None)
def _table() -> Tuple[Tuple[DesignEntry, ...], Dict[str, DesignEntry]]:
    """(entries in Table 3 order, name -> entry), built once per process:
    the composite designs' sizes read their source, a few ms each."""
    entries = _build_entries()
    return entries, {entry.name: entry for entry in entries}


def registry() -> List[DesignEntry]:
    """All 22 designs in Table 3 order (a fresh list of shared entries)."""
    return list(_table()[0])


def registry_entry(name: str) -> Optional[DesignEntry]:
    """The registry design called ``name``, or None."""
    return _table()[1].get(name)


def pylse_stats(circuit: Circuit) -> Dict[str, int]:
    """Table 3's PyLSE columns for an elaborated circuit."""
    cells = [n for n in circuit.cells() if isinstance(n.element, Transitional)]
    return {
        "cells": len(cells),
        "states": sum(len(n.element.machine.states) for n in cells),
        "transitions": sum(len(n.element.machine.transitions) for n in cells),
    }


def build_in_fresh_circuit(entry: DesignEntry) -> Circuit:
    """Elaborate an entry in an isolated circuit and return it."""
    with fresh_circuit() as circuit:
        entry.build()
    return circuit


class RegistryFactory:
    """A picklable ``CircuitFactory`` for a registry design.

    Stores only the design name, so instances can be shipped to the
    process-pool workers of :mod:`repro.core.parallel` and re-elaborate the
    design from the registry on the other side.
    """

    #: The circuit is a function of the package source and the name
    #: alone, so a :class:`~repro.exp.measure.Measurer` may persist its
    #: resolution under the name.
    source_defined = True

    def __init__(self, name: str):
        self.name = name

    def __call__(self) -> Circuit:
        entry = registry_entry(self.name)
        if entry is None:
            raise ValueError(f"Unknown registry design {self.name!r}")
        return build_in_fresh_circuit(entry)

    def __repr__(self) -> str:
        return f"RegistryFactory({self.name!r})"


class PulseCountPredicate:
    """Monte-Carlo pass criterion: every named wire pulses as often as in
    the noiseless baseline run.

    Only user-visible wire labels are compared (auto-generated ``_N`` names
    are not stable across elaborations). Picklable, so it works with
    ``measure_yield(..., workers=N)``.
    """

    def __init__(self, baseline_events: Dict[str, List[float]]):
        self.expected = {
            label: len(times)
            for label, times in baseline_events.items()
            if not label.startswith("_")
        }

    @classmethod
    def from_counts(cls, expected: Dict[str, int]) -> "PulseCountPredicate":
        """The predicate whose baseline pulsed each label ``expected`` times."""
        predicate = cls({})
        predicate.expected = dict(expected)
        return predicate

    def __call__(self, events: Dict[str, List[float]]) -> bool:
        return all(
            len(events.get(label, ())) == count
            for label, count in self.expected.items()
        )

    def __repr__(self) -> str:
        return f"PulseCountPredicate({len(self.expected)} wires)"
