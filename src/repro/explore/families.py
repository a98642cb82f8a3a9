"""The explorer's parameterized design families.

A :class:`DesignFamily` is the parametric analogue of a registry
:class:`~repro.exp.registry.DesignEntry`: a named builder that elaborates
one *design point* — circuit plus canonical violation-free stimulus —
into the working circuit for a given parameter assignment. The canonical
stimulus is part of the design point (it feeds the structural hash, the
baseline predicate, and the latency metric), so equal parameters always
produce structurally identical circuits and cache keys.

Five families ship by default:

* ``bitonic`` — n-input bitonic sorter (Figure 15 generalized), fed a
  bit-reversal permutation of evenly spaced arrival times;
* ``adder_sync`` — n-bit wave-pipelined synchronous ripple adder
  computing the worst case ``(2^n - 1) + 1`` (full carry ripple);
* ``adder_xsfq`` — n-bit clock-free dual-rail ripple adder, same
  operands;
* ``racetree`` — depth-d race-logic decision tree on alternating
  low/high feature values;
* ``memory`` — words x bits behavioral memory hole, written then read
  back at the highest address.

:class:`FamilyFactory` is the picklable circuit factory
(:class:`~repro.exp.registry.RegistryFactory`'s parametric sibling), so
sweeps run unchanged on the process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from ..core.circuit import Circuit, fresh_circuit
from ..core.errors import PylseError
from ..core.helpers import inp, inp_at
from ..designs import adder_sync, adder_xsfq, bitonic, memory, racetree

#: A validated, canonically ordered parameter assignment.
ParamsTuple = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class ParamSpec:
    """One integer parameter of a family: name, doc, and legal range."""

    name: str
    doc: str
    lo: int
    hi: int
    power_of_two: bool = False

    def validate(self, value: object) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise PylseError(
                f"parameter {self.name!r} must be an integer, got {value!r}"
            )
        if not self.lo <= value <= self.hi:
            raise PylseError(
                f"parameter {self.name!r} must be in [{self.lo}, {self.hi}], "
                f"got {value}"
            )
        if self.power_of_two and value & (value - 1):
            raise PylseError(
                f"parameter {self.name!r} must be a power of two, got {value}"
            )
        return value


@dataclass(frozen=True)
class DesignFamily:
    """A parameterized design generator with a canonical stimulus."""

    name: str
    description: str
    params: Tuple[ParamSpec, ...]
    #: Elaborates the design point into the working circuit.
    build: Callable[[Mapping[str, int]], None]
    #: The grid the CLI sweeps when no ``--grid`` is given.
    default_grid: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def normalize(self, params: Mapping[str, int]) -> ParamsTuple:
        """Validate an assignment and return it in canonical spec order."""
        unknown = set(params) - {spec.name for spec in self.params}
        if unknown:
            raise PylseError(
                f"family {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; expected "
                f"{[spec.name for spec in self.params]}"
            )
        normalized = []
        for spec in self.params:
            if spec.name not in params:
                raise PylseError(
                    f"family {self.name!r} needs parameter {spec.name!r}"
                )
            normalized.append((spec.name, spec.validate(params[spec.name])))
        return tuple(normalized)


def _bit_reverse(value: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def _build_bitonic(params: Mapping[str, int]) -> None:
    n = params["n"]
    bits = (n - 1).bit_length()
    # Bit-reversal permutation of a 10 ps grid: distinct, well separated,
    # and thoroughly unsorted, so every comparator stage does real work.
    times = [10.0 + 10.0 * _bit_reverse(k, bits) for k in range(n)]
    ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(times)]
    bitonic.bitonic_sorter(ins, output_names=[f"o{k}" for k in range(n)])


def _build_adder_sync(params: Mapping[str, int]) -> None:
    n = params["n"]
    # Worst-case carry chain: (2^n - 1) + 1 ripples through every bit.
    schedule = adder_sync.ripple_test_times((1 << n) - 1, 1, 0, n)
    a_bits = [inp_at(*schedule[f"a{k}"], name=f"a{k}") for k in range(n)]
    b_bits = [inp_at(*schedule[f"b{k}"], name=f"b{k}") for k in range(n)]
    cin = inp_at(*schedule["cin"], name="cin")
    clk = inp(
        start=adder_sync.CLOCK_PERIOD,
        period=adder_sync.CLOCK_PERIOD,
        n=adder_sync.ripple_clock_pulses(n),
        name="clk",
    )
    sums, cout = adder_sync.ripple_adder(a_bits, b_bits, cin, clk)
    for k, wire in enumerate(sums):
        wire.observe(f"s{k}")
    cout.observe("cout")


def _build_adder_xsfq(params: Mapping[str, int]) -> None:
    n = params["n"]

    def rail(bit: int, name: str):
        true = inp_at(*([10.0] if bit else []), name=f"{name}_t")
        false = inp_at(*([] if bit else [10.0]), name=f"{name}_f")
        return (true, false)

    a = (1 << n) - 1
    b = 1
    a_bits = [rail((a >> k) & 1, f"a{k}") for k in range(n)]
    b_bits = [rail((b >> k) & 1, f"b{k}") for k in range(n)]
    cin = rail(0, "c")
    sums, cout = adder_xsfq.xsfq_ripple_adder(a_bits, b_bits, cin)
    for k, (s_t, s_f) in enumerate(sums):
        s_t.observe(f"s{k}_t")
        s_f.observe(f"s{k}_f")
    cout[0].observe("cout_t")
    cout[1].observe("cout_f")


def _build_racetree(params: Mapping[str, int]) -> None:
    depth = params["depth"]
    # Alternate low/high features by level, the generalization of the
    # registry tree's (3, 15) point: every level flips direction.
    features = [3.0 if level % 2 == 0 else 15.0 for level in range(depth)]
    times = racetree.race_tree_depth_inputs(depth, features)
    pairs = []
    for i in range((1 << depth) - 1):
        pairs.append(
            (
                inp_at(times[f"x{i}"], name=f"x{i}"),
                inp_at(times[f"t{i}"], name=f"t{i}"),
            )
        )
    leaves = racetree.race_tree_depth(pairs)
    for j, leaf in enumerate(leaves):
        leaf.observe(f"leaf{j}")


def _build_memory(params: Mapping[str, int]) -> None:
    words, bits = params["words"], params["bits"]
    mem = memory.make_memory_n(words, bits)
    names = memory.memory_port_names(words, bits)
    last = words - 1
    pattern = sum(1 << k for k in range(0, bits, 2))  # 0b...0101
    abits = (words - 1).bit_length()
    times: Dict[str, List[float]] = {name: [] for name in names}
    # Period 1 (clk at 50): write the pattern to the last address.
    for k in range(abits):
        if (last >> k) & 1:
            times[f"wa{k}"] = [10.0]
    for k in range(bits):
        if (pattern >> k) & 1:
            times[f"d{k}"] = [10.0]
    times["we"] = [10.0]
    # Period 2 (clk at 100): read it back.
    for k in range(abits):
        if (last >> k) & 1:
            times[f"ra{k}"] = [60.0]
    times["clk"] = [50.0, 100.0]
    wires = [inp_at(*times[name], name=name) for name in names]
    outs = mem(*wires)
    outs = outs if isinstance(outs, tuple) else (outs,)
    for wire, k in zip(outs, reversed(range(bits))):
        wire.observe(f"q{k}")


_FAMILIES: Tuple[DesignFamily, ...] = (
    DesignFamily(
        name="bitonic",
        description="n-input bitonic sorter on a bit-reversed time grid",
        params=(ParamSpec("n", "inputs (power of two)", 2, 64,
                          power_of_two=True),),
        build=_build_bitonic,
        default_grid=(("n", (2, 4, 8, 16)),),
    ),
    DesignFamily(
        name="adder_sync",
        description="n-bit synchronous wave-pipelined ripple adder, "
                    "worst-case carry",
        params=(ParamSpec("n", "operand bits", 1, 16),),
        build=_build_adder_sync,
        default_grid=(("n", (1, 2, 4, 8)),),
    ),
    DesignFamily(
        name="adder_xsfq",
        description="n-bit clock-free dual-rail (xSFQ) ripple adder, "
                    "worst-case carry",
        params=(ParamSpec("n", "operand bits", 1, 16),),
        build=_build_adder_xsfq,
        default_grid=(("n", (1, 2, 4, 8)),),
    ),
    DesignFamily(
        name="racetree",
        description="depth-d race-logic decision tree, alternating features",
        params=(ParamSpec("depth", "tree depth", 1, 5),),
        build=_build_racetree,
        default_grid=(("depth", (1, 2, 3)),),
    ),
    DesignFamily(
        name="memory",
        description="words x bits behavioral memory hole, write-then-read",
        params=(
            ParamSpec("words", "addressable words (power of two)", 2, 64,
                      power_of_two=True),
            ParamSpec("bits", "word width", 1, 8),
        ),
        build=_build_memory,
        default_grid=(("words", (4, 16, 64)), ("bits", (1, 2, 4))),
    ),
)


def families() -> Dict[str, DesignFamily]:
    """All registered families, by name."""
    return {family.name: family for family in _FAMILIES}


def family_names() -> List[str]:
    return [family.name for family in _FAMILIES]


def get_family(name: str) -> DesignFamily:
    table = families()
    if name not in table:
        raise PylseError(
            f"unknown design family {name!r}; available: "
            f"{', '.join(family_names())}"
        )
    return table[name]


class FamilyFactory:
    """A picklable ``CircuitFactory`` for one design point.

    Stores the family name and the normalized parameter tuple, so pool
    workers re-elaborate the point from the family table on their side —
    the parametric analogue of
    :class:`~repro.exp.registry.RegistryFactory`.
    """

    #: The circuit is a function of the package source and the point
    #: alone, so a :class:`~repro.exp.measure.Measurer` may persist its
    #: resolution under the point's name.
    source_defined = True

    def __init__(self, family: str, params: Mapping[str, int]):
        spec = get_family(family)
        self.family = family
        self.params: ParamsTuple = spec.normalize(params)

    def __call__(self) -> Circuit:
        spec = get_family(self.family)
        with fresh_circuit() as circuit:
            spec.build(dict(self.params))
        return circuit

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"FamilyFactory({self.family!r}, {inner})"
