"""Seeded circuit generators with functional checks.

Each generator draws its parameters once from a ``random.Random`` and is
then a picklable circuit factory (``__call__`` elaborates a fresh
circuit), so the same object feeds ``Simulation``, ``measure_yield`` and
the yield service. ``ok(events)`` is the Monte-Carlo pass criterion (the
design computed its function under noise); ``exact(events)`` also checks
the nominal (noise-free) output times where the design fixes them.
"""

from __future__ import annotations

import random

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp, inp_at
from repro.core.wire import Wire
from repro.designs import adder_sync, bitonic, racetree
from repro.sfq import BASIC_CELLS


class Sorter:
    """Bitonic sorter of ``n`` pulses at distinct random arrival times.

    ``digits`` rounds the times (1: the 0.1 ps grid the timed-automata
    translation needs)."""

    def __init__(self, rng: random.Random, n: int, digits=None):
        slots = list(range(n))
        rng.shuffle(slots)
        # 12 ps slots keep every comparator clear of its transition times.
        times = (10.0 + 12.0 * s + rng.uniform(0.0, 2.0) for s in slots)
        self.times = tuple(t if digits is None else round(t, digits)
                           for t in times)

    def __call__(self):
        n = len(self.times)
        with fresh_circuit() as circuit:
            ins = [inp_at(t, name=f"i{k}") for k, t in enumerate(self.times)]
            bitonic.bitonic_sorter(ins, output_names=[f"o{k}" for k in range(n)])
        return circuit

    def ok(self, events) -> bool:
        n = len(self.times)
        if any(len(events[f"o{k}"]) != 1 for k in range(n)):
            return False
        firsts = [events[f"o{k}"][0] for k in range(n)]
        return firsts == sorted(firsts)

    def exact(self, events) -> bool:
        n = len(self.times)
        want = sorted(t + bitonic.bitonic_delay(n) for t in self.times)
        return self.ok(events) and all(
            abs(events[f"o{k}"][0] - w) < 1e-6 for k, w in enumerate(want)
        )


class RippleAdder:
    """n-bit synchronous ripple adder computing ``a + b + cin``.

    Operands left as None are drawn from ``rng``. Pulses that encode 1s
    of the same bit position (``a``, ``b``, and ``cin`` for bit 0) reach
    their cells in the same instant; under noise such a pulse group
    splits, which the batched Monte-Carlo drain does not follow, so every
    lane of such an addition is replayed on the per-seed drain.
    """

    def __init__(self, rng: random.Random, n: int, a=None, b=None,
                 cin=None):
        self.n = n
        self.a = rng.randrange(1 << n) if a is None else a
        self.b = rng.randrange(1 << n) if b is None else b
        self.cin = rng.randrange(2) if cin is None else cin

    def __call__(self):
        n = self.n
        schedule = adder_sync.ripple_test_times(self.a, self.b, self.cin, n)
        with fresh_circuit() as circuit:
            a_bits = [inp_at(*schedule[f"a{k}"], name=f"a{k}") for k in range(n)]
            b_bits = [inp_at(*schedule[f"b{k}"], name=f"b{k}") for k in range(n)]
            cin = inp_at(*schedule["cin"], name="cin")
            clk = inp(start=adder_sync.CLOCK_PERIOD,
                      period=adder_sync.CLOCK_PERIOD,
                      n=adder_sync.ripple_clock_pulses(n), name="clk")
            sums, cout = adder_sync.ripple_adder(a_bits, b_bits, cin, clk)
            for k, wire in enumerate(sums):
                wire.observe(f"s{k}")
            cout.observe("cout")
        return circuit

    def ok(self, events) -> bool:
        labels = [f"s{k}" for k in range(self.n)] + ["cout"]
        counts = [len(events[label]) for label in labels]
        if any(c > 1 for c in counts):
            return False
        return sum(c << k for k, c in enumerate(counts)) == \
            self.a + self.b + self.cin

    exact = ok


class RaceTree:
    """Depth-``d`` race-logic decision tree on random feature arrivals."""

    def __init__(self, rng: random.Random, depth: int):
        self.depth = depth
        # Thresholds sit at 10 ps; features stay 4+ ps clear of them, well
        # outside the DRO_C hold window, on either side.
        self.features = tuple(
            rng.uniform(2.0, 6.0) if rng.random() < 0.5
            else rng.uniform(14.0, 18.0)
            for _ in range(depth)
        )
        self.leaf = racetree.expected_leaf(depth, self.features)

    def __call__(self):
        times = racetree.race_tree_depth_inputs(self.depth, self.features)
        with fresh_circuit() as circuit:
            pairs = [
                (inp_at(times[f"x{i}"], name=f"x{i}"),
                 inp_at(times[f"t{i}"], name=f"t{i}"))
                for i in range((1 << self.depth) - 1)
            ]
            for j, leaf in enumerate(racetree.race_tree_depth(pairs)):
                leaf.observe(f"leaf{j}")
        return circuit

    def ok(self, events) -> bool:
        return all(
            len(events[f"leaf{j}"]) == (1 if j == self.leaf else 0)
            for j in range(1 << self.depth)
        )

    exact = ok


#: Base pulse schedules for the linted cells (their violation-free
#: stimuli in the Table 3 registry), before per-seed jitter.
_CELL_STIMULUS = {
    "AND": {"a": [30.0, 115.0], "b": [65.0, 130.0], "clk": [50.0, 100.0, 150.0]},
    "DRO_SR": {"a": [30.0, 115.0], "rst": [70.0], "clk": [50.0, 100.0, 150.0]},
}
CELL_CLASSES = {cls.name: cls for cls in BASIC_CELLS}


class JitteredCell:
    """One basic cell driven by its base schedule, each pulse jittered.

    The jitter keeps every pulse clear of the clock's setup and hold
    windows. With ``setup_violation`` the first data pulse is moved to
    0.5-2 ps before the second clock pulse instead, inside any clocked
    cell's setup time, so the reachability lint finds a timing violation
    and replays its witness.
    """

    JITTER_PS = 4.0

    def __init__(self, rng: random.Random, name: str,
                 setup_violation: bool = False):
        self.name = name
        # Rounded to the 0.1 ps grid the timed-automata translation needs.
        self.schedule = {
            port: tuple(
                round(t + rng.uniform(-self.JITTER_PS, self.JITTER_PS), 1)
                for t in times
            )
            for port, times in _CELL_STIMULUS[name].items()
        }
        if setup_violation:
            late = self.schedule["clk"][1] - rng.uniform(0.5, 2.0)
            self.schedule["a"] = (round(late, 1),) + self.schedule["a"][1:]

    def __call__(self):
        cls = CELL_CLASSES[self.name]
        with fresh_circuit() as circuit:
            ins = [inp_at(*sorted(self.schedule[port]), name=port.upper())
                   for port in cls.inputs]
            outs = [Wire(f"OUT_{port}") for port in cls.outputs]
            circuit.add_node(cls(), ins, outs)
        return circuit
