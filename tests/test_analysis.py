"""Tests for static path-delay / design-rule analysis."""

import json
import pathlib
import subprocess
import sys
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    balance_report,
    clock_skew,
    clock_wires,
    path_delays,
    total_jjs,
)
from repro.core.circuit import working_circuit
from repro.core.errors import PylseError
from repro.core.functional import hole
from repro.core.helpers import inp, inp_at
from repro.core.ir import compile_circuit
from repro.core.wire import Wire
from repro.designs import bitonic_delay, bitonic_sorter, full_adder, min_max
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.lint import lint_circuit
from repro.sfq import and_s, c, c_inv, jtl, s, split

from test_random_circuits import build_random_circuit

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "analysis" / "registry.json"


class TestPathDelayTerms:
    """What each term of a path total is: inputs and outputs are the path
    ends, a circuit input's wire adds 0 and a cell's wire its firing delay."""

    def test_terminals_are_inputs_and_outputs(self):
        a = inp_at(10.0, name="A")
        jtl(a, name="Q")
        assert path_delays() == {("A", "Q"): (5.0, 5.0)}

    def test_edge_delays_are_firing_delays(self):
        a = inp_at(10.0, name="A")
        q = jtl(a)
        jtl(q, name="Q")
        assert path_delays() == {("A", "Q"): (10.0, 10.0)}

    def test_override_reflected(self):
        a = inp_at(10.0, name="A")
        q = jtl(a, firing_delay=2.0)
        jtl(q, name="Q")
        assert path_delays() == {("A", "Q"): (7.0, 7.0)}


class TestPathDelays:
    def test_min_max_is_balanced_at_25(self):
        """Figure 11's arithmetic, computed automatically."""
        a = inp_at(115.0, name="A")
        b = inp_at(64.0, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
        delays = path_delays()
        assert delays[("A", "low")] == (25.0, 25.0)
        assert delays[("A", "high")] == (25.0, 25.0)
        assert delays[("B", "low")] == (25.0, 25.0)

    def test_bitonic_depth_delay(self):
        ins = [inp_at(10.0 * k + 5, name=f"i{k}") for k in range(4)]
        bitonic_sorter(ins, output_names=["o0", "o1", "o2", "o3"])
        delays = path_delays()
        expected = bitonic_delay(4)
        assert delays[("i0", "o0")] == (expected, expected)

    def test_unbalanced_paths_detected(self):
        a = inp_at(10.0, name="A")
        a0, a1 = s(a)
        longer = jtl(a1)
        low = c_inv(a0, longer, name="q")
        del low
        delays = path_delays()
        lo, hi = delays[("A", "q")]
        assert hi - lo == 5.0      # the extra JTL

    def test_cycle_rejected(self):
        from repro.core.wire import Wire
        from repro.sfq import M, S

        a = inp_at(10.0, name="A")
        circuit = working_circuit()
        loop = Wire("loop")
        merged = Wire("merged")
        circuit.add_node(M(), [a, loop], [merged])
        out = Wire("OUT")
        circuit.add_node(S(), [merged], [out, loop])
        with pytest.raises(PylseError, match="loops"):
            path_delays()


class TestBalanceReport:
    def test_balanced_min_max_is_clean(self):
        a = inp_at(115.0, name="A")
        b = inp_at(64.0, name="B")
        min_max(a, b)
        assert balance_report() == []

    def test_imbalance_flagged_with_skew(self):
        a = inp_at(10.0, name="A")
        a0, a1 = s(a)
        delayed = jtl(a1, firing_delay=7.0)
        c(a0, delayed, name="q")
        findings = balance_report()
        assert len(findings) == 1
        assert findings[0].cell == "C"
        assert findings[0].skew == 7.0
        assert "skew 7" in str(findings[0])

    def test_tolerance_suppresses_small_skew(self):
        a = inp_at(10.0, name="A")
        a0, a1 = s(a)
        delayed = jtl(a1, firing_delay=1.0)
        c(a0, delayed, name="q")
        assert balance_report(tolerance=2.0) == []
        assert len(balance_report(tolerance=0.5)) == 1

    def test_clk_port_excluded_by_default(self):
        a = inp_at(30.0, name="A")
        b = inp_at(35.0, name="B")
        clk = inp(start=50, period=50, n=2, name="CLK")
        and_s(a, b, clk, name="Q")
        assert balance_report() == []


class TestClockSkew:
    def test_uniform_tree_has_zero_skew(self):
        """The adder's 8-leaf clock tree is deliberately uniform."""
        a = inp_at(30.0, name="a")
        b = inp_at(name="b")
        cin = inp_at(name="cin")
        clk = inp(start=50, period=50, n=5, name="clk")
        full_adder(a, b, cin, clk)
        lo, hi = clock_skew("clk")
        assert lo == hi == 33.0    # three splitter levels

    def test_skewed_tree_detected(self):
        a = inp_at(30.0, name="a")
        b = inp_at(35.0, name="b")
        clk = inp(start=50, period=50, n=2, name="clk")
        c1, c2, c3 = split(clk, n=3)    # depths 1 and 2
        and_s(a, b, c1, name="q1")
        from repro.sfq import dro

        dro(c2, c3)                      # (ab)use: c2 as data, c3 as clock
        lo, hi = clock_skew("clk")
        assert lo == 11.0 and hi == 22.0

    def test_unknown_clock_rejected(self):
        inp_at(10.0, name="A")
        jtl(working_circuit().find_wire("A"), name="Q")
        with pytest.raises(PylseError, match="No circuit input"):
            clock_skew("nope")


class TestTotalJJs:
    def test_min_max_jj_count(self):
        a = inp_at(115.0, name="A")
        b = inp_at(64.0, name="B")
        min_max(a, b)
        # 2 splitters (3) + InvC (6) + C (5) + JTL (2)
        assert total_jjs() == 3 + 3 + 6 + 5 + 2

    def test_jjs_override_counts(self):
        a = inp_at(10.0, name="A")
        jtl(a, jjs=4, name="Q")
        assert total_jjs() == 4


class TestParallelWires:
    """Two wires between the same two cells are two edges, each with its
    own port and delay."""

    def test_clock_beside_data_wire_is_found(self):
        a = inp_at(10.0, name="A")
        clk = inp(start=50, period=50, n=2, name="CLK")
        c0, c1 = s(clk)
        and_s(a, c1, c0, name="Q")
        assert clock_wires() == {"CLK": ["and0"]}
        assert clock_skew("CLK") == (11.0, 11.0)
        assert lint_circuit().clocks == {
            "CLK": {"sinks": 1, "skew": (11.0, 11.0)},
        }

    def test_both_outputs_of_one_cell_converge(self):
        @hole(delay={"x": 3.0, "y": 8.0}, inputs=["a"], outputs=["x", "y"])
        def fork(a, time):
            return a, a

        x, y = fork(inp_at(10.0, name="A"))
        c(x, y, name="Q")
        (finding,) = balance_report()
        assert finding.arrivals == {"a": (3.0, 3.0), "b": (8.0, 8.0)}
        assert finding.skew == 5.0
        lo, hi = path_delays()[("A", "Q")]
        assert hi - lo == 5.0

    def test_unfed_clock_beside_data_wire_is_flagged(self):
        a = inp_at(10.0, name="A")
        c0, c1 = s(Wire("floating"))
        and_s(a, c1, c0, name="Q")
        (finding,) = [
            f for f in lint_circuit().findings if f.rule == "PL203"
        ]
        assert (finding.location.node, finding.location.port) == ("and0", "clk")


def _brute_force_paths(circuit):
    """(input label, last wire id, total) for every path from a circuit
    input, enumerated wire by wire; totals add left to right from 0."""
    compiled = compile_circuit(circuit, validate=False)
    out_wires = defaultdict(list)
    for wid, (src, _) in enumerate(compiled.wire_source):
        out_wires[src].append(wid)

    def delay(wid):
        src, port = compiled.wire_source[wid]
        if compiled.dispatch[src].is_input:
            return 0.0
        return compiled.delay_window(src, port)[1]

    def walk(node, total):
        for wid in out_wires[node]:
            reached = total + delay(wid)
            yield wid, reached
            dest = compiled.wire_dest[wid]
            if dest is not None:
                yield from walk(dest[0], reached)

    paths = []
    for i in compiled.input_ids:
        label = compiled.labels[compiled.dispatch[i].outs[0].wire_id]
        paths.extend((label, wid, total) for wid, total in walk(i, 0.0))
    return compiled, paths


def _window(totals):
    return min(totals), max(totals)


class TestAgainstPathEnumeration:
    @given(
        seed=st.integers(0, 10_000),
        n_inputs=st.integers(2, 4),
        n_cells=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dags_match_brute_force(self, seed, n_inputs, n_cells):
        circuit = build_random_circuit(
            seed, n_inputs, n_cells,
            kinds=("jtl", "s", "m", "c", "c_inv", "dro"), jtl_delays=True,
        )
        compiled, paths = _brute_force_paths(circuit)
        names = [node.name for node in compiled.nodes]

        to_output = defaultdict(list)
        to_port = defaultdict(list)
        to_clk = defaultdict(lambda: defaultdict(list))
        for label, wid, total in paths:
            dest = compiled.wire_dest[wid]
            if dest is None:
                to_output[(label, compiled.labels[wid])].append(total)
            else:
                to_port[(names[dest[0]], dest[1])].append(total)
                if dest[1] == "clk":
                    to_clk[label][wid].append(total)

        assert path_delays(circuit) == {
            key: _window(totals) for key, totals in to_output.items()
        }

        ports = defaultdict(dict)
        for (node, port), totals in to_port.items():
            ports[node][port] = _window(totals)
        assert {
            f.node: f.arrivals
            for f in balance_report(circuit, tolerance=-1.0, ignore_ports=())
        } == {node: window for node, window in ports.items() if len(window) > 1}

        assert set(clock_wires(circuit)) == set(to_clk)
        for label, clk_wires in to_clk.items():
            arrivals = [min(totals) for totals in clk_wires.values()]
            assert clock_skew(label, circuit) == _window(arrivals)


def analysis_snapshot(circuit) -> dict:
    """Every delay-graph result for one circuit, as JSON-ready data."""
    try:
        delays = [[a, b, lo, hi] for (a, b), (lo, hi) in path_delays(circuit).items()]
    except PylseError as exc:
        delays = str(exc)
    try:
        balance = [
            {"node": f.node, "cell": f.cell, "skew": f.skew,
             "arrivals": [[p, lo, hi] for p, (lo, hi) in f.arrivals.items()]}
            for f in balance_report(circuit)
        ]
    except PylseError as exc:
        balance = str(exc)
    report = lint_circuit(circuit, select="PL20")
    return json.loads(json.dumps({
        "path_delays": delays,
        "balance_report": balance,
        "clock_skew": {
            label: clock_skew(label, circuit) for label in clock_wires(circuit)
        },
        "lint_findings": [f.to_jsonable() for f in report.findings],
        "lint_clocks": report.clocks,
    }))


@pytest.mark.parametrize("entry", registry(), ids=lambda entry: entry.name)
def test_registry_analyses_match_golden(entry):
    """Regenerate after an intended change with
    ``PYTHONPATH=src:tests python tools/gen_analysis_goldens.py``."""
    golden = json.loads(GOLDEN.read_text())[entry.name]
    assert analysis_snapshot(build_in_fresh_circuit(entry)) == golden


def test_import_does_not_load_networkx():
    code = "import sys, repro, repro.lint; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert result.stdout.strip() == "False"
