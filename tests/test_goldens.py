"""Golden-output regression tests: every registry design's events are pinned.

The JSON files under tests/goldens/ were generated by tools/gen_goldens.py;
any behavioral change to a cell's timing or a design's structure shows up
here as an exact diff. Regenerate deliberately after intentional changes.
"""

import json
import pathlib

import pytest

from repro.core.simulation import Simulation
from repro.exp.registry import build_in_fresh_circuit, registry
from repro.obs import Observer

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def slug(name: str) -> str:
    return name.lower().replace(" ", "_").replace("(", "").replace(")", "")


#: Every drain mode must reproduce the goldens: a plain run, a run with
#: the dispatch trace recorded, and a run with an observer attached.
MODES = {
    "plain": lambda: {},
    "record": lambda: {"record": True},
    "observer": lambda: {"observer": Observer()},
}
CASES = [(entry, mode) for mode in MODES for entry in registry()]


def case_id(case):
    """Plain runs keep the bare design name as their test id."""
    entry, mode = case
    return entry.name if mode == "plain" else f"{entry.name}-{mode}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_events_match_golden(case):
    entry, mode = case
    path = GOLDEN_DIR / f"{slug(entry.name)}.json"
    assert path.exists(), f"missing golden for {entry.name}; run tools/gen_goldens.py"
    golden = json.loads(path.read_text())
    circuit = build_in_fresh_circuit(entry)
    sim = Simulation(circuit)
    events = sim.simulate(**MODES[mode]())
    named = {
        name: times for name, times in sorted(events.items())
        if not name.startswith("_")
    }
    assert named == golden["events"], f"{entry.name} diverged from golden ({mode})"
    if mode == "record":
        assert_state_chain(circuit, sim.trace)


def assert_state_chain(circuit, trace):
    """Per node, the recorded machine states form one unbroken chain.

    A node's first dispatch starts from its machine's initial state, and
    every later one from the state the previous dispatch left it in.
    Elements without a machine record no states.
    """
    assert trace
    machines = {
        node.name: getattr(node.element, "machine", None)
        for node in circuit.nodes
    }
    last = {}
    for entry in trace:
        machine = machines[entry.node]
        if machine is None:
            assert entry.state_before is None and entry.state_after is None
            continue
        assert entry.state_before == last.get(entry.node, machine.initial), entry
        last[entry.node] = entry.state_after


def test_no_stale_goldens():
    expected = {f"{slug(e.name)}.json" for e in registry()}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
