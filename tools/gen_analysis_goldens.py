"""Regenerate tests/goldens/analysis/registry.json — every registry design's
path delays, balance report, clock skews and PL20x lint results.

The snapshot lives in tests/test_analysis.py (``analysis_snapshot``). Run
from the repository root after an intentional analysis change:

    PYTHONPATH=src:tests python tools/gen_analysis_goldens.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.exp.registry import build_in_fresh_circuit, registry  # noqa: E402

from test_analysis import GOLDEN, analysis_snapshot  # noqa: E402


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    snapshots = {
        entry.name: analysis_snapshot(build_in_fresh_circuit(entry))
        for entry in registry()
    }
    GOLDEN.write_text(json.dumps(snapshots, indent=1) + "\n")
    print(f"wrote {len(snapshots)} analysis snapshots to {GOLDEN}")


if __name__ == "__main__":
    main()
