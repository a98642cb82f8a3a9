"""The repository benchmark: cold-path workloads with a per-layer trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``simulate``, ``yield_sweep``,
``reach_lint``, ``serve_mix`` and ``explore``. One run:

1. set-up, ``SETUP_REPS`` times: a fresh interpreter times the import of
   the workload's modules, then this process builds the workload and runs
   one warm-up round; ``setup_s`` is the median of import + build time;
2. the timed loop: rounds, each one fixed unit of work with inputs drawn
   from ``--seed``, until ``--seconds`` have passed (at least
   ``MIN_ROUNDS``), checking every round's outputs after timing it;
3. ``verify``: a few rounds recomputed through a reference path.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (rounds), and ``metrics``. With ``--trace 0``
the metrics are end to end: median and 80th-percentile round latency (the
highest percentile with five rounds beyond it in a 15-second run of the
slowest workload, about 30 rounds) and ``setup_s``. With ``--trace 1``
the layer functions are wrapped in spans (``tracing.py``) and the metrics
are per layer, per round: CPU self time in ms of each layer, and counts
of the work it did.

End-to-end times are *host-speed normalized*. On a shared virtual machine
the same code runs up to ~1.7x slower for seconds at a time while
neighbours are busy, which swamps any change worth measuring. So just
before and after each round (and between set-ups) the benchmark times a
fixed reference job (``reference_seconds``, ``REF_REPS`` times each), and
scales the measured wall time by ``REF_NOMINAL_S`` over the mean of the
reference times. The numbers therefore read as the wall time on a host
where the reference job takes ``REF_NOMINAL_S`` (on a 2-vCPU Xeon at
2.0 GHz under KVM, with CPython 3.11, it takes 2.7-4.5 ms). Per-layer
times are raw CPU time. The whole run is pinned to one CPU.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MIN_ROUNDS = 5
REF_NOMINAL_S = 0.0045
#: Reference jobs averaged per reading: one is noisy on its own.
REF_REPS = 3

#: Per-layer span names, reported as ``<name>_ms`` of self time per round.
LAYER_SPANS = (
    "elaborate", "compile", "sim_drain", "batch_drain", "predicate",
    "mc_engine", "translate", "zone_explore", "zone_successors",
    "dbm_close", "zone_inclusion", "witness_replay", "lint_rules",
    "resolve", "cache", "disk", "codec", "handler", "http",
)
#: Per-layer work counters, reported per round.
LAYER_COUNTS = (
    "sim_pulses", "mc_replays", "zone_states", "dbm_closures",
    "cache_hits", "cache_misses", "disk_hits", "disk_writes",
)


_REF_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8)


def reference_seconds() -> float:
    """Mean time of ``REF_REPS`` runs of a fixed job shaped like the
    program's own work: tuple and string allocation, dict updates and a
    sort, then relaxation steps on a small integer matrix, as in the zone
    explorer's DBM closure. The cyclic garbage collector is held off so
    that it measures host speed only."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(_reference_job() for _ in range(REF_REPS))
    finally:
        if enabled:
            gc.enable()


def _reference_job() -> float:
    started = time.perf_counter()
    items = [((i * 7919) % 1009, str(i)) for i in range(4000)]
    table = {}
    for key, text in items:
        table[key] = table.get(key, ()) + (text,)
    items.sort()
    del items, table
    matrix = _REF_MATRIX
    for i in range(300):
        k = i & 7
        relaxed = matrix[:, k:k + 1] + matrix[k:k + 1, :]
        matrix = np.minimum(matrix, relaxed)
    return time.perf_counter() - started


def import_seconds(modules) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(time.perf_counter() - started)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(cls, seed: int):
    """Build the workload ``SETUP_REPS`` times; keep the last one."""
    times = []
    workload = None
    before = reference_seconds()
    for rep in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        imported = import_seconds(cls.imports)
        started = time.perf_counter()
        workload = cls()
        try:
            workload.setup(random.Random(f"warm-up {seed} {rep}"))
        except BaseException:
            workload.close()
            raise
        elapsed = imported + time.perf_counter() - started
        after = reference_seconds()
        times.append(elapsed * 2 * REF_NOMINAL_S / (before + after))
        before = after
    return workload, statistics.median(times)


def timed_rounds(workload, seed: int, seconds: float, tracer=None):
    """Run rounds for ``seconds``; returns (normalized latencies, raw
    latencies, failed rounds)."""
    rng = random.Random(seed)
    normalized, raw, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_ROUNDS or time.perf_counter() < deadline:
        job = workload.prepare(rng)
        # Each round starts from a collected heap, so the collector's full
        # passes fall at the same points of every round instead of
        # wherever earlier rounds left its counters.
        gc.collect()
        before = reference_seconds()
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        try:
            output = workload.run(job)
        except Exception:
            traceback.print_exc()
            output = None
        raw.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.enabled = False
        after = reference_seconds()
        normalized.append(raw[-1] * 2 * REF_NOMINAL_S / (before + after))
        try:
            ok = output is not None and workload.check(job, output)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    return normalized, raw, failed


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, latencies) -> dict:
    rounds = len(latencies)
    out = {}
    for span in LAYER_SPANS:
        out[f"{span}_ms"] = metric(tracer.self_s[span] * 1e3 / rounds, "ms")
    # Wall time not spent on the CPU inside a layer: untraced code, and
    # waits (disk, thread hand-offs) outside any layer's CPU time.
    accounted = sum(tracer.self_s[span] for span in LAYER_SPANS)
    out["other_ms"] = metric((sum(latencies) - accounted) * 1e3 / rounds,
                             "ms")
    for name in LAYER_COUNTS:
        out[name] = metric(tracer.counts[name] / rounds, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for every thread (the yield service answers on its own
        # thread): a hand-off between threads then never waits for an idle
        # virtual CPU to wake up, which varies far more than the work.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        for module, qualname, span, after in workloads.TRACE_POINTS:
            tracer.patch(module, qualname, span, after)

    workload, setup_s = set_up(cls, args.seed)
    try:
        latencies, raw, failed = timed_rounds(workload, args.seed,
                                              args.seconds, tracer)
        verified = workload.verify()
    finally:
        workload.close()

    if tracer is not None:
        metrics = layer_metrics(tracer, raw)
    else:
        metrics = {
            "latency_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "p80_ms": metric(
                statistics.quantiles(latencies, n=5)[-1] * 1e3, "ms"
            ),
            "setup_s": metric(setup_s, "s"),
        }
    print(json.dumps({
        "correct": verified and failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
