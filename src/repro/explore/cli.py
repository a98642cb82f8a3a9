"""The ``python -m repro explore`` subcommand.

Sweeps one design family over a parameter grid and reports cost, latency,
yield, and the Pareto frontier in text, JSON, or CSV. ``--repeat`` runs
the same sweep several times through one engine — the second pass should
be pure cache hits (the CI smoke job asserts it).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from typing import Dict, List

from ..core.errors import PylseError
from ..core.serialize import yield_result_to_jsonable
from .engine import ExploreEngine, SweepResult, parse_grid
from .families import families, get_family

#: Format tag of the JSON payload (bump on shape changes).
EXPLORE_FORMAT = "repro-explore-v2"


def add_explore_parser(sub) -> None:
    """Register the ``explore`` subparser on the main CLI."""
    p = sub.add_parser(
        "explore",
        help="design-space sweep: cost vs latency vs yield over a "
             "parameter grid",
    )
    p.add_argument("family", nargs="?",
                   help="design family to sweep (see --list)")
    p.add_argument("--list", action="store_true", dest="list_families",
                   help="list the available families and their parameters")
    p.add_argument("--grid", action="append", default=[], metavar="SPEC",
                   help="grid axis as 'name=v1,v2,...' (repeatable); "
                        "default: the family's built-in grid")
    p.add_argument("--sigma", type=float, default=0.5,
                   help="Gaussian delay noise in ps (default 0.5)")
    p.add_argument("--seeds", type=int, default=25,
                   help="Monte-Carlo trials per grid point (default 25)")
    p.add_argument("--seed0", type=int, default=0,
                   help="first seed of the contiguous range (default 0)")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="vectorized-drain lane width; 0 = per-seed "
                        "reference drain (default: auto)")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool workers; 0 = one per CPU (default 1)")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="run the sweep N times through one engine; "
                        "passes after the first should be cache-warm")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent on-disk result cache: a re-run sweep "
                        "in a fresh process recomputes nothing, and the "
                        "store is shared with `repro serve --cache-dir`")
    p.add_argument("--format", choices=["text", "json", "csv"],
                   default="text", help="report format (default: text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")


def _list_families() -> str:
    lines = ["Design families (python -m repro explore <family>):"]
    for family in families().values():
        params = ", ".join(
            f"{spec.name} in [{spec.lo}, {spec.hi}]"
            + (" (power of two)" if spec.power_of_two else "")
            for spec in family.params
        )
        default = " ".join(
            f"{name}={','.join(str(v) for v in values)}"
            for name, values in family.default_grid
        )
        lines.append(f"  {family.name:<12} {family.description}")
        lines.append(f"  {'':<12} params: {params}; default grid: {default}")
    return "\n".join(lines)


def _render_text(sweep: SweepResult, passes: List[Dict[str, object]]) -> str:
    pareto = set(id(point) for point in sweep.pareto)
    param_names = [name for name, _ in sweep.grid]
    param_width = max(
        12,
        max(
            (len(" ".join(f"{k}={v}" for k, v in p.params)) for p in sweep.points),
            default=12,
        ),
    )
    header = (
        f"{'params':<{param_width}} {'cells':>6} {'jjs':>6} "
        f"{'area(um^2)':>11} {'static(uW)':>11} {'latency(ps)':>12} "
        f"{'yield':>7} {'cached':>7} {'pareto':>7}"
    )
    lines = [
        f"Design-space sweep: family {sweep.family!r}, "
        f"sigma {sweep.sigma:g} ps, {sweep.n_seeds} seeds/point, "
        f"grid axes {', '.join(param_names)}",
        header,
        "-" * len(header),
    ]
    for point in sweep.points:
        params = " ".join(f"{k}={v}" for k, v in point.params)
        lines.append(
            f"{params:<{param_width}} {point.cost.cells:>6} "
            f"{point.cost.jjs:>6} {point.cost.area_um2:>11.0f} "
            f"{point.cost.static_power_w * 1e6:>11.3f} "
            f"{point.latency_ps:>12.1f} "
            f"{point.yield_fraction:>7.1%} "
            f"{'yes' if point.cached else 'no':>7} "
            f"{'*' if id(point) in pareto else '':>7}"
        )
    lines.append(
        f"pareto frontier: {len(sweep.pareto)}/{len(sweep.points)} "
        f"point(s) non-dominated under (jjs, latency, 1 - yield)"
    )
    for i, entry in enumerate(passes):
        lines.append(
            f"pass {i + 1}: {entry['seconds']:.3f} s, "
            f"{entry['computations']} computation(s), "
            f"{entry['result_cache_hits']} result-cache hit(s), "
            f"{entry['result_disk_hits']} from disk, "
            f"{entry['elaborations']} elaboration(s), "
            f"{entry['resolution_disk_hits']} resolved from disk"
        )
    return "\n".join(lines)


def _jsonable(sweep: SweepResult, passes, engine: ExploreEngine) -> dict:
    pareto = set(id(point) for point in sweep.pareto)
    points = []
    for point in sweep.points:
        points.append(
            {
                "params": dict(point.params),
                "structural_hash": point.digest,
                "cost": {
                    "cells": point.cost.cells,
                    "jjs": point.cost.jjs,
                    "bias_current_a": point.cost.bias_current_a,
                    "static_power_w": point.cost.static_power_w,
                    "area_um2": point.cost.area_um2,
                },
                "latency_ps": point.latency_ps,
                "result": yield_result_to_jsonable(point.result),
                "cached": point.cached,
                "pareto": id(point) in pareto,
            }
        )
    return {
        "format": EXPLORE_FORMAT,
        "family": sweep.family,
        "grid": {name: list(values) for name, values in sweep.grid},
        "sigma": sweep.sigma,
        "n_seeds": sweep.n_seeds,
        "seed0": sweep.seed0,
        "batch": sweep.batch,
        "points": points,
        "passes": passes,
        "engine": engine.stats(),
    }


def _render_csv(sweep: SweepResult) -> str:
    pareto = set(id(point) for point in sweep.pareto)
    param_names = [name for name, _ in sweep.grid]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["family", *param_names, "cells", "jjs", "area_um2",
         "static_power_uw", "latency_ps", "runs", "passed", "yield",
         "cached", "pareto"]
    )
    for point in sweep.points:
        values = dict(point.params)
        writer.writerow(
            [
                sweep.family,
                *(values[name] for name in param_names),
                point.cost.cells,
                point.cost.jjs,
                round(point.cost.area_um2, 1),
                round(point.cost.static_power_w * 1e6, 4),
                round(point.latency_ps, 2),
                point.result.runs,
                point.result.passed,
                round(point.yield_fraction, 4),
                int(point.cached),
                int(id(point) in pareto),
            ]
        )
    return buffer.getvalue().rstrip("\n")


def _disk_hits(stats: dict, block: str) -> int:
    """Hits of one disk namespace's counters (0 without a cache dir):
    ``result_disk`` results read from disk, ``resolution_disk`` points
    resolved without elaborating."""
    counters = stats["cache"].get(block)
    return 0 if counters is None else counters["hits"]


def cmd_explore(args) -> int:
    if args.list_families:
        print(_list_families())
        return 0
    if not args.family:
        print("specify a design family or --list; e.g. "
              "`python -m repro explore bitonic --grid n=2,4,8`",
              file=sys.stderr)
        return 2
    try:
        family = get_family(args.family)
        if args.grid:
            grid = parse_grid(args.grid)
            # Reject axes the family does not have before sweeping.
            known = {spec.name for spec in family.params}
            unknown = set(grid) - known
            if unknown:
                raise PylseError(
                    f"family {family.name!r} has no parameter(s) "
                    f"{sorted(unknown)}; expected {sorted(known)}"
                )
        else:
            grid = {name: list(values) for name, values in family.default_grid}
        if args.repeat < 1:
            raise PylseError(f"--repeat must be >= 1, got {args.repeat}")
        engine = ExploreEngine(workers=args.workers,
                               cache_dir=args.cache_dir)
        passes: List[Dict[str, object]] = []
        sweep = None
        for _ in range(args.repeat):
            before = engine.stats()
            start = time.perf_counter()
            sweep = engine.sweep(
                family.name, grid, sigma=args.sigma, n_seeds=args.seeds,
                seed0=args.seed0, batch=args.batch,
            )
            seconds = time.perf_counter() - start
            after = engine.stats()
            passes.append(
                {
                    "seconds": round(seconds, 6),
                    "computations": after["computations"]
                    - before["computations"],
                    "elaborations": after["elaborations"]
                    - before["elaborations"],
                    "result_cache_hits": after["cache"]["result"]["hits"]
                    - before["cache"]["result"]["hits"],
                    "result_disk_hits": _disk_hits(after, "result_disk")
                    - _disk_hits(before, "result_disk"),
                    "resolution_disk_hits":
                    _disk_hits(after, "resolution_disk")
                    - _disk_hits(before, "resolution_disk"),
                }
            )
    except PylseError as err:
        print(str(err), file=sys.stderr)
        return 1
    if args.format == "text":
        text = _render_text(sweep, passes)
    elif args.format == "json":
        text = json.dumps(_jsonable(sweep, passes, engine), indent=2)
    else:
        text = _render_csv(sweep)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0
