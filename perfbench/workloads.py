"""The five benchmark workloads and the layer boundaries traced in them.

Every workload is *cold*: each round builds new circuits or starts a
fresh service or engine, so no compile memo, resolution cache,
reach-analysis cache or result cache holds the round's answers before it
starts (hits inside a round, where the traffic repeats itself, are part
of the measured work). A round is one fixed unit of user work whose
composition is the same for every seed; the seed draws only the values
inside it (pulse times, operands, noise levels, seed ranges, request
order). ``prepare`` draws a round's inputs and ``run`` does the work,
both inside the round's span of time but only ``run`` timed; ``check``
then tests that round's outputs outside the timed region, and ``verify``
re-derives a few rounds through a reference path after the timed loop.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import threading
from contextlib import ExitStack
from http.client import HTTPConnection
from pathlib import Path

from designs import JitteredCell, RaceTree, RippleAdder, Sorter
from repro.cache import MISSING
from repro.core.errors import SimulationError
from repro.core.montecarlo import measure_yield
from repro.core.serialize import yield_result_to_jsonable
from repro.core.simulation import Simulation
from repro.exp.registry import PulseCountPredicate, RegistryFactory, registry
from repro.explore import ExploreEngine
from repro.explore.families import FamilyFactory
from repro.lint import ReachBudget, clear_reach_cache, lint_circuit
from repro.obs import Observer
from repro.serve import YieldService, serving

#: Rounds re-derived through a reference path by ``verify``.
VERIFY_ROUNDS = 2
#: The checkout: scratch stores (the explore workload's disk cache) live
#: here, under a name the root ``.gitignore`` lists.
ROOT = Path(__file__).resolve().parent.parent


class Workload:
    #: Modules whose import is part of the set-up time.
    imports: tuple = ()

    def __init__(self):
        self.kept = []

    def setup(self, rng: random.Random) -> None:
        """Everything before the timed loop, including one warm-up round
        (first-touch costs such as numpy ufunc set-up) on its own inputs."""
        job = self.prepare(rng)
        if not self.check(job, self.run(job)):
            raise RuntimeError(f"{type(self).__name__}: warm-up round failed")
        self.kept.clear()

    def prepare(self, rng: random.Random):
        raise NotImplementedError

    def run(self, job):
        """The timed work of one round; returns its outputs."""
        raise NotImplementedError

    def check(self, job, output) -> bool:
        """Whether one round's outputs are correct (not timed)."""
        raise NotImplementedError

    def verify(self) -> bool:
        return True

    def close(self) -> None:
        pass

    def _keep(self, item) -> None:
        if len(self.kept) < VERIFY_ROUNDS:
            self.kept.append(item)


class Simulate(Workload):
    """Cold single simulations: elaborate, compile and drain fresh circuits
    (8- and 16-input bitonic sorters, an 8-bit clocked ripple adder, a
    depth-3 race tree; two of each) and check each output exactly against
    the design's function and delays."""

    imports = ("repro.core.simulation", "repro.designs")

    def prepare(self, rng):
        # Two of each, so the collector's periodic full passes over the
        # discarded circuits land in most rounds rather than a few.
        return [design for _ in range(2) for design in (
            Sorter(rng, 8), Sorter(rng, 16), RippleAdder(rng, 8),
            RaceTree(rng, 3),
        )]

    def run(self, job):
        return [Simulation(design()).simulate() for design in job]

    def check(self, job, output):
        return all(design.exact(events)
                   for design, events in zip(job, output))


#: (design, its arguments, sigma range in ps, seeds) per yield
#: measurement in a round. On the sorter and the race tree the noise puts
#: a few percent of the lanes off the nominal schedule, so the batched
#: drain does most of the work and replays the rest per seed; the adder's
#: coincident operand pulses send every lane to the per-seed replay.
SWEEP = (
    (Sorter, {"n": 8}, 0.85, 0.95, 128),
    (RaceTree, {"depth": 4}, 2.2, 2.4, 128),
    (RippleAdder, {"n": 1, "a": 1, "b": 1}, 0.5, 1.0, 32),
)
class YieldSweep(Workload):
    """Cold Monte-Carlo yield: one ``measure_yield`` for each of three
    fresh designs (bitonic-8 sorter, depth-4 race tree, one-bit clocked
    adder) at a random noise level, on the default batched-drain backend.
    Each round's outcomes are spot-checked on the per-seed reference
    drain (``batch=0``): its first seed and its first failing seed, run
    alone, must be classified the same way. ``verify`` compares whole
    results with ``batch=0``, which must give identical ones."""

    imports = ("repro.core.montecarlo", "repro.designs")

    def prepare(self, rng):
        job = []
        for cls, kwargs, lo, hi, n_seeds in SWEEP:
            seed0 = rng.randrange(1 << 30)
            job.append((cls(rng, **kwargs), rng.uniform(lo, hi),
                        range(seed0, seed0 + n_seeds)))
        return job

    def run(self, job):
        return [measure_yield(design, design.ok, sigma, seeds=seeds)
                for design, sigma, seeds in job]

    def check(self, job, output):
        self._keep((job, output))
        for (design, sigma, seeds), result in zip(job, output):
            if result.runs != len(seeds):
                return False
            for seed in {seeds[0], min(result.failures, default=seeds[0])}:
                alone = measure_yield(design, design.ok, sigma, seeds=[seed],
                                      batch=0)
                if alone.failures.get(seed) != result.failures.get(seed):
                    return False
        return True

    def verify(self):
        return all(
            measure_yield(design, design.ok, sigma, seeds=seeds, batch=0)
            == result
            for job, results in self.kept
            for (design, sigma, seeds), result in zip(job, results)
        )


#: No wall-clock limit: every analysis here completes, so its result does
#: not depend on machine load.
LINT_BUDGET = ReachBudget(max_states=20_000, time_limit=None)


class ReachLint(Workload):
    """Cold reachability lint (``lint_circuit(reach=True)``: PL1xx-PL3xx
    rules, TA translation, zone exploration, witness replay), with the
    analysis cache cleared first, of three circuits: a Min-Max comparator
    (the 2-input bitonic sorter, a multi-cell circuit) on random arrival
    times, and two clocked cells under jittered schedules, one of them
    with a setup violation. Checked against the simulator: every cell the
    nominal run finds violating must carry a PL403 finding, and no
    transition the nominal run fired may be reported dead (PL401)."""

    imports = ("repro.lint", "repro.obs")

    def prepare(self, rng):
        return [
            ("Min-Max", Sorter(rng, 2, digits=1)),
            ("DRO_SR", JitteredCell(rng, "DRO_SR")),
            ("AND", JitteredCell(rng, "AND", setup_violation=True)),
        ]

    def run(self, job):
        output = []
        for name, factory in job:
            circuit = factory()
            clear_reach_cache()
            output.append((circuit, lint_circuit(
                circuit, design=name, reach=True, reach_budget=LINT_BUDGET,
            )))
        return output

    def check(self, job, output):
        return all(_agrees_with_simulation(circuit, report)
                   for circuit, report in output)


def _agrees_with_simulation(circuit, report) -> bool:
    reach = report.reach
    if not reach or reach["cached"] or reach["truncated"]:
        return False
    observer = Observer(provenance=False, metrics=True)
    try:
        Simulation(circuit).simulate(observer=observer)
    except SimulationError:
        pass
    cells = observer.metrics.cells
    violating = {name for name, c in cells.items() if c.violations}
    fired = {(name, label) for name, c in cells.items()
             for label in c.transitions}
    labels = {(node.name, t.id): t.label for node in circuit.cells()
              for t in node.element.machine.transitions}
    reported = {f.location.node for f in report.findings if f.rule == "PL403"}
    dead = {(f.location.node, labels[f.location.node, f.location.transition_id])
            for f in report.findings if f.rule == "PL401"}
    return violating <= reported and not dead & fired


def http_request(conn: HTTPConnection, method: str, path: str, body=None):
    """One request on a keep-alive connection: (status, cache, raw body)."""
    data = None if body is None else json.dumps(body)
    conn.request(method, path, body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.headers.get("X-Repro-Cache"), \
        response.read()


#: The traffic of ``tools/loadtest.py`` in its default ``mixed`` mode:
#: closed-loop clients on keep-alive connections, ``POST /yield`` with a
#: zipf skew of exponent ``ZIPF_S`` over the registry (composite designs
#: ranked hottest), ``N_SEEDS`` seeds at sigma ``SIGMA``.
CLIENTS = 8
REQUESTS = 32
ZIPF_S = 1.1
N_SEEDS = 25
SIGMA = 0.5


def zipf_counts(n_designs: int, requests: int) -> list:
    """Requests per design rank: the zipf shares rounded by largest
    remainder, so every round has the same hit/miss split (32 requests
    over 22 designs: 15 distinct designs, i.e. 15 misses and 17 hits)."""
    weights = [(rank + 1) ** -ZIPF_S for rank in range(n_designs)]
    quotas = [requests * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n_designs),
                          key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:requests - sum(counts)]:
        counts[i] += 1
    return counts


class ServeMix(Workload):
    """Mixed yield-service traffic as ``tools/loadtest.py`` generates it,
    against an in-process server with one worker. Each round is one load
    test on a cold service (a fresh ``YieldService`` behind the listening
    socket, as after a restart): ``CLIENTS`` threads, each on its own
    keep-alive connection (opened once, at set-up, as the load generator
    opens its connections once per run), share ``REQUESTS`` ``POST
    /yield`` requests whose designs follow the zipf shares of
    ``zipf_counts``, in a seeded order, with a fresh ``seed0``. The first request for a design
    resolves it cold (elaborate, compile, baseline run) and computes;
    repeats hit the result cache or coalesce on the computation in
    flight. Checked: every response is 200, repeats of a design are byte
    identical, and ``/stats`` counts one computation and one miss per
    distinct design. ``verify`` recomputes served results with direct
    ``measure_yield`` calls."""

    imports = ("repro.serve",)

    def setup(self, rng):
        self._stack = ExitStack()
        self.server = self._stack.enter_context(serving(port=0, workers=1))
        port = self.server.server_address[1]
        self.conns = [HTTPConnection("127.0.0.1", port, timeout=120)
                      for _ in range(CLIENTS + 1)]
        for conn in self.conns:
            self._stack.callback(conn.close)
        entries = sorted(registry(), key=lambda e: e.is_basic_cell)
        counts = zipf_counts(len(entries), REQUESTS)
        self.traffic = [entry.name for entry, count in zip(entries, counts)
                        for _ in range(count)]
        super().setup(rng)

    def close(self):
        self._stack.close()

    def prepare(self, rng):
        self.server.service = YieldService(workers=1)
        seed0 = rng.randrange(1 << 30)
        order = rng.sample(self.traffic, len(self.traffic))
        return [{"design": name, "sigma": SIGMA, "n_seeds": N_SEEDS,
                 "seed0": seed0} for name in order]

    def run(self, job):
        responses = [None] * len(job)
        pending = iter(range(len(job)))
        lock = threading.Lock()

        def client(conn):
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                responses[index] = http_request(conn, "POST", "/yield",
                                                job[index])

        clients = [threading.Thread(target=client, args=(conn,))
                   for conn in self.conns[:CLIENTS]]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return responses

    def check(self, job, output):
        status, _, raw = http_request(self.conns[-1], "GET", "/stats")
        stats = json.loads(raw)
        by_design = {}
        for request, response in zip(job, output):
            if response is None or response[0] != 200:
                return False
            by_design.setdefault(request["design"], set()).add(response[2])
        misses = sum(response[1] == "miss" for response in output)
        distinct = len(by_design)
        self._keep({request["design"]: (request, raw)
                    for request, (_, _, raw) in zip(job, output)})
        return (status == 200
                and all(len(bodies) == 1 for bodies in by_design.values())
                and misses == distinct
                and stats["computations"] == distinct
                and stats["endpoints"]["/yield"]["misses"] == distinct)

    def verify(self):
        for served in self.kept:
            # The hottest and the coldest design in the traffic.
            for name in (self.traffic[0], self.traffic[-1]):
                request, raw = served[name]
                factory = RegistryFactory(name)
                baseline = Simulation(factory()).simulate()
                seed0 = request["seed0"]
                direct = measure_yield(
                    factory, PulseCountPredicate(baseline), request["sigma"],
                    seeds=range(seed0, seed0 + request["n_seeds"]),
                )
                if yield_result_to_jsonable(direct) != \
                        json.loads(raw)["result"]:
                    return False
        return True


#: The explore sweeps of the CI smoke job (family, grid), measured with
#: ``EXPLORE_SEEDS`` seeds each.
SWEEPS = (
    ("racetree", {"depth": [1, 2, 3]}),
    ("bitonic", {"n": [2, 4, 8]}),
    ("adder_xsfq", {"n": [1, 2, 4]}),
)
EXPLORE_SEEDS = 10


class Explore(Workload):
    """A cold design-space sweep with a persistent store, then its re-run
    in a fresh engine on the same store, as ``repro explore --cache-dir``
    run twice: the CI smoke job's three sweeps (race trees, bitonic
    sorters, xSFQ adders; nine points) at a fresh noise level and seed
    range. The first engine resolves every point cold (elaborate,
    compile, baseline run, cost model), measures it and writes it through
    to disk; the second resolves again and reads every result back from
    disk through the result codec. Checked: nine computations then none,
    and the re-run's results equal the first run's. ``verify`` compares
    measured points with direct ``measure_yield`` calls."""

    imports = ("repro.explore",)

    def setup(self, rng):
        self.store = None
        self.root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        super().setup(rng)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def prepare(self, rng):
        if self.store is not None:
            shutil.rmtree(self.store)
        self.store = Path(tempfile.mkdtemp(dir=self.root))
        return rng.uniform(0.4, 0.6), rng.randrange(1 << 30)

    def _sweep(self, sigma, seed0):
        engine = ExploreEngine(workers=1, cache_dir=self.store)
        points = [point for family, grid in SWEEPS
                  for point in engine.sweep(family, grid, sigma=sigma,
                                            n_seeds=EXPLORE_SEEDS,
                                            seed0=seed0).points]
        return engine.computations, points

    def run(self, job):
        return self._sweep(*job), self._sweep(*job)

    def check(self, job, output):
        (computed, cold), (recomputed, warm) = output
        self._keep((job, cold))
        return (computed == len(cold) and recomputed == 0
                and not any(point.cached for point in cold)
                and all(point.cached for point in warm)
                and [(p.digest, p.result) for p in warm]
                == [(p.digest, p.result) for p in cold])

    def verify(self):
        for (sigma, seed0), points in self.kept:
            for point in points:
                factory = FamilyFactory(point.family, dict(point.params))
                baseline = Simulation(factory()).simulate()
                direct = measure_yield(
                    factory, PulseCountPredicate(baseline), sigma,
                    seeds=range(seed0, seed0 + EXPLORE_SEEDS),
                )
                if direct != point.result:
                    return False
        return True


WORKLOADS = {
    "simulate": Simulate,
    "yield_sweep": YieldSweep,
    "reach_lint": ReachLint,
    "serve_mix": ServeMix,
    "explore": Explore,
}


# -- tracing -----------------------------------------------------------
def _pulses(tracer, args, result):
    tracer.count("sim_pulses", args[0].pulses_processed)


def _replays(tracer, args, result):
    tracer.count("mc_replays", len(result.fallback_seeds))


def _states(tracer, args, result):
    tracer.count("zone_states", result.states_explored)


def _closures(tracer, args, result):
    tracer.count("dbm_closures")


def _cache(tracer, args, result):
    tracer.count("cache_misses" if result is MISSING else "cache_hits")


def _disk_read(tracer, args, result):
    if result is not MISSING:
        tracer.count("disk_hits")


def _disk_write(tracer, args, result):
    tracer.count("disk_writes")


#: (module, qualified name, layer span, counter hook). Circuit factories
#: are "elaborate", pass criteria "predicate".
TRACE_POINTS = (
    ("designs", "Sorter.__call__", "elaborate", None),
    ("designs", "RippleAdder.__call__", "elaborate", None),
    ("designs", "RaceTree.__call__", "elaborate", None),
    ("designs", "JitteredCell.__call__", "elaborate", None),
    ("repro.exp.registry", "RegistryFactory.__call__", "elaborate", None),
    ("repro.explore.families", "FamilyFactory.__call__", "elaborate", None),
    ("designs", "Sorter.ok", "predicate", None),
    ("designs", "RippleAdder.ok", "predicate", None),
    ("designs", "RaceTree.ok", "predicate", None),
    ("repro.exp.registry", "PulseCountPredicate.__call__", "predicate", None),
    ("repro.core.ir", "compile_circuit", "compile", None),
    ("repro.core.simulation", "Simulation.simulate", "sim_drain", _pulses),
    ("repro.core.batchsim", "_drain", "batch_drain", None),
    ("repro.core.montecarlo", "measure_yield", "mc_engine", _replays),
    ("repro.ta.translate", "translate_circuit", "translate", None),
    ("repro.mc.explorer", "ModelChecker.run", "zone_explore", _states),
    ("repro.mc.explorer", "ModelChecker._successors", "zone_successors",
     None),
    ("repro.mc.dbm", "DBM.canonicalize", "dbm_close", _closures),
    ("repro.mc.dbm", "DBM.includes", "zone_inclusion", None),
    ("repro.lint.reach_rules", "_timing_witnesses", "witness_replay", None),
    ("repro.lint.reach_rules", "_race_findings", "witness_replay", None),
    ("repro.lint.circuit_rules", "lint_circuit", "lint_rules", None),
    ("repro.serve.service", "YieldService._resolve", "resolve", None),
    ("repro.explore.engine", "ExploreEngine.resolve", "resolve", None),
    ("repro.cache.tiered", "TieredCache.get", "cache", _cache),
    ("repro.cache.tiered", "TieredCache.put", "cache", None),
    ("repro.cache.tiered", "TieredCache.get_or_compute", "cache", None),
    ("repro.cache.disk", "DiskCache.get", "disk", _disk_read),
    ("repro.cache.disk", "DiskCache.peek", "disk", _disk_read),
    ("repro.cache.disk", "DiskCache.put", "disk", _disk_write),
    ("repro.core.serialize", "yield_result_to_jsonable", "codec", None),
    ("repro.core.serialize", "yield_result_from_jsonable", "codec", None),
    ("repro.serve.http", "_Handler._handle", "handler", None),
    ("workloads", "http_request", "http", None),
)
