"""Vectorized multi-seed Monte-Carlo: the batched structure-of-arrays drain.

Section 5.2's yield sweeps run the same design once per variability seed.
The per-seed drains differ only in the Gaussian noise added to each firing
delay, so instead of N full event-loop passes this module runs **one**
batched pass in which every pending pulse carries a ``float64[N]`` vector
of per-seed timestamps and every delay resolution reads one pre-drawn
noise row across all N lanes at once.

The contract is strict: batched results are **element-wise identical** to N
sequential ``simulate()`` calls (outcomes, event times, metrics — bit for
bit; ``tests/test_differential.py`` locks this). Two mechanisms make that
possible:

* **Counter-based noise streams** (:class:`CounterNoise`). Noise is drawn
  from independent per-``(seed, node, kind)`` streams derived via
  ``numpy.random.SeedSequence`` and a splitmix64 counter construction, so
  a draw is addressed by *position within its node's stream*, not by
  global event order. Every noisy sequential run consumes the very same
  streams, which is what lets a width-N batch and a width-1 replay
  produce the same bits for the same seed. Because draws are addressed
  by position, every lane width computes them ahead through one block
  draw: a batched pass pre-draws the first normals of every node in one
  vector call and each firing reads the next ``float64[N]`` row; a
  per-seed run does the same at width 1 and reads Python floats. A
  scalar Box-Muller on ``math.log`` would skip the block but is not
  bit-identical to numpy's vectorised ``log``.

* **Conformance tracking + replay.** The batch steers control flow along
  the *nominal* (noise-free) schedule. Each lane is checked, group by
  group, against three conformance rules: every pulse merged into a
  simultaneous group must coincide lane-wise (grouping), successive groups
  at a node must stay strictly ordered lane-wise (order), and a zero-delay
  firing pushed to an earlier-keyed node is flagged as a potential
  same-instant reordering (coincidence). Lanes that fail a rule — or that
  take a different priority tie-break than the batch majority, or whose
  timing-constraint checks trip — are masked out of the batch and replayed
  individually on the reference drain. A replay is definitionally exact,
  so a false-positive divergence costs only time, never correctness.

The module is deliberately layered below :mod:`repro.core.simulation` and
:mod:`repro.core.parallel`: it imports neither (the replay ``Simulation``
arrives duck-typed as an argument), and the outcome tokens defined here
are re-exported by ``parallel`` so both spellings stay importable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._np import np
from .errors import PylseError, SimulationError
from .ir import PLAN_ROUTES, CompiledCircuit, compile_circuit
from .timing import Normal, Uniform, VariabilitySpec, nominal_delay

#: Outcome tokens, one per seed (re-exported by :mod:`repro.core.parallel`,
#: which historically defined them). ``OK`` counts toward yield.
OK = "ok"
MIS_BEHAVED = "mis-behaved"
VIOLATION = "violation"

#: Default cap on the lane count of one batched drain pass. Wider batches
#: amortize the per-group Python overhead over more seeds; on 1024-seed
#: sweeps of four registry designs, 64 -> 256 lanes cuts the time by
#: 20-50 % and wider passes move it by 15 % or less (measurement, command
#: and host in docs/performance.md, "The batched drain and its replays").
DEFAULT_MAX_BATCH = 256

# -- counter-stream constants ------------------------------------------
#: Per-(node, kind) stream kinds: Gaussian draws, uniform draws, and
#: priority tie-breaks each advance an independent position counter.
_NORMAL, _UNIFORM, _TIE = 0, 1, 2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_TWO_PI = 2.0 * np.pi

#: Normals a width-1 instance pre-draws per node when a per-seed run
#: starts, in one vector call for all nodes. Most registry nodes draw one
#: or two per run, none more than ten. A stream that runs out draws twice
#: as many as it has drawn so far, so a node drawing n times refills
#: O(log n) times (the synchronous adder's clock splitters: once).
_BLOCK = 8

#: The same for a width-N instance: the batched drain pre-draws this many
#: normals per node when a pass starts, and a uniform or tie stream takes
#: this many on first use. On a 128-lane bitonic-8 pass 2 beats 1 (most
#: nodes draw twice) and 4 or 8 (draws a pass never reads); see
#: docs/performance.md, "Counter noise".
_WIDE_BLOCK = 2

#: Distinct seeds whose SeedSequence-derived roots stay memoised. Bounded
#: because a long-lived service takes any ``seed0`` from its requests.
_ROOT_CACHE_SIZE = 4096


def _mix64(x: "np.ndarray") -> "np.ndarray":
    """The splitmix64 finalizer over a uint64 array (wrapping multiplies)."""
    x = x ^ (x >> np.uint64(30))
    x = x * _C1
    x = x ^ (x >> np.uint64(27))
    x = x * _C2
    return x ^ (x >> np.uint64(31))


def _u01(bits: "np.ndarray") -> "np.ndarray":
    """Map uint64 bits to doubles in the open interval (0, 1)."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _stream_bits(roots, index, kind: int, positions) -> "np.ndarray":
    """The uint64 draws at ``positions`` of the ``(root, index, kind)`` streams.

    This is the one stream-address function. A draw is two splitmix64
    rounds: the first keys the stream by seed root, node index and kind,
    the second picks a position within it. Arguments broadcast the numpy
    way (``roots`` against ``index`` gives the stream keys, the keys
    against ``positions`` give the draws), so one call draws a block of
    many nodes and positions at any lane width.
    """
    keys = _mix64(roots + (3 * index + kind + 1) * _GOLDEN)
    return _mix64(keys + (positions + 1) * _GOLDEN)


def _box_muller(bits: "np.ndarray") -> "np.ndarray":
    """Standard normals from stream bits laid out ``(2, ...)``.

    Row 0 feeds the radius and row 1 the angle. Both rows are contiguous,
    so numpy runs the same ``log``/``cos`` loops at every block shape.
    """
    u = _u01(bits)
    return np.sqrt(-2.0 * np.log(u[0])) * np.cos(_TWO_PI * u[1])


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _seed_root(entropy: int) -> "np.uint64":
    return np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]


def _root(seed: Optional[int]) -> "np.uint64":
    """The 64-bit stream root for one seed (None: fresh entropy)."""
    if seed is None:
        return np.random.SeedSequence().generate_state(1, np.uint64)[0]
    # SeedSequence entropy must be non-negative; fold negatives in evenly.
    return _seed_root(2 * seed if seed >= 0 else -2 * seed - 1)


class CounterNoise:
    """Order-invariant noise streams for N seeds, one lane per seed.

    Each draw is addressed by ``(seed root, node index, kind, position)``
    through :func:`_stream_bits`, so the value of lane ``l``'s j-th draw
    at node ``i`` does not depend on batch width or on the order other
    nodes drew in. The vector draws return ``float64[N]`` rows whose
    lane ``l`` is bit-identical to what a width-1 instance built from
    ``[seeds[l]]`` produces at the same positions — the invariant the
    batched == sequential property rests on.

    Every width draws ahead through one routine, :meth:`_fill`: one
    vector call draws a block of the next values of many streams, and a
    draw is a list pop. The batched drain pre-draws the first normals of
    every node that can draw one when a pass starts; its draws are
    read-only rows of that block. Every per-seed run that is noisy,
    seeded or samples a distribution delay uses a width-1 instance from
    :meth:`for_run` and the scalar draws
    (:meth:`resolve_scalar`, :meth:`tie_scalar`), whose blocks hold
    Python values. A scalar Box-Muller on ``math.log`` would be cheaper
    still, but it is not bit-identical: libm's ``log`` and numpy's SIMD
    ``log`` differ in the last bit on about one input in 300, which would
    let a replayed seed drift from its batched lane.
    """

    __slots__ = (
        "n", "_roots", "_pos", "_blocks", "_scalars", "_applies", "_spec",
        "_perturb", "_nodes",
    )

    def __init__(self, roots: "np.ndarray"):
        self.n = len(roots)
        self._roots = roots
        #: (index, kind) -> next stream position (a normal takes two).
        self._pos: Dict[Tuple[int, int], int] = {}
        #: (index, kind) -> pre-drawn values, next draw last.
        self._blocks: Dict[Tuple[int, int], list] = {}
        #: Blocks hold Python values (per-run instance), not float64[N] rows.
        self._scalars = False
        self._applies: Sequence[bool] = ()
        self._spec: Optional[VariabilitySpec] = None
        #: A callable spec's bound ``perturb``, or None for Gaussian noise.
        self._perturb = None
        self._nodes: Sequence = ()

    @classmethod
    def for_seeds(cls, seeds: Sequence[Optional[int]]) -> "CounterNoise":
        roots = np.empty(len(seeds), dtype=np.uint64)
        for lane, seed in enumerate(seeds):
            roots[lane] = _root(seed)
        return cls(roots)

    @classmethod
    def for_run(
        cls,
        seed: Optional[int],
        applies: Sequence[bool],
        spec: VariabilitySpec,
        nodes: Sequence = (),
    ) -> "CounterNoise":
        """The width-1 instance one per-seed run consumes.

        ``applies[i]`` says whether ``spec`` perturbs node ``i``'s
        constant delays, resolved once per run instead of per firing, and
        ``nodes[i]`` is the node a callable ``spec`` receives. Unless the
        spec is a callable, the first ``_BLOCK`` normals of every
        perturbed node are drawn here, in one call.
        """
        noise = cls.for_seeds([seed])
        noise._scalars = True
        noise._applies = applies
        noise._spec = spec
        noise._nodes = nodes
        if spec.custom is not None:
            noise._perturb = spec.perturb
        else:
            noise._fill(
                [i for i, hit in enumerate(applies) if hit], _NORMAL, _BLOCK
            )
        return noise

    # -- the block draws -----------------------------------------------
    def _fill(self, indices: Sequence[int], kind: int, count: int) -> None:
        """Draw the next ``count`` values of each listed stream in one call.

        The listed streams must stand at the same position: all at 0 for
        the pre-draw, one stream for a refill. The ``(streams, count, N)``
        block is read-only, so code writing into a returned row fails
        instead of corrupting lanes that still read it. The per-run
        instance stores Python floats (normals, uniforms) or ints (tie
        bits) instead, converted once per block.
        """
        if not indices:
            return
        keys = [(index, kind) for index in indices]
        start = self._pos.get(keys[0], 0)
        index = np.array(indices, dtype=np.uint64)[:, None, None]
        steps = 2 * count if kind == _NORMAL else count
        offsets = np.arange(start, start + steps, dtype=np.uint64)[:, None]
        if kind == _NORMAL:
            # (2, 1, count, 1) offsets keep each Box-Muller row contiguous.
            offsets = offsets.reshape(count, 2).T[:, None, :, None]
        values = _stream_bits(self._roots, index, kind, offsets)
        if kind == _NORMAL:
            values = _box_muller(values)
        elif kind == _UNIFORM:
            values = _u01(values)
        values.flags.writeable = False
        values = values[:, ::-1]
        blocks = values[..., 0].tolist() if self._scalars else map(list, values)
        self._blocks.update(zip(keys, blocks))
        self._pos.update(dict.fromkeys(keys, start + steps))

    def _next(self, index: int, kind: int):
        """The next draw of one stream: a ``float64[N]`` row (uint64 bits
        for ties), or a Python value for the per-run instance."""
        key = (index, kind)
        block = self._blocks.get(key)
        if not block:
            drawn = self._pos.get(key, 0) // (2 if kind == _NORMAL else 1)
            least = _BLOCK if self._scalars else _WIDE_BLOCK
            self._fill((index,), kind, max(least, 2 * drawn))
            block = self._blocks[key]
        return block.pop()

    def normal(self, index: int) -> "np.ndarray":
        """Standard-normal draw per lane (Box-Muller, two stream steps)."""
        return self._next(index, _NORMAL)

    def uniform(self, index: int) -> "np.ndarray":
        """Uniform (0, 1) draw per lane."""
        return self._next(index, _UNIFORM)

    def tie(self, index: int, choices: int) -> "np.ndarray":
        """Per-lane pick in ``range(choices)`` for a priority tie-break."""
        return (self._next(index, _TIE) % np.uint64(choices)).astype(np.int64)

    def tie_scalar(self, index: int, choices: int) -> int:
        """Width-1 :meth:`tie`, as a Python int."""
        return self._next(index, _TIE) % choices

    # -- delay resolution ----------------------------------------------
    def resolve(
        self,
        delay,
        index: int,
        spec: VariabilitySpec,
        applies: bool,
    ) -> Union["np.ndarray", float]:
        """Resolve one firing delay across all lanes.

        Returns a ``float64[N]`` vector when a draw was consumed, or a
        plain float when the delay is a constant the spec does not perturb
        (no draw — callers broadcast).
        """
        if isinstance(delay, Normal):
            return np.maximum(0.0, delay.mean + delay.stddev * self.normal(index))
        if isinstance(delay, Uniform):
            return delay.low + (delay.high - delay.low) * self.uniform(index)
        value = float(delay)
        if not applies:
            return value
        sigma = (
            spec.stddev if spec.stddev is not None else value * spec.fraction
        )
        return np.maximum(0.0, value + sigma * self.normal(index))

    def resolve_scalar(self, delay, index: int) -> float:
        """Width-1 :meth:`resolve` for an instance from :meth:`for_run`.

        Same streams, same positions, same float operations as lane 0 of
        :meth:`resolve`: Python floats are IEEE doubles like numpy's, and
        ``0.0 if v < 0.0 else v`` is ``np.maximum(0.0, v)``, NaN and -0.0
        included. So a replayed seed reproduces its batched lane exactly.
        A callable spec perturbs constant delays in place of the Gaussian
        noise.
        """
        if isinstance(delay, Normal):
            value = delay.mean + delay.stddev * self._next(index, _NORMAL)
        elif isinstance(delay, Uniform):
            return delay.low + (delay.high - delay.low) * self._next(
                index, _UNIFORM
            )
        else:
            value = float(delay)
            if not self._applies[index]:
                return value
            if self._perturb is not None:
                return self._perturb(value, self._nodes[index])
            spec = self._spec
            sigma = (
                spec.stddev if spec.stddev is not None
                else value * spec.fraction
            )
            value = value + sigma * self._next(index, _NORMAL)
        return 0.0 if value < 0.0 else value

    def resolver(self, distributions: bool) -> Callable[[object, int], float]:
        """The delay resolver of one per-seed run.

        :meth:`resolve_scalar`, unless the circuit samples no distribution
        (``distributions`` False) and the noise is Gaussian: then every
        delay is a constant, and the returned function skips the two
        type checks and pops the node's pre-drawn normals itself. It keeps
        the same float operations (``float(delay)``, ``value + sigma *
        z``, ``0.0 if v < 0.0 else v``) and the same stream positions.
        """
        if distributions or self._perturb is not None:
            return self.resolve_scalar
        applies = self._applies
        stddev = self._spec.stddev
        fraction = self._spec.fraction
        blocks = self._blocks
        refill = self._next
        # Per node, its current block of pre-drawn normals (next one last),
        # looked up at the node's first draw and after each refill.
        normals: List[Optional[list]] = [None] * len(applies)

        def resolve(delay, index: int) -> float:
            value = float(delay)
            if not applies[index]:
                return value
            block = normals[index]
            if block:
                z = block.pop()
            else:
                z = refill(index, _NORMAL)
                normals[index] = blocks[(index, _NORMAL)]
            value = value + (
                stddev if stddev is not None else value * fraction
            ) * z
            return 0.0 if value < 0.0 else value

        return resolve

    def tie_rng(self, index: int) -> "_CounterTieRng":
        """A per-node tie-break chooser backed by this instance's streams."""
        return _CounterTieRng(self, index)


class _CounterTieRng:
    """Adapter giving :meth:`PylseMachine.choose` its ``rng.choice`` shape.

    Made per node by a noisy or seeded per-seed run at the node's first
    tie; consumes
    the node's ``_TIE`` stream only when an actual tie occurs, mirroring
    exactly when the batched drain consumes it.
    """

    __slots__ = ("_noise", "_index")

    def __init__(self, noise: CounterNoise, index: int):
        self._noise = noise
        self._index = index

    def choice(self, tied):
        return tied[self._noise.tie_scalar(self._index, len(tied))]


# ----------------------------------------------------------------------
# Batch eligibility
# ----------------------------------------------------------------------
def batch_eligible(compiled: CompiledCircuit) -> bool:
    """Whether the batched drain covers this design.

    Eligible means every non-input node is a :class:`Transitional` machine
    (``Functional`` holes run arbitrary Python per dispatch). Every delay
    is a constant, :class:`Normal` or :class:`Uniform`, which the counter
    streams resolve lane-wise. The answer is memoized on the compile cache. It only decides whether to batch:
    ineligible designs replay every seed on the per-seed drain, which
    draws from the same counter streams.
    """
    cached = compiled._cache.get("batch_eligible")
    if cached is None:
        cached = compiled._cache["batch_eligible"] = _compute_eligible(compiled)
    return cached


def _delays(element) -> list:
    """Every firing delay of a Transitional element's machine."""
    return [d for entry in element.machine._fast.values() for _o, d in entry[2]]


def _compute_eligible(compiled: CompiledCircuit) -> bool:
    from .transitional import Transitional

    return all(
        isinstance(compiled.nodes[i].element, Transitional)
        for i in compiled.cell_ids
    )


def _normal_nodes(compiled: CompiledCircuit) -> frozenset:
    """The nodes of an eligible design with a :class:`Normal` delay (memoized)."""
    return compiled._memo("normal_nodes", lambda: frozenset(
        nd.index for nd in compiled.dispatch if not nd.is_input
        and any(isinstance(d, Normal) for d in _delays(compiled.nodes[nd.index].element))
    ))


# ----------------------------------------------------------------------
# Divergence observability
# ----------------------------------------------------------------------
@dataclass
class BatchReport:
    """What the batched drain did for one seed list (picklable, mergeable).

    ``batched_lanes`` counts seeds that completed entirely inside a batch;
    ``fallback_seeds`` lists, in seed order, every seed classified by the
    sequential drain instead (divergence replays, ineligible designs);
    ``divergence`` tallies why, keyed by cause (``grouping`` / ``order`` /
    ``coincidence`` / ``tie-break`` / ``violation`` / ``overflow`` /
    ``error`` / ``ineligible``).
    """

    batched_lanes: int = 0
    fallback_seeds: List[int] = field(default_factory=list)
    divergence: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "BatchReport") -> None:
        self.batched_lanes += other.batched_lanes
        self.fallback_seeds.extend(other.fallback_seeds)
        for cause, count in other.divergence.items():
            self.divergence[cause] = self.divergence.get(cause, 0) + count

    def count(self, cause: str, n: int = 1) -> None:
        if n:
            self.divergence[cause] = self.divergence.get(cause, 0) + n


def resolve_batch(batch: Union[int, str, None], n_seeds: int) -> int:
    """Normalize a ``batch=`` argument to a concrete lane count.

    ``None`` / ``"auto"`` pick ``min(n_seeds, DEFAULT_MAX_BATCH)``; ``0``
    disables batching (per-seed reference drain); a positive int
    is an explicit width. Bools and negatives are rejected.
    """
    if batch is None or batch == "auto":
        return min(n_seeds, DEFAULT_MAX_BATCH)
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 0:
        raise PylseError(
            f"batch must be a non-negative integer, 'auto', or None, "
            f"got {batch!r}"
        )
    return batch


# ----------------------------------------------------------------------
# The batched drain
# ----------------------------------------------------------------------
class _DrainResult:
    """Raw artifacts of one batched pass, before per-lane finalization."""

    __slots__ = (
        "active", "cause", "series_acc", "processed", "groups",
        "input_pulses", "input_pushes", "stats_groups", "heap_log",
    )

    def __init__(self, n: int):
        self.active = np.ones(n, dtype=bool)
        self.cause: List[Optional[str]] = [None] * n
        self.series_acc: Dict[str, list] = {}
        self.processed = 0
        self.groups = 0
        self.input_pulses = 0
        self.input_pushes = 0
        #: per group: (node name, cell name, deduped port count,
        #: transition labels, per-firing resolved delays) — stats only.
        self.stats_groups: Optional[list] = None
        #: per group: (heap key, lane times, raw entries popped, pushes).
        self.heap_log: Optional[list] = None


def _zero_mask(resolved, n: int) -> Optional["np.ndarray"]:
    """Lanes whose resolved delay is exactly zero (None when impossible)."""
    if isinstance(resolved, float):
        return np.ones(n, dtype=bool) if resolved == 0.0 else None
    mask = resolved == 0.0
    return mask if mask.any() else None


def _drain(
    compiled: CompiledCircuit,
    spec: VariabilitySpec,
    noise: CounterNoise,
    collect_stats: bool,
    max_pulses: Optional[int],
) -> _DrainResult:
    """One batched pass over the whole design; see the module docstring.

    Control flow (which transition fires, in what order groups dispatch)
    follows the nominal noise-free schedule; per-lane timestamps ride
    along as ``float64[N]`` vectors. Lanes whose own schedule would have
    differed are masked out (``result.cause[lane]``) for replay.
    """
    n = noise.n
    nodes = compiled.nodes
    result = _DrainResult(n)
    if collect_stats:
        result.stats_groups = []
        result.heap_log = []
    active = result.active
    cause = result.cause

    def diverge(mask, why: str) -> None:
        newly = mask & active
        if newly.any():
            active[newly] = False
            for lane in np.nonzero(newly)[0]:
                cause[lane] = why

    # -- routing: the compiled plan, shared with the per-seed drain ----
    # port -> (series slot, dest index, dest heap key, dest entry, dest
    # port, wire label); the heap key is the consuming node's placement id.
    plan = compiled.plan
    plan_entries = plan.entries
    num = len(nodes)

    # -- noise: pre-draw every node that can draw a normal, in one call -
    applies = spec.applies_by_node(compiled)
    normal_nodes = _normal_nodes(compiled)
    noise._fill(
        [i for i, hit in enumerate(applies) if hit or i in normal_nodes],
        _NORMAL, _WIDE_BLOCK,
    )

    # -- per-node machine state (lane-vectorized, lazily created) -------
    state: List[Optional[str]] = [None] * num
    tau_done: List[Optional["np.ndarray"]] = [None] * num
    theta: List[Optional[dict]] = [None] * num
    last_t: List[Optional["np.ndarray"]] = [None] * num

    # -- event series accumulators, label first-occurrence order --------
    acc = [[] for _ in plan.series_labels]
    result.series_acc = dict(zip(plan.series_labels, acc))

    # -- seed the nominal heap from the input schedules -----------------
    # Entries are (t_nom, dest key, seq, dest index, port, lane times,
    # coincidence-risk mask); heapq never compares past seq.
    heap: list = []
    seq = 0
    for i in compiled.input_ids:
        (slot, dest, dkey, _e, dport, _l), = (
            plan_entries[i][PLAN_ROUTES].values()
        )
        series = acc[slot]
        if dest < 0:
            for t in nodes[i].element.times:  # type: ignore[attr-defined]
                series.append(float(t))
                result.input_pulses += 1
            continue
        for t in nodes[i].element.times:  # type: ignore[attr-defined]
            t = float(t)
            series.append(t)
            heappush(heap, (t, dkey, seq, dest, dport, t, None))
            seq += 1
            result.input_pushes += 1
            result.input_pulses += 1

    limit = float("inf") if max_pulses is None else max_pulses
    while heap:
        if not active.any():
            break  # every lane replays anyway; the rest of the pass is moot
        if result.processed >= limit:
            diverge(np.ones(n, dtype=bool), "overflow")
            break
        t_nom, key, _s, index, port, T0, risk0 = heappop(heap)
        entries = [(port, T0, risk0)]
        while heap and heap[0][0] == t_nom and heap[0][1] == key:
            e = heappop(heap)
            entries.append((e[4], e[5], e[6]))
        T_ref = T0

        # R3 — a zero-delay push to an earlier-keyed node may regroup.
        # R1 — every entry merged by the nominal schedule must coincide
        # lane-wise, duplicates included.
        for _p, T, risk in entries:
            if risk is not None:
                diverge(risk, "coincidence")
        for _p, T, _r in entries[1:]:
            if isinstance(T, float) and isinstance(T_ref, float):
                if T != T_ref:  # pure-nominal entries; cannot differ
                    diverge(np.ones(n, dtype=bool), "grouping")
            else:
                mask = T != T_ref
                if mask.any():
                    diverge(mask, "grouping")

        ports = []
        seen = set()
        for p, _T, _r in entries:
            if p not in seen:
                seen.add(p)
                ports.append(p)

        element = nodes[index].element
        machine = element.machine
        if state[index] is None:
            state[index] = machine.initial
            tau_done[index] = np.zeros(n)
            theta[index] = {
                sym: np.full(n, -np.inf) for sym in machine.inputs
            }
            last_t[index] = np.full(n, -np.inf)

        # R2 — successive groups at one node must stay strictly ordered
        # lane-wise, else the lane's own heap would have merged or swapped
        # them. (A lane can trip this *later* than its true divergence
        # point; that is why diverged lanes — violations included — are
        # always replayed rather than trusted.)
        lt = last_t[index]
        order_mask = T_ref <= lt
        if order_mask.any():
            diverge(order_mask, "order")
        lt[...] = T_ref

        result.processed += len(ports)
        result.groups += 1

        # -- dispatch: mirror Simulation._drain's machine step lane-wise
        fast = machine._fast
        st = state[index]
        td = tau_done[index]
        th = theta[index]
        tlabels: List[str] = []
        fire_list: List[tuple] = []
        failed = False
        if len(ports) == 1:
            sequence = iter(ports)
        else:
            sequence = None
            remaining = set(ports)
        while True:
            if sequence is not None:
                symbol = next(sequence, None)
                if symbol is None:
                    break
            else:
                if not remaining:
                    break
                if len(remaining) == 1:
                    symbol = remaining.pop()
                else:
                    candidates = sorted(
                        remaining, key=machine.inputs.index
                    )
                    try:
                        best = min(
                            fast[(st, sym)][4].priority for sym in candidates
                        )
                    except KeyError:
                        failed = True
                        break
                    tied = [
                        sym for sym in candidates
                        if fast[(st, sym)][4].priority == best
                    ]
                    if len(tied) > 1:
                        draws = noise.tie(index, len(tied))
                        lanes = np.nonzero(active)[0]
                        if len(lanes):
                            counts = np.bincount(
                                draws[lanes], minlength=len(tied)
                            )
                            majority = int(np.argmax(counts))
                        else:
                            majority = 0
                        diverge(draws != majority, "tie-break")
                        symbol = tied[majority]
                    else:
                        symbol = tied[0]
                    remaining.discard(symbol)
            entry = fast.get((st, symbol))
            if entry is None:
                failed = True
                break
            dest, transition_time, firing, constraints, _tr, tlabel = entry
            viol = T_ref < td
            for constrained, tau_dist in constraints:
                viol = viol | (T_ref < th[constrained] + tau_dist)
            if viol.any():
                diverge(viol, "violation")
            tlabels.append(tlabel)
            th[symbol][...] = T_ref
            st = dest
            td[...] = T_ref + transition_time
            fire_list.extend(firing)
        state[index] = st
        if failed:
            # Unreachable for validated machines (delta is total); kept so
            # a hypothetical gap degrades to replay-everything, not a crash.
            diverge(np.ones(n, dtype=bool), "error")
            break

        # -- resolve + emit + push --------------------------------------
        node_applies = applies[index]
        routes = plan_entries[index][PLAN_ROUTES]
        pushes = 0
        emits: List = []
        for out, delay in fire_list:
            resolved = noise.resolve(delay, index, spec, node_applies)
            t_out = T_ref + resolved
            slot, dest_index, dest_key, _e, dest_port, _l = routes[out]
            acc[slot].append(t_out)
            if collect_stats:
                emits.append(resolved)
            if dest_index >= 0:
                risk = None
                if dest_key < key:
                    risk = _zero_mask(resolved, n)
                heappush(
                    heap,
                    (
                        t_nom + nominal_delay(delay), dest_key, seq,
                        dest_index, dest_port, t_out, risk,
                    ),
                )
                seq += 1
                pushes += 1

        if collect_stats:
            result.stats_groups.append(
                (
                    nodes[index].name, element.name, len(ports),
                    tuple(tlabels), emits,
                )
            )
            result.heap_log.append((key, T_ref, len(entries), pushes))
    return result


# ----------------------------------------------------------------------
# Per-lane finalization
# ----------------------------------------------------------------------
def _lane_events(result: _DrainResult, n: int) -> Callable[[int], dict]:
    """A builder of one lane's events dict, labels in the drain's order.

    Every label's pulse entries go into one ``(pulses, lanes)`` matrix,
    sorted along the pulse axis within each label and stored lane-major.
    A lane's dict then takes one ``tolist`` and C-level slicing, and lives
    only while its predicate runs, so a wide batch never holds every
    lane's lists at once.
    """
    labels = list(result.series_acc)
    total = sum(len(entries) for entries in result.series_acc.values())
    matrix = np.empty((total, n))
    spans = []
    row = 0
    for entries in result.series_acc.values():
        start = row
        for entry in entries:
            matrix[row] = entry  # broadcasts pure-nominal scalars
            row += 1
        if row - start > 1:
            matrix[start:row].sort(axis=0)
        spans.append(slice(start, row))
    lanes = np.ascontiguousarray(matrix.T)

    def events(lane: int) -> dict:
        return dict(zip(labels, map(lanes[lane].tolist().__getitem__, spans)))

    return events


def _lane_heap_depth(result: _DrainResult, lane: int) -> int:
    """Reconstruct the lane's sequential max pending-heap depth.

    The sequential drain samples the heap depth at the top of each group
    iteration. A conformant lane pops the same groups with the same raw
    entry/push counts, only ordered by its own ``(lane time, node key)``;
    re-ordering the batch's per-group deltas by that key and prefix-summing
    recovers the lane's exact depth trajectory.
    """
    log = result.heap_log
    initial = result.input_pushes
    if not log:
        return initial
    count = len(log)
    keys = np.fromiter((g[0] for g in log), dtype=np.int64, count=count)
    times = np.empty(count)
    deltas = np.empty(count, dtype=np.int64)
    for g, (_key, T_ref, raw_pop, pushes) in enumerate(log):
        times[g] = T_ref if isinstance(T_ref, float) else T_ref[lane]
        deltas[g] = pushes - raw_pop
    order = np.lexsort((keys, times))
    trajectory = initial + np.concatenate(
        ([0], np.cumsum(deltas[order])[:-1])
    )
    return int(max(initial, trajectory.max()))


def _stats_for_lane(result: _DrainResult, lane: int):
    """Rebuild the lane's exact ``SimMetrics``, as a metrics-only observer
    riding the sequential drain would have recorded it.

    Integer counters are lane-invariant for conformant lanes; the per-cell
    delay-histogram float totals are summed in the batch's per-node group
    order, which R2 guarantees equals the lane's own per-node order — the
    same association order, hence the same bits.
    """
    from ..obs.metrics import SimMetrics

    metrics = SimMetrics()
    metrics.input_pulses = result.input_pulses
    metrics.groups = result.groups
    metrics.pulses_processed = result.processed
    metrics.max_heap_depth = _lane_heap_depth(result, lane)
    for name, cell_name, n_ports, tlabels, emits in result.stats_groups:
        cell = metrics.cell(name, cell_name)
        cell.groups += 1
        cell.pulses_in += n_ports
        cell.pulses_out += len(emits)
        transitions = cell.transitions
        for tlabel in tlabels:
            transitions[tlabel] = transitions.get(tlabel, 0) + 1
        delays = cell.delays
        for resolved in emits:
            delays.add(
                resolved if isinstance(resolved, float)
                else float(resolved[lane])
            )
    return metrics


# ----------------------------------------------------------------------
# Replay + the public chunk entry point
# ----------------------------------------------------------------------
def _classify_replay(sim, predicate, variability, seed, collect_stats):
    """One seed on the reference drain (the divergence fallback)."""
    observer = None
    if collect_stats:
        from ..obs import Observer

        observer = Observer(provenance=False, metrics=True)
    try:
        events = sim.simulate(
            variability=variability, seed=seed, observer=observer
        )
    except SimulationError:
        return VIOLATION, observer.metrics if observer else None
    outcome = OK if predicate(events) else MIS_BEHAVED
    return outcome, observer.metrics if observer else None


def _replay_seeds(sim, predicate, variability, seeds, collect_stats):
    outcomes: List[str] = []
    stats: List = []
    for seed in seeds:
        outcome, metrics = _classify_replay(
            sim, predicate, variability, seed, collect_stats
        )
        outcomes.append(outcome)
        if collect_stats:
            stats.append(metrics)
    return outcomes, stats


def _run_one_batch(
    sim,
    compiled: CompiledCircuit,
    predicate,
    variability: dict,
    seeds: Sequence[int],
    collect_stats: bool,
    report: BatchReport,
    max_pulses: Optional[int],
) -> Tuple[List[str], List]:
    spec = VariabilitySpec.normalize(variability)
    noise = CounterNoise.for_seeds(seeds)
    result = _drain(compiled, spec, noise, collect_stats, max_pulses)

    lane_events = None
    outcomes: List[Optional[str]] = [None] * len(seeds)
    stats: List = [None] * len(seeds) if collect_stats else []
    for lane, seed in enumerate(seeds):
        if result.active[lane]:
            if lane_events is None:
                lane_events = _lane_events(result, noise.n)
            outcomes[lane] = OK if predicate(lane_events(lane)) else MIS_BEHAVED
            if collect_stats:
                stats[lane] = _stats_for_lane(result, lane)
            report.batched_lanes += 1
        else:
            report.count(result.cause[lane] or "error")
            report.fallback_seeds.append(seed)
            outcome, metrics = _classify_replay(
                sim, predicate, variability, seed, collect_stats
            )
            outcomes[lane] = outcome
            if collect_stats:
                stats[lane] = metrics
    return outcomes, stats


def run_batch(
    sim,
    predicate: Callable[[dict], bool],
    sigma: float,
    seeds: Sequence[int],
    collect_stats: bool = False,
    batch: Union[int, str, None] = None,
    max_pulses: Optional[int] = 1_000_000,
) -> Tuple[List[str], List, BatchReport]:
    """Classify every seed, batching lanes through the vectorized drain.

    ``sim`` is a (reusable) ``Simulation`` whose circuit the seeds sweep;
    returns ``(outcomes, per_seed_stats, report)`` with outcomes in seed
    order and ``per_seed_stats`` empty unless ``collect_stats``. Seeds in
    excess of the batch width run as further batches. Ineligible designs
    (see :func:`batch_eligible`) fall back wholesale to the per-seed
    drain; ``batch=0`` forces that per-seed reference for any design
    (the CI smoke job diffs it against the batched output). Both draw
    the same counter-stream noise, so every path gives the same bits.
    """
    seeds = list(seeds)
    report = BatchReport()
    if not seeds:
        return [], [], report
    compiled = compile_circuit(sim.circuit)
    variability = {"stddev": sigma}
    if not batch_eligible(compiled):
        report.count("ineligible", len(seeds))
        report.fallback_seeds.extend(seeds)
        width = 0
    else:
        width = resolve_batch(batch, len(seeds))
    if width == 0:
        outcomes, stats = _replay_seeds(
            sim, predicate, variability, seeds, collect_stats
        )
        return outcomes, stats, report
    outcomes = []
    stats: List = []
    for start in range(0, len(seeds), width):
        chunk = seeds[start:start + width]
        chunk_outcomes, chunk_stats = _run_one_batch(
            sim, compiled, predicate, variability, chunk, collect_stats,
            report, max_pulses,
        )
        outcomes.extend(chunk_outcomes)
        stats.extend(chunk_stats)
    return outcomes, stats, report
