"""Vectorized multi-seed Monte-Carlo: the batched structure-of-arrays drain.

Section 5.2's yield sweeps run the same design once per variability seed.
The per-seed drains differ only in the Gaussian noise added to each firing
delay, so instead of N full event-loop passes this module runs **one**
batched pass in which every pending pulse carries a ``float64[N]`` vector
of per-seed timestamps and every delay resolution is one vectorized numpy
draw across all N lanes at once.

The contract is strict: batched results are **element-wise identical** to N
sequential ``simulate()`` calls (outcomes, event times, metrics — bit for
bit; ``tests/test_differential.py`` locks this). Two mechanisms make that
possible:

* **Counter-based noise streams** (:class:`CounterNoise`). Noise is drawn
  from independent per-``(seed, node, kind)`` streams derived via
  ``numpy.random.SeedSequence`` and a splitmix64 counter construction, so
  a draw is addressed by *position within its node's stream*, not by
  global event order. The sequential drain consumes the very same streams
  when ``variability={"scheme": "counter"}`` is passed
  (:func:`mc_variability` selects that scheme for batch-eligible designs),
  which is what lets a width-N batch and a width-1 replay produce the same
  bits for the same seed.

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
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ._np import np
from .errors import PylseError, SimulationError
from .ir import CompiledCircuit, compile_circuit, dispatch_arrays
from .timing import (
    Distribution,
    Normal,
    Uniform,
    VariabilitySpec,
    nominal_delay,
    sample_delay,
)

#: Outcome tokens, one per seed (re-exported by :mod:`repro.core.parallel`,
#: which historically defined them). ``OK`` counts toward yield.
OK = "ok"
MIS_BEHAVED = "mis-behaved"
VIOLATION = "violation"

#: Default cap on the lane count of one batched drain pass. Wider batches
#: amortize the per-group Python overhead over more seeds, but past a few
#: hundred lanes the vectors stop fitting hot cache lines and divergence
#: replays get batched less usefully; 256 is the measured sweet spot on
#: the registry designs (see docs/performance.md).
DEFAULT_MAX_BATCH = 256

# -- counter-stream constants ------------------------------------------
#: Per-(node, kind) stream kinds: Gaussian draws, uniform draws, and
#: priority tie-breaks each advance an independent position counter.
_NORMAL, _UNIFORM, _TIE = 0, 1, 2

_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_TWO_PI = 2.0 * np.pi

#: seed -> SeedSequence-derived 64-bit root, cached so every backend
#: (batched, sequential counter-scheme, replay) derives identical streams
#: without re-hashing the entropy per call.
_ROOT_CACHE: Dict[int, int] = {}


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


def _root(seed: Optional[int]) -> "np.uint64":
    """The 64-bit stream root for one seed (None: fresh entropy)."""
    if seed is None:
        return np.random.SeedSequence().generate_state(1, np.uint64)[0]
    # SeedSequence entropy must be non-negative; fold negatives in evenly.
    entropy = 2 * seed if seed >= 0 else -2 * seed - 1
    root = _ROOT_CACHE.get(entropy)
    if root is None:
        root = _ROOT_CACHE[entropy] = np.random.SeedSequence(
            entropy
        ).generate_state(1, np.uint64)[0]
    return root


class CounterNoise:
    """Order-invariant noise streams for N seeds, one lane per seed.

    Each draw is addressed by ``(seed root, node index, kind, position)``
    and computed as two rounds of splitmix64 mixing, so the value of lane
    ``l``'s j-th draw at node ``i`` does not depend on batch width or on
    the order other nodes drew in. All vector helpers return ``float64[N]``
    arrays whose lane ``l`` is bit-identical to what a width-1 instance
    built from ``[seeds[l]]`` produces at the same positions — the
    invariant the batched == sequential property rests on.
    """

    __slots__ = ("n", "_roots", "_keys", "_pos")

    def __init__(self, roots: "np.ndarray"):
        self.n = len(roots)
        self._roots = roots
        self._keys: Dict[Tuple[int, int], "np.ndarray"] = {}
        self._pos: Dict[Tuple[int, int], int] = {}

    @classmethod
    def for_seeds(cls, seeds: Sequence[Optional[int]]) -> "CounterNoise":
        roots = np.empty(len(seeds), dtype=np.uint64)
        for lane, seed in enumerate(seeds):
            roots[lane] = _root(seed)
        return cls(roots)

    # -- raw draws -----------------------------------------------------
    def _stream_key(self, index: int, kind: int) -> "np.ndarray":
        key = self._keys.get((index, kind))
        if key is None:
            salt = np.uint64((_GOLDEN * (3 * index + kind + 1)) & _M64)
            key = self._keys[(index, kind)] = _mix64(self._roots + salt)
        return key

    def _bits(self, index: int, kind: int) -> "np.ndarray":
        """The next uint64 draw of every lane on one (node, kind) stream."""
        key = self._stream_key(index, kind)
        position = self._pos.get((index, kind), 0)
        self._pos[(index, kind)] = position + 1
        return _mix64(key + np.uint64((_GOLDEN * (position + 1)) & _M64))

    def normal(self, index: int) -> "np.ndarray":
        """Standard-normal draw per lane (Box-Muller, two stream steps)."""
        u1 = _u01(self._bits(index, _NORMAL))
        u2 = _u01(self._bits(index, _NORMAL))
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)

    def uniform(self, index: int) -> "np.ndarray":
        """Uniform (0, 1) draw per lane."""
        return _u01(self._bits(index, _UNIFORM))

    def tie(self, index: int, choices: int) -> "np.ndarray":
        """Per-lane pick in ``range(choices)`` for a priority tie-break."""
        return (self._bits(index, _TIE) % np.uint64(choices)).astype(np.int64)

    # -- delay resolution ----------------------------------------------
    def resolve(
        self,
        delay,
        index: int,
        spec: VariabilitySpec,
        applies: bool,
    ) -> Union["np.ndarray", float, None]:
        """Resolve one firing delay across all lanes.

        Returns a ``float64[N]`` vector when a draw was consumed, a plain
        float when the delay is a constant the spec does not perturb (no
        draw — callers broadcast), or None for a custom ``Distribution``
        subclass the counter streams cannot reproduce (the sequential
        caller falls back to the python-rng sample; batch-eligibility
        excludes such designs from the batched drain entirely).
        """
        if isinstance(delay, Normal):
            return np.maximum(0.0, delay.mean + delay.stddev * self.normal(index))
        if isinstance(delay, Uniform):
            return delay.low + (delay.high - delay.low) * self.uniform(index)
        if isinstance(delay, Distribution):
            return None
        value = float(delay)
        if not applies:
            return value
        sigma = (
            spec.stddev if spec.stddev is not None else value * spec.fraction
        )
        return np.maximum(0.0, value + sigma * self.normal(index))

    def resolve_scalar(self, delay, index, node, spec, rng) -> float:
        """Width-1 resolution for the sequential counter-scheme drain.

        Same streams, same positions, same float operations as the batched
        :meth:`resolve` — ``float(vector[0])`` of a width-1 vector IS the
        lane value a batch would compute — so a replayed seed reproduces
        its batched lane exactly. ``rng`` only backs custom distributions.
        """
        applies = spec.applies_to(node.element.name, node.name)
        value = self.resolve(delay, index, spec, applies)
        if value is None:
            return sample_delay(delay, rng)
        if isinstance(value, float):
            return value
        return float(value[0])

    def tie_rng(self, index: int) -> "_CounterTieRng":
        """A per-node tie-break chooser backed by this instance's streams."""
        return _CounterTieRng(self, index)


class _CounterTieRng:
    """Adapter giving :meth:`PylseMachine.choose` its ``rng.choice`` shape.

    Installed per node by the sequential counter-scheme drain; consumes
    the node's ``_TIE`` stream only when an actual tie occurs, mirroring
    exactly when the batched drain consumes it.
    """

    __slots__ = ("_noise", "_index")

    def __init__(self, noise: CounterNoise, index: int):
        self._noise = noise
        self._index = index

    def choice(self, tied):
        return tied[int(self._noise.tie(self._index, len(tied))[0])]


# ----------------------------------------------------------------------
# Batch eligibility
# ----------------------------------------------------------------------
def batch_eligible(compiled: CompiledCircuit) -> bool:
    """Whether the batched drain (and counter scheme) covers this design.

    Eligible means every non-input node is a :class:`Transitional` machine
    (``Functional`` holes run arbitrary Python per dispatch) and every
    firing delay is a constant, :class:`Normal`, or :class:`Uniform` — the
    delay shapes the counter streams can resolve lane-wise. The answer is
    memoized on the compile cache; :func:`mc_variability` uses it to pick
    the noise scheme, so ineligible designs keep the original python-rng
    semantics on every backend.
    """
    cached = compiled._cache.get("batch_eligible")
    if cached is None:
        cached = compiled._cache["batch_eligible"] = _compute_eligible(compiled)
    return cached


def mc_variability(circuit, sigma: float) -> dict:
    """The ``variability`` argument of every Monte-Carlo run of ``circuit``.

    This is the one place that maps a design to its noise scheme.
    Batch-eligible designs get the counter scheme — the per-(seed, node)
    streams the vectorized drain consumes — so batched and per-seed runs
    draw identical noise for identical seeds and stay mutually
    bit-identical. Ineligible designs keep the original python-rng scheme.
    """
    if batch_eligible(compile_circuit(circuit)):
        return {"stddev": sigma, "scheme": "counter"}
    return {"stddev": sigma}


def _compute_eligible(compiled: CompiledCircuit) -> bool:
    from .transitional import Transitional

    for nd in compiled.dispatch:
        if nd.is_input:
            continue
        element = compiled.nodes[nd.index].element
        if not isinstance(element, Transitional):
            return False
        for entry in element.machine._fast.values():
            for _out, delay in entry[2]:
                if isinstance(delay, Distribution) and not isinstance(
                    delay, (Normal, Uniform)
                ):
                    return False
    return True


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
    disables batching (per-seed counter-scheme reference); a positive int
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
    labels = compiled.labels
    arrays = dispatch_arrays(compiled)
    node_key = arrays.node_key
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

    # -- static per-node lookups (cheap; rebuilt per drain) -------------
    num = len(nodes)
    out_slots: List[Optional[dict]] = [None] * num
    for index in range(num):
        slots = {}
        for s in arrays.slots(index):
            slots[arrays.out_port[s]] = (
                arrays.out_dest[s],
                arrays.out_dest_key[s],
                arrays.out_dest_port[s],
                labels[arrays.out_wire[s]],
            )
        out_slots[index] = slots
    applies: List[Optional[bool]] = [None] * num

    # -- per-node machine state (lane-vectorized, lazily created) -------
    state: List[Optional[str]] = [None] * num
    tau_done: List[Optional["np.ndarray"]] = [None] * num
    theta: List[Optional[dict]] = [None] * num
    last_t: List[Optional["np.ndarray"]] = [None] * num

    # -- event series accumulators, label first-occurrence order --------
    series_acc = result.series_acc
    for label in labels:
        if label not in series_acc:
            series_acc[label] = []

    # -- seed the nominal heap from the input schedules -----------------
    # Entries are (t_nom, dest key, seq, dest index, port, lane times,
    # coincidence-risk mask); heapq never compares past seq.
    heap: list = []
    seq = 0
    for i in compiled.input_ids:
        node = nodes[i]
        o = compiled.dispatch[i].outs[0]
        acc = series_acc[labels[o.wire_id]]
        if o.dest < 0:
            for t in node.element.times:  # type: ignore[attr-defined]
                acc.append(float(t))
                result.input_pulses += 1
            continue
        dkey = node_key[o.dest]
        for t in node.element.times:  # type: ignore[attr-defined]
            t = float(t)
            acc.append(t)
            heappush(heap, (t, dkey, seq, o.dest, o.dest_port, t, None))
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

        # -- dispatch: mirror Transitional.raw_firings lane-wise --------
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
        if node_applies is None:
            node_applies = applies[index] = spec.applies_to(
                element.name, nodes[index].name
            )
        slots = out_slots[index]
        pushes = 0
        emits: List = []
        for out, delay in fire_list:
            resolved = noise.resolve(delay, index, spec, node_applies)
            t_out = T_ref + resolved
            dest_index, dest_key, dest_port, label = slots[out]
            series_acc[label].append(t_out)
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
def _finalize_events(result: _DrainResult, n: int) -> Dict[str, list]:
    """Per-label, per-lane sorted time lists, built in one pass per label.

    Each label's pulse entries form a ``(pulses, lanes)`` matrix sorted
    once along the pulse axis; one transpose + ``tolist`` then yields
    every lane's series, instead of a per-lane column copy (the lane loop
    in :func:`_run_one_batch` only indexes into the result).
    """
    per_label: Dict[str, list] = {}
    for label, entries in result.series_acc.items():
        if not entries:
            per_label[label] = None
            continue
        matrix = np.empty((len(entries), n))
        for row, entry in enumerate(entries):
            matrix[row, :] = entry  # broadcasts pure-nominal scalars
        matrix.sort(axis=0)
        per_label[label] = matrix.T.tolist()
    return per_label


def _events_for_lane(per_label: Dict[str, list], lane: int) -> dict:
    return {
        label: (columns[lane] if columns is not None else [])
        for label, columns in per_label.items()
    }


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
    sim.reset()
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

    per_label = None
    outcomes: List[Optional[str]] = [None] * len(seeds)
    stats: List = [None] * len(seeds) if collect_stats else []
    for lane, seed in enumerate(seeds):
        if result.active[lane]:
            if per_label is None:
                per_label = _finalize_events(result, noise.n)
            events = _events_for_lane(per_label, lane)
            outcomes[lane] = OK if predicate(events) else MIS_BEHAVED
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
    (see :func:`batch_eligible`) fall back wholesale to the sequential
    drain under the original python-rng scheme, so their results match
    every other backend; ``batch=0`` forces the per-seed counter-scheme
    reference (the CI smoke job diffs it against the batched output).
    """
    seeds = list(seeds)
    report = BatchReport()
    if not seeds:
        return [], [], report
    compiled = compile_circuit(sim.circuit)
    variability = mc_variability(sim.circuit, sigma)
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
