"""Pulse events and the pending-pulse heap.

The simulator of Section 4.3 "maintains a priority heap of pending pulses
tagged with their destination cells"; ``getSimPulses`` (Figure 6) extracts
the earliest set of simultaneous pulses destined for the same machine. This
module provides that heap with a deterministic tie-break (node id) where the
formal semantics allows a nondeterministic choice.

Performance note: the heap stores flat primitive tuples
``(time, key, seq, payload, port)`` rather than per-pulse objects. ``key``
is the destination node id (grouping + tie-break), ``seq`` is a running
counter that breaks any remaining ties by insertion order, and ``payload``
is whatever the pusher wants back from :meth:`PulseHeap.pop_simultaneous`
(the destination :class:`~repro.core.node.Node` for normal use; the
simulator's drain pushes its precomputed per-node dispatch record
instead). The :class:`Pulse` dataclass remains as the convenience wrapper
for :meth:`PulseHeap.push`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .node import Node


@dataclass(frozen=True)
class Pulse:
    """A pulse that will arrive at ``time`` on input ``port`` of ``node``."""

    time: float
    node: Node
    port: str


class PulseHeap:
    """Priority heap of pending pulses, ordered by (time, key, insertion).

    ``key`` is normally the destination node id; insertion order breaks any
    remaining ties so behaviour is reproducible.
    """

    __slots__ = ("_heap", "_seq", "max_depth")

    def __init__(self) -> None:
        #: flat entries: (time, key, seq, payload, port)
        self._heap: List[Tuple[float, int, int, Any, str]] = []
        self._seq = 0
        #: High-water mark of pending pulses, reported by the observability
        #: layer as ``max_heap_depth``. Maintained by the simulator's drain
        #: loop when an observer is attached (a per-push check here would
        #: tax the no-observer hot path); 0 otherwise.
        self.max_depth = 0

    def push(self, pulse: Pulse) -> None:
        """Push a :class:`Pulse`; the payload returned on pop is its node."""
        node = pulse.node
        self.push_raw(pulse.time, node.node_id, node, pulse.port)

    def push_raw(self, time: float, key: int, payload: Any, port: str) -> None:
        """Push a flat entry without constructing a :class:`Pulse`.

        ``payload`` is handed back verbatim by :meth:`pop_simultaneous`;
        entries sharing ``(time, key)`` are grouped there.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, key, seq, payload, port))

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_simultaneous(self) -> Tuple[Any, List[str], float]:
        """Implements ``getSimPulses``.

        Pops every pending pulse that shares the earliest time *and* the
        destination key of the heap's top entry, returning
        ``(payload, ports, time)``. Duplicate pulses on the same port at the
        same instant collapse into one (a port either pulses at an instant
        or it does not); a set shadows the ordered port list so the
        duplicate check stays O(1) per pop.
        """
        heap = self._heap
        if not heap:
            raise IndexError("pop from empty pulse heap")
        heappop = heapq.heappop
        time, key, _, payload, port = heappop(heap)
        ports = [port]
        seen = {port}
        while heap:
            top = heap[0]
            if top[0] != time or top[1] != key:
                break
            p = top[4]
            heappop(heap)
            if p not in seen:
                seen.add(p)
                ports.append(p)
        return payload, ports, time
