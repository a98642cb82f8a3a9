"""Per-endpoint serving metrics for the yield-analysis service.

The HTTP layer of :mod:`repro.serve` records one sample per handled
request: which endpoint, how long it took, whether it was served from the
structural-hash result cache, and whether it errored. The aggregate is
surfaced verbatim on ``GET /stats`` (see docs/serving.md) and consumed by
``tools/loadtest.py`` to compute cache hit rates.

Latency is tracked two ways: exact running aggregates (count, total, min,
max — cheap and lossless) plus a bounded window of recent samples from
which the nearest-rank p50/p95/p99 are computed on demand. The window
keeps ``/stats`` O(1)-memory under sustained load; quantiles therefore
describe *recent* behavior, which is what an operator dashboard wants.

Everything here is thread-safe: one :class:`ServiceMetrics` is shared by
every request-handler thread of the ``ThreadingHTTPServer``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Optional

#: Format tag of the ``/stats`` endpoint block (bump on shape changes).
STATS_FORMAT = "repro-serve-stats-v1"

#: Recent-latency window per endpoint (samples kept for quantiles).
LATENCY_WINDOW = 4096

#: Quantiles reported per endpoint, as (json key, q) pairs.
_QUANTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))


class LatencyStats:
    """Exact count/total/min/max plus windowed nearest-rank quantiles."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "window")

    def __init__(self, window: int = LATENCY_WINDOW):
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None
        self.window: Deque[float] = deque(maxlen=window)

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if self.min_s is None or seconds < self.min_s:
            self.min_s = seconds
        if self.max_s is None or seconds > self.max_s:
            self.max_s = seconds
        self.window.append(seconds)

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the recent window (None when empty).

        Nearest-rank: the ``ceil(q * n)``-th smallest sample (1-indexed).
        ``int(q * n)`` would be off by one — the 6th smallest of 10 for
        p50, and the maximum of a 100-sample window for p99.
        """
        if not self.window:
            return None
        ordered = sorted(self.window)
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[index]

    def to_jsonable(self) -> Dict[str, object]:
        def ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1e3, 3)

        payload: Dict[str, object] = {
            "count": self.count,
            "mean_ms": ms(self.total_s / self.count) if self.count else None,
            "min_ms": ms(self.min_s),
            "max_ms": ms(self.max_s),
        }
        for key, q in _QUANTILES:
            payload[key] = ms(self.quantile(q))
        return payload


class EndpointMetrics:
    """One endpoint's request/outcome counters and latency aggregate."""

    __slots__ = ("requests", "hits", "misses", "errors", "latency")

    def __init__(self, window: int = LATENCY_WINDOW):
        self.requests = 0
        #: Requests answered without any new engine computation — a cached
        #: result, or a wait coalesced onto another request's computation.
        self.hits = 0
        #: Requests that performed at least one engine computation.
        self.misses = 0
        self.errors = 0
        self.latency = LatencyStats(window)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "latency": self.latency.to_jsonable(),
        }


class ServiceMetrics:
    """Thread-safe per-endpoint serving counters (the ``/stats`` payload).

    ``cached`` distinguishes the *logical* request outcome — did the
    service answer without computing? — from the raw LRU counters the
    caches themselves report (a coalesced waiter never touched the cache,
    yet was served without computing). Error responses record neither a
    hit nor a miss.
    """

    def __init__(self, window: int = LATENCY_WINDOW):
        self._lock = threading.Lock()
        self._window = window
        self._endpoints: Dict[str, EndpointMetrics] = {}

    def record(
        self,
        endpoint: str,
        seconds: float,
        cached: Optional[bool] = None,
        error: bool = False,
    ) -> None:
        with self._lock:
            entry = self._endpoints.get(endpoint)
            if entry is None:
                entry = self._endpoints[endpoint] = EndpointMetrics(
                    self._window
                )
            entry.requests += 1
            if error:
                entry.errors += 1
            elif cached is not None:
                if cached:
                    entry.hits += 1
                else:
                    entry.misses += 1
            entry.latency.add(seconds)

    def endpoint(self, name: str) -> Optional[EndpointMetrics]:
        with self._lock:
            return self._endpoints.get(name)

    def to_jsonable(self) -> Dict[str, object]:
        with self._lock:
            return {
                "format": STATS_FORMAT,
                "endpoints": {
                    name: entry.to_jsonable()
                    for name, entry in sorted(self._endpoints.items())
                },
            }
