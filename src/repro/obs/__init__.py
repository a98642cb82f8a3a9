"""``repro.obs``: opt-in simulation observability.

Pulse provenance (why did this pulse arrive when it did?) and per-cell
metrics (what did each cell do?), collected by attaching an
:class:`Observer` to a simulation::

    from repro import Simulation
    from repro.obs import Observer

    obs = Observer()                       # provenance + metrics
    events = Simulation(circuit).simulate(observer=obs)
    print(obs.chain("q"))                  # causal chain of q's last pulse
    print(obs.metrics.render())            # per-cell counter table
    payload = obs.metrics.to_json()        # repro-obs-metrics-v1

With no observer attached the simulator's drain skips every hook behind
one local flag (the bitonic-8 guard in ``tools/bench_guard.py`` holds the
disabled-tracing overhead under 5%). See docs/observability.md for the
provenance format, the metrics JSON schema, and CLI usage
(``python -m repro trace --stats``).
"""

from .metrics import DEFAULT_BIN_WIDTH, CellMetrics, DelayHistogram, SimMetrics
from .observer import Observer
from .provenance import (
    ProvenanceGraph,
    PulseRecord,
    format_chain,
    format_group_chain,
)
from .serving import (
    LATENCY_WINDOW,
    STATS_FORMAT,
    EndpointMetrics,
    LatencyStats,
    ServiceMetrics,
)

__all__ = [
    "CellMetrics",
    "DEFAULT_BIN_WIDTH",
    "DelayHistogram",
    "EndpointMetrics",
    "LATENCY_WINDOW",
    "LatencyStats",
    "Observer",
    "ProvenanceGraph",
    "PulseRecord",
    "STATS_FORMAT",
    "ServiceMetrics",
    "SimMetrics",
    "format_chain",
    "format_group_chain",
]
