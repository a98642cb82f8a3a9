"""End-to-end tests for the HTTP yield service (repro.serve).

Every test runs against a live in-process server (``serving()`` on an
ephemeral port) driven through ``http.client`` — real sockets, real
threads, the same path ``python -m repro serve`` takes. Locked here:

* a warm hit is *byte-identical* to the cold miss that populated it,
  with the cache outcome carried out-of-band in ``X-Repro-Cache``;
* concurrent identical requests coalesce onto exactly one computation;
* malformed circuits, unknown designs, bad parameters, and bad paths map
  to structured ``{"error": {"code", "message"}}`` responses;
* ``/healthz`` and ``/stats`` keep their documented shapes.
"""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.core.circuit import fresh_circuit
from repro.core.helpers import inp_at
from repro.core.serialize import circuit_to_json
from repro.designs import min_max
from repro.serve import SERVE_VERSION, serving

N_CLIENTS = 6


@pytest.fixture()
def server():
    with serving(port=0, workers=1) as srv:
        yield srv


def _call(port, method, path, body=None):
    """One request; returns (status, headers dict, raw body bytes)."""
    conn = HTTPConnection("127.0.0.1", port)
    try:
        data = None
        if body is not None:
            data = body if isinstance(body, bytes) else json.dumps(body)
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


def _minmax_text(a_time=60.0, b_time=25.0):
    """A serialized Min-Max comparator circuit (repro-circuit-v1 text)."""
    with fresh_circuit() as circuit:
        a = inp_at(a_time, name="A")
        b = inp_at(b_time, name="B")
        low, high = min_max(a, b)
        low.observe("low")
        high.observe("high")
    return circuit_to_json(circuit)


# -- happy path --------------------------------------------------------
def test_healthz_shape(server):
    port = server.server_address[1]
    status, headers, raw = _call(port, "GET", "/healthz")
    assert status == 200
    body = json.loads(raw)
    assert body["status"] == "ok"
    assert body["version"] == SERVE_VERSION
    assert body["workers"] == 1
    assert body["designs"] > 0
    assert body["uptime_s"] >= 0


def test_yield_miss_then_hit_byte_identical(server):
    port = server.server_address[1]
    request = {"design": "Min-Max", "sigma": 0.5, "n_seeds": 10}
    status1, headers1, raw1 = _call(port, "POST", "/yield", request)
    status2, headers2, raw2 = _call(port, "POST", "/yield", request)
    assert status1 == status2 == 200
    assert headers1["X-Repro-Cache"] == "miss"
    assert headers2["X-Repro-Cache"] == "hit"
    assert raw1 == raw2  # the hit serves the exact cached bytes

    body = json.loads(raw1)
    assert body["design"] == "Min-Max"
    assert body["structural_hash"]
    result = body["result"]
    assert result["format"] == "repro-yield-result-v1"
    assert result["runs"] == 10
    assert result["sigma"] == 0.5
    assert 0.0 <= result["yield"] <= 1.0
    assert result["passed"] + result["mis_behaved"] + \
        result["violations"] == 10

    assert server.service.computations == 1


def test_submitted_circuit_keyed_by_structure_not_bytes(server):
    """Text and dict submissions of the same circuit hit one cache entry."""
    port = server.server_address[1]
    text = _minmax_text()
    as_text = {"circuit": text, "sigma": 0.4, "n_seeds": 6}
    as_dict = {"circuit": json.loads(text), "sigma": 0.4, "n_seeds": 6}
    status1, headers1, raw1 = _call(port, "POST", "/yield", as_text)
    # Different request bytes, same structural hash: must hit.
    status2, headers2, raw2 = _call(port, "POST", "/yield", as_dict)
    assert status1 == status2 == 200
    assert headers1["X-Repro-Cache"] == "miss"
    assert headers2["X-Repro-Cache"] == "hit"
    assert raw1 == raw2
    assert json.loads(raw1)["design"] is None
    assert server.service.computations == 1


def test_concurrent_identical_requests_coalesce(server, monkeypatch):
    """N simultaneous identical misses -> exactly one engine computation."""
    import repro.exp.measure as measure_mod

    calls = []
    real_measure = measure_mod.measure_yield

    def slow_measure(*args, **kwargs):
        calls.append(threading.get_ident())
        # Hold the leader long enough for every follower's request to be
        # in flight (queued on the compute lock) before the result lands
        # in the cache. The assertions below hold regardless of timing —
        # an already-cached key is never recomputed — the delay just makes
        # the coalescing path the one actually taken.
        threading.Event().wait(0.5)
        return real_measure(*args, **kwargs)

    monkeypatch.setattr(measure_mod, "measure_yield", slow_measure)

    port = server.server_address[1]
    request = {"design": "JTL", "sigma": 0.5, "n_seeds": 5}
    outcomes = [None] * N_CLIENTS
    barrier = threading.Barrier(N_CLIENTS)

    def client(index):
        barrier.wait()
        outcomes[index] = _call(port, "POST", "/yield", request)

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    assert len(calls) == 1, "identical concurrent requests must coalesce"
    assert server.service.computations == 1
    statuses = {status for status, _, _ in outcomes}
    assert statuses == {200}
    bodies = {raw for _, _, raw in outcomes}
    assert len(bodies) == 1, "every client must see identical bytes"
    hits = sum(
        1 for _, headers, _ in outcomes
        if headers["X-Repro-Cache"] == "hit"
    )
    assert hits == N_CLIENTS - 1  # one miss (the leader), rest served


def test_yield_curve_shares_the_measurement_cache(server):
    port = server.server_address[1]
    request = {
        "design": "JTL", "sigmas": [0.25, 0.75], "n_seeds": 8, "seed0": 0,
    }
    status1, headers1, raw1 = _call(port, "POST", "/yield_curve", request)
    assert status1 == 200
    assert headers1["X-Repro-Cache"] == "miss"
    body = json.loads(raw1)
    assert body["sigmas"] == [0.25, 0.75]
    assert len(body["results"]) == 2
    assert all(r["runs"] == 8 for r in body["results"])

    # The identical curve again: every point is cached now.
    status2, headers2, raw2 = _call(port, "POST", "/yield_curve", request)
    assert headers2["X-Repro-Cache"] == "hit"
    assert raw1 == raw2

    # A /yield at a curve point with the same parameters is a hit too —
    # one shared measurement cache, not per-endpoint silos.
    status3, headers3, raw3 = _call(port, "POST", "/yield", {
        "design": "JTL", "sigma": 0.25, "n_seeds": 8, "seed0": 0,
    })
    assert status3 == 200
    assert headers3["X-Repro-Cache"] == "hit"
    assert json.loads(raw3)["result"] == body["results"][0]


def test_critical_sigma_cached(server):
    port = server.server_address[1]
    request = {
        "design": "JTL", "target_yield": 0.9, "sigma_hi": 4.0,
        "iterations": 3, "n_seeds": 5,
    }
    status1, headers1, raw1 = _call(port, "POST", "/critical_sigma", request)
    assert status1 == 200
    body = json.loads(raw1)
    assert isinstance(body["critical_sigma"], float)
    assert 0.0 <= body["critical_sigma"] <= 4.0

    status2, headers2, raw2 = _call(port, "POST", "/critical_sigma", request)
    assert headers2["X-Repro-Cache"] == "hit"
    assert raw1 == raw2


# -- error mapping -----------------------------------------------------
def _error(raw):
    return json.loads(raw)["error"]


def test_unknown_design_is_structured_404(server):
    port = server.server_address[1]
    status, _, raw = _call(port, "POST", "/yield", {"design": "No-Such"})
    assert status == 404
    error = _error(raw)
    assert error["code"] == "unknown_design"
    assert "No-Such" in error["message"]


def test_malformed_circuit_is_structured_400(server):
    port = server.server_address[1]
    for circuit in ("this is not json", {"format": "bogus", "cells": 3}):
        status, _, raw = _call(port, "POST", "/yield", {"circuit": circuit})
        assert status == 400
        assert _error(raw)["code"] == "bad_request"


def test_design_and_circuit_together_rejected(server):
    port = server.server_address[1]
    status, _, raw = _call(port, "POST", "/yield", {
        "design": "JTL", "circuit": _minmax_text(),
    })
    assert status == 400
    assert "exactly one" in _error(raw)["message"]


def test_bad_parameters_rejected(server):
    port = server.server_address[1]
    cases = [
        {"design": "JTL", "sigma": -1.0},
        {"design": "JTL", "n_seeds": 0},
        {"design": "JTL", "n_seeds": True},
        {"design": "JTL", "sigma": "big"},
        {"design": "JTL", "batch": -2},
        {"design": 7},
    ]
    for case in cases:
        status, _, raw = _call(port, "POST", "/yield", case)
        assert status == 400, case
        assert _error(raw)["code"] == "bad_request", case


def test_non_json_body_rejected(server):
    port = server.server_address[1]
    status, _, raw = _call(port, "POST", "/yield", b"{not json")
    assert status == 400
    assert _error(raw)["code"] == "bad_request"


def test_unknown_paths_404(server):
    port = server.server_address[1]
    for method, path in [("GET", "/nope"), ("POST", "/nope"),
                         ("GET", "/yield")]:
        status, _, raw = _call(port, method, path, body={} if
                               method == "POST" else None)
        assert status == 404, (method, path)
        assert _error(raw)["code"] == "not_found"


# -- introspection -----------------------------------------------------
def test_stats_shape_and_counters(server):
    port = server.server_address[1]
    request = {"design": "Min-Max", "sigma": 0.5, "n_seeds": 5}
    _call(port, "POST", "/yield", request)
    _call(port, "POST", "/yield", request)
    _call(port, "POST", "/yield", {"design": "No-Such"})

    status, _, raw = _call(port, "GET", "/stats")
    assert status == 200
    body = json.loads(raw)
    assert body["format"] == "repro-serve-stats-v1"
    assert body["workers"] == 1
    assert body["computations"] == 1
    assert body["coalesced"] == 0

    for cache_name in ("result", "compiled"):
        stats = body["cache"][cache_name]
        assert set(stats) == {
            "size", "capacity", "hits", "misses", "evictions",
        }
    assert body["cache"]["result"]["size"] == 1

    endpoint = body["endpoints"]["/yield"]
    assert endpoint["requests"] == 3
    assert endpoint["hits"] == 1
    assert endpoint["misses"] == 1
    assert endpoint["errors"] == 1
    latency = endpoint["latency"]
    assert set(latency) == {
        "count", "mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms",
        "p99_ms",
    }
    assert latency["count"] == 3
    assert latency["p50_ms"] >= 0
