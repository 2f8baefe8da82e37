"""Observability overhead on the serving hot path.

PR 7 threads tracing hooks through every request: a ``Trace`` (or the
shared no-op ``NULL_TRACE``), nine span context managers, an
``EngineProfile`` activation around the solver, and per-endpoint
histogram cells in ``ServerMetrics.observe``.  The contract is that a
daemon started *without* ``--trace``/``--access-log`` pays (nearly)
nothing: every request-path hook degenerates to an attribute check or
a shared no-op context manager.

Two measurements pin that contract:

* an end-to-end HTTP comparison — the same single-row ``/score``
  workload against a daemon with tracing off, sampled (1/64) and
  always-on — reported for operators choosing a mode;
* a microbench of the exact per-request obs costs (no-op spans,
  engine-profile lifecycle, histogram observe), whose total *implied*
  overhead against the measured tracing-off latency is the CI gate:
  **<= 2%**, as the median over interleaved rounds of the tracing-off
  p50 and the microbench.  The gate is computed this way round — cheap
  fixed costs measured over many iterations, divided by a wall-clock
  latency — because a direct A/B of two HTTP runs at the ~μs scale is
  noise.

The latency client keeps one ``http.client.HTTPConnection`` per
tracing mode and asserts every request went over that one socket, so
the figures are keep-alive latencies.  The tables are printed, not
written (wall-clock numbers); the ``observability`` CI job runs this
module as a blocking check.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.obs import NULL_TRACE, EngineProfile, Tracer, engineprof
from repro.server import ModelRegistry, ScoringHTTPServer, ServerMetrics
from repro.serving import save_model

from conftest import format_table, show

ALPHA = np.array([1.0, 1.0, -1.0])
N_REQUESTS = 300
ROUNDS = 5  # interleaved tracing-off p50 / hook-cost rounds for the gate
OVERHEAD_GATE = 0.02  # tracing-off obs cost must stay under 2%


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=3, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=3, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    path = tmp_path_factory.mktemp("obs_bench") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    return path


def _serve(model_file, tracer):
    registry = ModelRegistry()
    registry.register("demo", str(model_file))
    server = ScoringHTTPServer(("127.0.0.1", 0), registry, tracer=tracer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


def _score_p50_ms(port: int, n: int = N_REQUESTS) -> float:
    """p50 of ``n`` single-row ``/score`` calls over one connection."""
    body = json.dumps({"row": [43.8, 81.1, 4.5]}).encode()
    headers = {"Content-Type": "application/json"}
    path = "/v1/models/demo/score"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        # One warm call (route + model caches) opens the socket; every
        # timed call must reuse it.
        conn.request("POST", path, body=body, headers=headers)
        conn.getresponse().read()
        sock = conn.sock
        samples = []
        for _ in range(n):
            start = time.perf_counter()
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            resp.read()
            samples.append(time.perf_counter() - start)
            assert resp.status == 200
            assert conn.sock is sock, "server closed the keep-alive socket"
    finally:
        conn.close()
    return float(np.percentile(samples, 50) * 1e3)


def _per_request_obs_cost_us() -> dict:
    """Microbenched cost of each tracing-off per-request hook, in μs."""
    iters = 20000

    def timed(fn) -> float:
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / iters * 1e6

    def null_spans():
        # The nine request-path spans a traced request would get, as
        # their tracing-off no-ops.
        for name in (
            "admission", "parse", "registry", "validate", "queue",
            "execute", "engine_metrics", "metrics", "serialize",
        ):
            with NULL_TRACE.span(name):
                pass

    def engine_profile_lifecycle():
        # Created/activated/reported per scoring request even with
        # tracing off (the always-on engine counters).
        profile = EngineProfile()
        with engineprof.activate(profile):
            engineprof.current()
        profile.totals()

    metrics = ServerMetrics()

    def observe_with_histogram():
        metrics.observe(
            "POST /v1/models/{name}/score", 200, 0.00123, rows=1
        )

    return {
        "no-op spans (x9)": timed(null_spans),
        "engine profile lifecycle": timed(engine_profile_lifecycle),
        "metrics observe (histogram cells)": timed(observe_with_histogram),
    }


def test_tracing_overhead(model_file):
    """Off vs sampled vs always-on latency, plus the <=2% off gate."""
    off = "tracing off (no --trace flag)"
    p50 = {off: 0.0}
    for label, tracer in (
        ("sampled (--trace sampled, 1/64)",
         Tracer(mode="sampled", sample_every=64)),
        ("always-on (--trace on)", Tracer(mode="on", sample_every=1)),
    ):
        server, port = _serve(model_file, tracer)
        try:
            p50[label] = _score_p50_ms(port)
        finally:
            server.shutdown()
            server.server_close()

    # One wall-clock p50 is at the mercy of whatever else the box is
    # doing; rounds that time the tracing-off p50 and the hook costs
    # back to back see the same load, and the median of their implied
    # ratios decides the gate.
    off_p50s, round_costs = [], []
    server, port = _serve(model_file, None)
    try:
        for _ in range(ROUNDS):
            off_p50s.append(_score_p50_ms(port))
            round_costs.append(_per_request_obs_cost_us())
    finally:
        server.shutdown()
        server.server_close()
    implied = statistics.median(
        sum(hooks.values()) / (p50_ms * 1e3)
        for hooks, p50_ms in zip(round_costs, off_p50s)
    )
    off_p50 = p50[off] = statistics.median(off_p50s)
    costs = {
        hook: statistics.median(hooks[hook] for hooks in round_costs)
        for hook in round_costs[0]
    }
    total_us = sum(costs.values())

    rows = [
        [label, f"{value:.3f} ms", f"{value / off_p50:.2f}x"]
        for label, value in p50.items()
    ]
    table1 = format_table(
        ["configuration", "p50 /score latency", "vs off"],
        rows,
        "Single-row /score latency by tracing mode (keep-alive client; "
        f"off is the median of {ROUNDS} rounds)",
    )
    cost_rows = [
        [label, f"{value:.3f} us"] for label, value in costs.items()
    ]
    cost_rows.append(["total per request", f"{total_us:.3f} us"])
    cost_rows.append(
        [f"implied overhead (median of {ROUNDS} rounds)",
         f"{implied * 100:.3f}%"]
    )
    cost_rows.append(["CI gate", f"<= {OVERHEAD_GATE * 100:.0f}%"])
    table2 = format_table(
        ["tracing-off hook", "cost"],
        cost_rows,
        "Per-request observability cost with tracing off (microbenched)",
    )
    show("serving_obs", table1 + "\n\n" + table2)

    # The CI gate: with no --trace flag the obs hooks must cost less
    # than 2% of a request.  Microbenched numerator over wall-clock
    # denominator, per round, keeps the gate deterministic.
    assert implied <= OVERHEAD_GATE, (
        f"tracing-off obs hooks cost {total_us:.1f} us/request — "
        f"a median {implied * 100:.2f}% of the tracing-off p50 over "
        f"{ROUNDS} rounds ({off_p50:.3f} ms; gate "
        f"{OVERHEAD_GATE * 100:.0f}%)"
    )
    # Sanity bound on the opt-in modes: always-on tracing may not
    # blow up the hot path (generous 2x bound — it should be ~1x).
    assert p50["always-on (--trace on)"] <= off_p50 * 2.0
