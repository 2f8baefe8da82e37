"""Serving throughput under many small concurrent requests.

PR 3 made one large scoring call fast; this benchmark pins what the
worker-pool PR does for the opposite regime — many tiny concurrent
requests, the shape a live ranking service actually sees.  Two layers
are measured:

* **Micro-batcher amortisation** (in-process, no HTTP): a single-row
  engine call costs ~1 ms of solver dispatch whatever the row count,
  so coalescing K concurrent single-row calls into one solve divides
  that fixed cost by K.  This is the layer that wins even on one core
  (the GIL serialises the dispatches anyway).
* **Fleet HTTP throughput** (real daemons over real sockets):
  ``--workers 4 --batch-window-ms 2`` versus the single-process
  unbatched daemon.  The pre-fork fleet needs actual cores to beat the
  per-request GIL overhead, so the >= 2x gate only applies where
  ``os.cpu_count() >= 4``; on smaller boxes the run still emits the
  table and enforces no-regression.

The tables are printed (run with ``-s``), not written: their numbers
are wall-clock throughputs.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.server import MicroBatcher
from repro.serving import save_model, score_batch

from conftest import format_table, show

ALPHA = np.array([1.0, 1.0, -1.0])
N_CLIENTS = 8
PER_CLIENT_HTTP = 50
PER_CLIENT_DIRECT = 60
#: Interleaved direct/batched rounds of the micro-batcher gate.
ROUNDS = 5


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=3, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=3, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    path = tmp_path_factory.mktemp("workers_bench") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    return model, path


def _hammer(call, n_threads: int, per_thread: int) -> float:
    """Aggregate calls/second of ``call(slot)`` across client threads."""
    barrier = threading.Barrier(n_threads + 1)
    errors: list = []

    def client(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(per_thread):
                call(slot)
        except BaseException as exc:  # noqa: BLE001 - fail the bench
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, f"client threads raised: {errors}"
    return n_threads * per_thread / elapsed


def test_micro_batcher_amortizes_engine_dispatch(saved_model, benchmark):
    """Coalescing concurrent single-row calls divides the ~1 ms fixed
    solver-dispatch cost of an engine call across the whole window."""
    model, _ = saved_model
    rng = np.random.default_rng(0)
    rows = [rng.uniform(0.0, 1.0, size=(1, 3)) for _ in range(N_CLIENTS)]

    # policy="fixed" pins the PR 5 behaviour this table has always
    # measured; the adaptive-vs-fixed comparison is its own benchmark.
    # max_rows=N_CLIENTS closes each batch the moment every client has
    # joined.  With the default 1024-row cap every leader instead slept
    # out the whole 2 ms window, which caps this closed loop at
    # N_CLIENTS / (2 ms + one call) ~ 3000 req/s whatever the dispatch
    # cost -- about what direct 1-row calls now reach, so the gate
    # compared the window's idle wait, not the coalescing.
    batcher = MicroBatcher(
        score_batch, window=0.002, max_rows=N_CLIENTS, policy="fixed"
    )
    # One wall-clock pair is at the mercy of whatever else the box is
    # doing; interleaved rounds see the same load, and their medians
    # decide the gate.
    direct, batched = [], []
    for _ in range(ROUNDS):
        direct.append(_hammer(
            lambda slot: score_batch(model, rows[slot]),
            N_CLIENTS,
            PER_CLIENT_DIRECT,
        ))
        batched.append(_hammer(
            lambda slot: batcher.score(model, rows[slot]),
            N_CLIENTS,
            PER_CLIENT_DIRECT,
        ))
    rps_direct = statistics.median(direct)
    rps_batched = statistics.median(batched)
    benchmark(lambda: score_batch(model, rows[0]))
    stats = batcher.stats()
    # Sanity: the speedup must come from actual coalescing, and the
    # coalesced results are byte-identical to direct calls (the
    # correctness half lives in tests/test_server_batching.py).
    assert stats["batches_executed"] < stats["requests_batched"]
    assert stats["largest_batch_requests"] == N_CLIENTS

    show(
        "serving_workers",
        format_table(
            ["path", "requests/s", "speedup"],
            [
                [
                    f"direct score_batch ({N_CLIENTS} threads, 1-row "
                    f"calls; median of {ROUNDS} rounds)",
                    f"{rps_direct:.0f}",
                    "1.00x",
                ],
                [
                    f"micro-batched (window 2 ms, max {N_CLIENTS} rows)",
                    f"{rps_batched:.0f}",
                    f"{rps_batched / rps_direct:.2f}x",
                ],
                [
                    "largest coalesced batch",
                    str(stats["largest_batch_requests"]),
                    "",
                ],
            ],
            f"Micro-batcher amortisation, cores={os.cpu_count()}",
        ),
    )
    # Hard bound: coalescing must never cost throughput (locally it is
    # >2x even on one core; generous slack for loaded CI boxes).
    assert rps_batched >= rps_direct * 0.9


def test_adaptive_window_idle_latency_and_saturation(saved_model):
    """Adaptive vs fixed window: an idle service must pay ~zero added
    latency (the adaptive window collapses to 0), while a saturated one
    must keep the fixed window's amortisation."""
    model, _ = saved_model
    rng = np.random.default_rng(1)
    row = rng.uniform(0.0, 1.0, size=(1, 3))
    cap = 0.005

    def idle_mean_latency(policy: str) -> float:
        batcher = MicroBatcher(score_batch, window=cap, policy=policy)
        times = []
        for _ in range(40):  # strictly sequential = idle traffic
            started = time.perf_counter()
            batcher.score(model, row)
            times.append(time.perf_counter() - started)
        return sum(times) / len(times)

    idle_fixed = idle_mean_latency("fixed")
    idle_adaptive = idle_mean_latency("adaptive")

    rows = [rng.uniform(0.0, 1.0, size=(1, 3)) for _ in range(N_CLIENTS)]
    rates = {}
    coalesced = {}
    for policy in ("fixed", "adaptive"):
        batcher = MicroBatcher(score_batch, window=0.002, policy=policy)
        rates[policy] = _hammer(
            lambda slot, b=batcher: b.score(model, rows[slot]),
            N_CLIENTS,
            PER_CLIENT_DIRECT,
        )
        stats = batcher.stats()
        coalesced[policy] = stats["largest_batch_requests"]
        assert stats["batches_executed"] < stats["requests_batched"]

    show(
        "serving_workers",
        format_table(
            ["policy", "idle p-mean latency", "saturated req/s"],
            [
                [
                    "fixed (window 5 ms idle / 2 ms saturated)",
                    f"{idle_fixed * 1e3:.2f} ms",
                    f"{rates['fixed']:.0f}",
                ],
                [
                    "adaptive (same caps)",
                    f"{idle_adaptive * 1e3:.2f} ms",
                    f"{rates['adaptive']:.0f}",
                ],
                [
                    "largest coalesced batch (fixed/adaptive)",
                    f"{coalesced['fixed']}/{coalesced['adaptive']}",
                    "",
                ],
            ],
            "Adaptive vs fixed coalescing window "
            f"(cores={os.cpu_count()})",
        ),
    )
    # The tentpole's acceptance gates: idle latency must collapse with
    # the window (fixed pays the full 5 ms cap per sequential call,
    # adaptive must pay well under half of that), and saturation must
    # keep the amortisation (generous slack for loaded CI boxes).
    assert idle_fixed >= cap
    assert idle_adaptive <= idle_fixed * 0.5
    assert rates["adaptive"] >= rates["fixed"] * 0.7


# ----------------------------------------------------------------------
# Real daemons over real sockets
# ----------------------------------------------------------------------
def _boot(model_path, extra):
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--model", f"demo={model_path}", "--port", "0", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving .* on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    assert port is not None, "daemon never announced a port"
    for _ in range(200):
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1)
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            conn.close()
            return proc, port
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never became healthy")


def _http_throughput(port: int) -> float:
    body = json.dumps({"row": [0.6, 0.4, 0.5]}).encode()
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for _ in range(N_CLIENTS)
    ]

    def call(slot: int) -> None:
        conn = connections[slot]
        conn.request(
            "POST",
            "/v1/models/demo/score",
            body,
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        response.read()
        assert response.status == 200

    try:
        return _hammer(call, N_CLIENTS, PER_CLIENT_HTTP)
    finally:
        for conn in connections:
            conn.close()


def test_worker_fleet_concurrent_small_requests(saved_model):
    """--workers 4 + micro-batching vs the single-process daemon."""
    _, path = saved_model
    configs = [
        ("single process, unbatched", ("--workers", "1")),
        (
            "4 workers + 2 ms micro-batching",
            ("--workers", "4", "--batch-window-ms", "2"),
        ),
    ]
    rates = []
    for _, extra in configs:
        proc, port = _boot(path, extra)
        try:
            rates.append(_http_throughput(port))
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
    single, fleet = rates
    cores = os.cpu_count() or 1

    show(
        "serving_workers",
        format_table(
            ["daemon", "requests/s", "speedup"],
            [
                [configs[0][0], f"{single:.0f}", "1.00x"],
                [configs[1][0], f"{fleet:.0f}", f"{fleet / single:.2f}x"],
            ],
            f"Concurrent small-request HTTP throughput, "
            f"{N_CLIENTS} keep-alive clients, cores={cores}",
        ),
    )
    if cores >= 4:
        # The acceptance gate: with real cores the pre-fork fleet plus
        # micro-batching must at least double the single-process
        # daemon on this workload.
        assert fleet >= 2.0 * single
    else:
        # On 1-2 core boxes neither forks nor batching can beat the
        # GIL-serialised HTTP handling that dominates this workload;
        # enforce no-catastrophic-regression and record the numbers.
        assert fleet >= 0.5 * single


def test_overload_shed_rate_under_admission_control(saved_model):
    """Offered load beyond a deliberately tiny admission bound: the
    daemon must keep answering (200 or 429, nothing else) and the shed
    rate is recorded so operators can see what a too-small
    ``--max-inflight`` costs."""
    _, path = saved_model
    proc, port = _boot(
        path,
        ("--workers", "1", "--max-inflight", "2",
         "--batch-window-ms", "2"),
    )
    body = json.dumps({"rows": [[0.6, 0.4, 0.5]] * 64}).encode()
    counts = {200: 0, 429: 0, "reset": 0}
    lock = threading.Lock()
    connections = [
        http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        for _ in range(N_CLIENTS)
    ]

    def call(slot: int) -> None:
        conn = connections[slot]
        try:
            conn.request(
                "POST",
                "/v1/models/demo/score",
                body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
        except (ConnectionError, http.client.HTTPException):
            # A shed closes the connection without draining the body,
            # which TCP reports to a mid-upload client as a reset —
            # still an explicit refusal, never a hang.
            conn.close()
            with lock:
                counts["reset"] += 1
            return
        # 429 responses close the connection; http.client auto-opens
        # a new one on the next request.
        assert response.status in (200, 429), response.status
        with lock:
            counts[response.status] += 1

    try:
        rps = _hammer(call, N_CLIENTS, 30)
    finally:
        for conn in connections:
            conn.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    offered = N_CLIENTS * 30
    served, shed, reset = counts[200], counts[429], counts["reset"]
    # Zero silent drops: every offered request resolved explicitly.
    assert served + shed + reset == offered, counts
    show(
        "serving_workers",
        format_table(
            ["overload metric", "value", ""],
            [
                ["offered (8 clients, 64-row bodies)", str(offered), ""],
                ["served (200)", str(served), ""],
                ["shed (429 + Retry-After)", str(shed), ""],
                ["shed (connection reset mid-upload)", str(reset), ""],
                [
                    "shed rate",
                    f"{(shed + reset) / offered:.1%}",
                    "",
                ],
                ["answered req/s under overload", f"{rps:.0f}", ""],
            ],
            "Admission control, --workers 1 --max-inflight 2 "
            f"(cores={os.cpu_count()})",
        ),
    )
    assert served > 0
