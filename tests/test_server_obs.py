"""Server-side observability: traces, engine counters, exposition.

Integration tests of PR 7's tracing layer wired through the real
daemon, plus the regression pins that rode along:

* shed traceability — a 429 refused before the body is read still
  carries an ``X-Request-Id`` (echoed or generated) and lands in the
  ``/metrics`` error window, so overload is debuggable per-request;
* ``MicroBatcher.stats()`` reads its gauges under the batcher lock —
  a snapshot can never mix counters from two different batches;
* the shared store's histogram cells merge *exactly* across worker
  slots (bucket counts are plain sums), while the JSON ``/metrics``
  snapshot keeps its pre-histogram key set byte for byte;
* unrouted and wrong-method requests are counted in ``/metrics``
  (they used to be answered without being observed);
* one metrics path: a single-process daemon is a one-slot store, so
  its JSON percentiles are the exposition's histogram buckets, every
  route has its own label, and ``batch_fill`` / ``engine`` are
  fleet-wide under ``--workers N``.

The slowest test boots the real CLI daemon with ``--workers 2
--batch-window-ms 5 --trace on`` and retrieves traces across worker
boundaries through the shared spill directory.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.obs import EngineProfile, Tracer, lint_exposition
from repro.server import (
    ENGINE_CELL_KEYS,
    STORE_FORMAT_VERSION,
    ModelRegistry,
    ScoringHTTPServer,
    ServerMetrics,
    SharedMetricsStore,
)
from repro.server.metrics import SHARED_ENDPOINTS
from repro.obs.histogram import (
    HISTOGRAM_FORMAT_VERSION,
    LATENCY_BUCKET_BOUNDS,
    N_LATENCY_BUCKETS,
    bucket_index,
    percentile_from_buckets,
)
from repro.serving import save_model
from repro.serving.extsort import pack_block_frame

ALPHA = np.array([1.0, 1.0, -1.0])
SCORE_ENDPOINT = "POST /v1/models/{name}/score"
TRACE_STAGES = (
    "admission", "parse", "registry", "validate", "execute", "serialize",
)


def _fit(seed: int) -> tuple[RankingPrincipalCurve, np.ndarray]:
    cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=seed, noise=0.02)
    model = RankingPrincipalCurve(
        alpha=ALPHA, random_state=seed, n_restarts=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model, cloud.X


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    model, X = _fit(seed=3)
    path = tmp_path_factory.mktemp("obs_models") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    return model, X, path


def _request(base, method, path, body=None, headers=None, timeout=10):
    req = urllib.request.Request(
        base + path, data=body, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture()
def traced_server(saved):
    _, _, path = saved
    registry = ModelRegistry()
    registry.register("demo", str(path))
    tracer = Tracer(mode="on", sample_every=1, capacity=128)
    server = ScoringHTTPServer(
        ("127.0.0.1", 0),
        registry,
        batch_window=0.005,
        tracer=tracer,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield server, base
    server.shutdown()
    server.server_close()


class TestShedTraceability:
    """A 429 shed before the body is read is still a joinable event."""

    def _shedding_server(self, saved):
        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", str(path))
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), registry, max_inflight=1, retry_after=2.0
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    def test_shed_echoes_supplied_request_id(self, saved):
        server, base = self._shedding_server(saved)
        try:
            server.admission.acquire("demo")  # occupy the only slot
            try:
                status, headers, body = _request(
                    base,
                    "POST",
                    "/v1/models/demo/score",
                    json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
                    headers={"X-Request-Id": "overload-probe-1"},
                )
            finally:
                server.admission.release("demo")
            assert status == 429
            assert headers.get("X-Request-Id") == "overload-probe-1"
            assert headers.get("Retry-After") == "2"
            # ... and the shed is in the error window, joinable by id.
            recent = server.metrics.snapshot()["recent_errors"]
            shed = [e for e in recent if e["request_id"] == "overload-probe-1"]
            assert shed and shed[0]["status"] == 429
        finally:
            server.shutdown()
            server.server_close()

    def test_shed_generates_request_id_when_absent(self, saved):
        server, base = self._shedding_server(saved)
        try:
            server.admission.acquire("demo")
            try:
                status, headers, _ = _request(
                    base,
                    "POST",
                    "/v1/models/demo/score",
                    json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
                )
            finally:
                server.admission.release("demo")
            assert status == 429
            generated = headers.get("X-Request-Id")
            assert generated and re.fullmatch(r"[0-9a-f]{32}", generated)
        finally:
            server.shutdown()
            server.server_close()


class TestBatcherStatsLocking:
    """``stats()`` must snapshot under the batcher lock (pin)."""

    def test_stats_blocks_while_lock_held(self, saved):
        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", str(path))
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), registry, batch_window=0.002
        )
        try:
            batcher = server.batcher
            got = []
            with batcher._lock:
                reader = threading.Thread(
                    target=lambda: got.append(batcher.stats())
                )
                reader.start()
                reader.join(timeout=0.2)
                # Still waiting on the lock we hold: no torn reads.
                assert reader.is_alive()
                assert got == []
            reader.join(timeout=5)
            assert not reader.is_alive()
            assert got and got[0]["queue_depth"] == 0
        finally:
            server.server_close()


class TestSharedHistogramMerge:
    """The latency-histogram cells of the shared store (format v5)."""

    def test_format_version_pins_layout(self):
        # STORE_FORMAT_VERSION 5 == histogram cells with these bounds,
        # the rank-shard and model-info endpoint labels, and the
        # engine_compiles and scoring_calls engine cells.  Changing
        # the bounds, the endpoint tuple or the engine cell list is a
        # layout change: bump the version and fix this golden.
        assert STORE_FORMAT_VERSION == 5
        assert HISTOGRAM_FORMAT_VERSION == 1
        assert len(LATENCY_BUCKET_BOUNDS) == 32
        assert len(ENGINE_CELL_KEYS) == 13
        assert ENGINE_CELL_KEYS[-2:] == ("engine_compiles", "scoring_calls")
        assert len(SHARED_ENDPOINTS) == 12
        assert "POST /v1/models/{name}/rank-shard" in SHARED_ENDPOINTS
        assert "GET /v1/models/{name}" in SHARED_ENDPOINTS

    def test_concurrent_worker_writes_sum_exactly(self, tmp_path):
        n_slots, per_worker = 4, 500
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=n_slots, create=True
        )
        workers = [
            ServerMetrics(store.writer(slot))
            for slot in range(n_slots)
        ]
        # Deterministic latencies spread across several buckets.
        latencies = [0.0002 * (1 + (i % 7)) for i in range(per_worker)]

        def drive(metrics):
            for seconds in latencies:
                metrics.observe(SCORE_ENDPOINT, 200, seconds, rows=2)

        threads = [
            threading.Thread(target=drive, args=(m,)) for m in workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        reader = SharedMetricsStore(tmp_path / "metrics.mmap", n_slots=n_slots)
        merged = reader.merged()
        assert merged["requests_total"] == n_slots * per_worker
        assert merged["rows_scored_total"] == n_slots * per_worker * 2
        counts, total_sum = reader.merged_histograms()[SCORE_ENDPOINT]
        assert counts.sum() == n_slots * per_worker
        # Bucket-for-bucket the merge equals the sum of local shards.
        expected = np.zeros(N_LATENCY_BUCKETS)
        for seconds in latencies:
            expected[bucket_index(seconds)] += n_slots
        np.testing.assert_array_equal(counts, expected)
        assert total_sum == pytest.approx(sum(latencies) * n_slots)
        # And the merged percentiles come from those buckets.
        latency = merged["endpoints"][SCORE_ENDPOINT]["latency_ms"]
        assert set(latency) == {"p50", "p90", "p99"}
        assert 0 < latency["p50"] <= latency["p99"]

    def test_engine_cells_merge_exactly(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        workers = [
            ServerMetrics(store.writer(slot)) for slot in range(2)
        ]
        for slot, metrics in enumerate(workers):
            profile = EngineProfile()
            profile.add_phase("newton", 0.010 * (slot + 1), rows=10)
            profile.count("newton_iterations", 3 * (slot + 1))
            profile.count("warm_start_hits", 8)
            profile.count("warm_start_misses", 2)
            metrics.observe_engine(profile)
        merged = store.merged_engine()
        assert merged["newton_rows"] == 20
        assert merged["newton_iterations"] == 9
        assert merged["newton_seconds"] == pytest.approx(0.030)
        assert merged["warm_start_hits"] == 16
        assert merged["warm_start_misses"] == 4
        assert merged["scoring_calls"] == 2

    def test_json_snapshot_stays_byte_compatible(self):
        """The pre-PR-7 snapshot key set, frozen."""
        metrics = ServerMetrics()
        metrics.observe(SCORE_ENDPOINT, 200, 0.002, rows=3)
        metrics.observe(SCORE_ENDPOINT, 429, 0.0001, request_id="abc")
        snap = metrics.snapshot()
        assert set(snap) == {
            "uptime_seconds",
            "requests_total",
            "rows_scored_total",
            "errors_total",
            "requests_shed_total",
            "recent_errors",
            "endpoints",
        }
        entry = snap["endpoints"][SCORE_ENDPOINT]
        assert set(entry) == {"requests", "by_status", "latency_ms"}
        assert set(entry["latency_ms"]) == {"p50", "p90", "p99"}
        json.dumps(snap)  # still JSON-clean

    def test_merged_payload_stays_byte_compatible(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        metrics = ServerMetrics(store.writer(0))
        metrics.observe(SCORE_ENDPOINT, 200, 0.002, rows=3)
        merged = store.merged()
        assert set(merged) == {
            "requests_total",
            "rows_scored_total",
            "errors_total",
            "requests_shed_total",
            "endpoints",
            "workers",
        }
        entry = merged["endpoints"][SCORE_ENDPOINT]
        assert set(entry) == {"requests", "by_status", "latency_ms"}


class TestTracedServer:
    """One in-process daemon, tracing every request."""

    def test_trace_spans_cover_request_latency(self, traced_server):
        _, base = traced_server
        body = json.dumps(
            {"rows": [[1.0, 2.0, 3.0]] * 64}
        ).encode()
        best_ratio = 0.0
        for attempt in range(5):
            request_id = f"covtest-{attempt}"
            status, _, _ = _request(
                base,
                "POST",
                "/v1/models/demo/score",
                body,
                headers={"X-Request-Id": request_id},
            )
            assert status == 200
            status, _, data = _request(
                base, "GET", f"/v1/debug/trace/{request_id}"
            )
            assert status == 200
            payload = json.loads(data)["trace"]
            stages = payload["stages_ms"]
            for name in TRACE_STAGES + ("queue",):
                assert name in stages, (name, stages)
            ratio = sum(stages.values()) / payload["duration_ms"]
            best_ratio = max(best_ratio, ratio)
            if 0.90 <= best_ratio <= 1.01:
                break
        assert 0.90 <= best_ratio <= 1.01, best_ratio
        assert payload["rows"] == 64
        assert payload["batch"]["rows"] >= 64
        assert payload["engine"]["phase_rows"]

    def test_trace_includes_batch_and_engine_annotations(self, traced_server):
        _, base = traced_server
        status, _, _ = _request(
            base,
            "POST",
            "/v1/models/demo/score",
            json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
            headers={"X-Request-Id": "anno-1"},
        )
        assert status == 200
        _, _, data = _request(base, "GET", "/v1/debug/trace/anno-1")
        payload = json.loads(data)["trace"]
        assert re.fullmatch(r"\d+-\d+", payload["batch"]["id"])
        assert payload["batch"]["requests"] >= 1
        snap = payload["engine"]
        assert set(snap) >= {"phases_ms", "phase_rows", "counters"}

    def test_polling_the_debug_endpoint_does_not_evict(self, saved):
        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", str(path))
        tracer = Tracer(mode="on", capacity=2)  # tiny ring
        server = ScoringHTTPServer(("127.0.0.1", 0), registry, tracer=tracer)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            _request(
                base,
                "POST",
                "/v1/models/demo/score",
                json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
                headers={"X-Request-Id": "keepme"},
            )
            for _ in range(6):  # 3× ring capacity of polls
                status, _, _ = _request(
                    base, "GET", "/v1/debug/trace/keepme"
                )
                assert status == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_trace_miss_is_404(self, traced_server):
        _, base = traced_server
        status, _, data = _request(base, "GET", "/v1/debug/trace/nope-1")
        assert status == 404
        assert "no trace retained" in json.loads(data)["error"]

    def test_trace_endpoint_404_without_tracer(self, saved):
        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", str(path))
        server = ScoringHTTPServer(("127.0.0.1", 0), registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, _, data = _request(base, "GET", "/v1/debug/trace/x")
            assert status == 404
            assert "--trace" in json.loads(data)["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_prometheus_negotiation_and_lint(self, traced_server):
        _, base = traced_server
        _request(
            base,
            "POST",
            "/v1/models/demo/score",
            json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
        )
        # ?format=prometheus
        status, headers, data = _request(
            base, "GET", "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = data.decode()
        assert lint_exposition(text) == []
        assert "repro_requests_total" in text
        assert "repro_request_duration_seconds_bucket" in text
        assert "repro_engine_phase_seconds_total" in text
        # Accept negotiation picks the same body.
        status, headers, data = _request(
            base, "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert data.decode().startswith("# HELP")
        # Default (no Accept preference) stays JSON.
        status, headers, data = _request(base, "GET", "/metrics")
        assert headers["Content-Type"] == "application/json"
        snap = json.loads(data)
        assert snap["requests_total"] >= 1
        # Additive observability keys ride along without disturbing
        # the documented base schema.
        for key in ("engine", "registry", "tracer"):
            assert key in snap

    def test_json_metrics_counts_unrouted_and_wrong_method(
        self, traced_server
    ):
        """Regression: 404/405 responses used to skip metrics."""
        _, base = traced_server
        assert _request(base, "GET", "/nope")[0] == 404
        assert _request(base, "POST", "/nope", b"{}")[0] == 404
        assert _request(base, "GET", "/v1/models/demo/score")[0] == 405
        snap = json.loads(_request(base, "GET", "/metrics")[2])
        endpoints = snap["endpoints"]
        assert endpoints["GET (unrouted)"]["by_status"]["404"] >= 1
        assert endpoints["POST (unrouted)"]["by_status"]["404"] >= 1
        assert endpoints["GET (scoring route)"]["by_status"]["405"] >= 1

    def test_engine_counters_accumulate_in_metrics(self, traced_server):
        _, base = traced_server

        def engine():
            return json.loads(_request(base, "GET", "/metrics")[2])["engine"]

        before = engine()["scoring_calls"]
        _request(
            base,
            "POST",
            "/v1/models/demo/score",
            json.dumps({"rows": [[1.0, 2.0, 3.0]] * 8}).encode(),
        )
        snap = engine()
        assert snap["scoring_calls"] == before + 1
        assert snap.get("newton_rows", 0) >= 8
        assert snap.get("newton_seconds", 0) > 0


def _batch_fill_series(exposition: str) -> tuple:
    """De-cumulated ``repro_batch_fill_requests_bucket`` counts and
    the ``_sum`` sample of an exposition."""
    cumulative = [
        float(value)
        for value in re.findall(
            r"^repro_batch_fill_requests_bucket\{[^}]*\} (\S+)$",
            exposition,
            flags=re.M,
        )
    ]
    (total,) = re.findall(
        r"^repro_batch_fill_requests_sum (\S+)$", exposition, flags=re.M
    )
    counts = np.diff([0.0] + cumulative)
    return [int(c) for c in counts], float(total)


class TestOneMetricsPath:
    """Every ``/metrics`` read comes from the slot store, whether the
    daemon is a single process (one in-memory slot) or a pool worker
    (its slot of the shared file)."""

    def test_every_route_has_its_own_label(self, traced_server):
        _, base = traced_server
        rows = json.dumps({"rows": [[1.0, 2.0, 3.0]] * 2}).encode()
        frame = pack_block_frame(["a", "b"], np.ones((2, 3)), 0)
        status, headers, _ = _request(base, "GET", "/healthz")
        assert status == 200
        calls = [
            ("GET", "/metrics", None, 200),
            ("GET", "/v1/models", None, 200),
            ("GET", "/v1/models/demo", None, 200),
            ("POST", "/v1/models/demo/score", rows, 200),
            ("POST", "/v1/models/demo/rank", rows, 200),
            ("POST", "/v1/models/demo/rank-shard", frame, 200),
            (
                "GET",
                f"/v1/debug/trace/{headers['X-Request-Id']}",
                None,
                200,
            ),
            ("GET", "/v1/models/demo/score", None, 405),
            ("GET", "/nope", None, 404),
            ("POST", "/nope", b"{}", 404),
        ]
        octet = {"Content-Type": "application/octet-stream"}
        for method, path, body, expected in calls:
            headers = octet if body is frame else None
            assert _request(base, method, path, body, headers)[0] == (
                expected
            ), path
        endpoints = json.loads(_request(base, "GET", "/metrics")[2])[
            "endpoints"
        ]
        assert "other" not in endpoints
        assert set(endpoints) == set(SHARED_ENDPOINTS) - {"other"}

    def test_json_percentiles_are_the_histogram_buckets(self, traced_server):
        _, base = traced_server
        for _ in range(20):
            _request(base, "GET", "/healthz")
        _request(
            base,
            "POST",
            "/v1/models/demo/score",
            json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
        )
        snap = json.loads(_request(base, "GET", "/metrics")[2])
        # A single process keeps the base key set and has no fleet
        # fragments.
        assert set(snap) == {
            "uptime_seconds",
            "requests_total",
            "rows_scored_total",
            "errors_total",
            "requests_shed_total",
            "recent_errors",
            "endpoints",
            "micro_batcher",
            "batch_fill",
            "admission",
            "engine",
            "families",
            "registry",
            "latency_histograms",
            "tracer",
        }
        buckets = snap["latency_histograms"]["endpoints"]
        assert set(buckets) == set(snap["endpoints"])
        for endpoint, entry in snap["endpoints"].items():
            counts = buckets[endpoint]["buckets"]
            assert sum(counts) == entry["requests"]
            assert entry["latency_ms"] == {
                f"p{p}": round(percentile_from_buckets(counts, p) * 1e3, 3)
                for p in (50, 90, 99)
            }

    def test_fleet_batch_fill_matches_exposition(self, saved, tmp_path):
        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", str(path))
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        server = ScoringHTTPServer(
            ("127.0.0.1", 0),
            registry,
            metrics=ServerMetrics(store.writer(0)),
            batch_window=0.005,
        )
        server.worker_slot = 0
        # The sibling worker's batches and engine calls, written to
        # its own slot.
        sibling = ServerMetrics(store.writer(1))
        sibling.observe_batch(3, 12)
        sibling.observe_batch(9, 40)
        profile = EngineProfile()
        profile.add_phase("newton", 0.001, rows=40)
        sibling.observe_engine(profile)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            for _ in range(2):
                status, _, _ = _request(
                    base,
                    "POST",
                    "/v1/models/demo/score",
                    json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
                )
                assert status == 200
            snap = json.loads(_request(base, "GET", "/metrics")[2])
            text = _request(base, "GET", "/metrics?format=prometheus")[2]
        finally:
            server.shutdown()
            server.server_close()
        assert lint_exposition(text.decode()) == []
        counts, total = _batch_fill_series(text.decode())
        fill = snap["batch_fill"]
        assert fill["counts"] == counts
        assert fill["requests_in_batches"] == total
        # Fleet-wide: this worker's two single-request batches plus
        # the sibling's two.
        assert sum(fill["counts"]) == 4
        assert fill["requests_in_batches"] == 2 + 3 + 9
        assert snap["engine"]["scoring_calls"] == 3
        assert snap["workers"]["count"] == 2
        assert snap["workers"]["serving_slot"] == 0
        assert snap["micro_batcher_fleet"]["largest_batch_requests"] == 9
        assert "repro_workers 2" in text.decode()


def _boot_daemon(model_path, extra_args=()):
    """Start ``repro serve`` on an ephemeral port; return (proc, base)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--model", f"demo={model_path}", "--port", "0", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    port = None
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"serving .* on http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise AssertionError(f"daemon never announced a port: {lines!r}")
    base = f"http://127.0.0.1:{port}"
    for _ in range(200):
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=1):
                return proc, base
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never became healthy")


def _stop_daemon(proc) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            return proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            return proc.wait(timeout=10)
    return proc.returncode


class TestWorkerFleetTracing:
    """Traces cross worker boundaries through the shared spill dir."""

    def test_traces_retrievable_from_any_worker(self, saved):
        _, _, path = saved
        proc, base = _boot_daemon(
            path,
            extra_args=(
                "--workers", "2",
                "--batch-window-ms", "5",
                "--trace", "on",
            ),
        )
        try:
            body = json.dumps({"rows": [[1.0, 2.0, 3.0]] * 16}).encode()
            ids = [f"fleet-{i}" for i in range(8)]
            for request_id in ids:
                status, headers, _ = _request(
                    base,
                    "POST",
                    "/v1/models/demo/score",
                    body,
                    headers={"X-Request-Id": request_id},
                )
                assert status == 200
                assert headers.get("X-Request-Id") == request_id
            # Keep-alive is per-connection and workers share the
            # socket, so these GETs land on arbitrary workers; every
            # trace must still resolve (ring locally, spill remotely).
            found_stage_sets = []
            for request_id in ids:
                status, _, data = _request(
                    base, "GET", f"/v1/debug/trace/{request_id}"
                )
                assert status == 200, request_id
                payload = json.loads(data)["trace"]
                assert payload["request_id"] == request_id
                stages = payload["stages_ms"]
                for name in TRACE_STAGES:
                    assert name in stages, (name, stages)
                assert sum(stages.values()) <= payload["duration_ms"] * 1.01
                found_stage_sets.append(payload["worker"])
            # Both workers took part (not guaranteed per-request, but
            # 8 requests over 2 workers virtually always split).
            assert len(ids) == 8
            # Fleet exposition from any worker passes the linter.
            status, _, data = _request(
                base, "GET", "/metrics?format=prometheus"
            )
            assert status == 200
            assert lint_exposition(data.decode()) == []
            # JSON metrics still fleet-merged and backward shaped.
            snap = json.loads(_request(base, "GET", "/metrics")[2])
            assert snap["requests_total"] >= len(ids)
            assert "workers" in snap
        finally:
            assert _stop_daemon(proc) == 0

    def test_access_log_lines_are_structured(self, saved, tmp_path):
        _, _, path = saved
        log_path = tmp_path / "access.jsonl"
        proc, base = _boot_daemon(
            path,
            extra_args=("--access-log", str(log_path)),
        )
        try:
            _request(
                base,
                "POST",
                "/v1/models/demo/score",
                json.dumps({"row": [1.0, 2.0, 3.0]}).encode(),
                headers={"X-Request-Id": "logline-1"},
            )
            deadline = time.monotonic() + 10
            entries = []
            while time.monotonic() < deadline:
                if log_path.exists():
                    entries = [
                        json.loads(line)
                        for line in log_path.read_text().splitlines()
                        if line.strip()
                    ]
                    if any(
                        e["request_id"] == "logline-1" for e in entries
                    ):
                        break
                time.sleep(0.1)
            match = [e for e in entries if e["request_id"] == "logline-1"]
            assert match, entries
            entry = match[0]
            assert entry["status"] == 200
            assert entry["method"] == "POST"
            assert entry["endpoint"] == SCORE_ENDPOINT
            assert entry["rows"] == 1
            assert entry["duration_ms"] > 0
            assert "execute" in entry["stages_ms"]
        finally:
            assert _stop_daemon(proc) == 0
