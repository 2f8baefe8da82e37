"""serve-small: closed-loop single-row ``/score`` against one daemon.

``repro serve --workers 1 --batch-window-ms 2`` (adaptive batching,
``backend=auto``) serves a countries-fitted model.  Two keep-alive
``http.client`` connections from this process each send a single-row
``POST /v1/models/<m>/score`` and wait for the reply before sending the
next.  Every score is compared exactly with the single-row
``score_samples`` oracle, and every connection must stay the one TCP
connection it opened.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.obs.engineprof import ENGINE_PHASES
from repro.serving import load_model

from calibrate import Speedometer, normalised
from inputs import (
    MODEL_NAME,
    attribute_rows,
    fit_countries_model,
    best_restart_objective,
)
from ledger import Outcome, Tally, median, samples_needed, tail_percentile
from spans import vm_hwm_mb

DAEMON_ARGS = ("--workers", "1", "--batch-window-ms", "2")
CONNECTIONS = 2
POOL_ROWS = 256
SETUP_REPEATS = 3
WARMUP_REQUESTS = 20
TAIL_Q = 99.0
#: How far past ``--seconds`` a run may go to collect enough samples
#: for the tail percentile.
MAX_EXTRA_S = 60.0
BOOT_TIMEOUT_S = 30.0
TRACE_BUFFER = 65536
SCORE_PATH = f"/v1/models/{MODEL_NAME}/score"
STAGES = {
    "server.admission.admission_ms": "admission",
    "server.http.parse_ms": "parse",
    "server.registry.lookup_ms": "registry",
    "server.http.validate_ms": "validate",
    "server.batching.queue_ms": "queue",
    "geometry.engine.execute_ms": "execute",
    "server.http.serialize_ms": "serialize",
}


def _get_json(port: int, path: str) -> tuple:
    """``GET`` on a fresh connection (never one of the measured ones)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, model_path, traced: bool):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--model", f"{MODEL_NAME}={model_path}",
            "--host", "127.0.0.1", "--port", "0", *DAEMON_ARGS,
        ]
        if traced:
            command += ["--trace", "on", "--trace-buffer", str(TRACE_BUFFER)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            self.port = self._await_port()
            self._await_healthy(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _await_port(self) -> int:
        for line in self.proc.stdout:
            if line.startswith("serving ") and " on http://" in line:
                return int(line.split(" on http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        raise RuntimeError(f"daemon exited during boot ({self.proc.poll()})")

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if _get_json(self.port, "/healthz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never answered /healthz")

    def metrics(self) -> dict:
        return _get_json(self.port, "/metrics")[1]

    def trace(self, request_id: str) -> Optional[dict]:
        status, payload = _get_json(
            self.port, f"/v1/debug/trace/{request_id}"
        )
        return payload["trace"] if status == 200 else None

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _score_of(payload: bytes) -> Optional[float]:
    try:
        return json.loads(payload).get("score")
    except ValueError:
        return None


class _CountingConnection(http.client.HTTPConnection):
    """Counts TCP connects: a keep-alive client connects exactly once."""

    connects = 0

    def connect(self):
        self.connects += 1
        super().connect()


@dataclass
class Loop:
    """Outcome of one closed-loop phase."""

    latencies_ms: List[float] = field(default_factory=list)
    request_ids: List[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    wall_s: float = 0.0
    connects: List[int] = field(default_factory=list)


def closed_loop(port: int, pool: "Pool", seconds: float, min_samples: int,
                tag: str) -> Loop:
    """Two connections, each waiting for its reply before the next
    request, for ``seconds`` and at least ``min_samples`` successes."""
    stop = threading.Event()
    ready = threading.Barrier(CONNECTIONS + 1)
    loops = [Loop() for _ in range(CONNECTIONS)]
    conns = [
        _CountingConnection("127.0.0.1", port, timeout=30)
        for _ in range(CONNECTIONS)
    ]
    headers = {"Content-Type": "application/json"}

    def client(k: int) -> None:
        loop, conn, order = loops[k], conns[k], pool.orders[k]
        i = 0
        try:
            while i < WARMUP_REQUESTS or not stop.is_set():
                if i == WARMUP_REQUESTS:
                    ready.wait(BOOT_TIMEOUT_S)
                index = order[i % len(order)]
                request_id = f"{tag}-{k}-{i}"
                body = pool.bodies[index]
                i += 1
                t0 = time.perf_counter()
                try:
                    conn.request("POST", SCORE_PATH, body,
                                 {**headers, "X-Request-Id": request_id})
                    response = conn.getresponse()
                    payload = response.read()
                except (OSError, http.client.HTTPException):
                    loop.tally.fail("reset")
                    conn.close()
                    continue
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if response.status != 200:
                    loop.tally.fail("refused")
                elif _score_of(payload) != pool.oracle[index]:
                    loop.tally.fail("mismatch")
                else:
                    loop.tally.ok()
                    if i > WARMUP_REQUESTS:
                        loop.latencies_ms.append(elapsed_ms)
                        loop.request_ids.append(request_id)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(k,), daemon=True)
        for k in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    ready.wait(BOOT_TIMEOUT_S)
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = sum(len(loop.latencies_ms) for loop in loops)
        if elapsed >= seconds + MAX_EXTRA_S or (
            elapsed >= seconds and done >= min_samples
        ):
            break
        time.sleep(0.02)
    stop.set()
    for thread in threads:
        thread.join()
    merged = Loop(wall_s=time.perf_counter() - started)
    for loop, conn in zip(loops, conns):
        merged.latencies_ms += loop.latencies_ms
        merged.request_ids += loop.request_ids
        merged.tally.merge(loop.tally)
        merged.connects.append(conn.connects)
    return merged


class Pool:
    """Seeded single rows, their request bodies and oracle scores."""

    def __init__(self, seed: int, model_path):
        rng = np.random.default_rng([seed, 1])
        rows = attribute_rows(rng, POOL_ROWS)
        model = load_model(model_path)
        self.bodies = [
            json.dumps({"row": row}).encode("utf-8") for row in rows.tolist()
        ]
        self.oracle = [
            float(model.score_samples(row[np.newaxis, :], backend="auto")[0])
            for row in rows
        ]
        self.orders = [rng.permutation(POOL_ROWS) for _ in range(CONNECTIONS)]


def _metric_deltas(before: dict, after: dict) -> dict:
    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    batched = delta("micro_batcher", "requests_batched")
    batches = delta("micro_batcher", "batches_executed")
    shed = delta("admission", "shed_total")
    admitted = delta("admission", "admitted_total")
    newton = delta("engine", "newton_iterations")
    newton_rows = delta("engine", "newton_rows")
    return {
        "server.batching.requests_per_batch": (
            batched / batches if batches else 0.0
        ),
        "server.admission.shed_share": (
            shed / (shed + admitted) if shed + admitted else 0.0
        ),
        "geometry.engine.newton_iterations_per_row": (
            newton / newton_rows if newton_rows else 0.0
        ),
    }


def _trace_layers(daemon: Daemon, loop: Loop) -> tuple:
    rows = []
    for request_id, client_ms in zip(loop.request_ids, loop.latencies_ms):
        trace = daemon.trace(request_id)
        if trace is None:
            continue
        stages = trace["stages_ms"]
        phases = (trace.get("engine") or {}).get("phases_ms", {})
        spans = sum(stages.values())
        row = {
            "client.unattributed_ms": client_ms - trace["duration_ms"],
            "server.span_gap_ms": trace["duration_ms"] - spans,
            "serve-small.unattributed_ms": client_ms - spans,
        }
        for metric, stage in STAGES.items():
            row[metric] = stages.get(stage, 0.0)
        for phase in ENGINE_PHASES:
            row[f"geometry.engine.{phase}_ms"] = phases.get(phase, 0.0)
        rows.append(row)
    if not rows:
        raise RuntimeError("the traced daemon retained no traces")
    layers = {name: median(r[name] for r in rows) for name in rows[0]}
    return layers, len(rows)


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    model_path = workdir / "model.json"
    restarts = fit_countries_model(seed, model_path)
    pool = Pool(seed, model_path)
    print(f"closed loop, {CONNECTIONS} connections")
    report: dict = {"connections": CONNECTIONS, "loop": "closed"}
    values: dict = {}
    if not trace:
        boots, daemon = [], None
        meter = Speedometer()
        try:
            for _ in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                _, kernel, daemon = meter.time(Daemon, model_path, False)
                boots.append(normalised([daemon.boot_s], [kernel])[0])
            loop = closed_loop(daemon.port, pool, seconds,
                               samples_needed(TAIL_Q), "e2e")
            rss = daemon.peak_rss_mb()
        finally:
            if daemon is not None:
                daemon.stop()
        values = {
            "serve_p50.csv_score.fit_countries_ms": median(loop.latencies_ms),
            "serve_p99.csv_rank.fit_journals_ms": tail_percentile(
                loop.latencies_ms, TAIL_Q
            ),
            "serve_rps.csv_shard_rows.fit_objects_per_s": (
                len(loop.latencies_ms) / loop.wall_s
            ),
            "fit_objective": best_restart_objective(restarts),
            "setup_s": median(boots),
            "peak_rss_mb": rss,
        }
        tally = loop.tally
        report["calibration_points_retaken"] = meter.retaken
    else:
        daemon = Daemon(model_path, traced=False)
        try:
            plain = closed_loop(daemon.port, pool, seconds / 2, 0, "plain")
        finally:
            daemon.stop()
        daemon = Daemon(model_path, traced=True)
        try:
            before = daemon.metrics()
            loop = closed_loop(daemon.port, pool, seconds / 2, 0, "traced")
            after = daemon.metrics()
            values, report["traces"] = _trace_layers(daemon, loop)
        finally:
            daemon.stop()
        values.update(_metric_deltas(before, after))
        values["obs.trace_overhead"] = (
            median(loop.latencies_ms) / median(plain.latencies_ms) - 1.0
        )
        report["untraced_p50_ms"] = median(plain.latencies_ms)
        report["batch_window_ms_after"] = after["micro_batcher"][
            "current_window_ms"
        ]
        tally = plain.tally
        tally.merge(loop.tally)
        loop.connects += plain.connects
    report.update({
        "samples": len(loop.latencies_ms),
        "score_p50_ms": median(loop.latencies_ms),
        "score_p99_ms": (
            tail_percentile(loop.latencies_ms, TAIL_Q)
            if len(loop.latencies_ms) >= samples_needed(TAIL_Q) else None
        ),
        "score_rps": len(loop.latencies_ms) / loop.wall_s,
        "tcp_connects_per_connection": loop.connects,
    })
    keepalive = all(n == 1 for n in loop.connects)
    if not keepalive:
        report["keepalive_violation"] = (
            "a connection reopened; this is not a keep-alive measurement"
        )
    return Outcome(keepalive and tally.failed == 0, tally, values, report)
