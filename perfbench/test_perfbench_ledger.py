"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import http.server
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import catalog  # noqa: E402
from calibrate import REFERENCE_S, normalised  # noqa: E402
from child import ChildError, run_spawned  # noqa: E402
from ledger import (  # noqa: E402
    InsufficientSamples,
    Tally,
    pool_parts,
    result_line,
    samples_needed,
    tail_percentile,
    validate_metric_name,
)
from spans import LayerClock, patched  # noqa: E402


# -- percentile rule ----------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert samples_needed(99.0) == 1000
    samples = list(range(1000))
    value = tail_percentile(samples, 99.0)
    assert sum(s > value for s in samples) == 10
    with pytest.raises(InsufficientSamples):
        tail_percentile(list(range(999)), 99.0)


def test_tail_percentile_is_order_free_nearest_rank():
    samples = [float(x) for x in range(100, 0, -1)]
    assert tail_percentile(samples, 50.0) == 50.0
    assert tail_percentile(samples, 90.0) == 90.0
    with pytest.raises(InsufficientSamples):
        tail_percentile([], 50.0)


# -- failed_share counting ----------------------------------------------
def test_tally_counts_every_failure_kind():
    tally = Tally()
    for _ in range(7):
        tally.ok()
    tally.fail("refused")
    tally.fail("reset")
    tally.fail("mismatch")
    assert tally.attempted == 10
    assert tally.failed == 3
    assert tally.failed_share == pytest.approx(0.3)
    other = Tally()
    other.merge(tally)
    other.merge(tally)
    assert other.attempted == 20
    assert other.failures == {"mismatch": 2, "refused": 2, "reset": 2}


class _FlakyScoringHandler(http.server.BaseHTTPRequestHandler):
    """Per connection, cycles: correct, refused (429), wrong score,
    connection reset.  Every connection therefore sees every kind,
    however the clients interleave."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.served = 0

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        kind = self.served % 4
        self.served += 1
        if kind == 3:
            self.close_connection = True
            return  # no response: the client sees the connection drop
        status = 429 if kind == 1 else 200
        body = json.dumps({"score": 0.25 if kind == 2 else 0.5}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_closed_loop_counts_refusals_resets_and_mismatches():
    serve_small = pytest.importorskip("serve_small")
    server = http.server.ThreadingHTTPServer(
        ("127.0.0.1", 0), _FlakyScoringHandler
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        pool = types.SimpleNamespace(
            bodies=[b'{"row": [1.0]}'], oracle=[0.5], orders=[[0], [0]]
        )
        loop = serve_small.closed_loop(
            server.server_address[1], pool, 0.2, 0, "test"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    tally = loop.tally
    assert set(tally.failures) == {"refused", "reset", "mismatch"}
    assert tally.attempted - tally.failed >= len(loop.latencies_ms) > 0
    assert tally.failed_share == pytest.approx(0.75, abs=0.05)
    # Each reset forces a reconnect, which the keep-alive check sees.
    assert all(n > 1 for n in loop.connects)


def test_keepalive_client_connects_once():
    serve_small = pytest.importorskip("serve_small")

    class Steady(_FlakyScoringHandler):
        def do_POST(self):  # noqa: N802
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"score": 0.5}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Steady)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        pool = types.SimpleNamespace(
            bodies=[b'{"row": [1.0]}'], oracle=[0.5], orders=[[0], [0]]
        )
        loop = serve_small.closed_loop(
            server.server_address[1], pool, 0.1, 0, "test"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert loop.tally.failed == 0
    assert loop.connects == [1, 1]


def test_pool_parts_merges_processes():
    tally = Tally()
    tally.ok()
    tally.fail("mismatch")
    part = {
        "tally": tally,
        "walls": {"score": [1.0, 2.0]},
        "errors": ["x"],
        "setup_s": 0.5,
    }
    pooled = pool_parts([part, part])
    assert pooled["tally"].attempted == 4
    assert pooled["tally"].failures == {"mismatch": 2}
    assert pooled["walls"] == {"score": [1.0, 2.0, 1.0, 2.0]}
    assert pooled["errors"] == ["x", "x"]
    assert pooled["setup_s"] == [0.5, 0.5]


def test_normalised_scales_by_the_calibration_kernel():
    # A machine running the kernel twice as slow as the reference
    # halves every wall time.
    assert normalised([2.0, 4.0], [2 * REFERENCE_S] * 2) == [1.0, 2.0]


def _child(code: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", code])


def test_calibration_ignores_an_idle_program():
    idle = _child("import time; time.sleep(30)")
    try:
        time.sleep(0.5)  # past the interpreter's start-up
        assert idle.pid in calibrate.descendants(os.getpid())
        calibrate.Speedometer()
    finally:
        idle.kill()
        idle.wait()


def test_calibration_refuses_a_busy_program(monkeypatch):
    # A program burning a core while idle would slow the kernel and
    # make every normalised time read faster.
    monkeypatch.setattr(calibrate, "ATTEMPTS", 3)
    busy = _child("while True: pass")
    try:
        time.sleep(0.2)
        before = calibrate.cpu_seconds([busy.pid])
        with pytest.raises(calibrate.BusyProgram):
            calibrate.Speedometer()
        assert calibrate.cpu_seconds([busy.pid]) > before
    finally:
        busy.kill()
        busy.wait()


# -- the measuring process stops everything it started -----------------
def _leave_a_sleeper(pid_path: str, hang: bool) -> int:
    """Start a grandchild and never stop it; then return, or hang."""
    sleeper = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"]
    )
    pathlib.Path(pid_path).write_text(str(sleeper.pid))
    if hang:
        time.sleep(60)
    return sleeper.pid


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:].split()[0] != b"Z"


def _gone(pid: int, within_s: float = 5.0) -> bool:
    deadline = time.monotonic() + within_s
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.parametrize("hang", [False, True])
def test_spawned_run_leaves_no_process(hang, tmp_path, monkeypatch):
    # The child imports this module by name, and this module needs the
    # program's package.
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]
    ))
    before = set(calibrate.descendants(os.getpid()))
    pid_path = tmp_path / "sleeper.pid"
    kwargs = {"pid_path": str(pid_path), "hang": hang}
    if hang:
        with pytest.raises(ChildError, match="no result"):
            run_spawned(_leave_a_sleeper, kwargs, timeout=6)
    else:
        assert run_spawned(_leave_a_sleeper, kwargs, timeout=30) > 0
    assert _gone(int(pid_path.read_text()))
    assert set(calibrate.descendants(os.getpid())) <= before


# -- metric names and the result line -----------------------------------
@pytest.mark.parametrize(
    "name", ["setup_s", "geometry.engine.gss_ms", "csv-batch.unattributed_s"]
)
def test_valid_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "a b", "-leading", ".leading", "p99/ms", "x" * 65, None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_result_line_has_exactly_the_expected_metrics():
    units = {"a_ms": "ms", "b_s": "s"}
    tally = Tally()
    tally.ok()
    line = json.loads(
        result_line(True, tally, {"a_ms": 1.5, "b_s": 2.0}, ["a_ms", "b_s"],
                    units)
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["a_ms"] == {"value": 1.5, "unit": "ms"}
    with pytest.raises(ValueError):
        result_line(True, tally, {"a_ms": 1.5}, ["a_ms", "b_s"], units)
    with pytest.raises(ValueError):
        result_line(True, tally, {"a_ms": 1.5, "b_s": math.nan},
                    ["a_ms", "b_s"], units)
    with pytest.raises(ValueError):
        result_line(True, Tally(), {"a_ms": 1.5, "b_s": 2.0},
                    ["a_ms", "b_s"], units)


def test_benchmark_json_names_and_layer_map():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == {catalog.SERVE, catalog.CSV, catalog.FIT}
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = e2e + layers
    assert len(names) == len(set(names))
    for name in names:
        validate_metric_name(name)
    assert {"setup_s"} | {catalog.P50, catalog.P99, catalog.RATE} <= set(e2e)
    # Every per-layer metric says what it should move, on which workload.
    assert set(catalog.MOVES) == set(layers)
    for name, pairs in catalog.MOVES.items():
        assert pairs, name
        for workload, target in pairs:
            assert workload in workloads, name
            assert target in set(e2e) | {catalog.FAILED}, name


# -- the benchmark's spans ----------------------------------------------
def test_timed_iter_counts_only_time_inside_the_generator():
    def slow_source():
        for i in range(3):
            time.sleep(0.01)
            yield i

    clock = LayerClock()
    owner = types.SimpleNamespace(source=slow_source)
    with patched((owner, "source", clock.timed_iter("read", owner.source))):
        for _ in owner.source():
            time.sleep(0.03)  # consumer work, not the layer's
    assert owner.source is slow_source
    assert 0.03 <= clock.seconds["read"] < 0.08
