"""Deterministic load/soak harness for the multi-process daemon.

These tests drive the *real* CLI daemon — ``python -m repro serve
--workers N`` as a subprocess, workers forked, socket shared — with
concurrent client threads firing a deterministic mixed workload
(scores, ranks, 404s, malformed bodies, poisoned rows).  Pinned
invariants:

* zero dropped connections — every client thread's exception is
  surfaced, not buried (the PR 4 pattern);
* every response matches the single-process oracle byte for byte
  (scores computed locally with ``score_batch`` on the same model);
* ``/metrics`` answered by *any* worker reports fleet-wide totals that
  equal exactly what the clients sent (the shared-store contract);
* ``SIGTERM`` drains: a request whose body is still arriving when the
  signal lands is finished and answered before its worker exits, the
  parent reaps every child and exits 0, and the socket closes.

The shared-memory metrics store is additionally unit-tested here
without any server around it.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.server import ServerMetrics, SharedMetricsStore
from repro.serving import save_model, score_batch

ALPHA = np.array([1.0, 1.0, -1.0])
SCORE_ENDPOINT = "POST /v1/models/{name}/score"
RANK_ENDPOINT = "POST /v1/models/{name}/rank"


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
    path = tmp_path_factory.mktemp("load_models") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    return model, X, path


def _repro_env() -> dict:
    """The environment for a ``python -m repro`` subprocess."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _boot_daemon(model_path, extra_args=()):
    """Start ``repro serve`` on an ephemeral port; return (proc, base)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--model", f"demo={model_path}", "--port", "0", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_repro_env(),
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
    # The pool parent prints before the workers finish loading models;
    # wait until one actually answers.
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
            raise
    return proc.returncode


def _request(base, path, payload=None, raw=None, method=None):
    data = raw if raw is not None else (
        None if payload is None else json.dumps(payload).encode()
    )
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _request_full(base, path, payload=None):
    """Like ``_request`` but also returns the response headers."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.fixture(scope="module")
def daemon(saved):
    """A live 2-worker daemon with micro-batching on."""
    _, _, path = saved
    proc, base = _boot_daemon(
        path, ("--workers", "2", "--batch-window-ms", "2"),
    )
    yield base
    assert _stop_daemon(proc) == 0


class TestLoadMixedRequests:
    """K client threads x M mixed requests against a 2-worker fleet."""

    N_THREADS = 6
    PER_THREAD = 18

    def _plan(self, slot: int, X: np.ndarray) -> list:
        """A deterministic per-thread request mix."""
        rng = np.random.default_rng(1000 + slot)
        kinds = rng.choice(
            ["score_single", "score_batch", "rank", "unknown_model",
             "malformed", "wrong_width"],
            size=self.PER_THREAD,
            p=[0.3, 0.25, 0.2, 0.1, 0.075, 0.075],
        )
        plan = []
        for kind in kinds:
            n = int(rng.integers(1, 7))
            take = rng.integers(0, X.shape[0], size=n)
            rows = X[take]
            plan.append((kind, rows))
        return plan

    def _fire(self, base, plan, oracle) -> list:
        outcomes = []
        for kind, rows in plan:
            if kind == "score_single":
                status, body = _request(
                    base, "/v1/models/demo/score",
                    {"row": rows[0].tolist()},
                )
                assert status == 200, body
                assert body["scores"] == oracle(rows[:1]), "oracle mismatch"
            elif kind == "score_batch":
                status, body = _request(
                    base, "/v1/models/demo/score",
                    {"rows": rows.tolist()},
                )
                assert status == 200, body
                assert body["scores"] == oracle(rows), "oracle mismatch"
            elif kind == "rank":
                status, body = _request(
                    base, "/v1/models/demo/rank", {"rows": rows.tolist()}
                )
                assert status == 200, body
                scores = sorted(oracle(rows), reverse=True)
                assert [e["score"] for e in body["ranking"]] == scores
            elif kind == "unknown_model":
                status, body = _request(
                    base, "/v1/models/nope/score", {"row": rows[0].tolist()}
                )
                assert status == 404 and "unknown model" in body["error"]
            elif kind == "malformed":
                status, body = _request(
                    base, "/v1/models/demo/score", raw=b"{not json",
                )
                assert status == 400 and "malformed JSON" in body["error"]
            else:  # wrong_width
                status, body = _request(
                    base, "/v1/models/demo/score",
                    {"row": rows[0, :2].tolist()},
                )
                assert status == 422 and "attributes" in body["error"]
            outcomes.append((kind, rows.shape[0]))
        return outcomes

    def test_zero_drops_oracle_match_and_exact_metrics(self, daemon, saved):
        model, X, _ = saved
        base = daemon

        def oracle(rows: np.ndarray) -> list:
            return score_batch(model, rows).tolist()

        before = _request(base, "/metrics")[1]
        plans = [
            self._plan(slot, X) for slot in range(self.N_THREADS)
        ]
        outcomes: list = [None] * self.N_THREADS
        errors: list = []

        def client(slot: int) -> None:
            try:
                outcomes[slot] = self._fire(base, plans[slot], oracle)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((slot, exc))

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not any(t.is_alive() for t in threads), "clients wedged"
        assert not errors, f"dropped/failed clients: {errors}"

        # Exact fleet-wide accounting: whichever worker answers
        # /metrics must report precisely what the clients sent.
        after = _request(base, "/metrics")[1]
        sent = [o for slots in outcomes for o in slots]
        by_kind: dict = {}
        for kind, n_rows in sent:
            by_kind.setdefault(kind, []).append(n_rows)
        score_hits = sum(
            len(by_kind.get(k, []))
            for k in ("score_single", "score_batch", "unknown_model",
                      "malformed", "wrong_width")
        )
        expected_rows = (
            len(by_kind.get("score_single", []))
            + sum(by_kind.get("score_batch", []))
            + sum(by_kind.get("rank", []))
        )

        def endpoint_delta(snap_after, snap_before, endpoint, field="requests"):
            b = snap_before["endpoints"].get(endpoint, {}).get(field, 0)
            return snap_after["endpoints"][endpoint][field] - b

        assert endpoint_delta(after, before, SCORE_ENDPOINT) == score_hits
        assert endpoint_delta(after, before, RANK_ENDPOINT) == len(
            by_kind.get("rank", [])
        )
        assert (
            after["rows_scored_total"] - before["rows_scored_total"]
            == expected_rows
        )
        errors_sent = sum(
            len(by_kind.get(k, []))
            for k in ("unknown_model", "malformed", "wrong_width")
        )
        assert (
            after["errors_total"] - before["errors_total"] == errors_sent
        )
        # Both workers exist and the fleet view says so.
        assert after["workers"]["count"] == 2
        assert sum(after["workers"]["requests"]) == after["requests_total"]


class TestGracefulShutdown:
    """SIGTERM drains in-flight work, children exit 0, socket closes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigterm_drains_in_flight_request(self, saved, workers):
        model, X, path = saved
        proc, base = _boot_daemon(
            path, ("--workers", str(workers), "--batch-window-ms", "2"),
        )
        try:
            host, port = base.removeprefix("http://").split(":")
            rows = np.tile(X, (8, 1))
            body = json.dumps({"rows": rows.tolist()}).encode()
            header = (
                f"POST /v1/models/demo/score HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            with socket.create_connection(
                (host, int(port)), timeout=30
            ) as sock:
                sock.settimeout(30)
                # Deliver the headers and *half* the body, so a worker
                # thread is provably mid-request when SIGTERM lands...
                sock.sendall(header + body[: len(body) // 2])
                time.sleep(0.2)
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.3)
                # ...then finish the body: the draining worker must
                # still answer before exiting.
                sock.sendall(body[len(body) // 2:])
                raw = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200"), head[:200]
            # The drain advertises that the connection is done.
            assert b"Connection: close" in head, head
            answer = json.loads(payload)
            assert answer["n"] == rows.shape[0]
            assert answer["scores"] == score_batch(model, rows).tolist()

            assert proc.wait(timeout=60) == 0
            with pytest.raises(OSError):
                socket.create_connection((host, int(port)), timeout=2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_sigterm_idle_daemon_exits_zero(self, saved):
        _, _, path = saved
        proc, base = _boot_daemon(path, ("--workers", "2"))
        assert _request(base, "/healthz")[0] == 200
        assert _stop_daemon(proc) == 0

    def test_drain_releases_idle_keepalive_connections(self, saved):
        """An idle kept-alive connection must not hold the drain
        hostage for the 30 s keep-alive timeout: ``begin_drain`` wakes
        the parked handler thread immediately."""
        import http.client

        from repro.server import ModelRegistry, ScoringHTTPServer

        _, _, path = saved
        registry = ModelRegistry()
        registry.register("demo", path)
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), registry, keepalive_timeout=30.0
        )
        server.daemon_threads = False
        server.block_on_close = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            # The handler is (about to be) parked reading the next
            # request of the kept-alive connection.
            time.sleep(0.2)
            started = time.monotonic()
            server.begin_drain()
            server.shutdown()
            server.server_close()  # joins the parked handler thread
            assert time.monotonic() - started < 10.0, (
                "drain waited on an idle keep-alive connection"
            )
            conn.close()
        finally:
            thread.join(timeout=10)


class TestBootValidation:
    """Both process modes reject the same bad values before serving."""

    BAD_KNOBS = (
        ("--chunk-size", "0"),
        ("--batch-window-ms", "-1"),
        ("--batch-window-ms", "inf"),
        ("--batch-window-ms", "nan"),
        ("--max-batch-rows", "0"),
        ("--retry-after", "inf"),
        ("--keepalive-timeout", "0"),
        ("--keepalive-timeout", "inf"),
        ("--trace-sample", "0"),
        ("--trace-buffer", "0"),
    )
    #: Seconds a rejected boot may take; a daemon still running by then
    #: accepted the knob.
    TIMEOUT = 60

    def _serve(self, argv):
        """Exit code, stdout and stderr of one ``repro serve`` run.

        Each case runs in its own session, so a daemon that wrongly
        accepts the knob is killed with its workers at the timeout and
        fails the case instead of hanging the suite.
        """
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_repro_env(),
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=self.TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            raise AssertionError(
                f"daemon still up after {self.TIMEOUT}s: {argv} {out!r}"
            ) from None
        return proc.returncode, out, err

    def test_bad_knobs_fail_before_serving_in_both_modes(self, saved):
        _, _, path = saved
        cases = [
            (workers, flag, value)
            for workers in ("1", "2")
            for flag, value in self.BAD_KNOBS
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = pool.map(
                lambda case: self._serve([
                    "--model", f"demo={path}", "--port", "0",
                    "--workers", case[0], case[1], case[2],
                ]),
                cases,
            )
            for case, (code, out, err) in zip(cases, runs):
                assert code == 2, (case, out, err)
                assert "error:" in err, (case, out, err)
                assert "serving" not in out, (case, out, err)


class TestWorkerPoolValidation:
    def test_bad_knobs_fail_before_binding(self):
        from repro.core.exceptions import ConfigurationError
        from repro.server import ModelRegistry, ScoringHTTPServer, WorkerPool

        # Same fail-fast contract as the single-process boot: these
        # must error at construction, not as a crash-looping fleet.
        # The pool checks its worker count; the serving knobs are
        # checked by the server it forks, before that server binds.
        server = ScoringHTTPServer(("127.0.0.1", 0), ModelRegistry())
        try:
            with pytest.raises(ConfigurationError, match="workers"):
                WorkerPool(server, workers=0)
        finally:
            server.server_close()
        for knob, match in (
            ({"chunk_size": 0}, "chunk_size"),
            ({"batch_window": -1.0}, "window"),
            ({"max_batch_rows": 0}, "max_rows"),
        ):
            with pytest.raises(ConfigurationError, match=match):
                ScoringHTTPServer(("127.0.0.1", 0), ModelRegistry(), **knob)


def _child_pids(parent: int) -> set:
    """Pids whose parent is ``parent``, read from ``/proc``."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # The command name is parenthesised and may hold spaces.
        fields = stat.rpartition(")")[2].split()
        if int(fields[1]) == parent:
            children.add(int(entry))
    return children


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads worker pids from /proc"
)
class TestWorkerRespawn:
    """SIGKILL a pool worker: the parent forks its never-served server
    again into the same slot, and the fleet serves on unchanged, with
    the boot knobs."""

    def test_killed_worker_is_respawned_into_its_slot(self, saved):
        model, X, path = saved
        proc, base = _boot_daemon(
            path,
            ("--workers", "2", "--batch-window-ms", "2", "--trace", "on",
             "--max-inflight", "7"),
        )
        try:
            deadline = time.monotonic() + 30
            while len(_child_pids(proc.pid)) < 2:
                assert time.monotonic() < deadline, "workers never forked"
                time.sleep(0.05)
            before = _child_pids(proc.pid)
            victim = min(before)
            os.kill(victim, signal.SIGKILL)
            # The parent names the slot it respawns (after the rest of
            # the boot lines).
            lines = []
            while not lines or "respawning" not in lines[-1]:
                lines.append(proc.stdout.readline())
                assert lines[-1], lines
            match = re.match(
                rf"worker (\d) \(pid {victim}\) exited on signal "
                rf"{int(signal.SIGKILL)}; respawning",
                lines[-1],
            )
            assert match, lines
            slot = int(match.group(1))
            while True:
                now = _child_pids(proc.pid)
                if len(now) == 2 and victim not in now:
                    break
                assert time.monotonic() < deadline, now
                time.sleep(0.05)
            (newcomer,) = now - before

            # Scores stay byte-identical, and some request lands on the
            # new pid serving the dead worker's slot: a batch id is
            # ``<pid>-<seq>`` and the trace names the slot.
            rows = X[:4]
            expected = score_batch(model, rows).tolist()
            seen = set()
            for i in range(400):
                request_id = f"respawn-{i}"
                request = urllib.request.Request(
                    base + "/v1/models/demo/score",
                    data=json.dumps({"rows": rows.tolist()}).encode(),
                    headers={"X-Request-Id": request_id},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as resp:
                    assert json.loads(resp.read())["scores"] == expected
                status, body = _request(base, f"/v1/debug/trace/{request_id}")
                assert status == 200, body
                trace = body["trace"]
                pid = int(trace["batch"]["id"].split("-")[0])
                seen.add((pid, trace["worker"]))
                if (newcomer, slot) in seen:
                    break
            assert (newcomer, slot) in seen, seen
            assert victim not in {pid for pid, _ in seen}

            # The respawned slot serves the parent's boot knobs.
            for _ in range(400):
                status, metrics = _request(base, "/metrics")
                assert status == 200
                if metrics["workers"]["serving_slot"] == slot:
                    break
            assert metrics["workers"]["serving_slot"] == slot
            assert metrics["workers"]["count"] == 2
            assert metrics["admission"]["max_inflight"] == 7
            assert metrics["micro_batcher"]["window_ms"] == 2.0
        finally:
            code = _stop_daemon(proc)
            proc.stdout.close()
        assert code == 0


class TestSharedMetricsStore:
    """The mmap counter scheme, without a server in the way."""

    def test_merged_totals_are_exact(self, tmp_path):
        path = tmp_path / "metrics.mmap"
        store = SharedMetricsStore(path, n_slots=3, create=True)
        # Simulate three workers (same process: the layout, not the
        # fork, is under test) mirroring through ServerMetrics.
        workers = [
            ServerMetrics(store.writer(slot)) for slot in range(3)
        ]
        for slot, metrics in enumerate(workers):
            for i in range(10 * (slot + 1)):
                metrics.observe(SCORE_ENDPOINT, 200, 0.001, rows=2)
            metrics.observe(SCORE_ENDPOINT, 404, 0.002)
        reader = SharedMetricsStore(path, n_slots=3)
        merged = reader.merged()
        assert merged["requests_total"] == 60 + 3
        assert merged["rows_scored_total"] == 120
        assert merged["errors_total"] == 3
        endpoint = merged["endpoints"][SCORE_ENDPOINT]
        assert endpoint["requests"] == 63
        assert endpoint["by_status"] == {"200": 60, "404": 3}
        assert set(endpoint["latency_ms"]) == {"p50", "p90", "p99"}
        assert merged["workers"]["requests"] == [11, 21, 31]

    def test_ring_overflow_keeps_counts_exact(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=1, create=True
        )
        writer = store.writer(0)
        n = 529
        for i in range(n):
            writer.observe("GET /healthz", 200, 1e-4)
        merged = store.merged()
        assert merged["requests_total"] == n
        assert merged["endpoints"]["GET /healthz"]["requests"] == n

    def test_unknown_labels_fold_into_other(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=1, create=True
        )
        writer = store.writer(0)
        writer.observe("GET /route-from-the-future", 201, 0.001, rows=5)
        merged = store.merged()
        assert merged["requests_total"] == 1
        assert merged["rows_scored_total"] == 5
        assert merged["endpoints"]["other"]["by_status"] == {"other": 1}

    def test_writer_slot_bounds(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        with pytest.raises(ValueError):
            store.writer(2)
        with pytest.raises(ValueError):
            SharedMetricsStore(tmp_path / "x.mmap", n_slots=0, create=True)


class TestOverloadAdmission:
    """Offered load beyond capacity: every request is exactly 200 or
    429, sheds carry ``Retry-After``, and the fleet accounting of
    served vs shed sums exactly — no silent drops, no unbounded queue.
    """

    def test_shed_is_deterministic_at_capacity(self, saved):
        # --max-inflight 1 and a request whose body we withhold: the
        # admission slot is provably held (acquire runs before the body
        # read), so the next scoring request MUST shed — deterministic,
        # not a timing race.
        model, X, path = saved
        proc, base = _boot_daemon(
            path,
            ("--workers", "1", "--max-inflight", "1",
             "--retry-after", "7"),
        )
        try:
            host, port = base.removeprefix("http://").split(":")
            rows = X[:4]
            body = json.dumps({"rows": rows.tolist()}).encode()
            header = (
                f"POST /v1/models/demo/score HTTP/1.1\r\n"
                f"Host: {host}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            with socket.create_connection(
                (host, int(port)), timeout=30
            ) as sock:
                sock.settimeout(30)
                sock.sendall(header + body[: len(body) // 2])
                # Wait until the slot is observably held, then probe.
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    snap = _request(base, "/metrics")[1]
                    if snap["admission"]["inflight"] >= 1:
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError("slot never acquired")

                status, headers, payload = _request_full(
                    base, "/v1/models/demo/score", {"row": X[0].tolist()}
                )
                assert status == 429, payload
                assert headers.get("Retry-After") == "7"
                assert "capacity" in payload["error"]
                # An overloaded daemon stays observable: the ops
                # endpoints are exempt from admission.
                assert _request(base, "/healthz")[0] == 200
                snap = _request(base, "/metrics")[1]
                assert snap["admission"]["max_inflight"] == 1
                assert snap["admission"]["shed_total"] >= 1
                assert snap["requests_shed_total"] >= 1

                # The admitted request finishes normally once its body
                # arrives — shedding never cancels admitted work.
                sock.sendall(body[len(body) // 2:])
                raw = b""
                while b"\r\n\r\n" not in raw or not raw.endswith(b"}"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            head, _, tail = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200"), head[:200]
            assert json.loads(tail)["scores"] == score_batch(
                model, rows
            ).tolist()
            # Slot released: admission is open again.
            assert _request(
                base, "/v1/models/demo/score", {"row": X[0].tolist()}
            )[0] == 200
        finally:
            try:
                assert _stop_daemon(proc) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()

    def test_overload_accounting_sums_exactly(self, saved):
        # 8 concurrent clients against one worker with one admission
        # slot: a real overload.  Whatever the 200/429 mix turns out to
        # be, it must cover every request sent (zero silent drops) and
        # /metrics must account for it exactly.
        model, X, path = saved
        proc, base = _boot_daemon(
            path, ("--workers", "1", "--max-inflight", "1"),
        )
        try:
            before = _request(base, "/metrics")[1]
            # Keep the body under the handler's 8 KiB buffered header
            # read: a shed response then closes a fully-read connection
            # (clean FIN) and the client always receives its 429.
            rows = X
            payload = {"rows": rows.tolist()}
            want = score_batch(model, rows).tolist()
            n_threads, per_thread = 8, 6
            statuses: list = [[] for _ in range(n_threads)]
            durations: list = []
            errors: list = []
            barrier = threading.Barrier(n_threads)

            def client(slot: int) -> None:
                try:
                    barrier.wait()
                    for _ in range(per_thread):
                        t0 = time.monotonic()
                        status, headers, body = _request_full(
                            base, "/v1/models/demo/score", payload
                        )
                        durations.append(time.monotonic() - t0)
                        statuses[slot].append(status)
                        if status == 200:
                            assert body["scores"] == want
                        elif status == 429:
                            assert "Retry-After" in headers
                            assert int(headers["Retry-After"]) >= 1
                        else:
                            errors.append((slot, status, body))
                except BaseException as exc:  # noqa: BLE001
                    errors.append((slot, exc))

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "clients wedged"
            assert not errors, f"non-200/429 outcomes: {errors}"

            flat = [s for slot in statuses for s in slot]
            assert len(flat) == n_threads * per_thread, "silent drop"
            assert set(flat) <= {200, 429}
            served, shed = flat.count(200), flat.count(429)
            assert served > 0
            # 8 clients raced one slot from a barrier: overload is real.
            assert shed > 0, "overload scenario never shed"
            # Shed requests return fast; with a bound of one admitted
            # request the worst case is ~one scoring call of queueing,
            # so even p100 stays far below the 30 s client timeout.
            assert max(durations) < 20.0

            after = _request(base, "/metrics")[1]
            assert (
                after["requests_shed_total"]
                - before["requests_shed_total"]
            ) == shed
            by_before = before["endpoints"].get(
                SCORE_ENDPOINT, {}
            ).get("by_status", {})
            by_after = after["endpoints"][SCORE_ENDPOINT]["by_status"]
            assert by_after.get("200", 0) - by_before.get("200", 0) == served
            assert by_after.get("429", 0) - by_before.get("429", 0) == shed
            assert after["admission"]["max_inflight"] == 1
        finally:
            try:
                assert _stop_daemon(proc) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads worker pids from /proc"
)
class TestSighupIgnored:
    """Knobs are set once, at boot, so SIGHUP has nothing to do: the
    daemon ignores it in both process modes, keeps its workers and its
    boot knobs, and still drains cleanly on SIGTERM."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sighup_keeps_daemon_serving(self, saved, workers):
        _, _, path = saved
        proc, base = _boot_daemon(
            path,
            ("--workers", str(workers), "--batch-window-ms", "2",
             "--max-inflight", "7"),
        )
        try:
            # --workers 1 is a single process: no children to wait for.
            n_children = 0 if workers == 1 else workers
            deadline = time.monotonic() + 30
            while len(_child_pids(proc.pid)) < n_children:
                assert time.monotonic() < deadline, "workers never forked"
                time.sleep(0.05)
            before = _child_pids(proc.pid)
            # To the parent and, directly, to every worker.
            for pid in (proc.pid, *before):
                os.kill(pid, signal.SIGHUP)
            time.sleep(0.5)
            assert proc.poll() is None
            assert _request(base, "/healthz")[0] == 200
            assert _child_pids(proc.pid) == before
            # Whichever worker answers, it runs the boot knobs.
            for _ in range(4 * workers):
                snap = _request(base, "/metrics")[1]
                assert snap["admission"]["max_inflight"] == 7
                assert snap["micro_batcher"]["window_ms"] == 2.0
        finally:
            code = _stop_daemon(proc)
            proc.stdout.close()
        assert code == 0
