"""End-to-end tests for the scoring daemon and its model registry.

The server under test is the real :class:`ScoringHTTPServer` bound to
an ephemeral port and driven over actual sockets with :mod:`urllib` —
no mocked handlers — so these tests pin the full contract: routing,
JSON bodies, the 4xx taxonomy, hot reload, and metrics accounting.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError
from repro.data.synthetic import sample_monotone_cloud
from repro.server import (
    ModelRegistry,
    ScoringHTTPServer,
    ServerMetrics,
    UnknownModelError,
)
from repro.serving import save_model, score_batch

ALPHA = np.array([1.0, 1.0, -1.0])


def _fit(seed: int, n: int = 40) -> tuple[RankingPrincipalCurve, np.ndarray]:
    cloud = sample_monotone_cloud(alpha=ALPHA, n=n, seed=seed, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=seed, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model, cloud.X


@pytest.fixture(scope="module")
def fitted():
    return _fit(seed=3)


@pytest.fixture(scope="module")
def served(fitted, tmp_path_factory):
    """A live daemon on an ephemeral port serving one saved model."""
    model, X = fitted
    path = tmp_path_factory.mktemp("models") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    registry = ModelRegistry()
    registry.register("demo", path)
    server = ScoringHTTPServer(("127.0.0.1", 0), registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", registry, path, model, X
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(autouse=True)
def _complete_pending_reloads(request):
    """After every test that used the shared daemon, finish any hot
    reload its file writes left pending.

    ``served`` is module-scoped shared state, and the registry's
    ``_maybe_reload`` is deliberately non-blocking — so a test that
    overwrites the model file and bumps its mtime *without* a
    follow-up access leaves a pending-reload window in which a later
    test's concurrent clients can be served the stale model (the
    root-caused TestConcurrentScoring flake).  An uncontended ``get``
    per registered model completes the reload inline, guarding the
    whole class of bug instead of relying on each mutating test to
    remember its own synchronous restore.
    """
    yield
    if "served" in request.fixturenames:
        _, registry, *_ = request.getfixturevalue("served")
        for name in registry.names():
            registry.get(name)


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, payload, raw: bytes | None = None) -> tuple[int, dict]:
    data = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, served):
        base, *_ = served
        status, body = _get(base + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == ["demo"]

    def test_models_listing(self, served):
        base, _, path, *_ = served
        status, body = _get(base + "/v1/models")
        assert status == 200
        (entry,) = body["models"]
        assert entry["name"] == "demo"
        assert entry["path"] == str(path)
        assert entry["format"] == "json"
        assert entry["fitted"] is True
        assert entry["n_attributes"] == 3
        assert entry["feature_names"] == ["a", "b", "c"]
        assert entry["last_error"] is None

    def test_single_row_score(self, served):
        base, _, _, model, X = served
        status, body = _post(
            base + "/v1/models/demo/score", {"row": X[0].tolist()}
        )
        assert status == 200
        assert body["model"] == "demo"
        assert body["n"] == 1
        # JSON floats survive the round trip exactly (repr-based), so
        # the served score equals a local single-row solve to the bit.
        assert body["score"] == model.score_samples(X[:1])[0]
        assert body["scores"] == [body["score"]]

    def test_batch_score_matches_score_batch(self, served):
        base, _, _, model, X = served
        status, body = _post(
            base + "/v1/models/demo/score", {"rows": X.tolist()}
        )
        assert status == 200
        assert body["n"] == X.shape[0]
        np.testing.assert_array_equal(
            np.asarray(body["scores"]), score_batch(model, X)
        )

    def test_rank_endpoint(self, served):
        base, _, _, model, X = served
        labels = [f"obj{i}" for i in range(5)]
        status, body = _post(
            base + "/v1/models/demo/rank",
            {"rows": X[:5].tolist(), "labels": labels},
        )
        assert status == 200
        ranking = body["ranking"]
        assert [r["position"] for r in ranking] == [1, 2, 3, 4, 5]
        assert sorted(r["label"] for r in ranking) == sorted(labels)
        scores = [r["score"] for r in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_rank_without_labels_uses_indices(self, served):
        base, *_ = served
        _, _, _, _, X = served
        status, body = _post(
            base + "/v1/models/demo/rank", {"rows": X[:3].tolist()}
        )
        assert status == 200
        assert sorted(r["label"] for r in body["ranking"]) == ["0", "1", "2"]

    def test_empty_batch_is_a_noop(self, served):
        base, *_ = served
        status, body = _post(base + "/v1/models/demo/score", {"rows": []})
        assert status == 200
        assert body["n"] == 0
        assert body["scores"] == []


class TestErrorContract:
    def test_malformed_json_is_400(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/score", None, raw=b"{not json"
        )
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_non_object_body_is_400(self, served):
        base, *_ = served
        status, body = _post(base + "/v1/models/demo/score", [1, 2, 3])
        assert status == 400
        assert "JSON object" in body["error"]

    def test_missing_row_keys_is_400(self, served):
        base, *_ = served
        status, body = _post(base + "/v1/models/demo/score", {"x": 1})
        assert status == 400
        assert "'row' or 'rows'" in body["error"]

    def test_both_row_keys_is_400(self, served):
        base, *_ = served
        status, _ = _post(
            base + "/v1/models/demo/score",
            {"row": [1, 2, 3], "rows": [[1, 2, 3]]},
        )
        assert status == 400

    def test_non_numeric_rows_is_400(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/score", {"rows": [["a", "b", "c"]]}
        )
        assert status == 400

    def test_ragged_rows_is_400(self, served):
        base, *_ = served
        status, _ = _post(
            base + "/v1/models/demo/score", {"rows": [[1, 2, 3], [1, 2]]}
        )
        assert status == 400

    def test_nested_row_is_400(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/score", {"row": [[1, 2, 3]]}
        )
        assert status == 400
        assert "flat list" in body["error"]

    def test_unknown_model_is_404(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/missing/score", {"row": [1, 2, 3]}
        )
        assert status == 404
        assert "unknown model" in body["error"]
        assert "demo" in body["error"]

    def test_wrong_attribute_count_is_422(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/score", {"row": [1.0, 2.0]}
        )
        assert status == 422
        assert "2 attributes" in body["error"]

    def test_labels_on_score_endpoint_is_400(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/score",
            {"rows": [[1, 2, 3]], "labels": ["x"]},
        )
        assert status == 400
        assert "rank" in body["error"]
        # The same rule holds for an empty batch.
        status, _ = _post(
            base + "/v1/models/demo/score", {"rows": [], "labels": ["x"]}
        )
        assert status == 400

    def test_labels_length_checked_for_empty_batch(self, served):
        base, *_ = served
        status, body = _post(
            base + "/v1/models/demo/rank", {"rows": [], "labels": ["x"]}
        )
        assert status == 400
        assert "per row" in body["error"]

    def test_mismatched_labels_is_400(self, served):
        base, *_ = served
        status, _ = _post(
            base + "/v1/models/demo/rank",
            {"rows": [[1, 2, 3]], "labels": ["x", "y"]},
        )
        assert status == 400

    def test_unknown_route_is_404(self, served):
        base, *_ = served
        assert _get(base + "/v2/nothing")[0] == 404
        assert _post(base + "/v1/models/demo/explain", {"row": [1]})[0] == 404

    def test_get_on_scoring_endpoint_is_405(self, served):
        base, *_ = served
        request = urllib.request.Request(base + "/v1/models/demo/score")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "POST"

    @pytest.mark.parametrize(
        "method", ["PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"]
    )
    def test_other_methods_are_405_and_counted(self, served, method):
        base, *_ = served
        before = _get(base + "/metrics")[1]
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request(method, "/v1/models/demo/score", body=b'{"row": [1]}')
            response = conn.getresponse()
            body = response.read()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, POST"
            assert response.getheader("X-Request-Id")
            if method == "HEAD":
                assert body == b""
            else:
                assert "GET or POST" in json.loads(body)["error"]
            # The body was drained, so the connection stays usable.
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        finally:
            conn.close()
        after = _get(base + "/metrics")[1]
        assert after["errors_total"] - before["errors_total"] == 1

        def count_405(metrics):
            other = metrics["endpoints"].get("other", {})
            return other.get("by_status", {}).get("405", 0)

        assert count_405(after) - count_405(before) == 1

    def test_negative_content_length_is_400(self, served):
        # A raw socket is needed: urllib refuses to send a negative
        # Content-Length. read(-1) must not hang the handler thread.
        import socket

        base, *_ = served
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/models/demo/score HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: -1\r\n\r\n"
            )
            sock.settimeout(10)
            response = sock.recv(4096).decode()
        assert response.startswith("HTTP/1.1 400")

    def test_stalled_body_is_408_and_closes_connection(self, fitted, tmp_path):
        # A client that sends headers but stalls mid-body must not pin
        # its handler thread (or get a desynced 500): after the
        # keep-alive timeout the daemon answers 408 and closes.
        import socket

        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        registry = ModelRegistry()
        registry.register("m", path)
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), registry, keepalive_timeout=0.4
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(
                    b"POST /v1/models/m/score HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: 100\r\n\r\n"
                    b'{"row": [1.0, '  # ... and never finish
                )
                raw = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    raw += chunk
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408"), head[:200]
            assert b"timed out" in payload

            # Drip-feeding chunks must not reset the clock: the
            # deadline covers the whole body, so a slowloris-style
            # trickle is cut off just the same.
            import time as _time

            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(
                    b"POST /v1/models/m/score HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: 4000\r\n\r\n"
                )
                started = _time.monotonic()
                raw = b""
                for _ in range(40):
                    try:
                        sock.sendall(b'{"ro')
                    except OSError:
                        break  # server already closed its read side
                    _time.sleep(0.05)
                    try:
                        sock.settimeout(0.01)
                        chunk = sock.recv(4096)
                        sock.settimeout(10)
                        if chunk:
                            raw += chunk
                            break
                    except TimeoutError:
                        sock.settimeout(10)
                sock.settimeout(10)
                while True:
                    try:
                        chunk = sock.recv(4096)
                    except OSError:
                        break
                    if not chunk:
                        break
                    raw += chunk
            assert raw.partition(b"\r\n\r\n")[0].startswith(
                b"HTTP/1.1 408"
            ), raw[:200]
            # ... and within ~the keep-alive budget, not the full drip.
            assert _time.monotonic() - started < 5.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_unrouted_post_slow_drip_is_408(self, fitted, tmp_path):
        # The drain path for *unrouted* POSTs must run under the same
        # whole-body deadline as routed ones: a client POSTing to a
        # 404 path and dripping its body used to pin the handler
        # thread for as long as it pleased (the drain looped on bare
        # reads with no deadline).
        import socket
        import time as _time

        model, _ = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        registry = ModelRegistry()
        registry.register("m", path)
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), registry, keepalive_timeout=0.4
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(
                    b"POST /no/such/path HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: 4000\r\n\r\n"
                )
                started = _time.monotonic()
                raw = b""
                for _ in range(40):
                    try:
                        sock.sendall(b"drip")
                    except OSError:
                        break  # server already closed its read side
                    _time.sleep(0.05)
                    try:
                        sock.settimeout(0.01)
                        chunk = sock.recv(4096)
                        sock.settimeout(10)
                        if chunk:
                            raw += chunk
                            break
                    except TimeoutError:
                        sock.settimeout(10)
                sock.settimeout(10)
                while True:
                    try:
                        chunk = sock.recv(4096)
                    except OSError:
                        break
                    if not chunk:
                        break
                    raw += chunk
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408"), raw[:200]
            assert b"timed out" in payload
            assert _time.monotonic() - started < 5.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_undrained_oversize_body_closes_the_connection(self, served):
        # An unrouted POST whose declared body exceeds MAX_BODY_BYTES
        # is deliberately never read — so the connection must close
        # after the 404.  Keeping it alive used to hand the unread
        # body bytes to the keep-alive parser as the next request
        # line: the pipelined GET below would have read a garbage
        # response instead of being cleanly refused by EOF.
        import socket

        base, *_ = served
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.settimeout(10)
            sock.sendall(
                b"POST /no/such/path HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 99999999999\r\n\r\n"
                b"GARBAGE-THAT-MUST-NOT-BECOME-A-REQUEST-LINE\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        head, _, rest = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404"), raw[:200]
        # The 404 body, then EOF: the garbage was never parsed as a
        # request (the desynced server answered it with an HTML "Bad
        # request syntax" page), and the pipelined GET never answered.
        (length_header,) = (
            line for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length:")
        )
        assert len(rest) == int(length_header.split(b":")[1])
        assert b"Bad request" not in raw and b"healthz" not in raw

    def test_half_sent_body_closes_the_connection(self, served):
        # A client that declares more body than it sends leaves the
        # drain short; responding and reusing the socket would desync
        # framing, so the server must close after the 404.
        import socket

        base, *_ = served
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.settimeout(10)
            sock.sendall(
                b"POST /no/such/path HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 100\r\n\r\n"
                b"only-ten-b"
            )
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 404"), raw[:200]
        assert raw.count(b"HTTP/1.1 ") == 1

    def test_unfitted_model_is_409(self, tmp_path):
        path = tmp_path / "unfitted.json"
        save_model(RankingPrincipalCurve(alpha=ALPHA), path)
        registry = ModelRegistry()
        registry.register("raw", path)
        server = ScoringHTTPServer(("127.0.0.1", 0), registry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            status, body = _post(
                f"http://{host}:{port}/v1/models/raw/score",
                {"row": [1.0, 2.0, 3.0]},
            )
            assert status == 409
            assert "not been fitted" in body["error"]
            # An empty probe batch must not report an unfitted model
            # as servable.
            status, _ = _post(
                f"http://{host}:{port}/v1/models/raw/score", {"rows": []}
            )
            assert status == 409
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestMetricsEndpoint:
    def test_metrics_accumulate(self, served):
        base, _, _, _, X = served
        before = _get(base + "/metrics")[1]
        _post(base + "/v1/models/demo/score", {"rows": X[:7].tolist()})
        _post(base + "/v1/models/missing/score", {"row": [1, 2, 3]})
        after = _get(base + "/metrics")[1]

        score_key = "POST /v1/models/{name}/score"
        delta = (
            after["endpoints"][score_key]["requests"]
            - before["endpoints"].get(score_key, {}).get("requests", 0)
        )
        assert delta == 2
        assert (
            after["rows_scored_total"] - before["rows_scored_total"] == 7
        )
        latency = after["endpoints"][score_key]["latency_ms"]
        assert set(latency) == {"p50", "p90", "p99"}
        assert latency["p50"] <= latency["p90"] <= latency["p99"]
        assert after["endpoints"][score_key]["by_status"]["404"] >= 1
        assert after["uptime_seconds"] >= 0.0
        assert after["requests_total"] > before["requests_total"]


def _request_with_headers(
    url: str, payload=None, request_id: str | None = None
) -> tuple[int, dict, dict]:
    """Like ``_get``/``_post`` but also returning the response headers."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET"
    )
    if request_id is not None:
        request.add_header("X-Request-Id", request_id)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestRequestTracing:
    def test_client_id_is_echoed(self, served):
        base, _, _, _, X = served
        status, _, headers = _request_with_headers(
            base + "/v1/models/demo/score",
            {"row": X[0].tolist()},
            request_id="trace-abc.123",
        )
        assert status == 200
        assert headers["X-Request-Id"] == "trace-abc.123"

    def test_missing_id_is_generated(self, served):
        base, *_ = served
        _, _, h1 = _request_with_headers(base + "/healthz")
        _, _, h2 = _request_with_headers(base + "/healthz")
        assert h1["X-Request-Id"] and h2["X-Request-Id"]
        assert h1["X-Request-Id"] != h2["X-Request-Id"]

    def test_garbage_id_is_replaced(self, served):
        base, *_ = served
        _, _, headers = _request_with_headers(
            base + "/healthz", request_id="x" * 500
        )
        assert headers["X-Request-Id"] != "x" * 500
        assert headers["X-Request-Id"]

    def test_error_responses_carry_the_id(self, served):
        base, *_ = served
        status, _, headers = _request_with_headers(
            base + "/v1/models/missing/score",
            {"row": [1.0, 2.0, 3.0]},
            request_id="err-trace-1",
        )
        assert status == 404
        assert headers["X-Request-Id"] == "err-trace-1"

    def test_failed_request_lands_in_metrics_error_log(self, served):
        base, *_ = served
        rid = "metrics-err-42"
        status, _, _ = _request_with_headers(
            base + "/v1/models/missing/score",
            {"row": [1.0, 2.0, 3.0]},
            request_id=rid,
        )
        assert status == 404
        metrics = _get(base + "/metrics")[1]
        assert metrics["errors_total"] >= 1
        matching = [
            err for err in metrics["recent_errors"]
            if err["request_id"] == rid
        ]
        assert matching, metrics["recent_errors"]
        assert matching[0]["status"] == 404
        assert matching[0]["endpoint"] == "POST /v1/models/{name}/score"

    def test_unrouted_request_is_traced(self, served):
        base, *_ = served
        rid = "unrouted-7"
        status, _, headers = _request_with_headers(
            base + "/nope", request_id=rid
        )
        assert status == 404
        assert headers["X-Request-Id"] == rid
        metrics = _get(base + "/metrics")[1]
        assert any(
            err["request_id"] == rid for err in metrics["recent_errors"]
        )


class TestHotReload:
    def test_mtime_change_swaps_the_model(self, served):
        base, registry, path, model, X = served
        replacement, _ = _fit(seed=11)
        old_scores = np.asarray(
            _post(
                base + "/v1/models/demo/score", {"rows": X[:5].tolist()}
            )[1]["scores"]
        )
        save_model(replacement, path, feature_names=["a", "b", "c"])
        # Force a visible mtime step even on coarse filesystems.
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        status, body = _post(
            base + "/v1/models/demo/score", {"rows": X[:5].tolist()}
        )
        assert status == 200
        new_scores = np.asarray(body["scores"])
        np.testing.assert_array_equal(
            new_scores, score_batch(replacement, X[:5])
        )
        assert not np.array_equal(new_scores, old_scores)

        (entry,) = registry.describe()
        assert entry["loads"] >= 2
        assert entry["last_error"] is None

        # Restore the original model for any tests that follow — and
        # *force* the reload before leaving this test.  Bumping the
        # mtime alone only schedules a reload on the next registry
        # access; because ``_maybe_reload`` is deliberately
        # non-blocking, leaving that first access to a later test's
        # concurrent clients means one of them performs the reload
        # while the rest are served the stale replacement model (the
        # historical TestConcurrentScoring flake).  A serial request
        # holds no contention on the reload lock, so the swap happens
        # inline, deterministically, right here.
        save_model(model, path, feature_names=["a", "b", "c"])
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        status, body = _post(
            base + "/v1/models/demo/score", {"rows": X[:5].tolist()}
        )
        assert status == 200
        np.testing.assert_array_equal(
            np.asarray(body["scores"]), old_scores
        )
        (entry,) = registry.describe()
        assert entry["loads"] >= 3

    def test_corrupt_reload_keeps_previous_model(self, tmp_path):
        model, X = _fit(seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        registry = ModelRegistry()
        registry.register("m", path)
        expected = model.score_samples(X[:3])

        path.write_text("{ this is not a model }")
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        served_model = registry.get("m")
        np.testing.assert_array_equal(
            served_model.score_samples(X[:3]), expected
        )
        (entry,) = registry.describe()
        assert entry["loads"] == 1
        assert "reload failed" in entry["last_error"]

        # A valid write afterwards recovers on the next access.
        save_model(model, path)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        registry.get("m")
        (entry,) = registry.describe()
        assert entry["loads"] == 2
        assert entry["last_error"] is None


class TestServerConstruction:
    def test_misconfiguration_fails_at_boot(self):
        # A daemon must not boot "healthy" and then 400 every request.
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError, match="listen_backlog"):
            ScoringHTTPServer(("127.0.0.1", 0), registry, listen_backlog=0)

    @pytest.mark.parametrize(
        "knob",
        [
            {"batch_window": -1.0},
            {"max_batch_rows": 0},
            {"batch_window": float("nan")},
        ],
    )
    def test_batch_knobs_are_checked_with_batching_off(self, knob):
        # Regression: a bad batching knob used to boot a daemon with
        # batching silently off instead of failing.
        with pytest.raises(ConfigurationError):
            ScoringHTTPServer(("127.0.0.1", 0), ModelRegistry(), **knob)


class TestKeepAlive:
    def test_keepalive_score_p50_under_10ms(self, served):
        """One response is one write: headers and body sent apart let
        Nagle's algorithm and the client's delayed ACK hold every
        keep-alive response for ~40 ms."""
        base, _, _, _, X = served
        host, port = base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        body = json.dumps({"row": X[0].tolist()}).encode()
        latencies = []
        try:
            for _ in range(100):
                started = time.perf_counter()
                conn.request(
                    "POST", "/v1/models/demo/score", body,
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        p50_ms = float(np.median(latencies)) * 1e3
        assert p50_ms < 10.0, p50_ms


class TestModelRegistry:
    def test_unknown_name_raises(self):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError, match="unknown model"):
            registry.get("nope")

    def test_register_rejects_bad_suffix(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError):
            registry.register("m", tmp_path / "model.pickle")

    def test_contains_len_names(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "m.npz"
        save_model(model, path)
        registry = ModelRegistry()
        registry.register("b", path)
        registry.register("a", path)
        assert len(registry) == 2
        assert "a" in registry and "nope" not in registry
        assert registry.names() == ["a", "b"]

    def test_pending_reload_is_non_blocking(self, fitted, tmp_path):
        """While a reload is in flight, ``get`` serves the *currently
        loaded* model instead of queueing behind the disk I/O — the
        documented eventual consistency of hot reload.  Pinned here
        because it is exactly the window that made stale reads
        possible in the TestConcurrentScoring flake: callers must not
        assume a bumped mtime is visible until an uncontended access
        has completed the reload.
        """
        model, X = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        registry = ModelRegistry()
        entry = registry.register("m", path)
        replacement, _ = _fit(seed=13)
        save_model(replacement, path)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))

        before = entry.model
        with entry.reload_lock:  # simulate another thread mid-reload
            assert registry.get("m") is before
        (described,) = registry.describe()
        assert described["loads"] == 1
        # With the lock free, the next access reloads inline.
        assert registry.get("m") is not before
        (described,) = registry.describe()
        assert described["loads"] == 2

    def test_check_mtime_off_never_reloads(self, fitted, tmp_path):
        model, X = fitted
        path = tmp_path / "m.json"
        save_model(model, path)
        registry = ModelRegistry(check_mtime=False)
        registry.register("m", path)
        expected = registry.get("m").score_samples(X[:2])
        replacement, _ = _fit(seed=13)
        save_model(replacement, path)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        np.testing.assert_array_equal(
            registry.get("m").score_samples(X[:2]), expected
        )
        (entry,) = registry.describe()
        assert entry["loads"] == 1


class TestServerMetricsUnit:
    def test_snapshot_shape(self):
        metrics = ServerMetrics()
        for i in range(20):
            metrics.observe("GET /healthz", 200, 0.001 * (i + 1), rows=2)
        metrics.observe("GET /healthz", 500, 0.5)
        snap = metrics.snapshot()
        assert snap["requests_total"] == 21
        assert snap["rows_scored_total"] == 40
        endpoint = snap["endpoints"]["GET /healthz"]
        assert endpoint["requests"] == 21
        assert endpoint["by_status"] == {"200": 20, "500": 1}

    def test_concurrent_observations(self):
        metrics = ServerMetrics()

        def hammer():
            for _ in range(200):
                metrics.observe("POST /y", 200, 0.001, rows=1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = metrics.snapshot()
        assert snap["requests_total"] == 1600
        assert snap["rows_scored_total"] == 1600


class TestConcurrentScoring:
    """Parallel clients must all see the same (current) model.

    Historical flake, root-caused: the hot-reload test used to restore
    the shared model file and bump its mtime *without* issuing another
    request, leaving the registry holding the replacement model with a
    reload pending.  The first registry access then happened inside
    this test's six concurrent clients — and because
    ``ModelRegistry._maybe_reload`` is non-blocking by design, exactly
    one client performed the reload while any client that raced past
    the lock was served the stale replacement model, failing the
    array-equality assert.  Load-sensitive because the race window is
    the reload's disk I/O.  The fix is in the hot-reload test (it now
    forces the restore reload synchronously and asserts the original
    scores are being served again before finishing); this test also
    surfaces client-thread exceptions instead of burying them as
    ``None`` results.
    """

    def test_parallel_clients_get_consistent_answers(self, served):
        base, _, _, model, X = served
        expected = score_batch(model, X)
        results: list[np.ndarray] = [None] * 6  # type: ignore[list-item]
        errors: list[tuple[int, BaseException]] = []

        def client(slot: int) -> None:
            try:
                _, body = _post(
                    base + "/v1/models/demo/score", {"rows": X.tolist()}
                )
                results[slot] = np.asarray(body["scores"])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((slot, exc))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), (
            "client threads still running after 30s"
        )
        assert not errors, f"client threads raised: {errors}"
        for got in results:
            np.testing.assert_array_equal(got, expected)
