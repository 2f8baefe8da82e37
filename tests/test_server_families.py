"""Two-family daemon end-to-end tests: one serving API for every family.

A live :class:`ScoringHTTPServer` with micro-batching *on* serves a
Bézier curve (single-file JSON), an elastic-map curve (manifest
directory) and a Borda aggregator side by side.  The tests drive real
sockets and pin the family-agnostic serving contract: per-entry
``family`` reporting, ``GET /v1/models/<name>``, the per-family request
counter, oracle-exact scores under concurrent mixed-family load, the
no-coalescing rule for batch-relative families, cross-family hot
reload, and the served A/B comparison helper.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.evaluation.comparison import compare_served
from repro.families import build_model
from repro.server import ModelRegistry, ScoringHTTPServer
from repro.serving import save_model, score_batch

ALPHA = np.array([1.0, 1.0, -1.0])


def _fit_rpc(seed: int = 3):
    cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=seed, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=seed, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model, cloud.X


def _fit_family(name: str, seed: int = 4):
    cloud = sample_monotone_cloud(alpha=ALPHA, n=50, seed=seed, noise=0.05)
    model = build_model(name, alpha=ALPHA)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model, cloud.X


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live daemon with micro-batching on, serving three families."""
    root = tmp_path_factory.mktemp("families")
    rpc_model, rpc_X = _fit_rpc()
    elmap_model, _ = _fit_family("elastic-map")
    borda_model, _ = _fit_family("borda")

    rpc_path = root / "curve.json"
    save_model(rpc_model, rpc_path, feature_names=["a", "b", "c"])
    elmap_path = save_model(elmap_model, root / "elmap")  # manifest dir
    borda_path = save_model(borda_model, root / "borda.json")

    registry = ModelRegistry()
    registry.register("curve", rpc_path)
    registry.register("elmap", elmap_path)
    registry.register("borda", borda_path)
    server = ScoringHTTPServer(
        ("127.0.0.1", 0),
        registry,
        batch_window=0.002,
        max_batch_rows=512,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield {
        "base": f"http://{host}:{port}",
        "server": server,
        "registry": registry,
        "models": {"curve": rpc_model, "elmap": elmap_model,
                   "borda": borda_model},
        "paths": {"curve": rpc_path, "elmap": elmap_path,
                  "borda": borda_path},
        "X": rpc_X,
    }
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestFamilyListing:
    def test_listing_reports_family_and_format(self, served):
        status, body = _get(served["base"] + "/v1/models")
        assert status == 200
        entries = {entry["name"]: entry for entry in body["models"]}
        assert entries["curve"]["family"] == "rpc"
        assert entries["curve"]["format"] == "json"
        assert entries["elmap"]["family"] == "elastic-map"
        assert entries["elmap"]["format"] == "manifest"
        assert entries["borda"]["family"] == "borda"
        for entry in entries.values():
            assert entry["fitted"] is True
            assert "backend" in entry

    def test_get_single_model(self, served):
        status, entry = _get(served["base"] + "/v1/models/elmap")
        assert status == 200
        assert entry["name"] == "elmap"
        assert entry["family"] == "elastic-map"
        assert entry["format"] == "manifest"
        assert entry["n_attributes"] == 3
        assert "backend" in entry

    def test_get_unknown_model_404(self, served):
        status, body = _get(served["base"] + "/v1/models/nope")
        assert status == 404
        assert "nope" in body["error"]

    def test_scoring_route_still_405_on_get(self, served):
        status, _ = _get(served["base"] + "/v1/models/curve/score")
        assert status == 405


class TestFamilyScoring:
    def test_bezier_scores_byte_identical(self, served):
        # The pinned fast path: serving through the family-agnostic
        # daemon must not move the Bézier scores by a single bit.
        model, X = served["models"]["curve"], served["X"]
        status, body = _post(
            served["base"] + "/v1/models/curve/score",
            {"rows": X.tolist()},
        )
        assert status == 200
        expected = score_batch(model, X)
        assert np.array_equal(np.asarray(body["scores"]), expected)

    def test_elastic_map_serves(self, served):
        model, X = served["models"]["elmap"], served["X"]
        status, body = _post(
            served["base"] + "/v1/models/elmap/score",
            {"rows": X.tolist()},
        )
        assert status == 200
        np.testing.assert_allclose(
            np.asarray(body["scores"]),
            np.asarray(model.score_samples(X), dtype=float),
            rtol=0.0,
            atol=1e-12,
        )

    def test_aggregator_serves_batch_relative(self, served):
        model, X = served["models"]["borda"], served["X"]
        status, body = _post(
            served["base"] + "/v1/models/borda/score",
            {"rows": X.tolist()},
        )
        assert status == 200
        expected = np.asarray(model.score_samples(X), dtype=float)
        assert np.array_equal(np.asarray(body["scores"]), expected)

    def test_concurrent_mixed_families_stay_oracle_exact(self, served):
        """Interleaved rpc/elastic-map/borda traffic with the batcher
        window open: every response must match its per-model oracle —
        cross-family (or cross-aggregator) coalescing would corrupt
        widths, scores, or batch-relative positions."""
        base, X = served["base"], served["X"]
        rng = np.random.default_rng(17)
        jobs = []
        for i in range(24):
            name = ("curve", "elmap", "borda")[i % 3]
            rows = X[rng.integers(0, X.shape[0], size=rng.integers(2, 7))]
            jobs.append((name, rows))

        def _score(job):
            name, rows = job
            status, body = _post(
                f"{base}/v1/models/{name}/score", {"rows": rows.tolist()}
            )
            return name, rows, status, body

        with ThreadPoolExecutor(max_workers=12) as pool:
            results = list(pool.map(_score, jobs))

        for name, rows, status, body in results:
            assert status == 200
            got = np.asarray(body["scores"])
            oracle = np.asarray(
                served["models"][name].score_samples(rows), dtype=float
            )
            if name == "curve":
                assert np.array_equal(got, oracle)
            else:
                # Same-family coalescing may move adapted-family scores
                # at the last ulp (BLAS shape sensitivity), never more.
                np.testing.assert_allclose(
                    got, oracle, rtol=0.0, atol=1e-12
                )

        # The batch-relative family must have bypassed coalescing:
        # every borda request's scores are positions among its own
        # rows, which the exact oracle match above already proves for
        # requests of differing sizes.
        stats = served["server"].batcher.stats()
        assert stats["requests_direct"] >= 8  # the borda third

    def test_families_counter_in_metrics(self, served):
        # Guarantee at least one scoring request per family, then look
        # at the JSON metrics (additive "families" key) and the
        # Prometheus exposition.
        base, X = served["base"], served["X"]
        for name in ("curve", "elmap", "borda"):
            _post(f"{base}/v1/models/{name}/score", {"rows": X[:3].tolist()})
        status, body = _get(base + "/metrics")
        assert status == 200
        families = body["families"]
        assert families["rpc"] >= 1
        assert families["elastic-map"] >= 1
        assert families["borda"] >= 1

        request = urllib.request.Request(
            base + "/metrics?format=prometheus"
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode()
        assert "repro_requests_by_family_total" in text
        assert 'family="elastic-map"' in text


class TestFamilyErrors:
    def test_unfitted_nonrpc_model_409_names_its_type(self, served, tmp_path):
        model = build_model("elastic-map", alpha=ALPHA)  # never fitted
        path = save_model(model, tmp_path / "unfitted")
        served["registry"].register("unfitted", path)
        try:
            status, body = _post(
                served["base"] + "/v1/models/unfitted/score",
                {"rows": []},
            )
            assert status == 409
            assert "ElasticMapAdapter" in body["error"]
        finally:
            served["registry"]._models.pop("unfitted", None)

    def test_width_mismatch_422(self, served):
        status, body = _post(
            served["base"] + "/v1/models/elmap/score",
            {"rows": [[1.0, 2.0]]},
        )
        assert status == 422


class TestCrossFamilyHotReload:
    def test_reload_swaps_family(self, served):
        """Overwriting a registered path with a different family's
        payload must swap the served model — the registry is
        family-agnostic end to end."""
        base = served["base"]
        path = served["paths"]["borda"]
        original = path.read_text()
        pca_model, _ = _fit_family("first-pca", seed=8)
        try:
            save_model(pca_model, path)
            status, entry = _get(base + "/v1/models/borda")
            assert status == 200
            assert entry["family"] == "first-pca"
            X = served["X"][:5]
            status, body = _post(
                f"{base}/v1/models/borda/score", {"rows": X.tolist()}
            )
            assert status == 200
            np.testing.assert_allclose(
                np.asarray(body["scores"]),
                np.asarray(pca_model.score_samples(X), dtype=float),
                rtol=0.0,
                atol=1e-12,
            )
        finally:
            path.write_text(original)
            served["registry"].get("borda")  # complete the reload back


class TestComparedServed:
    def test_compare_served_two_families(self, served):
        X = served["X"]
        comparison = compare_served(
            served["base"], ["curve", "elmap"], X
        )
        assert set(comparison.rankings) == {"curve", "elmap"}
        oracle_curve = score_batch(served["models"]["curve"], X)
        assert np.array_equal(
            comparison.rankings["curve"].scores, oracle_curve
        )
        np.testing.assert_allclose(
            comparison.rankings["elmap"].scores,
            np.asarray(
                served["models"]["elmap"].score_samples(X), dtype=float
            ),
            rtol=0.0,
            atol=1e-12,
        )
        # The comparison surface works end to end on served scores.
        agreement = comparison.agreement_matrix()
        assert ("curve", "elmap") in agreement

    def test_compare_served_unknown_model_propagates_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            compare_served(served["base"], ["ghost"], served["X"][:4])
        assert excinfo.value.code == 404
