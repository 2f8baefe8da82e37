"""Admission control and shed-accounting units.

The daemon's overload story has two pieces — bounded admission with
429 + ``Retry-After`` shedding (:mod:`repro.server.admission`) and exact
fleet-wide shed accounting through the shared metrics store.  This file
unit-tests each piece without a live daemon in the way; the end-to-end
overload behaviour (every request exactly 200 or 429 under offered
load beyond capacity) lives in ``tests/test_server_load.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.exceptions import ConfigurationError
from repro.server import (
    AdmissionController,
    ModelRegistry,
    RequestShed,
    ScoringHTTPServer,
    ServerMetrics,
    SharedMetricsStore,
)

SCORE_ENDPOINT = "POST /v1/models/{name}/score"


class TestAdmissionController:
    def test_admits_until_global_bound_then_sheds(self):
        ctl = AdmissionController(max_inflight=2, retry_after=3.0)
        ctl.acquire("a")
        ctl.acquire("b")
        with pytest.raises(RequestShed) as shed:
            ctl.acquire("c")
        assert "capacity" in str(shed.value)
        assert shed.value.retry_after == 3.0
        # Releasing a slot re-opens admission.
        ctl.release("a")
        ctl.acquire("c")
        stats = ctl.stats()
        assert stats["inflight"] == 2
        assert stats["peak_inflight"] == 2
        assert stats["admitted_total"] == 3
        assert stats["shed_total"] == 1

    def test_per_model_quota_isolates_hot_model(self):
        ctl = AdmissionController(
            max_inflight=10, max_inflight_per_model=1
        )
        ctl.acquire("hot")
        with pytest.raises(RequestShed, match="quota"):
            ctl.acquire("hot")
        # Another model is unaffected by the hot one's quota.
        ctl.acquire("cold")
        ctl.release("hot")
        ctl.acquire("hot")

    def test_zero_bounds_mean_unbounded(self):
        ctl = AdmissionController(max_inflight=0, max_inflight_per_model=0)
        for _ in range(200):
            ctl.acquire("m")
        assert ctl.stats()["inflight"] == 200
        assert ctl.stats()["shed_total"] == 0

    def test_release_cleans_per_model_table(self):
        ctl = AdmissionController(max_inflight=0)
        ctl.acquire("transient")
        ctl.release("transient")
        # A stream of one-shot model names must not grow state forever.
        assert ctl._per_model == {}
        # Spurious release (e.g. after a handler error) stays sane.
        ctl.release("never-acquired")
        assert ctl.stats()["inflight"] == 0

    def test_retry_after_header_is_integer_seconds(self):
        assert AdmissionController(retry_after=1.0).retry_after_header() == "1"
        assert AdmissionController(retry_after=0.2).retry_after_header() == "1"
        assert AdmissionController(retry_after=2.5).retry_after_header() == "3"
        assert AdmissionController(retry_after=7).retry_after_header() == "7"

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="max_inflight"):
            AdmissionController(max_inflight=-1)
        with pytest.raises(ConfigurationError, match="per_model"):
            AdmissionController(max_inflight_per_model=-2)
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="retry_after"):
                AdmissionController(retry_after=bad)

    def test_thread_safety_of_the_admission_gate(self):
        # 32 threads race 400 acquire/release pairs through a bound of
        # 8: the inflight gauge must never exceed the bound and must
        # return to zero, and admitted+shed must equal the offered total.
        ctl = AdmissionController(max_inflight=8)
        overshoot = []
        barrier = threading.Barrier(32)

        def worker():
            barrier.wait()
            for _ in range(400):
                try:
                    ctl.acquire("m")
                except RequestShed:
                    continue
                if ctl.stats()["inflight"] > 8:
                    overshoot.append(ctl.stats()["inflight"])
                ctl.release("m")

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not overshoot
        stats = ctl.stats()
        assert stats["inflight"] == 0
        assert stats["admitted_total"] + stats["shed_total"] == 32 * 400


class TestKeepaliveValidation:
    """Regression: ``keepalive_timeout=0`` used to be accepted.

    ``settimeout(0)`` puts the socket in non-blocking mode, so a zero
    timeout made every kept-alive connection die instantly with a
    spurious 408 — the opposite of the "no timeout" an operator meant.
    The server rejects it at construction, in either process mode (the
    pool forks a server that was already built; the CLI check for both
    modes is in ``tests/test_server_load.py``).
    """

    def test_server_rejects_zero_and_negative(self):
        for bad in (0, 0.0, -1.5):
            with pytest.raises(ConfigurationError, match="keepalive"):
                ScoringHTTPServer(
                    ("127.0.0.1", 0),
                    ModelRegistry(),
                    keepalive_timeout=bad,
                )

    def test_pool_rejects_zero_and_negative(self, tmp_path, capsys):
        import numpy as np

        from repro import RankingPrincipalCurve
        from repro.cli import main
        from repro.data.synthetic import sample_monotone_cloud
        from repro.serving import save_model

        alpha = np.array([1.0, 1.0])
        cloud = sample_monotone_cloud(alpha=alpha, n=30, seed=2, noise=0.02)
        model = RankingPrincipalCurve(alpha=alpha, n_restarts=1).fit(cloud.X)
        path = tmp_path / "demo.json"
        save_model(model, path)
        # --workers 2 builds the same server before it forks, so the
        # pool boot refuses the value before anything serves.
        for bad in ("0", "-2"):
            code = main([
                "serve", "--model", f"demo={path}", "--port", "0",
                "--workers", "2", "--keepalive-timeout", bad,
            ])
            out, err = capsys.readouterr()
            assert code == 2, (bad, out, err)
            assert "keepalive" in err, (bad, err)
            assert "serving" not in out, (bad, out)

    def test_large_timeout_still_accepted(self):
        server = ScoringHTTPServer(
            ("127.0.0.1", 0), ModelRegistry(), keepalive_timeout=86400.0
        )
        try:
            assert server.keepalive_timeout == 86400.0
        finally:
            server.server_close()


class TestSharedShedAndBatchTelemetry:
    def test_shed_total_is_exact_across_slots(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        workers = [
            ServerMetrics(store.writer(slot)) for slot in range(2)
        ]
        for slot, metrics in enumerate(workers):
            for _ in range(5):
                metrics.observe(SCORE_ENDPOINT, 200, 0.001, rows=1)
            for _ in range(3 * (slot + 1)):
                metrics.observe(SCORE_ENDPOINT, 429, 0.0001)
        for metrics in workers:
            snap = metrics.snapshot()
            assert "requests_shed_total" in snap
        merged = store.merged()
        assert merged["requests_shed_total"] == 9
        assert merged["requests_total"] == 10 + 9
        by_status = merged["endpoints"][SCORE_ENDPOINT]["by_status"]
        assert by_status["429"] == 9

    def test_batch_fill_pools_as_fleet_max(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=2, create=True
        )
        workers = [
            ServerMetrics(store.writer(slot)) for slot in range(2)
        ]
        workers[0].observe_batch(3, 24)
        workers[1].observe_batch(5, 10)
        workers[1].observe_batch(2, 40)
        merged = store.merged()
        fleet = merged["micro_batcher_fleet"]
        assert fleet["largest_batch_requests"] == 5
        assert fleet["largest_batch_rows"] == 40

    def test_no_batches_means_no_fleet_key(self, tmp_path):
        store = SharedMetricsStore(
            tmp_path / "metrics.mmap", n_slots=1, create=True
        )
        ServerMetrics(store.writer(0)).observe(
            SCORE_ENDPOINT, 200, 0.001, rows=1
        )
        assert "micro_batcher_fleet" not in store.merged()


class TestServeCLIFlags:
    def test_parser_accepts_overload_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--model", "m=/tmp/m.json",
                "--batch-policy", "fixed",
                "--max-inflight", "16",
                "--max-inflight-per-model", "4",
                "--retry-after", "2.5",
                "--keepalive-timeout", "45",
            ]
        )
        assert args.batch_policy == "fixed"
        assert args.max_inflight == 16
        assert args.max_inflight_per_model == 4
        assert args.retry_after == 2.5
        assert args.keepalive_timeout == 45.0

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--model", "m=/tmp/m.json"]
        )
        assert args.batch_policy == "adaptive"
        assert args.max_inflight is None  # -> server default
        assert args.max_inflight_per_model == 0
        assert args.retry_after is None  # -> server default
        assert args.keepalive_timeout == 30.0

    def test_tuning_file_flag_exits_2(self, capsys):
        # Knobs are boot flags; no file of knobs is read.
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--model", "m=/tmp/m.json", "--tuning-file", "x"])
        assert exit_info.value.code == 2
        assert "--tuning-file" in capsys.readouterr().err
