"""Micro-batcher correctness: coalescing, isolation, byte-identity.

The batching layer's whole contract is *invisibility*: however many
concurrent requests get merged into one engine call, every caller must
receive exactly — byte for byte — what an unbatched call would have
produced, including its errors.  The unit half of this file drives
:class:`repro.server.batching.MicroBatcher` directly; the property
half fires randomized mixed workloads (shapes, degrees, poisoned
rows, wrong widths) at a live batching daemon and compares every
response body against a batching-disabled reference server.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.data.synthetic import sample_monotone_cloud
from repro.server import MicroBatcher, ModelRegistry, ScoringHTTPServer
from repro.serving import save_model, score_batch

ALPHA = np.array([1.0, 1.0, -1.0])


def _fit(seed: int, degree: int = 3, d: int = 3) -> RankingPrincipalCurve:
    alpha = np.where(np.arange(d) % 3 == 2, -1.0, 1.0)
    cloud = sample_monotone_cloud(alpha=alpha, n=36, seed=seed, noise=0.02)
    model = RankingPrincipalCurve(
        alpha=alpha, random_state=seed, n_restarts=1, degree=degree
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model


@pytest.fixture(scope="module")
def fitted():
    return _fit(seed=7)


class TestMicroBatcherUnit:
    def test_concurrent_calls_coalesce_and_match(self, fitted):
        # policy="fixed": the coalescing guarantee under test needs
        # every leader to wait the full window, not the adaptive
        # controller's cold-start zero.
        batcher = MicroBatcher(
            score_batch, window=0.5, max_rows=4096, policy="fixed"
        )
        rng = np.random.default_rng(0)
        inputs = [rng.uniform(size=(int(rng.integers(1, 5)), 3))
                  for _ in range(8)]
        expected = [score_batch(fitted, X) for X in inputs]
        results = [None] * len(inputs)
        barrier = threading.Barrier(len(inputs))

        def call(i):
            barrier.wait()
            results[i] = batcher.score(fitted, inputs[i])

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(len(inputs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        stats = batcher.stats()
        # All 8 calls released within one 500 ms window must have
        # shared solves — and the shared solve must be invisible.
        assert stats["requests_batched"] == 8
        assert stats["batches_executed"] < 8
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()

    def test_window_zero_is_direct(self, fitted):
        batcher = MicroBatcher(score_batch, window=0.0)
        X = np.full((2, 3), 0.25)
        got = batcher.score(fitted, X)
        assert got.tobytes() == score_batch(fitted, X).tobytes()
        assert batcher.stats()["requests_direct"] == 1
        assert batcher.stats()["batches_executed"] == 0

    def test_large_request_bypasses_batching(self, fitted):
        batcher = MicroBatcher(score_batch, window=0.5, max_rows=4)
        X = np.full((4, 3), 0.5)  # == max_rows -> direct
        got = batcher.score(fitted, X)
        assert got.tobytes() == score_batch(fitted, X).tobytes()
        assert batcher.stats()["requests_direct"] == 1

    def test_full_batch_flushes_before_window(self, fitted):
        # max_rows=2: the second single-row caller fills the batch, so
        # the leader must flush long before its 30 s window elapses.
        batcher = MicroBatcher(
            score_batch, window=30.0, max_rows=2, policy="fixed"
        )
        X = np.full((1, 3), 0.4)
        results = [None, None]

        def call(i):
            results[i] = batcher.score(fitted, X)

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert all(r is not None for r in results), "batch never flushed"
        want = score_batch(fitted, X)
        for got in results:
            assert got.tobytes() == want.tobytes()

    def test_poisoned_request_fails_alone(self, fitted):
        batcher = MicroBatcher(score_batch, window=0.4, policy="fixed")
        good = np.full((2, 3), 0.3)
        bad = np.array([[np.nan, 0.1, 0.2]])
        outcome = {}
        barrier = threading.Barrier(3)

        def call(name, X):
            barrier.wait()
            try:
                outcome[name] = batcher.score(fitted, X)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome[name] = exc

        threads = [
            threading.Thread(target=call, args=(name, X))
            for name, X in (("g1", good), ("bad", bad), ("g2", good))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        # The NaN request raises exactly what an unbatched call would;
        # its window-mates score as if it never existed.
        with pytest.raises(DataValidationError) as unbatched:
            score_batch(fitted, bad)
        assert isinstance(outcome["bad"], DataValidationError)
        assert str(outcome["bad"]) == str(unbatched.value)
        want = score_batch(fitted, good)
        assert outcome["g1"].tobytes() == want.tobytes()
        assert outcome["g2"].tobytes() == want.tobytes()

    def test_config_validation(self):
        for bad in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="window"):
                MicroBatcher(score_batch, window=bad)
        with pytest.raises(ConfigurationError, match="max_rows"):
            MicroBatcher(score_batch, window=0.1, max_rows=0)
        with pytest.raises(ConfigurationError, match="policy"):
            MicroBatcher(score_batch, window=0.1, policy="psychic")

    def test_largest_batch_rows_tracked(self, fitted):
        # Regression: stats() reported the largest batch in *requests*
        # but not in *rows*, leaving --max-batch-rows untunable from
        # telemetry.  Coalesce 2-row + 3-row requests and expect 5.
        batcher = MicroBatcher(
            score_batch, window=30.0, max_rows=5, policy="fixed"
        )
        rng = np.random.default_rng(3)
        inputs = [rng.uniform(size=(2, 3)), rng.uniform(size=(3, 3))]
        results = [None, None]
        barrier = threading.Barrier(2)

        def call(i):
            barrier.wait()
            results[i] = batcher.score(fitted, inputs[i])

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        stats = batcher.stats()
        assert "largest_batch_rows" in stats
        assert stats["largest_batch_rows"] == 5
        assert stats["largest_batch_requests"] == 2
        for got, X in zip(results, inputs):
            assert got.tobytes() == score_batch(fitted, X).tobytes()

    def test_keyboard_interrupt_propagates_not_rescored(self):
        # Regression: _execute caught BaseException, so a
        # KeyboardInterrupt mid-merge was swallowed into an N-way
        # per-request rescore — N more scoring calls between an
        # operator's Ctrl-C and the daemon actually stopping.  The
        # interrupt must reach the leader's caller after ONE call, and
        # followers must be woken with BatchAbortedError, not hang.
        calls = []

        def interrupted_score(model, X):
            calls.append(X.shape[0])
            raise KeyboardInterrupt()

        batcher = MicroBatcher(
            interrupted_score, window=30.0, max_rows=2, policy="fixed"
        )
        model = object()
        outcome = [None, None]
        barrier = threading.Barrier(2)

        def call(i):
            barrier.wait()
            try:
                outcome[i] = batcher.score(model, np.full((1, 3), 0.1))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome[i] = exc

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "follower hung"
        assert len(calls) == 1, f"fallback rescored after interrupt: {calls}"
        kinds = sorted(type(o).__name__ for o in outcome)
        assert kinds == ["BatchAbortedError", "KeyboardInterrupt"], kinds

    def test_keyboard_interrupt_propagates_solo_path(self):
        # Same bug, single-member batch: the solo execute path also
        # caught BaseException and turned Ctrl-C into a response.
        def interrupted_score(model, X):
            raise KeyboardInterrupt()

        batcher = MicroBatcher(
            interrupted_score, window=0.001, policy="fixed"
        )
        with pytest.raises(KeyboardInterrupt):
            batcher.score(object(), np.full((1, 3), 0.1))

class TestAdaptiveWindowController:
    """Deterministic unit coverage of the window feedback loop."""

    def test_starts_at_zero_and_stays_there_when_idle(self):
        from repro.server.batching import AdaptiveWindowController

        ctl = AdaptiveWindowController(cap=0.05, max_rows=1024)
        assert ctl.window() == 0.0
        for _ in range(20):  # lonely single-request flushes
            ctl.on_flush(1, 3, 0)
        assert ctl.window() == 0.0

    def test_grows_to_cap_under_pressure_then_collapses(self):
        from repro.server.batching import AdaptiveWindowController

        ctl = AdaptiveWindowController(cap=0.064, max_rows=1024)
        # Multi-member flushes: seed at cap/64 and double to the cap.
        ctl.on_flush(4, 12, 0)
        assert ctl.window() == pytest.approx(0.001)
        for _ in range(10):
            ctl.on_flush(4, 12, 0)
        assert ctl.window() == pytest.approx(0.064)
        # Queue depth alone (single-member flush, requests waiting
        # behind it) also counts as pressure.
        ctl2 = AdaptiveWindowController(cap=0.064, max_rows=1024)
        ctl2.on_flush(1, 3, depth=2)
        assert ctl2.window() > 0.0
        # Full-by-rows flushes count as pressure too.
        ctl3 = AdaptiveWindowController(cap=0.064, max_rows=8)
        ctl3.on_flush(1, 8, 0)
        assert ctl3.window() > 0.0
        # The spike passes: lonely flushes halve it back and it snaps
        # to exactly zero (not epsilon) below cap/1024.
        for _ in range(30):
            ctl.on_flush(1, 3, 0)
        assert ctl.window() == 0.0

    def test_adaptive_batcher_reports_controller_state(self, fitted):
        batcher = MicroBatcher(score_batch, window=0.05)  # adaptive
        stats = batcher.stats()
        assert stats["policy"] == "adaptive"
        assert stats["window_ms"] == 50.0
        assert stats["current_window_ms"] == 0.0  # idle -> no wait
        assert stats["queue_depth"] == 0
        # An idle adaptive batcher scores with zero added latency and
        # still returns byte-identical results.
        X = np.full((2, 3), 0.3)
        got = batcher.score(fitted, X)
        assert got.tobytes() == score_batch(fitted, X).tobytes()


# ----------------------------------------------------------------------
# Randomized HTTP-level byte-identity (the property-style satellite)
# ----------------------------------------------------------------------
def _post_raw(base: str, path: str, data: bytes) -> tuple[int, bytes]:
    request = urllib.request.Request(
        base + path,
        data=data,
        method="POST",
        headers={"X-Request-Id": "prop-fixed-id"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _random_request(rng: np.random.Generator, model_names) -> tuple[str, bytes]:
    """One randomized request: mostly good, sometimes poisoned."""
    name = model_names[int(rng.integers(len(model_names)))]
    action = "rank" if rng.random() < 0.3 else "score"
    path = f"/v1/models/{name}/{action}"
    width = 3 if rng.random() < 0.85 else int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    rows = rng.uniform(-0.5, 1.5, size=(n, width))
    if rng.random() < 0.15:
        rows[
            int(rng.integers(n)), int(rng.integers(width))
        ] = np.nan  # poisoned row -> 422, isolated from its window
    if n == 1 and rng.random() < 0.5:
        payload = {"row": rows[0].tolist()}
    else:
        payload = {"rows": rows.tolist()}
    if action == "rank" and rng.random() < 0.5:
        payload["labels"] = [f"obj{i}" for i in range(n)]
    return path, json.dumps(payload).encode()


class TestBatchedResponsesByteIdentical:
    """Randomized shapes/degrees/windows: batching must be invisible.

    A batching daemon and a ``--batch-window-ms 0`` reference daemon
    serve the same models.  Every randomized request is answered by
    both — concurrently on the batching side, so windows really mix
    good and poisoned requests — and each (status, body) pair must be
    byte-identical.
    """

    @pytest.fixture(
        scope="class",
        params=[
            (0.02, None, "adaptive"),
            (0.02, None, "fixed"),
            (0.05, 8, "adaptive"),
        ],
        ids=[
            "window20ms-adaptive",
            "window20ms-fixed",
            "window50ms-maxrows8-adaptive",
        ],
    )
    def server_pair(self, request, tmp_path_factory):
        window, max_rows, policy = request.param
        root = tmp_path_factory.mktemp("batching")
        names = []
        registries = []
        for degree in (2, 3, 4):
            name = f"deg{degree}"
            save_model(
                _fit(seed=10 + degree, degree=degree),
                root / f"{name}.json",
            )
            names.append(name)
        servers = []
        for batch_window in (window, 0.0):
            registry = ModelRegistry()
            for name in names:
                registry.register(name, root / f"{name}.json")
            server = ScoringHTTPServer(
                ("127.0.0.1", 0),
                registry,
                batch_window=batch_window,
                max_batch_rows=max_rows,
                batch_policy=policy,
            )
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            servers.append(server)
        batched, reference = servers
        yield (
            f"http://127.0.0.1:{batched.server_address[1]}",
            f"http://127.0.0.1:{reference.server_address[1]}",
            names,
        )
        for server in servers:
            server.shutdown()
            server.server_close()

    def test_randomized_mixed_workload(self, server_pair):
        batched_base, reference_base, names = server_pair
        rng = np.random.default_rng(42)
        n_threads, per_thread = 6, 12
        plans = [
            [_random_request(rng, names) for _ in range(per_thread)]
            for _ in range(n_threads)
        ]
        reference = [
            [_post_raw(reference_base, path, data) for path, data in plan]
            for plan in plans
        ]
        got: list = [None] * n_threads
        errors: list = []
        barrier = threading.Barrier(n_threads)

        def client(slot: int) -> None:
            try:
                barrier.wait()
                got[slot] = [
                    _post_raw(batched_base, path, data)
                    for path, data in plans[slot]
                ]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append((slot, exc))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, f"client threads raised: {errors}"
        for slot in range(n_threads):
            for k, ((st_b, body_b), (st_r, body_r)) in enumerate(
                zip(got[slot], reference[slot])
            ):
                assert st_b == st_r, (slot, k, body_b, body_r)
                assert body_b == body_r, (slot, k, plans[slot][k][0])

    def test_batching_actually_happened(self, server_pair):
        """Guard against the property passing because batching was off."""
        batched_base, _, _ = server_pair
        with urllib.request.urlopen(
            batched_base + "/metrics", timeout=10
        ) as response:
            snap = json.loads(response.read())
        stats = snap["micro_batcher"]
        assert stats["requests_batched"] > 0
        assert stats["batches_executed"] < stats["requests_batched"]
        assert stats["largest_batch_requests"] >= 2
