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
import time
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.data.synthetic import sample_monotone_cloud
from repro.server import MicroBatcher, ModelRegistry, ScoringHTTPServer
from repro.server import http as http_module
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


class _FirstCallHeld:
    """``score_fn`` wrapper whose first call blocks until ``release``.

    The batcher queues every request that arrives while a call for its
    model runs, so holding the first call lets a test line requests up
    behind it deterministically instead of racing a timer.
    """

    def __init__(self, score_fn=score_batch):
        self._score_fn = score_fn
        self._lock = threading.Lock()
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, model, X, **kwargs):
        with self._lock:
            first = not self.entered.is_set()
            self.entered.set()
        if first:
            assert self.release.wait(30), "first call never released"
        return self._score_fn(model, X, **kwargs)


def _await_queue_depth(batcher: MicroBatcher, depth: int) -> None:
    """Block until ``depth`` callers are inside ``batcher.score``."""
    deadline = time.monotonic() + 30
    while batcher.stats()["queue_depth"] < depth:
        assert time.monotonic() < deadline, batcher.stats()
        time.sleep(0.001)


def _start(call, *slots) -> list:
    threads = [threading.Thread(target=call, args=(i,)) for i in slots]
    for t in threads:
        t.start()
    return threads


def _join(threads, timeout: float = 10) -> None:
    """Join callers well inside the tests' 30 s windows, so a batch
    that waited out its window instead of running once the call ahead
    finished fails the test."""
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "caller hung"


class TestMicroBatcherUnit:
    def test_concurrent_calls_coalesce_and_match(self, fitted):
        # The first caller scores at once and is held there until all
        # 8 are inside the batcher; the other 7 queue behind it as one
        # batch, whose shared solve must be invisible.
        held = _FirstCallHeld()
        batcher = MicroBatcher(held, window=30.0, max_rows=4096)
        rng = np.random.default_rng(0)
        inputs = [rng.uniform(size=(int(rng.integers(1, 5)), 3))
                  for _ in range(8)]
        expected = [score_batch(fitted, X) for X in inputs]
        results = [None] * len(inputs)

        def call(i):
            results[i] = batcher.score(fitted, inputs[i])

        threads = _start(call, *range(len(inputs)))
        _await_queue_depth(batcher, len(inputs))
        held.release.set()
        _join(threads)
        stats = batcher.stats()
        assert stats["requests_batched"] == 8
        assert stats["batches_executed"] == 2
        assert stats["largest_batch_requests"] == 7
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
        # max_rows=2: two single-row callers queued behind a held call
        # fill their batch, so it must execute while the call ahead is
        # still running, long before its 30 s window elapses.
        held = _FirstCallHeld()
        batcher = MicroBatcher(held, window=30.0, max_rows=2)
        X = np.full((1, 3), 0.4)
        results = [None, None, None]

        def call(i):
            results[i] = batcher.score(fitted, X)

        holder = _start(call, 0)
        assert held.entered.wait(30)
        followers = _start(call, 1, 2)
        _join(followers)
        assert results[0] is None, "held call finished early"
        held.release.set()
        _join(holder)
        want = score_batch(fitted, X)
        for got in results:
            assert got.tobytes() == want.tobytes()

    def test_poisoned_request_fails_alone(self, fitted):
        held = _FirstCallHeld()
        batcher = MicroBatcher(held, window=30.0)
        good = np.full((2, 3), 0.3)
        bad = np.array([[np.nan, 0.1, 0.2]])
        outcome = {}
        plan = (("head", good), ("g1", good), ("bad", bad), ("g2", good))

        def call(i):
            name, X = plan[i]
            try:
                outcome[name] = batcher.score(fitted, X)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome[name] = exc

        holder = _start(call, 0)
        assert held.entered.wait(30)
        rest = _start(call, 1, 2, 3)
        _await_queue_depth(batcher, len(plan))
        held.release.set()
        _join(holder + rest)
        # The NaN request shared a batch with g1 and g2; it raises
        # exactly what an unbatched call would, and its batch-mates
        # score as if it never existed.
        assert batcher.stats()["largest_batch_requests"] == 3
        with pytest.raises(DataValidationError) as unbatched:
            score_batch(fitted, bad)
        assert isinstance(outcome["bad"], DataValidationError)
        assert str(outcome["bad"]) == str(unbatched.value)
        want = score_batch(fitted, good)
        for name in ("head", "g1", "g2"):
            assert outcome[name].tobytes() == want.tobytes()

    def test_config_validation(self):
        for bad in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="window"):
                MicroBatcher(score_batch, window=bad)
        with pytest.raises(ConfigurationError, match="max_rows"):
            MicroBatcher(score_batch, window=0.1, max_rows=0)

    def test_largest_batch_rows_tracked(self, fitted):
        # Regression: stats() reported the largest batch in *requests*
        # but not in *rows*, leaving --max-batch-rows untunable from
        # telemetry.  Queue 2-row + 3-row requests behind a held 1-row
        # call and expect 5.
        held = _FirstCallHeld()
        batcher = MicroBatcher(held, window=30.0, max_rows=5)
        rng = np.random.default_rng(3)
        inputs = [
            rng.uniform(size=(1, 3)),
            rng.uniform(size=(2, 3)),
            rng.uniform(size=(3, 3)),
        ]
        results = [None] * len(inputs)

        def call(i):
            results[i] = batcher.score(fitted, inputs[i])

        holder = _start(call, 0)
        assert held.entered.wait(30)
        # 2 + 3 rows fill the queued batch, which executes at once.
        _join(_start(call, 1, 2))
        held.release.set()
        _join(holder)
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
            if X.shape[0] > 1:
                raise KeyboardInterrupt()
            return np.zeros(X.shape[0])

        held = _FirstCallHeld(interrupted_score)
        batcher = MicroBatcher(held, window=30.0, max_rows=2)
        model = object()
        outcome = [None, None, None]

        def call(i):
            try:
                outcome[i] = batcher.score(model, np.full((1, 3), 0.1))
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome[i] = exc

        holder = _start(call, 0)
        assert held.entered.wait(30)
        rest = _start(call, 1, 2)
        _join(rest)
        held.release.set()
        _join(holder)
        # The two calls queued behind the held one made ONE merged
        # call, which was interrupted and not rescored; the held call
        # then scored its row.
        assert calls == [2, 1], f"fallback rescored after interrupt: {calls}"
        kinds = sorted(type(o).__name__ for o in outcome[1:])
        assert kinds == ["BatchAbortedError", "KeyboardInterrupt"], kinds
        assert isinstance(outcome[0], np.ndarray)

    def test_keyboard_interrupt_propagates_solo_path(self):
        # Same bug, single-member batch: the solo execute path also
        # caught BaseException and turned Ctrl-C into a response.
        def interrupted_score(model, X):
            raise KeyboardInterrupt()

        batcher = MicroBatcher(interrupted_score, window=0.001)
        with pytest.raises(KeyboardInterrupt):
            batcher.score(object(), np.full((1, 3), 0.1))


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


def _metrics(base: str) -> dict:
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        return json.loads(response.read())


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
        params=[(0.02, None), (0.05, 8)],
        ids=["window20ms", "window50ms-maxrows8"],
    )
    def server_pair(self, request, tmp_path_factory):
        window, max_rows = request.param
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

    def test_batching_actually_happened(self, server_pair, monkeypatch):
        """Guard against the property passing because batching was off.

        Four concurrent requests, the first held in the engine until
        all four have entered the batcher: the other three queue behind
        it and share one engine call, provided they all arrive within
        one window of the first of them.  (Entries are counted, not
        ``queue_depth`` sampled: the window may release the three
        before a poll sees all four in flight.)
        """
        batched_base, _, names = server_pair
        held = _FirstCallHeld(http_module.score_batch)
        monkeypatch.setattr(http_module, "score_batch", held)
        n_requests = 4
        path = f"/v1/models/{names[0]}/score"
        data = json.dumps({"row": [0.2, 0.5, 0.8]}).encode()
        statuses: list = [None] * n_requests

        def entered() -> int:
            return _metrics(batched_base)["micro_batcher"]["requests_batched"]

        def client(slot: int) -> None:
            statuses[slot] = _post_raw(batched_base, path, data)[0]

        target = entered() + n_requests
        threads = _start(client, *range(n_requests))
        deadline = time.monotonic() + 30
        while entered() < target:
            assert time.monotonic() < deadline, "requests never entered"
            time.sleep(0.005)
        held.release.set()
        _join(threads)
        assert statuses == [200] * n_requests
        stats = _metrics(batched_base)["micro_batcher"]
        assert stats["requests_batched"] > 0
        assert stats["batches_executed"] < stats["requests_batched"]
        assert stats["largest_batch_requests"] >= 2
