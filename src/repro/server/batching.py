"""Request micro-batching: coalesce small concurrent scoring calls.

PR 3's projection engine made one *large* scoring call cheap, which
moved the bottleneck for a busy daemon to the per-request overhead of
many *small* calls: each one pays engine compilation (an ``X @ C``
matmul on a handful of rows), a dozen tiny-array solver dispatches, and
the GIL churn of a dedicated handler thread.  A ranking service fed by
interactive clients sees exactly this shape — lots of concurrent 1-to-
16-row requests — so the daemon amortises them: requests for the same
model that arrive within a short window are concatenated into one
:func:`~repro.serving.batch.score_batch` call and the result is
scattered back per request.

Window policy
-------------
The window itself is adaptive by default (``policy="adaptive"``): the
configured ``window`` is only a *cap*, and the effective coalescing
wait is driven by an :class:`AdaptiveWindowController` that grows the
window multiplicatively while batches keep finding company (or close
full, or leave requests queued behind them) and halves it back toward
zero the moment they stop.  An idle service therefore pays no added
latency at all — single requests flush immediately — while a saturated
one converges to the cap within a handful of flushes and gets the full
amortisation.  ``policy="fixed"`` restores the PR 5 behaviour: every
leader waits out the whole configured window.

Correctness contract
--------------------
Micro-batching is invisible in the responses, bit for bit:

* The projection solvers freeze each row at its *own* convergence
  (see :func:`repro.linalg.golden_section.golden_section_search_batch`
  and :meth:`repro.geometry.engine.CompiledProjection.newton_refine`),
  so a row's score does not depend on which other rows share its
  solve.  Concatenating requests therefore returns byte-identical
  scores to scoring each request alone — pinned by the randomized
  suite in ``tests/test_server_batching.py``.  Adapted families are
  per-row in exact arithmetic too; their BLAS matmuls are not
  bit-stable across batch shapes, so coalescing may move their scores
  at the last-ulp level (never beyond).
* Requests are only merged when they share the model *object* (a hot
  reload mid-window splits batches, never mixes models), the model's
  *family* (mixed-family traffic batches safely — an rpc request can
  never be concatenated into an elastic-map solve even if a registry
  slot is hot-swapped between families), and the row width, so a
  malformed request cannot poison the concatenation shape.
* Batch-relative families (``model.pointwise_scores`` false — the rank
  aggregators, whose scores are positions *within* the submitted rows)
  are never coalesced at all: merging two requests would change both
  answers, so they always take the direct path.
* If the merged call raises an :class:`Exception` (e.g. one request's
  rows contain NaN), the batch falls back to scoring each request
  individually, so errors land on exactly the requests that caused
  them with exactly the message an unbatched call would have produced.
  A :class:`BaseException` (``KeyboardInterrupt``, ``SystemExit``) is
  *not* absorbed into that fallback: it propagates out of the leader —
  shutdown must never stall behind an N-way rescore — and followers
  are woken with a :class:`BatchAbortedError`.

The batcher adds at most ``window`` seconds of latency to the *first*
request of a batch and typically much less to followers; ``window=0``
disables coalescing entirely and every call scores synchronously.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.obs import engineprof
from repro.obs.engineprof import EngineProfile
from repro.obs.trace import NULL_TRACE

#: Default rows a single micro-batch may accumulate before it is
#: flushed early; also the size above which a request bypasses
#: batching entirely (large requests already amortise their overhead).
DEFAULT_MAX_BATCH_ROWS = 1024

#: Recognised window policies.
WINDOW_POLICIES = ("adaptive", "fixed")


class BatchAbortedError(RuntimeError):
    """The batch leader died before scattering results.

    Raised to follower requests whose leader was torn down by a
    ``BaseException`` (``KeyboardInterrupt`` during the merged call,
    say) — the leader re-raises the original, followers get this.
    """


class AdaptiveWindowController:
    """Feedback controller for the coalescing window.

    The effective window starts at zero and is updated once per flush,
    under the batcher's lock:

    * a *busy* flush — more than one member, closed full, or further
      requests already queued behind it — doubles the window (seeding
      at ``cap / 64``), saturating at the configured cap;
    * a *lonely* flush — one member, nothing waiting — halves it, and
      snaps to exactly zero below ``cap / 1024`` so an idle service
      coalesces (and waits) not at all.

    Multiplicative growth reaches the cap from a cold start in ~6
    flushes, so a load spike is met within a few milliseconds of
    serving it, and the same geometry collapses the window just as
    fast when the spike passes.
    """

    _GROW_SEED = 1.0 / 64.0
    _COLLAPSE_BELOW = 1.0 / 1024.0

    def __init__(self, cap: float, max_rows: int):
        self.cap = float(cap)
        self.max_rows = int(max_rows)
        self._window = 0.0

    def window(self) -> float:
        """Seconds the next batch leader should wait for company."""
        return self._window

    def on_flush(self, n_requests: int, n_rows: int, depth: int) -> None:
        """Feed one executed batch back into the controller.

        Parameters: the batch's member-request count and total rows,
        and ``depth`` — requests still in flight behind it when it
        closed (the queue-pressure signal).
        """
        busy = n_requests > 1 or n_rows >= self.max_rows or depth > 0
        if busy:
            self._window = min(
                self.cap,
                max(self._window * 2.0, self.cap * self._GROW_SEED),
            )
        else:
            shrunk = self._window / 2.0
            self._window = (
                0.0 if shrunk < self.cap * self._COLLAPSE_BELOW else shrunk
            )


class _Request:
    """One caller's rows plus the slot its result lands in.

    ``trace`` and ``t_submit`` exist so the batch leader can stamp
    queue-wait and execute spans into *every* member's trace — a
    follower thread is asleep for that whole interval and cannot time
    it itself.
    """

    __slots__ = ("X", "result", "error", "trace", "t_submit")

    def __init__(self, X: np.ndarray, trace=NULL_TRACE):
        self.X = X
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.trace = trace
        self.t_submit = time.perf_counter()


class _Batch:
    """An open micro-batch: members joined while the leader waits."""

    __slots__ = ("members", "rows", "closed", "done", "full", "deadline")

    def __init__(self, deadline: float):
        self.members: List[_Request] = []
        self.rows = 0
        self.closed = False
        self.done = threading.Event()
        self.full = threading.Event()
        self.deadline = deadline


class MicroBatcher:
    """Coalesces concurrent scoring calls for the same model.

    Parameters
    ----------
    score_fn:
        ``score_fn(model, X) -> scores`` — the underlying scoring call
        (the daemon passes :func:`~repro.serving.batch.score_batch`
        closed over its chunk/thread settings).
    window:
        Cap in seconds on how long the first request of a batch waits
        for company.  ``0`` disables batching: every call runs
        ``score_fn`` directly.
    max_rows:
        Flush a batch as soon as it holds this many rows, and bypass
        batching for any single request at or above it.
    policy:
        ``"adaptive"`` (default) drives the effective window with an
        :class:`AdaptiveWindowController` — zero when idle, growing
        toward ``window`` under queue pressure.  ``"fixed"`` always
        waits the full ``window``.
    on_flush:
        Optional ``on_flush(n_requests, n_rows)`` callback invoked
        (under the batcher lock) after each merged execution — the
        daemon uses it to mirror batch-fill telemetry into the shared
        fleet metrics store.
    on_execute:
        Optional ``on_execute(profile)`` callback receiving the
        :class:`~repro.obs.engineprof.EngineProfile` that covered one
        scoring execution (merged call, fallback rescores, single or
        bypass — exactly one callback per engine entry), invoked
        *outside* the batcher lock.  The daemon feeds it to
        ``ServerMetrics.observe_engine`` so solver telemetry counts
        each solve once however requests were coalesced.

    Thread model: callers are the daemon's per-connection handler
    threads.  The first caller for a (model, family, width) key becomes the
    batch *leader*: it sleeps out the window (or until the batch
    fills), executes the merged call, scatters results, and wakes the
    followers, which were blocking on the batch's event.  No extra
    threads are created.
    """

    def __init__(
        self,
        score_fn: Callable[[object, np.ndarray], np.ndarray],
        window: float = 0.0,
        max_rows: int = DEFAULT_MAX_BATCH_ROWS,
        policy: str = "adaptive",
        on_flush: Optional[Callable[[int, int], None]] = None,
        on_execute: Optional[Callable[[EngineProfile], None]] = None,
    ):
        window = float(window)
        max_rows = int(max_rows)
        # Finite too: the leader hands the window to ``Event.wait``,
        # which raises on ``inf`` and never times out on ``nan``.
        if not 0 <= window < math.inf:
            raise ConfigurationError(
                f"batch window must be finite and >= 0 seconds, "
                f"got {window}"
            )
        if max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        if policy not in WINDOW_POLICIES:
            raise ConfigurationError(
                f"batch policy must be one of {WINDOW_POLICIES}, "
                f"got {policy!r}"
            )
        self._score_fn = score_fn
        self.window = window
        self.max_rows = max_rows
        self.policy = policy
        self._controller = AdaptiveWindowController(window, max_rows)
        self._on_flush = on_flush
        self._on_execute = on_execute
        self._lock = threading.Lock()
        self._pending: Dict[Tuple[int, str, int], _Batch] = {}
        self._batch_seq = 0
        # Telemetry (guarded by the same lock).
        self._inflight = 0
        self._requests_batched = 0
        self._requests_direct = 0
        self._batches_executed = 0
        self._largest_batch = 0
        self._largest_batch_rows = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def score(self, model, X: np.ndarray, trace=NULL_TRACE) -> np.ndarray:
        """Score ``X`` with ``model``, possibly merged with other calls.

        Blocks until this request's scores are available (at most the
        window plus the merged call's own runtime) and returns exactly
        what ``score_fn(model, X)`` would have — or raises exactly what
        it would have raised.

        ``trace``, when recording, receives ``queue`` (submit to
        execution start) and ``execute`` spans, the batch identity,
        and the execution's engine-profile snapshot; the default
        :data:`~repro.obs.trace.NULL_TRACE` makes all of that a no-op.
        """
        X = np.asarray(X, dtype=float)
        if (
            self.window <= 0.0
            or X.ndim != 2
            or X.shape[0] == 0
            or X.shape[0] >= self.max_rows
            # Batch-relative scoring (rank aggregators): coalescing
            # would change every member's answer, so never merge.
            or not getattr(model, "pointwise_scores", True)
        ):
            with self._lock:
                self._requests_direct += 1
            return self._scored_direct(model, X, trace)

        request = _Request(X, trace)
        key = (
            id(model),
            getattr(model, "family", type(model).__name__),
            int(X.shape[1]),
        )
        with self._lock:
            self._inflight += 1
            batch = self._pending.get(key)
            if (
                batch is not None
                and not batch.closed
                and batch.rows + X.shape[0] <= self.max_rows
            ):
                batch.members.append(request)
                batch.rows += X.shape[0]
                self._requests_batched += 1
                if batch.rows >= self.max_rows:
                    batch.full.set()
                leader = False
            else:
                if batch is not None and not batch.closed:
                    # The open batch cannot take these rows; flush it
                    # early and start a fresh one it no longer owns.
                    batch.full.set()
                batch = _Batch(
                    deadline=time.monotonic() + self._effective_window()
                )
                batch.members.append(request)
                batch.rows = int(X.shape[0])
                self._pending[key] = batch
                self._requests_batched += 1
                leader = True

        try:
            if leader:
                self._lead(key, batch, model)
            else:
                batch.done.wait()
        finally:
            with self._lock:
                self._inflight -= 1
        if request.error is not None:
            raise request.error
        if request.result is None:
            # The leader was torn down by a BaseException before it
            # could scatter results (its finally woke us regardless).
            raise BatchAbortedError(
                "micro-batch leader aborted before scattering results"
            )
        return request.result

    def stats(self) -> dict:
        """Telemetry counters (also surfaced under ``/metrics``)."""
        with self._lock:
            current = (
                self._controller.window()
                if self.policy == "adaptive"
                else self.window
            )
            return {
                "policy": self.policy,
                "window_ms": round(self.window * 1e3, 3),
                "current_window_ms": round(current * 1e3, 3),
                "queue_depth": self._inflight,
                "max_rows": self.max_rows,
                "requests_batched": self._requests_batched,
                "requests_direct": self._requests_direct,
                "batches_executed": self._batches_executed,
                "largest_batch_requests": self._largest_batch,
                "largest_batch_rows": self._largest_batch_rows,
            }

    # ------------------------------------------------------------------
    # Leader path
    # ------------------------------------------------------------------
    def _effective_window(self) -> float:
        """Seconds the next leader waits; caller holds the lock."""
        if self.policy == "adaptive":
            return self._controller.window()
        return self.window

    def _scored_direct(self, model, X: np.ndarray, trace) -> np.ndarray:
        """Bypass path: score synchronously, still profiled/traced."""
        profile = (
            EngineProfile()
            if self._on_execute is not None or trace.enabled
            else None
        )
        t_exec = time.perf_counter()
        try:
            if profile is None:
                return self._score_fn(model, X)
            with engineprof.activate(profile):
                return self._score_fn(model, X)
        finally:
            t_done = time.perf_counter()
            if trace.enabled:
                trace.add_span("execute", t_exec, t_done)
                trace.set_engine(profile.snapshot())
            if self._on_execute is not None:
                self._on_execute(profile)
            if trace.enabled:
                trace.add_span("engine_metrics", t_done, time.perf_counter())

    def _lead(self, key, batch: _Batch, model) -> None:
        """Wait out the window, close the batch, execute, scatter."""
        while not batch.full.is_set():
            remaining = batch.deadline - time.monotonic()
            if remaining <= 0:
                break
            batch.full.wait(remaining)
        with self._lock:
            batch.closed = True
            if self._pending.get(key) is batch:
                del self._pending[key]
            members = list(batch.members)
            self._batches_executed += 1
            self._batch_seq += 1
            batch_seq = self._batch_seq
            self._largest_batch = max(self._largest_batch, len(members))
            self._largest_batch_rows = max(
                self._largest_batch_rows, int(batch.rows)
            )
            # Queue pressure behind this batch: in-flight requests that
            # are not its own members (followers of other open batches
            # or fresh arrivals) drive the adaptive window.
            depth = max(0, self._inflight - len(members))
            self._controller.on_flush(len(members), int(batch.rows), depth)
            if self._on_flush is not None:
                self._on_flush(len(members), int(batch.rows))
        tracing = any(m.trace.enabled for m in members)
        profile = (
            EngineProfile()
            if self._on_execute is not None or tracing
            else None
        )
        t_exec = time.perf_counter()
        try:
            if profile is None:
                self._execute(model, members)
            else:
                with engineprof.activate(profile):
                    self._execute(model, members)
        finally:
            t_done = time.perf_counter()
            engine = profile.snapshot() if tracing else None
            if self._on_execute is not None:
                self._on_execute(profile)
            if tracing:
                # Followers sleep through the queue, execute and
                # engine-telemetry interval, so the leader stamps those
                # spans into every member's trace before waking them.
                t_recorded = time.perf_counter()
                batch_meta = {
                    "id": f"{os.getpid()}-{batch_seq}",
                    "requests": len(members),
                    "rows": int(batch.rows),
                }
                for member in members:
                    if not member.trace.enabled:
                        continue
                    member.trace.add_span("queue", member.t_submit, t_exec)
                    member.trace.add_span("execute", t_exec, t_done)
                    member.trace.add_span(
                        "engine_metrics", t_done, t_recorded
                    )
                    member.trace.set("batch", batch_meta)
                    member.trace.set_engine(engine)
            batch.done.set()

    def _execute(self, model, members: List[_Request]) -> None:
        """One merged call; per-request fallback on ordinary failure.

        Only :class:`Exception` triggers the N-way fallback loop — a
        ``KeyboardInterrupt``/``SystemExit`` mid-call must propagate
        (and reach the leader's caller) instead of being swallowed
        into N more scoring calls that would stall a shutdown.
        """
        if len(members) == 1:
            only = members[0]
            try:
                only.result = self._score_fn(model, only.X)
            except Exception as exc:
                only.error = exc
            return
        try:
            merged = self._score_fn(
                model, np.concatenate([m.X for m in members], axis=0)
            )
        except Exception:  # noqa: BLE001 - isolate the poisoned request
            # One request's rows made the merged call fail (NaN rows,
            # say).  Score each request alone so the error hits only
            # its owner, with the exact unbatched message.
            for member in members:
                try:
                    member.result = self._score_fn(model, member.X)
                except Exception as exc:
                    member.error = exc
            return
        offset = 0
        for member in members:
            n = member.X.shape[0]
            member.result = merged[offset:offset + n]
            offset += n
