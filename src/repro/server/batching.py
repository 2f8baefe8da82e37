"""Request micro-batching: coalesce small concurrent scoring calls.

PR 3's projection engine made one *large* scoring call cheap, which
moved the bottleneck for a busy daemon to the per-request overhead of
many *small* calls: each one pays engine compilation (an ``X @ C``
matmul on a handful of rows), a dozen tiny-array solver dispatches, and
the GIL churn of a dedicated handler thread.  A ranking service fed by
interactive clients sees exactly this shape — lots of concurrent 1-to-
16-row requests — so the daemon amortises them: requests for the same
model that queue up while an engine call for it is running are
concatenated into one :func:`~repro.serving.batch.score_batch` call and
the result is scattered back per request.

When batches form
-----------------
Each model key has at most one *open* batch.  A request that finds no
engine call running for its key scores at once, so an idle service
waits for nothing.  A request that finds one running opens (or joins)
the batch queued behind it; that batch executes as soon as the running
call finishes, the batch reaches ``max_rows``, or ``window`` seconds
pass, whichever comes first.  Batches therefore grow exactly as fast
as arrivals outpace the engine, and ``window`` only caps the wait.

Correctness contract
--------------------
Micro-batching is invisible in the responses, bit for bit:

* The projection solvers freeze each row at its *own* convergence
  (see :func:`repro.linalg.golden_section.golden_section_search_batch`
  and :meth:`repro.geometry.engine.CompiledProjection.newton_refine`),
  so a row's score does not depend on which other rows share its
  solve.  Concatenating requests therefore returns byte-identical
  scores to scoring each request alone — pinned by the randomized
  suite in ``tests/test_server_batching.py``.  The other pointwise
  families take their products over data rows in a fixed order too
  (:mod:`repro.linalg.rowwise`); ``tests/test_families.py`` pins every
  family bit-identical under any chunking.
* Requests are only merged when they share the model *object* (a hot
  reload mid-queue splits batches, never mixes models), the model's
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

A request waits at most ``window`` seconds before its batch executes;
``window=0`` disables coalescing entirely and every call scores
synchronously.
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

class BatchAbortedError(RuntimeError):
    """The batch leader died before scattering results.

    Raised to follower requests whose leader was torn down by a
    ``BaseException`` (``KeyboardInterrupt`` during the merged call,
    say) — the leader re-raises the original, followers get this.
    """


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
    """A micro-batch: members join while it waits behind a running call.

    ``ready`` wakes its leader to execute; ``done`` wakes the followers
    once results are scattered.
    """

    __slots__ = ("members", "rows", "ready", "done")

    def __init__(self, request: _Request):
        self.members: List[_Request] = [request]
        self.rows = int(request.X.shape[0])
        self.ready = threading.Event()
        self.done = threading.Event()


class MicroBatcher:
    """Coalesces concurrent scoring calls for the same model.

    Parameters
    ----------
    score_fn:
        ``score_fn(model, X) -> scores`` — the underlying scoring call
        (the daemon passes :func:`~repro.serving.batch.score_batch`).
    window:
        Cap in seconds on how long a batch waits behind the running
        call for its key.  ``0`` disables batching: every call runs
        ``score_fn`` directly.
    max_rows:
        Flush a batch as soon as it holds this many rows, and bypass
        batching for any single request at or above it.
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
    threads.  The caller that opens a batch for a (model, family,
    width) key becomes its *leader*: it executes at once if no call
    for the key is running, and otherwise waits on the batch's
    ``ready`` event, which the running call's leader sets as it
    finishes.  It then executes the merged call, scatters results, and
    wakes the followers, which were blocking on the batch's ``done``
    event.  No extra threads are created.
    """

    def __init__(
        self,
        score_fn: Callable[[object, np.ndarray], np.ndarray],
        window: float = 0.0,
        max_rows: int = DEFAULT_MAX_BATCH_ROWS,
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
        self._score_fn = score_fn
        self.window = window
        self.max_rows = max_rows
        self._on_flush = on_flush
        self._on_execute = on_execute
        self._lock = threading.Lock()
        # Per key: the open batch, and how many calls are executing.
        self._pending: Dict[Tuple[int, str, int], _Batch] = {}
        self._running: Dict[Tuple[int, str, int], int] = {}
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
        window plus the engine calls it waits on) and returns exactly
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
            self._requests_batched += 1
            batch = self._pending.get(key)
            if (
                batch is not None
                and batch.rows + X.shape[0] <= self.max_rows
            ):
                batch.members.append(request)
                batch.rows += X.shape[0]
                if batch.rows >= self.max_rows:
                    self._release(key, batch)
                leader = False
            else:
                if batch is not None:
                    # The open batch cannot take these rows; flush it
                    # early and queue a fresh one behind it.
                    self._release(key, batch)
                batch = _Batch(request)
                if self._running.get(key, 0):
                    # Queue behind the running call, which releases
                    # this batch when it finishes.
                    self._pending[key] = batch
                else:
                    self._release(key, batch)
                leader = True

        try:
            if leader:
                batch.ready.wait(self.window)
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
            return {
                "window_ms": round(self.window * 1e3, 3),
                "current_window_ms": round(self.window * 1e3, 3),
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

    def _release(self, key, batch: _Batch) -> None:
        """Let ``batch`` execute; caller holds the lock.

        A released batch leaves the open slot, so no request joins it
        any more, and counts as running for its key until its leader
        finishes.
        """
        if self._pending.get(key) is batch:
            del self._pending[key]
        self._running[key] = self._running.get(key, 0) + 1
        batch.ready.set()

    def _lead(self, key, batch: _Batch, model) -> None:
        """Execute a released batch, scatter, release the next one."""
        with self._lock:
            if self._pending.get(key) is batch:
                # The window ran out before the running call finished.
                self._release(key, batch)
            members = list(batch.members)
            self._batches_executed += 1
            self._batch_seq += 1
            batch_seq = self._batch_seq
            self._largest_batch = max(self._largest_batch, len(members))
            self._largest_batch_rows = max(
                self._largest_batch_rows, int(batch.rows)
            )
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
            with self._lock:
                running = self._running[key] - 1
                if running:
                    self._running[key] = running
                else:
                    del self._running[key]
                queued = self._pending.get(key)
                if queued is not None:
                    self._release(key, queued)
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
