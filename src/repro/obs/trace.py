"""Per-request tracing: spans, a ring buffer, and trace retrieval.

One request through the daemon crosses half a dozen subsystems —
admission, body parse, registry reload check, micro-batch queue, the
merged engine call, serialization — on at least two threads when
batching is on.  A :class:`Trace` collects named :class:`Span`
timings along that path; the :class:`Tracer` decides which requests
get one (always / every N-th / only for the access log), keeps the
most recent traces in a ring buffer served by
``GET /v1/debug/trace/<request-id>``, and optionally writes one JSON
line per request to an access log.

Zero-cost when off
------------------
The request path never branches on "is tracing on": it always talks
to a trace object.  When the request is not traced that object is
:data:`NULL_TRACE` — a module-level singleton whose ``span`` returns
one shared no-op context manager — so the untraced hot path costs a
handful of attribute lookups and **zero** allocations.  The benchmark
gate in ``benchmarks/test_bench_serving_obs.py`` holds this to <=2%
of request latency.

Multi-worker retrieval
----------------------
Under ``--workers N`` the worker that served a request and the worker
that answers ``/v1/debug/trace/<id>`` are usually different
processes.  Recorded traces are therefore also spilled as small JSON
files into a directory shared by the fleet (under the pool's metrics
tempdir); retrieval checks the local ring first, then the spill
directory.  Spill files are pruned oldest-first so the directory is
bounded like the ring.

Thread-safety: a single request's trace is written by its handler
thread and (for batched requests) the batch leader thread, but the
leader writes strictly before it wakes the follower (the batch's
``done`` event provides the happens-before edge), so :class:`Trace`
itself needs no lock.  The :class:`Tracer` ring takes one.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.core.exceptions import ConfigurationError

#: Trace ids are used as spill file names; accept exactly the token
#: shape the daemon's ``X-Request-Id`` contract guarantees (no path
#: separators, bounded length) and refuse anything else on lookup.
_SAFE_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Recognised sampling modes.
TRACE_MODES = ("off", "sampled", "on")

#: Default ring-buffer capacity (traces kept per worker).
DEFAULT_TRACE_BUFFER = 256

#: Default 1-in-N sampling rate for ``mode="sampled"``.
DEFAULT_SAMPLE_EVERY = 64

#: Prune the spill directory back to ring capacity once it exceeds
#: this multiple of it (amortises the directory listing).
_SPILL_SLACK = 2


class TraceError(ConfigurationError):
    """Invalid tracer configuration (mode, sample rate, capacity)."""


class Span:
    """One named, timed stage of a request (perf_counter endpoints)."""

    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: float, end: float):
        self.name = name
        self.start = start
        self.end = end


class _SpanTimer:
    """``with trace.span("parse"):`` — times the block into the trace."""

    __slots__ = ("_trace", "_name", "_start")

    def __init__(self, trace: "Trace", name: str):
        self._trace = trace
        self._name = name

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._trace.spans.append(
            Span(self._name, self._start, time.perf_counter())
        )


class _NullSpan:
    """Shared no-op span context manager (the allocation-free path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTrace:
    """No-op stand-in so the request path never branches on tracing.

    Every method returns immediately; ``span`` hands back one shared
    context manager.  There is exactly one instance,
    :data:`NULL_TRACE`.
    """

    __slots__ = ()
    enabled = False
    record = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, start: float, end: float) -> None:
        pass

    def set(self, key: str, value) -> None:
        pass

    def set_engine(self, snapshot: dict) -> None:
        pass


NULL_TRACE = NullTrace()


class Trace:
    """Span timings and annotations of one request.

    ``record`` distinguishes traces headed for the ring buffer from
    those created only so the access log can report per-stage timings
    (sampling missed, or tracing is off but ``--access-log`` is set).
    """

    __slots__ = (
        "request_id",
        "record",
        "started_wall",
        "t0",
        "spans",
        "meta",
        "endpoint",
        "path",
        "method",
        "status",
        "rows",
        "duration",
        "worker_slot",
    )

    enabled = True

    def __init__(self, request_id: str, record: bool = True):
        self.request_id = request_id
        self.record = record
        self.started_wall = time.time()
        self.t0 = time.perf_counter()
        self.spans: List[Span] = []
        self.meta: Dict[str, object] = {}
        self.endpoint: Optional[str] = None
        self.path: Optional[str] = None
        self.method: Optional[str] = None
        self.status: Optional[int] = None
        self.rows = 0
        self.duration: Optional[float] = None
        self.worker_slot: Optional[int] = None

    def span(self, name: str) -> _SpanTimer:
        """Context manager timing a block as one named span."""
        return _SpanTimer(self, name)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Attach a span timed externally (``time.perf_counter`` pair) —
        how the batch leader writes queue/execute spans into its
        followers' traces."""
        self.spans.append(Span(name, start, end))

    def set(self, key: str, value) -> None:
        """Attach an annotation (e.g. the batch id) to the trace."""
        self.meta[key] = value

    def set_engine(self, snapshot: dict) -> None:
        """Attach an engine-profile snapshot (see ``EngineProfile``)."""
        self.meta["engine"] = snapshot

    def stages_ms(self) -> Dict[str, float]:
        """Total milliseconds per span name (names may repeat)."""
        stages: Dict[str, float] = {}
        for span in self.spans:
            stages[span.name] = (
                stages.get(span.name, 0.0) + (span.end - span.start) * 1e3
            )
        return {name: round(ms, 4) for name, ms in stages.items()}

    def to_dict(self) -> dict:
        """The ``/v1/debug/trace/<id>`` payload (JSON-serialisable)."""
        payload = {
            "request_id": self.request_id,
            "ts": round(self.started_wall, 6),
            "method": self.method,
            "path": self.path,
            "endpoint": self.endpoint,
            "status": self.status,
            "rows": int(self.rows),
            "worker": self.worker_slot,
            "duration_ms": (
                None
                if self.duration is None
                else round(self.duration * 1e3, 4)
            ),
            "spans": [
                {
                    "name": span.name,
                    "start_ms": round((span.start - self.t0) * 1e3, 4),
                    "duration_ms": round((span.end - span.start) * 1e3, 4),
                }
                for span in self.spans
            ],
            "stages_ms": self.stages_ms(),
        }
        for key, value in self.meta.items():
            payload[key] = value
        return payload


class Tracer:
    """Decides which requests are traced; stores and serves the traces.

    Parameters
    ----------
    mode:
        ``"on"`` traces every request, ``"sampled"`` every
        ``sample_every``-th, ``"off"`` none — but when ``access_log``
        is set, *untraced* requests still get a throwaway
        :class:`Trace` (``record=False``) so every access-log line
        carries stage timings; only ring/spill storage follows the
        sampling decision.
    capacity:
        Ring-buffer size (most recent recorded traces kept in memory).
    spill_dir:
        Directory shared by the worker fleet; recorded traces are also
        written there as ``<request-id>.json`` so any worker can serve
        ``/v1/debug/trace/<id>``.  ``None`` keeps traces in-memory
        only (single-process mode).
    worker_slot:
        Stamped into every trace so an operator can see which worker
        served what.
    access_log:
        Optional :class:`~repro.obs.accesslog.AccessLog`.
    """

    def __init__(
        self,
        mode: str = "on",
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        capacity: int = DEFAULT_TRACE_BUFFER,
        spill_dir: Optional[str] = None,
        worker_slot: Optional[int] = None,
        access_log=None,
    ):
        if mode not in TRACE_MODES:
            raise TraceError(
                f"trace mode must be one of {TRACE_MODES}, got {mode!r}"
            )
        if int(sample_every) < 1:
            raise TraceError(
                f"trace sample_every must be >= 1, got {sample_every}"
            )
        if int(capacity) < 1:
            raise TraceError(f"trace capacity must be >= 1, got {capacity}")
        self.mode = mode
        self.sample_every = int(sample_every)
        self.capacity = int(capacity)
        self.spill_dir = str(spill_dir) if spill_dir is not None else None
        self.worker_slot = worker_slot
        self.access_log = access_log
        self._lock = threading.Lock()
        self._ring: "OrderedDict[str, dict]" = OrderedDict()
        self._seen = 0
        self._spilled = 0

    # ------------------------------------------------------------------
    # Request-path API
    # ------------------------------------------------------------------
    def begin(self, request_id: str, record_ok: bool = True):
        """A :class:`Trace` for this request, or :data:`NULL_TRACE`.

        ``record_ok=False`` excludes the request from ring storage
        whatever the mode (the debug endpoint itself uses it, so that
        polling for a trace cannot evict the trace being polled for).
        """
        if not record_ok:
            record = False
        elif self.mode == "on":
            record = True
        elif self.mode == "sampled":
            with self._lock:
                n = self._seen
                self._seen += 1
            record = n % self.sample_every == 0
        else:
            record = False
        if not record and self.access_log is None:
            return NULL_TRACE
        trace = Trace(request_id, record=record)
        trace.worker_slot = self.worker_slot
        return trace

    def finish(
        self,
        trace: Trace,
        endpoint: str,
        path: str,
        method: str,
        status: int,
        rows: int = 0,
    ) -> None:
        """Seal a trace: stamp the outcome, store it, log it."""
        trace.endpoint = endpoint
        trace.path = path
        trace.method = method
        trace.status = int(status)
        trace.rows = int(rows)
        trace.duration = time.perf_counter() - trace.t0
        payload = trace.to_dict()
        if trace.record:
            with self._lock:
                # Latest wins on id collision (a client reusing ids
                # gets its most recent request, the useful one).
                self._ring.pop(trace.request_id, None)
                self._ring[trace.request_id] = payload
                while len(self._ring) > self.capacity:
                    self._ring.popitem(last=False)
            if self.spill_dir is not None:
                self._spill(trace.request_id, payload)
        if self.access_log is not None:
            batch = payload.get("batch")
            self.access_log.write(
                {
                    "ts": payload["ts"],
                    "request_id": trace.request_id,
                    "method": method,
                    "path": path,
                    "endpoint": endpoint,
                    "status": int(status),
                    "duration_ms": payload["duration_ms"],
                    "rows": int(rows),
                    "worker": self.worker_slot,
                    "batch_id": (
                        batch.get("id") if isinstance(batch, dict) else None
                    ),
                    "stages_ms": trace.stages_ms(),
                }
            )

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def get(self, request_id: str) -> Optional[dict]:
        """The recorded trace for ``request_id``, if still retained."""
        if not _SAFE_ID_RE.match(request_id or ""):
            return None
        with self._lock:
            payload = self._ring.get(request_id)
        if payload is not None:
            return payload
        if self.spill_dir is None:
            return None
        try:
            with open(
                os.path.join(self.spill_dir, request_id + ".json"),
                encoding="utf-8",
            ) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def stats(self) -> dict:
        """Tracer gauges for the ``/metrics`` JSON payload."""
        with self._lock:
            buffered = len(self._ring)
        return {
            "mode": self.mode,
            "sample_every": self.sample_every,
            "capacity": self.capacity,
            "buffered": buffered,
            "access_log": self.access_log is not None,
        }

    # ------------------------------------------------------------------
    # Spill files (fleet-shared retrieval)
    # ------------------------------------------------------------------
    def _spill(self, request_id: str, payload: dict) -> None:
        final = os.path.join(self.spill_dir, request_id + ".json")
        tmp = f"{final}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, final)  # readers never see a partial file
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._spilled += 1
        if self._spilled % 32 == 0:
            self._prune_spill()

    def _prune_spill(self) -> None:
        """Bound the spill directory: drop oldest beyond capacity."""
        try:
            entries = [
                entry
                for entry in os.scandir(self.spill_dir)
                if entry.name.endswith(".json")
            ]
        except OSError:
            return
        if len(entries) <= self.capacity * _SPILL_SLACK:
            return

        def _mtime(entry) -> float:
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0

        entries.sort(key=_mtime)
        for entry in entries[: len(entries) - self.capacity]:
            try:
                os.unlink(entry.path)
            except OSError:
                pass
