"""The scoring daemon: a stdlib-only JSON-over-HTTP server.

A fitted model is a tiny object, but PR 1's serving path still paid a
process start and a model load per scoring run.  This module keeps
models resident behind a long-running
:class:`http.server.ThreadingHTTPServer` — one OS thread per
connection, models shared through a :class:`ModelRegistry`, large
bodies dispatched through chunked :func:`score_batch`.  Any registered
model family (:mod:`repro.families`) serves through the same
endpoints; the ``engine`` metrics block applies to the Bézier ``rpc``
family only.
No third-party dependencies.

Endpoints
---------
``GET /healthz``
    Liveness: ``{"status": "ok", "models": [...]}``.
``GET /metrics``
    Request counts, latency percentiles and rows-scored totals.
``GET /v1/models``
    Registry listing (path, format, family, attribute names, reload
    state).
``GET /v1/models/<name>``
    One registry entry, same shape as the listing's entries.
``POST /v1/models/<name>/score``
    Body ``{"row": [..]}`` for one object or ``{"rows": [[..], ..]}``
    for a batch; returns scores aligned with the input order.
``POST /v1/models/<name>/rank``
    Like ``score`` with optional ``"labels"``; returns the full
    ranking list, best first.
``POST /v1/models/<name>/rank-shard``
    Distributed-rank worker half (see :mod:`repro.sharding`): body
    ``{"rows": [[..], ..], "labels": [..], "row_offset": N}`` scores
    one contiguous block of a larger job and returns the block sorted
    in the :mod:`repro.serving.extsort` run-file format
    (``application/octet-stream``), with global row indices offset by
    ``row_offset`` so runs from disjoint blocks k-way merge into
    exactly the single-box ranking.  Families whose scores are
    batch-relative (``pointwise_scores = False``) are refused with
    ``422`` — splitting their batches would change the scores.

Error contract: malformed JSON or a body of the wrong shape is ``400``;
an unregistered model name is ``404``; structurally valid input the
model rejects (wrong attribute count, NaN) is ``422``; a registered but
unfitted model is ``409``; any method but GET and POST is ``405`` with
an ``Allow: GET, POST`` header; a body that stalls past the keep-alive
timeout is ``408`` (and closes the connection); a scoring request shed
by admission control (:mod:`repro.server.admission`) is ``429`` with a
``Retry-After`` header (and closes the connection without reading the
body).  Every error body is ``{"error": "..."}``.

Request tracing: every response carries an ``X-Request-Id`` header —
the client's own header echoed when it looks like a sane trace token,
a generated id otherwise — and failed requests are recorded with their
id in the bounded ``recent_errors`` window of ``GET /metrics``.

Usage
-----
>>> from repro.server import ModelRegistry, ScoringHTTPServer
>>> registry = ModelRegistry()
>>> _ = registry.register("demo", "model.json")      # doctest: +SKIP
>>> server = ScoringHTTPServer(("127.0.0.1", 0), registry)  # doctest: +SKIP
>>> server.serve_forever()                           # doctest: +SKIP

or, from the shell::

    python -m repro serve --model demo=model.json --port 8000
"""

from __future__ import annotations

import json
import math
import re
import socket
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.core.scoring import build_ranking_list
from repro.obs import engineprof
from repro.obs.engineprof import EngineProfile
from repro.obs.histogram import (
    BATCH_FILL_BUCKETS,
    HISTOGRAM_FORMAT_VERSION,
    LATENCY_BUCKET_BOUNDS,
)
from repro.obs.prometheus import MetricFamily, render_exposition
from repro.obs.trace import NULL_TRACE, Tracer
from repro.server.admission import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_RETRY_AFTER,
    AdmissionController,
    RequestShed,
)
from repro.server.batching import MicroBatcher
from repro.server.metrics import ServerMetrics
from repro.server.registry import ModelRegistry, UnknownModelError
from repro.serving.batch import _validate_chunk_size, score_batch
from repro.serving.extsort import pack_run_bytes

#: ``/v1/models/<name>/score``, ``.../rank`` and ``.../rank-shard``.
_MODEL_ROUTE = re.compile(r"^/v1/models/([^/]+)/(score|rank-shard|rank)$")

#: ``/v1/models/<name>`` — one registry entry's description.
_MODEL_INFO_ROUTE = re.compile(r"^/v1/models/([^/]+)$")

#: ``/v1/debug/trace/<request-id>`` — trace retrieval.
_TRACE_ROUTE_PREFIX = "/v1/debug/trace/"

#: Client-supplied ``X-Request-Id`` values are echoed only when they
#: look like sane trace tokens; anything else (empty, oversized,
#: header-splitting characters) is replaced with a generated id.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Reject request bodies beyond this size (64 MiB ≈ 2M rows at d=4)
#: before reading them; protects the daemon from accidental uploads.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _validate_keepalive_timeout(keepalive_timeout) -> None:
    """``keepalive_timeout=0`` is a footgun, not "no timeout".

    The handler installs the value as the socket timeout for the
    next-request read *and* as the whole-body deadline — with ``0`` the
    socket goes non-blocking (every read raises immediately) and any
    non-trivial upload 408s on arrival, and ``settimeout`` raises on
    ``inf``, dropping every connection.  Reject non-positive and
    non-finite values at construction instead of booting a daemon that
    fails every request.
    """
    if not 0 < float(keepalive_timeout) < math.inf:
        raise ConfigurationError(
            f"keepalive_timeout must be finite and > 0 seconds, got "
            f"{keepalive_timeout} (use a large value for an effectively "
            f"unbounded idle timeout)"
        )


class _PlainText(str):
    """Marker type: a handler payload sent as text, not JSON — how the
    Prometheus exposition travels through ``_handle``'s common
    record-then-respond path."""

    content_type = "text/plain; version=0.0.4; charset=utf-8"


class _RunBytes(bytes):
    """Marker type: a handler payload sent verbatim as binary — how a
    shard's sorted run file travels through ``_handle``'s common
    record-then-respond path."""

    content_type = "application/octet-stream"


class _RequestError(Exception):
    """Internal: an error with a definite HTTP status."""

    def __init__(
        self, status: int, message: str, headers: Optional[dict] = None
    ):
        super().__init__(message)
        self.status = status
        self.headers = headers


class ScoringHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to a model registry.

    Parameters
    ----------
    address:
        ``(host, port)``; port ``0`` binds an ephemeral port (the
        chosen one is in ``server_address`` — handy for tests).
    registry:
        The models to serve; may be hot-reloaded while running.
    chunk_size:
        Rows per projection chunk for batch bodies (``None`` uses the
        :mod:`repro.serving.batch` default).
    metrics:
        Optional :class:`ServerMetrics`; a fresh one (over a one-slot
        in-memory store) otherwise.  A :mod:`repro.server.pool` worker
        replaces it after the fork with one writing its slot of the
        fleet's shared store.
    batch_window:
        Cap in seconds on how long a small scoring request may wait to
        be coalesced with concurrent ones into a single engine call
        (the micro-batcher, :mod:`repro.server.batching`).  ``0`` (the
        default) scores every request synchronously.
    max_batch_rows:
        Row bound per micro-batch; requests at or above it bypass
        coalescing.
    batch_policy:
        ``"adaptive"`` (default) lets the effective window float
        between zero (idle) and ``batch_window`` (saturated) with
        queue pressure; ``"fixed"`` always waits the full window.
        The batcher checks all three knobs even when ``batch_window``
        is ``0``, so a bad value fails construction either way.
    max_inflight / max_inflight_per_model / retry_after:
        Admission control (:mod:`repro.server.admission`): scoring
        requests beyond ``max_inflight`` (or a model's quota) are shed
        with ``429`` and a ``Retry-After: <retry_after>`` header
        instead of queueing unboundedly.  ``0`` disables a bound.
    keepalive_timeout:
        Seconds an idle keep-alive connection may sit between requests
        before its handler thread closes it; also bounds how long a
        graceful drain can wait on idle connections.  Must be > 0 —
        the body-read path uses it as a socket timeout, where ``0``
        means *non-blocking*, so a zero here would instantly 408 any
        non-trivial upload.  For "effectively no timeout", pass a
        large value.
    listen_backlog:
        Pending-connection bound handed to ``listen(2)`` — the accept
        queue half of admission control (connections beyond it are
        refused by the kernel instead of queueing unboundedly).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When given,
        requests get per-stage span traces (per the tracer's sampling
        mode) retrievable via ``GET /v1/debug/trace/<request-id>``,
        and the tracer's access log (if any) receives one JSON line
        per request.  ``None`` (the default) keeps the request path
        exactly as it was before tracing existed.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        registry: ModelRegistry,
        chunk_size: Optional[int] = None,
        metrics: Optional[ServerMetrics] = None,
        batch_window: float = 0.0,
        max_batch_rows: Optional[int] = None,
        batch_policy: str = "adaptive",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_inflight_per_model: int = 0,
        retry_after: float = DEFAULT_RETRY_AFTER,
        keepalive_timeout: float = 30.0,
        listen_backlog: int = 128,
        tracer: Optional[Tracer] = None,
    ):
        # Fail fast on misconfiguration: a daemon that boots "healthy"
        # and then 400s every scoring request blames the client for an
        # operator mistake.  Validate before binding the socket.
        _validate_chunk_size(chunk_size)
        _validate_keepalive_timeout(keepalive_timeout)
        if int(listen_backlog) < 1:
            raise ConfigurationError(
                f"listen_backlog must be >= 1, got {listen_backlog}"
            )
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_inflight_per_model=max_inflight_per_model,
            retry_after=retry_after,
        )
        # Every request scores through the batcher, which scores
        # synchronously while its window is 0.  ``batcher`` publishes it
        # to ``/metrics`` only when batching is on.
        self._batcher = MicroBatcher(
            lambda model, X: score_batch(
                model, X, chunk_size=self.chunk_size
            ),
            window=batch_window,
            policy=batch_policy,
            on_flush=self._record_batch_flush,
            on_execute=self._record_engine_profile,
            **(
                {"max_rows": max_batch_rows}
                if max_batch_rows is not None
                else {}
            ),
        )
        self.batcher: Optional[MicroBatcher] = (
            self._batcher if self._batcher.window > 0 else None
        )
        self.request_queue_size = int(listen_backlog)
        super().__init__(address, ScoringRequestHandler)
        self.registry = registry
        self.chunk_size = chunk_size
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: The pool worker's slot number, stamped after the fork;
        #: ``None`` in a single-process daemon.  Gates the pool-only
        #: ``workers`` and ``micro_batcher_fleet`` fragments of
        #: ``/metrics``.
        self.worker_slot: Optional[int] = None
        self.tracer = tracer
        self.keepalive_timeout = float(keepalive_timeout)
        self._draining = threading.Event()
        self._handlers_lock = threading.Lock()
        self._handlers: set = set()

    def _record_batch_flush(self, n_requests: int, n_rows: int) -> None:
        self.metrics.observe_batch(n_requests, n_rows)

    def _record_engine_profile(self, profile: EngineProfile) -> None:
        self.metrics.observe_engine(profile)

    @property
    def is_draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Start winding down every open connection.

        Two halves: responses sent from now on carry ``Connection:
        close`` (so busy connections end after their in-flight
        request), and connections currently *idle between requests* —
        handler threads parked in the next-request read, which would
        otherwise only wake at ``keepalive_timeout`` and hold up the
        thread join in ``server_close()`` — get their read side shut
        down, which surfaces as a clean EOF to the parked thread.  A
        request whose headers have been received (the handler has
        dispatched into ``do_GET``/``do_POST``) is never touched —
        its body may still be arriving and it drains by finishing —
        while a connection still transmitting its request line or
        headers when the drain starts is closed, like any other idle
        connection.  Called by the graceful-shutdown path before
        ``shutdown()`` / ``server_close()``.
        """
        self._draining.set()
        with self._handlers_lock:
            parked = [
                handler
                for handler in self._handlers
                if getattr(handler, "_between_requests", False)
            ]
        for handler in parked:
            try:
                handler.connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closing on its own

    def _track_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.add(handler)

    def _untrack_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def score(self, model, X: np.ndarray, trace=NULL_TRACE) -> np.ndarray:
        """Score a request body through the micro-batcher (synchronous
        while its window is 0).

        ``trace`` (a recording :class:`~repro.obs.trace.Trace` or the
        no-op :data:`NULL_TRACE`) receives queue/execute spans and the
        engine-profile snapshot for this request.
        """
        return self._batcher.score(model, X, trace)


class ScoringRequestHandler(BaseHTTPRequestHandler):
    """Routes requests against the owning :class:`ScoringHTTPServer`."""

    server: ScoringHTTPServer
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # Idle keep-alive connections must not pin handler threads
        # forever: the read for the *next* request on a kept-alive
        # connection times out after ``keepalive_timeout`` seconds
        # (``handle_one_request`` then closes the connection).  A
        # graceful drain does not wait for that: the server tracks
        # handlers so ``begin_drain`` can wake the parked ones now.
        self.timeout = self.server.keepalive_timeout
        self._between_requests = True
        super().setup()
        self.server._track_handler(self)

    def finish(self) -> None:
        self.server._untrack_handler(self)
        super().finish()

    def handle_one_request(self) -> None:
        # Mark parked *before* checking the drain flag: whichever of
        # this thread and ``begin_drain`` runs second then sees the
        # other's write — either the drain scan finds the flag and
        # shuts this connection's read side, or this check sees the
        # drain and exits — so a connection can never slip between the
        # one-shot scan and the park.
        self._between_requests = True
        if self.server.is_draining:
            # Never park waiting for another request — any connection
            # reaching this point either already got its
            # ``Connection: close`` response or connected after the
            # drain began, and closing beats holding the join hostage.
            self.close_connection = True
            return
        super().handle_one_request()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._between_requests = False  # in a request: drain must wait
        self._request_id = self._resolve_request_id()
        path = urlsplit(self.path).path
        # The debug endpoint is excluded from ring storage so polling
        # for a trace can never evict the trace being polled for.
        self._trace = self._begin_trace(
            record_ok=not path.startswith(_TRACE_ROUTE_PREFIX)
        )
        if path == "/healthz":
            self._handle("GET /healthz", self._get_healthz)
        elif path == "/metrics":
            self._handle("GET /metrics", self._get_metrics)
        elif path == "/v1/models":
            self._handle("GET /v1/models", self._get_models)
        elif path.startswith(_TRACE_ROUTE_PREFIX):
            self._handle(
                "GET /v1/debug/trace/{id}", lambda: self._get_trace(path)
            )
        elif _MODEL_ROUTE.match(path):
            self._handle("GET (scoring route)", self._get_scoring_route)
        elif _MODEL_INFO_ROUTE.match(path):
            name = _MODEL_INFO_ROUTE.match(path).group(1)
            self._handle(
                "GET /v1/models/{name}",
                lambda: self._get_model_info(name),
            )
        else:
            self._handle("GET (unrouted)", self._no_route)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._between_requests = False  # in a request: drain must wait
        self._request_id = self._resolve_request_id()
        self._trace = self._begin_trace()
        path = urlsplit(self.path).path
        match = _MODEL_ROUTE.match(path)
        if match is None:
            self._handle("POST (unrouted)", self._post_no_route)
            return
        name, action = match.group(1), match.group(2)
        endpoint = f"POST /v1/models/{{name}}/{action}"
        self._handle(endpoint, lambda: self._post_model(name, action))

    def __getattr__(self, name: str):
        # ``http.server`` dispatches a request to ``do_<METHOD>``; every
        # method but GET and POST lands here instead of on its stock
        # 501 page, so it is answered, traced and counted like any
        # other request.
        if name.startswith("do_"):
            return self._do_unsupported
        raise AttributeError(name)

    def _do_unsupported(self) -> None:
        self._between_requests = False  # in a request: drain must wait
        self._request_id = self._resolve_request_id()
        self._trace = self._begin_trace()
        self._handle("other", self._method_not_allowed)

    def _method_not_allowed(self) -> Tuple[int, dict, int]:
        self._drain_body()
        raise _RequestError(
            405,
            f"method {self.command} not allowed; use GET or POST",
            headers={"Allow": "GET, POST"},
        )

    def _begin_trace(self, record_ok: bool = True):
        """This request's trace — :data:`NULL_TRACE` unless a tracer is
        configured (so a daemon without one runs the pre-tracing path
        untouched)."""
        tracer = self.server.tracer
        if tracer is None:
            return NULL_TRACE
        return tracer.begin(self._request_id, record_ok=record_ok)

    def _get_scoring_route(self) -> Tuple[int, dict, int]:
        raise _RequestError(
            405, "use POST for scoring endpoints", headers={"Allow": "POST"}
        )

    def _no_route(self) -> Tuple[int, dict, int]:
        raise _RequestError(
            404, f"no route for {urlsplit(self.path).path!r}"
        )

    def _post_no_route(self) -> Tuple[int, dict, int]:
        self._drain_body()
        raise _RequestError(
            404, f"no route for {urlsplit(self.path).path!r}"
        )

    def _resolve_request_id(self) -> str:
        """Echo a sane client ``X-Request-Id``; generate one otherwise.

        Every response carries the resolved id back in its
        ``X-Request-Id`` header, and failed requests are recorded with
        it in the ``/metrics`` error window — so a client log line and
        a daemon-side error can be joined on the id whichever side
        minted it.
        """
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        if _REQUEST_ID_RE.match(supplied):
            return supplied
        return uuid.uuid4().hex

    # ------------------------------------------------------------------
    # Handlers (each returns ``(status, payload, rows_scored)``)
    # ------------------------------------------------------------------
    def _get_healthz(self) -> Tuple[int, dict, int]:
        return 200, {
            "status": "ok",
            "models": self.server.registry.names(),
        }, 0

    def _get_metrics(self) -> Tuple[int, dict, int]:
        if self._wants_prometheus():
            return 200, _PlainText(_prometheus_exposition(self.server)), 0
        server = self.server
        store = server.metrics.store
        # Counters, percentiles, engine and batch-fill numbers are the
        # store's merged view: fleet-wide under ``--workers N``, the one
        # slot otherwise.  ``recent_errors``, ``families`` and
        # ``uptime_seconds`` are this process's own.
        snapshot = server.metrics.snapshot()
        if server.worker_slot is not None:
            fleet = store.merged_fleet()
            fleet["workers"]["serving_slot"] = server.worker_slot
            snapshot.update(fleet)
        if server.batcher is not None:
            snapshot["micro_batcher"] = server.batcher.stats()
            fill_counts, fill_requests = store.merged_batch_fill()
            snapshot["batch_fill"] = {
                "buckets": [int(b) for b in BATCH_FILL_BUCKETS],
                "counts": [int(c) for c in fill_counts],
                "requests_in_batches": int(fill_requests),
            }
        snapshot["admission"] = server.admission.stats()
        # Additive observability keys (the pre-existing key set above
        # is pinned byte-compatible by the test suite).
        snapshot["engine"] = self._engine_json()
        snapshot["families"] = server.metrics.families()
        snapshot["registry"] = server.registry.stats()
        snapshot["latency_histograms"] = self._latency_histograms_json()
        if server.tracer is not None:
            snapshot["tracer"] = server.tracer.stats()
        return 200, snapshot, 0

    def _engine_json(self) -> dict:
        """Solver telemetry summed over the store's slots."""
        cells = self.server.metrics.store.merged_engine()
        out = {
            key: round(value, 6) if key.endswith("_seconds") else value
            for key, value in sorted(cells.items())
        }
        hits = cells["warm_start_hits"]
        misses = cells["warm_start_misses"]
        if hits or misses:
            out["warm_start_hit_rate"] = round(hits / (hits + misses), 4)
        return out

    def _latency_histograms_json(self) -> dict:
        """Exact per-endpoint latency buckets (additive /metrics key).

        The raw fixed log-spaced bucket counts plus the sum of
        observed seconds — the same cells the Prometheus exposition
        renders and the JSON percentiles are estimated from.  Bucket
        counts are plain sums, so a shard coordinator can roll up a
        fleet of daemons *exactly* (sum the buckets, recompute
        percentiles) instead of averaging percentiles, which is how
        :mod:`repro.sharding.rollup` builds the coordinator
        ``/metrics`` view.
        """
        pairs = self.server.metrics.store.merged_histograms()
        return {
            "format_version": HISTOGRAM_FORMAT_VERSION,
            "endpoints": {
                endpoint: {
                    "buckets": [int(count) for count in counts],
                    "sum_seconds": float(sum_seconds),
                }
                for endpoint, (counts, sum_seconds) in sorted(pairs.items())
            },
        }

    def _wants_prometheus(self) -> bool:
        """Content negotiation for ``/metrics``: an explicit
        ``?format=`` wins; otherwise ``Accept: text/plain`` (without
        ``application/json``) selects the exposition format."""
        query = parse_qs(urlsplit(self.path).query)
        fmt = (query.get("format") or [""])[-1].lower()
        if fmt:
            return fmt == "prometheus"
        accept = self.headers.get("Accept") or ""
        return "text/plain" in accept and "application/json" not in accept

    def _get_trace(self, path: str) -> Tuple[int, dict, int]:
        tracer = self.server.tracer
        if tracer is None:
            raise _RequestError(
                404,
                "tracing is not enabled (start the daemon with --trace)",
            )
        request_id = path[len(_TRACE_ROUTE_PREFIX):]
        payload = tracer.get(request_id)
        if payload is None:
            raise _RequestError(
                404,
                f"no trace retained for request id {request_id!r} "
                f"(evicted, unsampled, or never seen)",
            )
        return 200, {"trace": payload}, 0

    def _get_models(self) -> Tuple[int, dict, int]:
        return 200, {"models": self.server.registry.describe()}, 0

    def _get_model_info(self, name: str) -> Tuple[int, dict, int]:
        # Same per-entry shape as the /v1/models listing, but resolved
        # through the registry's hot-reload path so the answer reflects the
        # model that the next scoring request would actually use.
        try:
            entry = self.server.registry.describe_one(name)
        except UnknownModelError as exc:
            raise _RequestError(404, str(exc)) from None
        return 200, entry, 0

    def _post_model(self, name: str, action: str) -> Tuple[int, dict, int]:
        # Admission control runs before the body is even read: a shed
        # must be cheap, so the 429 goes out immediately and the
        # connection closes instead of draining an arbitrarily large
        # upload just to refuse it.
        admission = self.server.admission
        trace = self._trace
        with trace.span("admission"):
            try:
                admission.acquire(name)
            except RequestShed as exc:
                self.close_connection = True
                raise _RequestError(
                    429,
                    str(exc),
                    headers={"Retry-After": admission.retry_after_header()},
                ) from None
        try:
            return self._post_model_admitted(name, action)
        finally:
            admission.release(name)

    def _post_model_admitted(
        self, name: str, action: str
    ) -> Tuple[int, dict, int]:
        trace = self._trace
        with trace.span("parse"):
            body = self._read_json_body()
        with trace.span("registry"):
            try:
                model = self.server.registry.get(name)
            except UnknownModelError as exc:
                raise _RequestError(404, str(exc)) from None
        # Counted after the registry resolves the name, so 404s and
        # admission sheds never inflate a family's request count.
        self.server.metrics.observe_family(
            getattr(model, "family", type(model).__name__)
        )

        with trace.span("validate"):
            X, single, labels = self._parse_scoring_body(body, action)
            row_offset = 0
            if action == "rank-shard":
                if single:
                    raise _RequestError(
                        400, "rank-shard requires 'rows' (a block), not 'row'"
                    )
                row_offset = self._parse_row_offset(body)
                if not getattr(model, "pointwise_scores", True):
                    # Batch-relative families (rank aggregators) score a
                    # row against the whole batch; scoring a shard's
                    # slice would silently change every score, so the
                    # coordinator must keep these single-box.
                    raise _RequestError(
                        422,
                        f"model {name!r} "
                        f"(family {getattr(model, 'family', '?')}) scores "
                        f"batch-relatively (pointwise_scores=False) and "
                        f"cannot be sharded",
                    )
        if X.shape[0] == 0 and not model.is_fitted:
            # An empty batch skips score_batch (nothing to score), but
            # the documented taxonomy still promises 409 for unfitted
            # models — an empty probe must not report "servable".
            raise _RequestError(
                409, str(NotFittedError(type(model).__name__))
            )
        try:
            scores = self.server.score(model, X, trace)
        except NotFittedError as exc:
            raise _RequestError(409, str(exc)) from None
        except DataValidationError as exc:
            raise _RequestError(422, str(exc)) from None

        n = int(X.shape[0])
        if action == "score":
            payload: dict = {"model": name, "n": n, "scores": scores.tolist()}
            if single:
                payload["score"] = float(scores[0])
            return 200, payload, n
        if action == "rank-shard":
            # Ship the block back already sorted, as one extsort run
            # file with *global* row indices: the coordinator adopts
            # the bytes verbatim and k-way merges runs from every
            # shard into exactly the ranking one box would produce
            # (same rank_entry_key tie-break end to end).
            if labels is None:
                labels = [str(row_offset + idx) for idx in range(n)]
            run = pack_run_bytes(labels, scores, base_row=row_offset)
            return 200, _RunBytes(run), n
        ranking = build_ranking_list(scores, labels=labels)
        entries = [
            {
                "position": int(ranking.positions[idx]),
                "label": (
                    ranking.labels[idx] if ranking.labels else str(int(idx))
                ),
                "score": float(ranking.scores[idx]),
            }
            for idx in ranking.order
        ]
        return 200, {"model": name, "n": n, "ranking": entries}, n

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            self.close_connection = True
            raise _RequestError(411, "Content-Length required")
        try:
            n_bytes = int(length)
        except ValueError:
            self.close_connection = True
            raise _RequestError(400, f"bad Content-Length {length!r}") from None
        if n_bytes < 0:
            # read(-1) would block until EOF, pinning this thread.
            self.close_connection = True
            raise _RequestError(400, f"bad Content-Length {length!r}")
        if n_bytes > MAX_BODY_BYTES:
            # Erroring without consuming the body would desync a
            # keep-alive connection, so close it after responding.
            self.close_connection = True
            raise _RequestError(
                413, f"body of {n_bytes} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self._read_body_bytes(n_bytes)
        try:
            body = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _RequestError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _RequestError(
                400, "body must be a JSON object with 'row' or 'rows'"
            )
        return body

    def _read_body_bytes(self, n_bytes: int) -> bytes:
        """Read exactly ``n_bytes`` of body under the whole-body deadline.

        Bounds the *whole* read by the keep-alive timeout, not just
        each recv: a client dripping one chunk every few seconds would
        otherwise evade the per-recv socket timeout and pin this
        handler thread (and any graceful drain, which deliberately
        never cuts an in-request connection) for as long as it
        pleases.  On timeout the client gets a definite 408 and the
        connection closes — responding and then reusing a half-read
        connection would desync keep-alive framing.  A client that
        closes early returns the short read (callers decide: JSON
        parsing 400s, the drain path closes the connection).
        """
        deadline = time.monotonic() + self.server.keepalive_timeout
        parts = []
        remaining = n_bytes
        try:
            while remaining > 0:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TimeoutError
                self.connection.settimeout(budget)
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break  # client closed early
                parts.append(chunk)
                remaining -= len(chunk)
        except TimeoutError:
            self.close_connection = True
            raise _RequestError(
                408,
                f"timed out reading the request body "
                f"({self.server.keepalive_timeout:g}s)",
            ) from None
        finally:
            self.connection.settimeout(self.server.keepalive_timeout)
        return b"".join(parts)

    @staticmethod
    def _parse_row_offset(body: dict) -> int:
        """The shard block's global index of row 0 (``row_offset``)."""
        value = body.get("row_offset", 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise _RequestError(
                400, f"'row_offset' must be a non-negative integer, "
                f"got {value!r}"
            )
        return value

    @staticmethod
    def _parse_scoring_body(
        body: dict, action: str
    ) -> Tuple[np.ndarray, bool, Optional[list]]:
        """Extract ``(X, is_single_row, labels)`` from a request body."""
        if ("row" in body) == ("rows" in body):
            raise _RequestError(
                400, "provide exactly one of 'row' or 'rows'"
            )
        single = "row" in body
        rows = body["row"] if single else body["rows"]
        try:
            X = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise _RequestError(
                400, f"'{'row' if single else 'rows'}' must be numeric: {exc}"
            ) from None
        if single:
            if X.ndim != 1:
                raise _RequestError(
                    400, f"'row' must be a flat list, got ndim={X.ndim}"
                )
            X = X[np.newaxis, :]
        elif rows == []:
            # An empty batch is a valid no-op (zero rows, zero scores);
            # the labels rules below still apply to it.
            X = np.empty((0, 0))
        elif X.ndim != 2:
            raise _RequestError(
                400,
                "'rows' must be a list of equal-length numeric lists, "
                f"got ndim={X.ndim}",
            )
        labels = body.get("labels")
        if labels is not None:
            if action not in ("rank", "rank-shard"):
                raise _RequestError(
                    400, "'labels' is only accepted by the rank endpoints"
                )
            if not isinstance(labels, list) or len(labels) != X.shape[0]:
                raise _RequestError(
                    400,
                    f"'labels' must list one name per row "
                    f"({X.shape[0]} rows)",
                )
            labels = [str(label) for label in labels]
        return X, single, labels

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _handle(self, endpoint: str, handler) -> None:
        """Run ``handler``, send its response, record metrics either way."""
        trace = getattr(self, "_trace", NULL_TRACE)
        started = time.perf_counter()
        rows = 0
        headers: Optional[dict] = None
        try:
            status, payload, rows = handler()
        except _RequestError as exc:
            status, payload = exc.status, {"error": str(exc)}
            headers = exc.headers
        except (ConfigurationError, DataValidationError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            status, payload = 500, {"error": f"internal error: {exc}"}
        # Record before responding: a client that sees the response and
        # immediately reads /metrics must find this request counted.
        with trace.span("metrics"):
            self.server.metrics.observe(
                endpoint,
                status,
                time.perf_counter() - started,
                rows=rows,
                request_id=getattr(self, "_request_id", None),
            )
        # Serialize (timed), then seal the trace *before* writing the
        # response: a client that sees its response and immediately
        # fetches /v1/debug/trace/<id> must find the trace retained —
        # same reason metrics above record before responding.
        with trace.span("serialize"):
            if isinstance(payload, _PlainText):
                body = str(payload).encode("utf-8")
                content_type = _PlainText.content_type
            elif isinstance(payload, _RunBytes):
                body = bytes(payload)
                content_type = _RunBytes.content_type
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
        if trace.enabled:
            self.server.tracer.finish(
                trace,
                endpoint,
                urlsplit(self.path).path,
                self.command,
                status,
                rows=rows,
            )
        self._send_body(status, body, content_type, headers)

    def _drain_body(self) -> None:
        """Consume an unrouted request's body so keep-alive stays sane.

        Two hazards live here, both once-shipped bugs.  First, the
        drain must run under the same whole-body deadline as
        :meth:`_read_json_body` — a client POSTing to an unrouted path
        and dripping bytes would otherwise pin this handler thread
        indefinitely (the 408 from :meth:`_read_body_bytes` propagates
        to the client and closes the connection).  Second, whenever the
        body is *not* fully consumed — unparseable or negative
        ``Content-Length``, a body beyond :data:`MAX_BODY_BYTES` that
        is deliberately never read, or a client that hung up early —
        the connection must close: answering and then reusing the
        socket would hand the undrained body bytes to the keep-alive
        parser as the next request line (framing desync).
        """
        try:
            n_bytes = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if n_bytes < 0 or n_bytes > MAX_BODY_BYTES:
            self.close_connection = True
            return
        if n_bytes and len(self._read_body_bytes(n_bytes)) != n_bytes:
            self.close_connection = True

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        if self.server.is_draining:
            # Graceful shutdown: finish this response, then close the
            # connection instead of waiting for another request on it.
            self.close_connection = True
            self.send_header("Connection", "close")
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        # Headers and body leave in one write: sent apart, Nagle's
        # algorithm holds the body until the client's delayed ACK of
        # the headers, ~40 ms on every keep-alive response.  A HEAD
        # response carries the headers only.
        self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(body)
        self.flush_headers()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log; /metrics covers it."""


# ----------------------------------------------------------------------
# Prometheus exposition (``GET /metrics?format=prometheus``)
# ----------------------------------------------------------------------
def _prometheus_exposition(server: ScoringHTTPServer) -> str:
    """The scrape body: counters and histograms summed over the
    store's slots (fleet-wide under ``--workers N``; worker slots sum
    exactly because every series is a plain count — see
    :mod:`repro.server.metrics`).

    Registry, admission, batcher and tracer gauges are per-worker
    (whichever worker answered the scrape); the HELP strings say so.
    """
    metrics = server.metrics
    store = metrics.store
    totals = store.merged_totals()
    endpoints = {
        label: entry["by_status"]
        for label, entry in totals["endpoints"].items()
    }
    histograms = store.merged_histograms()
    engine = store.merged_engine()
    fill_counts, fill_sum = store.merged_batch_fill()

    families = []

    requests = MetricFamily(
        "repro_requests_total",
        "counter",
        "Requests handled, by endpoint pattern and response status.",
    )
    for label in sorted(endpoints):
        for status, count in sorted(endpoints[label].items()):
            requests.add_sample(
                count, {"endpoint": label, "status": str(status)}
            )
    families.append(requests)

    for name, value, help_text in (
        (
            "repro_rows_scored_total",
            totals["rows_scored_total"],
            "Observations scored across all scoring requests.",
        ),
        (
            "repro_errors_total",
            totals["errors_total"],
            "Requests answered with status >= 400.",
        ),
        (
            "repro_requests_shed_total",
            totals["requests_shed_total"],
            "Scoring requests shed by admission control (429).",
        ),
    ):
        family = MetricFamily(name, "counter", help_text)
        family.add_sample(value)
        families.append(family)

    duration = MetricFamily(
        "repro_request_duration_seconds",
        "histogram",
        "Request handling latency, by endpoint pattern.",
    )
    for label in sorted(histograms):
        counts, total_seconds = histograms[label]
        duration.add_histogram(
            [float(c) for c in counts],
            total_seconds,
            LATENCY_BUCKET_BOUNDS,
            {"endpoint": label},
        )
    families.append(duration)

    phase_seconds = MetricFamily(
        "repro_engine_phase_seconds_total",
        "counter",
        "Wall time inside each projection-engine solver phase.",
    )
    phase_rows = MetricFamily(
        "repro_engine_phase_rows_total",
        "counter",
        "Rows projected by each projection-engine solver phase.",
    )
    for phase in engineprof.ENGINE_PHASES:
        phase_seconds.add_sample(
            float(engine.get(f"{phase}_seconds", 0.0)), {"phase": phase}
        )
        phase_rows.add_sample(
            float(engine.get(f"{phase}_rows", 0)), {"phase": phase}
        )
    families.extend([phase_seconds, phase_rows])

    for name, key, help_text in (
        (
            "repro_engine_newton_iterations_total",
            "newton_iterations",
            "Newton refinement iterations executed by the engine.",
        ),
        (
            "repro_engine_warm_start_hits_total",
            "warm_start_hits",
            "Rows whose warm-start bracket held (no cold re-projection).",
        ),
        (
            "repro_engine_warm_start_misses_total",
            "warm_start_misses",
            "Rows the warm-start safeguard sent back to a cold scan.",
        ),
    ):
        family = MetricFamily(name, "counter", help_text)
        family.add_sample(float(engine.get(key, 0)))
        families.append(family)

    by_family = MetricFamily(
        "repro_requests_by_family_total",
        "counter",
        "Scoring requests by model family (per-worker: family labels "
        "are free-form and do not fit fixed shared-store cells).",
    )
    for family_name, count in metrics.families().items():
        by_family.add_sample(float(count), {"family": family_name})
    families.append(by_family)

    fill = MetricFamily(
        "repro_batch_fill_requests",
        "histogram",
        "Member requests coalesced per executed micro-batch.",
    )
    fill.add_histogram(
        [float(c) for c in fill_counts],
        fill_sum,
        [float(b) for b in BATCH_FILL_BUCKETS],
    )
    families.append(fill)

    registry_stats = server.registry.stats()
    for name, key, help_text in (
        (
            "repro_registry_reload_checks_total",
            "reload_checks",
            "Model-file mtime checks performed (this worker).",
        ),
        (
            "repro_registry_reloads_total",
            "reloads",
            "Successful hot reloads of a served model (this worker).",
        ),
        (
            "repro_registry_reload_failures_total",
            "reload_failures",
            "Hot-reload attempts that failed (this worker).",
        ),
    ):
        family = MetricFamily(name, "counter", help_text)
        family.add_sample(registry_stats[key])
        families.append(family)

    uptime = MetricFamily(
        "repro_server_uptime_seconds",
        "gauge",
        "Seconds since this worker's metrics began accumulating.",
    )
    uptime.add_sample(round(metrics.uptime_seconds, 3))
    families.append(uptime)

    if server.worker_slot is not None:
        workers = MetricFamily(
            "repro_workers", "gauge", "Worker processes in the pool."
        )
        workers.add_sample(store.n_slots)
        families.append(workers)

    if server.tracer is not None:
        buffered = MetricFamily(
            "repro_trace_buffered",
            "gauge",
            "Traces currently retained in this worker's ring buffer.",
        )
        buffered.add_sample(server.tracer.stats()["buffered"])
        families.append(buffered)

    return render_exposition(families)
