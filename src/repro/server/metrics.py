"""Request metrics for the scoring daemon: one slot-store path.

Every observation lands in a *slot*: one row of plain ``float64``
counter cells in a :class:`SharedMetricsStore`.  The route set and
the status codes the daemon emits are both small closed sets, so a
slot is a fixed dense array — an observation is a handful of aligned
8-byte adds, no allocation, no serialisation.  Latency lives in the
row as **fixed log-spaced histogram buckets**
(:mod:`repro.obs.histogram`); the engine-profile counters (rows per
solver, Newton iterations, warm-start hits, scoring calls) and the
micro-batch fill distribution sit beside them.

A single-process daemon is a one-slot fleet: its store is one
in-memory numpy row.  In ``repro serve --workers N`` mode
(:mod:`repro.server.pool`) the store is a memory-mapped file with one
single-writer row per worker, so a client scraping ``/metrics`` — which
hits whichever worker accepted the connection — still sees fleet-wide
totals.  Either way every read (the JSON ``/metrics`` payload, the
Prometheus exposition, the ``engine``, ``batch_fill`` and
``latency_histograms`` keys) sums the rows, so the JSON percentiles
and the exposition buckets are the same numbers, and bucket counts
merge exactly across workers.  Observations are recorded *before* the
response is sent, so a client that reads ``/metrics`` after its
requests completed always finds them counted, whichever workers served
what.

Only free-form per-process state stays out of the store: the
``recent_errors`` window (request ids), the per-family request counts
(free-form labels) and uptime.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Deque, Dict, Optional

import numpy as np

from repro.obs.histogram import (
    BATCH_FILL_BUCKETS,
    N_LATENCY_BUCKETS,
    bucket_index,
    percentile_from_buckets,
)

#: Error records (endpoint, status, request id) retained for the
#: ``recent_errors`` section of ``GET /metrics`` — enough to chase a
#: client-reported request id without unbounded growth.
ERROR_WINDOW = 64

#: Percentiles reported per endpoint, in milliseconds.
PERCENTILES = (50, 90, 99)

#: Every route label the daemon's handler can observe, plus a
#: catch-all.  The store allocates dense per-slot counters from this
#: closed set; an unknown label folds into ``"other"`` rather
#: than being dropped, so fleet totals stay exact even if a route is
#: added without extending this tuple.
SHARED_ENDPOINTS = (
    "GET /healthz",
    "GET /metrics",
    "GET /v1/models",
    "GET /v1/models/{name}",
    "POST /v1/models/{name}/score",
    "POST /v1/models/{name}/rank",
    "POST /v1/models/{name}/rank-shard",
    "GET /v1/debug/trace/{id}",
    "GET (scoring route)",
    "GET (unrouted)",
    "POST (unrouted)",
    "other",
)

#: Status codes the daemon emits (see the 4xx taxonomy in
#: :mod:`repro.server.http`; 429 is the admission-control shed),
#: plus a catch-all bucket.
SHARED_STATUSES = (200, 400, 404, 405, 408, 409, 411, 413, 422, 429, 500)

#: The admission controller's shed status; counted per endpoint like
#: any other response so fleet ``served + shed == offered`` is exact.
SHED_STATUS = 429

#: Engine-profile cells per slot, in layout order: wall time and rows
#: per solver phase, the solver-quality counters, the engine compile
#: counter, then the number of engine executions.  All but
#: ``scoring_calls`` match keys of
#: :meth:`repro.obs.engineprof.EngineProfile.totals`.
ENGINE_CELL_KEYS = (
    "grid_scan_seconds",
    "grid_scan_rows",
    "gss_seconds",
    "gss_rows",
    "newton_seconds",
    "newton_rows",
    "roots_seconds",
    "roots_rows",
    "newton_iterations",
    "warm_start_hits",
    "warm_start_misses",
    "engine_compiles",
    "scoring_calls",
)

#: Layout version of the store.  Version 2 replaced latency sample
#: rings with the fixed histogram buckets of :mod:`repro.obs.histogram`
#: and added the engine/batch-fill cells; version 3 added the
#: ``rank-shard`` endpoint label; version 4 added the
#: ``GET /v1/models/{name}`` label, two per-solver compile counters
#: and ``scoring_calls``; version 5 merged those compile counters into
#: ``engine_compiles``.  Bump on any cell-layout change:
#: every process mapping one file must agree on what each cell means
#: (the pool forks workers from one parent, so in practice versions
#: only meet across *code* versions — which is exactly the accident
#: this constant is pinned against).
STORE_FORMAT_VERSION = 5


class ServerMetrics:
    """The daemon's request metrics, written to one slot of a store.

    ``slot`` is the :class:`SharedMetricsWriter` of this process's row:
    a worker's row of the pool's memory-mapped file under ``--workers
    N``, or (the default) the only row of a fresh in-memory one-slot
    store.  Handler threads share the row, so every write goes under
    this object's lock.  Reads come from :attr:`store`'s merged view;
    only the free-form per-process state — ``recent_errors``,
    per-family counts and uptime — lives here.
    """

    def __init__(self, slot: Optional["SharedMetricsWriter"] = None):
        if slot is None:
            slot = SharedMetricsStore().writer(0)
        self._lock = threading.Lock()
        self._slot = slot
        self.store = slot.store
        self._started = time.time()
        self._recent_errors: Deque[dict] = deque(maxlen=ERROR_WINDOW)
        self._families: Counter[str] = Counter()

    def observe(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        rows: int = 0,
        request_id: Optional[str] = None,
    ) -> None:
        """Record one handled request.

        Parameters
        ----------
        endpoint:
            Route label, e.g. ``"POST /v1/models/{name}/score"`` — the
            pattern, not the concrete path, so per-model traffic folds
            into one series.
        status:
            HTTP status sent back.
        seconds:
            Wall-clock handling time.
        rows:
            Observations scored while handling (0 for non-scoring
            endpoints and failures).
        request_id:
            The request's tracing id (echoed or generated by the
            handler).  Failed requests (status >= 400) are logged with
            it in the bounded ``recent_errors`` window so an id a
            client reports can be matched to what the daemon saw.
        """
        with self._lock:
            self._slot.observe(endpoint, status, seconds, rows)
            if int(status) >= 400:
                self._recent_errors.append(
                    {
                        "endpoint": endpoint,
                        "status": int(status),
                        "request_id": request_id,
                    }
                )

    def observe_family(self, family: str) -> None:
        """Count one scoring request against a model family.

        Recorded after the registry resolves the model (so 404s and
        sheds do not count) and kept per-worker: family labels are
        free-form strings that do not fit the store's fixed cells, the
        same trade-off the registry stats make.
        """
        with self._lock:
            self._families[str(family)] += 1

    def families(self) -> Dict[str, int]:
        """Scoring requests handled per model family (this worker)."""
        with self._lock:
            return {
                family: int(count)
                for family, count in sorted(self._families.items())
            }

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self._started

    def observe_batch(self, n_requests: int, n_rows: int) -> None:
        """Record one executed micro-batch (fill telemetry).

        The batch-fill distribution (how many member requests executed
        batches coalesce — the adaptive window's effectiveness signal)
        and the largest-batch high-water marks; the rest of the
        per-worker detail lives in ``MicroBatcher.stats()``.
        """
        with self._lock:
            self._slot.record_batch(n_requests, n_rows)

    def observe_engine(self, profile) -> None:
        """Fold one scoring call's :class:`EngineProfile` into totals.

        Called once per engine execution (direct request or merged
        micro-batch) with a profile that covered exactly that call, so
        accumulated totals are exact however requests were coalesced.
        """
        totals = profile.totals()
        if not totals:
            return
        with self._lock:
            self._slot.record_engine(totals)

    def snapshot(self) -> dict:
        """The base ``/metrics`` payload: the store's merged counters
        and latency percentiles plus this process's error window."""
        totals = self.store.merged_totals()
        with self._lock:
            recent_errors = list(self._recent_errors)
        endpoints = totals.pop("endpoints")
        return {
            "uptime_seconds": float(round(self.uptime_seconds, 3)),
            **totals,
            "recent_errors": recent_errors,
            "endpoints": endpoints,
        }


def _fill_bucket(n_requests: int) -> int:
    """Batch-fill bucket index (``le`` semantics, last = overflow)."""
    for i, edge in enumerate(BATCH_FILL_BUCKETS):
        if n_requests <= edge:
            return i
    return len(BATCH_FILL_BUCKETS)


# ----------------------------------------------------------------------
# The slot store
# ----------------------------------------------------------------------
#: Per-slot layout of the store, in float64 cells:
#: ``[counts (E x S) | rows_scored | largest_batch_requests |
#: largest_batch_rows | batch-fill buckets (+overflow) |
#: batch-fill request sum | engine cells | latency histograms
#: (E x (buckets + sum))]`` — see :data:`STORE_FORMAT_VERSION`.
_N_ENDPOINTS = len(SHARED_ENDPOINTS)
_N_STATUSES = len(SHARED_STATUSES) + 1  # + catch-all bucket
_COUNTS_CELLS = _N_ENDPOINTS * _N_STATUSES
_ROWS_CELL = _COUNTS_CELLS
_BATCH_REQS_CELL = _ROWS_CELL + 1
_BATCH_ROWS_CELL = _BATCH_REQS_CELL + 1
_FILL_OFFSET = _BATCH_ROWS_CELL + 1
_N_FILL_BUCKETS = len(BATCH_FILL_BUCKETS) + 1
_FILL_SUM_CELL = _FILL_OFFSET + _N_FILL_BUCKETS
_ENGINE_OFFSET = _FILL_SUM_CELL + 1
_N_ENGINE_CELLS = len(ENGINE_CELL_KEYS)
_HIST_OFFSET = _ENGINE_OFFSET + _N_ENGINE_CELLS
#: Histogram cells per endpoint: the bucket counts plus the sum of
#: observed seconds (the count is the bucket total, not a cell).
_HIST_CELLS = N_LATENCY_BUCKETS + 1
SLOT_CELLS = _HIST_OFFSET + _N_ENDPOINTS * _HIST_CELLS

_ENDPOINT_INDEX = {label: i for i, label in enumerate(SHARED_ENDPOINTS)}
_STATUS_INDEX = {code: i for i, code in enumerate(SHARED_STATUSES)}
_ENGINE_INDEX = {key: i for i, key in enumerate(ENGINE_CELL_KEYS)}
_SCORING_CALLS_CELL = _ENGINE_OFFSET + _ENGINE_INDEX["scoring_calls"]


class SharedMetricsStore:
    """Rows of metric cells, one single-writer slot per process.

    With ``path=None`` (the default) the rows are a plain in-memory
    numpy array — the single-process daemon's one-slot store.  With a
    ``path`` they are a memory-mapped file: the pool parent creates it
    (zero-filled, ``create=True``) before forking, each worker maps it
    and obtains a :class:`SharedMetricsWriter` for its own slot, and
    any worker can read the fleet.  Cells are aligned ``float64`` —
    single stores on every platform we run on — and each slot has
    exactly one writer, so no cross-process locking is needed; a reader
    can at worst see a request that is mid-flight, never a torn counter
    that was already reported to its client.
    """

    def __init__(self, path=None, n_slots: int = 1, create: bool = False):
        self.path = None if path is None else str(path)
        self.n_slots = int(n_slots)
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        shape = (self.n_slots, SLOT_CELLS)
        if self.path is None:
            self._cells = np.zeros(shape, dtype=np.float64)
            return
        self._cells = np.memmap(
            self.path,
            dtype=np.float64,
            mode="w+" if create else "r+",
            shape=shape,
        )
        if create:
            self._cells[:] = 0.0
            self._cells.flush()

    def writer(self, slot: int) -> "SharedMetricsWriter":
        return SharedMetricsWriter(self, slot)

    def merged(self) -> dict:
        """:meth:`merged_totals` plus the :meth:`merged_fleet` fragments."""
        return {**self.merged_totals(), **self.merged_fleet()}

    def merged_totals(self) -> dict:
        """Counters summed over every slot.

        ``requests_total`` / ``rows_scored_total`` / ``errors_total`` /
        ``requests_shed_total`` and, per endpoint, request and status
        counts and latency percentiles estimated from the summed
        histogram buckets (exact bucket merges — see
        :mod:`repro.obs.histogram`).
        """
        cells = self._read()
        total_counts = cells[:, :_COUNTS_CELLS].reshape(
            self.n_slots, _N_ENDPOINTS, _N_STATUSES
        ).sum(axis=0)  # (E, S)
        histograms = self._merged_histogram_cells(cells)
        endpoints: Dict[str, dict] = {}
        for e, label in enumerate(SHARED_ENDPOINTS):
            requests = int(total_counts[e].sum())
            if requests == 0:
                continue
            by_status = {
                str(code): int(total_counts[e, s])
                for code, s in sorted(_STATUS_INDEX.items())
                if total_counts[e, s] > 0
            }
            if total_counts[e, -1] > 0:
                by_status["other"] = int(total_counts[e, -1])
            entry = {"requests": requests, "by_status": by_status}
            bucket_counts, _ = histograms[label]
            if bucket_counts.sum() > 0:
                entry["latency_ms"] = {
                    f"p{p}": float(
                        round(
                            percentile_from_buckets(bucket_counts, p) * 1e3,
                            3,
                        )
                    )
                    for p in PERCENTILES
                }
            endpoints[label] = entry
        status_codes = np.array(list(SHARED_STATUSES) + [0])
        error_mask = (status_codes >= 400) | (status_codes == 0)
        return {
            "requests_total": int(total_counts.sum()),
            "rows_scored_total": int(cells[:, _ROWS_CELL].sum()),
            "errors_total": int(total_counts[:, error_mask].sum()),
            "requests_shed_total": int(
                total_counts[:, _STATUS_INDEX[SHED_STATUS]].sum()
            ),
            "endpoints": endpoints,
        }

    def merged_fleet(self) -> dict:
        """The pool-only fragments of ``/metrics``.

        ``workers``: the per-slot request totals (handy for spotting a
        dead or starved worker); ``micro_batcher_fleet``, once any
        batch executed: the fleet-wide batch high-water marks (per-worker
        detail stays in each worker's ``micro_batcher`` section).
        """
        cells = self._read()
        fleet = {
            "workers": {
                "count": self.n_slots,
                "requests": [
                    int(n) for n in cells[:, :_COUNTS_CELLS].sum(axis=1)
                ],
            },
        }
        largest_reqs = int(cells[:, _BATCH_REQS_CELL].max())
        if largest_reqs > 0:
            fleet["micro_batcher_fleet"] = {
                "largest_batch_requests": largest_reqs,
                "largest_batch_rows": int(cells[:, _BATCH_ROWS_CELL].max()),
            }
        return fleet

    def merged_histograms(self) -> Dict[str, tuple]:
        """Per-endpoint ``(bucket_counts, sum_seconds)`` fleet sums,
        for endpoints that have observed at least one request."""
        return {
            label: pair
            for label, pair in self._merged_histogram_cells(
                self._read()
            ).items()
            if pair[0].sum() > 0
        }

    def merged_engine(self) -> Dict[str, float]:
        """Fleet-summed engine cells keyed by :data:`ENGINE_CELL_KEYS`."""
        sums = self._read()[
            :, _ENGINE_OFFSET:_ENGINE_OFFSET + _N_ENGINE_CELLS
        ].sum(axis=0)
        return {
            key: (
                float(sums[i])
                if key.endswith("_seconds")
                else int(sums[i])
            )
            for key, i in _ENGINE_INDEX.items()
        }

    def merged_batch_fill(self) -> tuple:
        """Fleet ``(fill_bucket_counts, total_member_requests)``."""
        cells = self._read()
        counts = cells[
            :, _FILL_OFFSET:_FILL_OFFSET + _N_FILL_BUCKETS
        ].sum(axis=0)
        return counts, float(cells[:, _FILL_SUM_CELL].sum())

    def _read(self) -> np.ndarray:
        """A snapshot copy of every slot's cells."""
        return np.array(self._cells, dtype=np.float64)

    @staticmethod
    def _merged_histogram_cells(cells: np.ndarray) -> Dict[str, tuple]:
        hists = cells[:, _HIST_OFFSET:].reshape(
            cells.shape[0], _N_ENDPOINTS, _HIST_CELLS
        ).sum(axis=0)
        return {
            label: (hists[e, :N_LATENCY_BUCKETS], float(hists[e, -1]))
            for label, e in _ENDPOINT_INDEX.items()
        }


class SharedMetricsWriter:
    """Single-writer view of one slot in a :class:`SharedMetricsStore`.

    Thread-safety: the owning :class:`ServerMetrics` writes under its
    own lock, so writes to this slot are serialised within the process;
    no other process writes it.
    """

    def __init__(self, store: SharedMetricsStore, slot: int):
        if not 0 <= int(slot) < store.n_slots:
            raise ValueError(
                f"slot {slot} out of range for {store.n_slots} workers"
            )
        self.store = store
        self.slot = int(slot)
        self._row = store._cells[self.slot]

    def observe(
        self, endpoint: str, status: int, seconds: float, rows: int = 0
    ) -> None:
        e = _ENDPOINT_INDEX.get(endpoint, _N_ENDPOINTS - 1)
        s = _STATUS_INDEX.get(int(status), _N_STATUSES - 1)
        row = self._row
        row[e * _N_STATUSES + s] += 1.0
        if rows:
            row[_ROWS_CELL] += float(rows)
        hist_at = _HIST_OFFSET + e * _HIST_CELLS
        row[hist_at + bucket_index(seconds)] += 1.0
        row[hist_at + _HIST_CELLS - 1] += float(seconds)

    def record_batch(self, n_requests: int, n_rows: int) -> None:
        """Fold one executed batch into the slot's fill telemetry."""
        row = self._row
        if n_requests > row[_BATCH_REQS_CELL]:
            row[_BATCH_REQS_CELL] = float(n_requests)
        if n_rows > row[_BATCH_ROWS_CELL]:
            row[_BATCH_ROWS_CELL] = float(n_rows)
        row[_FILL_OFFSET + _fill_bucket(n_requests)] += 1.0
        row[_FILL_SUM_CELL] += float(n_requests)

    def record_engine(self, totals: Dict[str, float]) -> None:
        """Add one scoring call's engine-profile totals to the slot.

        Counts the call in ``scoring_calls``.  Unknown keys are ignored
        (an engine counter added without a cell should degrade to "not
        reported", not corrupt a neighbour)."""
        row = self._row
        row[_SCORING_CALLS_CELL] += 1.0
        for key, value in totals.items():
            i = _ENGINE_INDEX.get(key)
            if i is not None:
                row[_ENGINE_OFFSET + i] += float(value)
