"""Observability: request tracing, engine profiling, exposition.

The serving stack (PRs 2-6) grew micro-batching, admission control and
a pre-forked worker fleet, but its only window was a JSON counter
snapshot — nobody could say where one request's 40 ms went.  This
package is the answer, in three stdlib-only pieces:

* :mod:`repro.obs.trace` — per-request :class:`Trace`/:class:`Span`
  timings (queue wait vs batch execute vs serialize), kept in a
  :class:`Tracer` ring buffer keyed by ``X-Request-Id`` and served via
  ``GET /v1/debug/trace/<id>``, plus a JSON-lines access log.  When
  tracing is off the request path sees only :data:`NULL_TRACE`, a
  shared no-op whose span context manager allocates nothing.
* :mod:`repro.obs.engineprof` — solver-level counters (rows per
  solver, Newton iterations, warm-start bracket hits) accumulated into
  a contextvar-scoped :class:`EngineProfile`; the geometry engine
  checks the contextvar once per solver call, so library users who
  never activate a profile pay a single C-level lookup.
* :mod:`repro.obs.histogram` / :mod:`repro.obs.prometheus` — fixed
  log-spaced latency buckets that sum exactly across worker processes,
  and a Prometheus text-format renderer with a ``promtool check
  metrics``-style linter for CI.

Nothing here imports the server or geometry packages; the dependency
arrow points only inward.
"""

from repro.obs.accesslog import AccessLog
from repro.obs.engineprof import (
    ENGINE_PHASES,
    EngineProfile,
    activate,
    current,
)
from repro.obs.histogram import (
    BATCH_FILL_BUCKETS,
    LATENCY_BUCKET_BOUNDS,
    N_LATENCY_BUCKETS,
    bucket_index,
    percentile_from_buckets,
)
from repro.obs.prometheus import lint_exposition, render_exposition
from repro.obs.trace import (
    NULL_TRACE,
    Span,
    Trace,
    TraceError,
    Tracer,
)

__all__ = [
    "AccessLog",
    "ENGINE_PHASES",
    "EngineProfile",
    "activate",
    "current",
    "BATCH_FILL_BUCKETS",
    "LATENCY_BUCKET_BOUNDS",
    "N_LATENCY_BUCKETS",
    "bucket_index",
    "percentile_from_buckets",
    "lint_exposition",
    "render_exposition",
    "NULL_TRACE",
    "Span",
    "Trace",
    "TraceError",
    "Tracer",
]
