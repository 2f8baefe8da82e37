"""Long-running scoring daemon: registry, metrics and HTTP front end.

PR 1's serving layer made models durable (:mod:`repro.serving`); this
package makes them *resident*.  A :class:`ModelRegistry` holds any
number of named fitted models loaded from the persistence formats and
hot-reloads them when their backing file changes; a
:class:`ScoringHTTPServer` (stdlib ``ThreadingHTTPServer``, one thread
per connection, zero dependencies) exposes them over JSON endpoints;
:class:`ServerMetrics` keeps request counts, latency percentiles and
rows-scored totals for ``GET /metrics``.

For heavy traffic the daemon scales out and coalesces: a
:class:`WorkerPool` (``repro serve --workers N``) pre-forks workers
that share the listening socket and aggregate their metrics through a
:class:`SharedMetricsStore`, and a per-worker :class:`MicroBatcher`
(``--batch-window-ms``) merges the small scoring requests that queue
behind a running engine call into the next one, with byte-identical
responses.  Operations guide (sizing, batching trade-offs, proxy
TLS/auth): ``docs/ops.md``.

Observability (:mod:`repro.obs`): ``--trace`` records per-request
stage spans served by ``GET /v1/debug/trace/<request-id>``,
``--access-log`` writes one JSON line per request, and
``GET /metrics?format=prometheus`` renders every counter and latency
histogram in Prometheus text exposition — see ``docs/observability.md``.

Quickstart
----------
>>> from repro.server import ModelRegistry, ScoringHTTPServer
>>> registry = ModelRegistry()
>>> _ = registry.register("wellbeing", "model.json")   # doctest: +SKIP
>>> server = ScoringHTTPServer(("127.0.0.1", 8000), registry)  # doctest: +SKIP
>>> server.serve_forever()                             # doctest: +SKIP

Then, from anywhere::

    curl -s localhost:8000/healthz
    curl -s -X POST localhost:8000/v1/models/wellbeing/score \\
         -d '{"row": [43.8, 81.1, 4.5, 6.0]}'

The same daemon ships as a CLI subcommand::

    python -m repro serve --model wellbeing=model.json --port 8000
"""

from repro.server.admission import (
    AdmissionController,
    RequestShed,
)
from repro.server.batching import (
    BatchAbortedError,
    MicroBatcher,
)
from repro.server.http import (
    MAX_BODY_BYTES,
    ScoringHTTPServer,
    ScoringRequestHandler,
)
from repro.server.metrics import (
    ENGINE_CELL_KEYS,
    STORE_FORMAT_VERSION,
    ServerMetrics,
    SharedMetricsStore,
    SharedMetricsWriter,
)
from repro.server.pool import (
    WorkerPool,
    install_graceful_shutdown,
)
from repro.server.registry import (
    ModelRegistry,
    RegisteredModel,
    UnknownModelError,
)

__all__ = [
    "ENGINE_CELL_KEYS",
    "MAX_BODY_BYTES",
    "STORE_FORMAT_VERSION",
    "AdmissionController",
    "BatchAbortedError",
    "MicroBatcher",
    "ModelRegistry",
    "RegisteredModel",
    "RequestShed",
    "ScoringHTTPServer",
    "ScoringRequestHandler",
    "ServerMetrics",
    "SharedMetricsStore",
    "SharedMetricsWriter",
    "UnknownModelError",
    "WorkerPool",
    "install_graceful_shutdown",
]
