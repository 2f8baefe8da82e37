"""Fixed log-spaced latency buckets that merge exactly across workers.

The daemon's metrics store (:mod:`repro.server.metrics`) keeps each
endpoint's latency as counts over **fixed, shared bucket bounds**
rather than raw samples.  Bucket counts are plain sums — adding two
workers' histograms *is* the fleet histogram, exactly, with no window
bias — and the same bounds render directly as Prometheus
``_bucket{le=...}`` series, so an external scraper aggregates shards
with the same arithmetic we use in-process, and the JSON percentiles
(:func:`percentile_from_buckets`) are estimated from the very cells
the exposition publishes.

The bounds are part of the store's cell layout and of the exposition
format, so they are pinned by :data:`HISTOGRAM_FORMAT_VERSION` and
golden-valued in the test suite: changing them silently would make
two differently-versioned workers disagree about what cell means what.

Bounds: 32 finite upper edges from 100 us to ~4.6 s, geometric ratio
``sqrt(2)`` (two buckets per octave — resolution ~+/-19%, plenty for
p50/p90/p99 on a serving path whose real spread is orders of
magnitude), plus one overflow bucket (``+Inf``).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Version of the bucket layout.  Bump when :data:`LATENCY_BUCKET_BOUNDS`
#: (or :data:`BATCH_FILL_BUCKETS`) change, and teach the shared store a
#: migration; the test suite pins the bounds for the current version.
HISTOGRAM_FORMAT_VERSION = 1

#: Finite upper bucket edges in seconds, ascending.  A sample ``x``
#: lands in the first bucket with ``x <= edge`` (Prometheus ``le``
#: semantics); anything beyond the last edge lands in the overflow
#: bucket.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    1e-4 * 2.0 ** (i / 2.0) for i in range(32)
)

#: Finite edges + the overflow (``+Inf``) bucket.
N_LATENCY_BUCKETS = len(LATENCY_BUCKET_BOUNDS) + 1

#: Upper edges (requests per executed micro-batch) of the batch-fill
#: distribution; powers of two because the adaptive window doubles.
BATCH_FILL_BUCKETS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

_BOUNDS_ARRAY = np.asarray(LATENCY_BUCKET_BOUNDS)


def bucket_index(seconds: float) -> int:
    """Index of the bucket a latency sample falls in (``le`` semantics)."""
    return int(np.searchsorted(_BOUNDS_ARRAY, seconds, side="left"))


def percentile_from_buckets(
    counts: Sequence[float],
    q: float,
    bounds: Sequence[float] = LATENCY_BUCKET_BOUNDS,
) -> float:
    """Estimate the ``q``-th percentile (0..100) from bucket counts.

    Linear interpolation inside the bucket holding the target rank —
    the same estimate ``histogram_quantile`` makes in PromQL, so the
    numbers an operator sees in Grafana match ``/metrics`` JSON.  The
    overflow bucket has no upper edge; ranks landing there report the
    largest finite edge (a known-undershoot, flagged in the docs).
    Returns ``0.0`` for an empty histogram.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    rank = total * (float(q) / 100.0)
    cumulative = np.cumsum(counts)
    idx = int(np.searchsorted(cumulative, rank, side="left"))
    idx = min(idx, counts.size - 1)
    if idx >= len(bounds):  # overflow bucket: no finite upper edge
        return float(bounds[-1])
    upper = float(bounds[idx])
    lower = float(bounds[idx - 1]) if idx > 0 else 0.0
    in_bucket = counts[idx]
    if in_bucket <= 0:
        return upper
    prev_rank = cumulative[idx - 1] if idx > 0 else 0.0
    frac = (rank - prev_rank) / in_bucket
    return lower + (upper - lower) * min(max(frac, 0.0), 1.0)

