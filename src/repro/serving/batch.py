"""Bounded-memory batch scoring of any fitted ScorableModel.

Scoring is embarrassingly parallel across objects, but the vectorised
projection step materialises an ``(n, n_grid)`` distance matrix plus a
handful of ``(n,)`` work vectors — on a 100k-row input that is tens of
megabytes per temporary and the allocator, not the arithmetic, starts
to dominate.  :func:`score_batch` therefore walks the input in chunks
of :data:`DEFAULT_CHUNK_SIZE` rows: peak additional memory is
``O(DEFAULT_CHUNK_SIZE * (d + n_grid))`` regardless of ``n``, while
the scores themselves are written into one preallocated output vector.

Chunking never changes the answer: a pointwise family's score
(``model.pointwise_scores`` true) depends only on its own row, bit for
bit.  The engine freezes each row at its own convergence and takes its
data products in a fixed order (:mod:`repro.linalg.rowwise`), and the
PCA and weighted-sum baselines use the same products, so any chunking
— or the daemon's micro-batching — returns the same bits as one
``score_samples`` call (pinned for every family by
``tests/test_families.py``).  The chunk is therefore one constant,
:data:`DEFAULT_CHUNK_SIZE`: it bounds memory and nothing else.
Batch-relative families (the rank aggregators, whose score is a row's
position among the rows it arrived with) are scored in a single call
instead — chunking them would change the answer, so it is never done.

Every chunk scores through the model's cached
:class:`~repro.geometry.engine.ProjectionEngine`: the curve's power
conversion and self-product polynomial are built once per fitted model,
so per-chunk setup is a single ``X @ C`` product however many chunks a
stream is split into.

Scoring runs on the calling thread.  Concurrency lives one level up:
the daemon's worker processes and its request micro-batcher.

Usage
-----
>>> from repro.serving import score_batch
>>> scores = score_batch(model, X_large)
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.model_api import ScorableModel
from repro.linalg.backend import resolve_backend

#: Rows per projection chunk — a few MB of temporaries at the default
#: ``n_grid`` of 32, small enough for any serving box, large enough
#: that per-chunk Python overhead is negligible.  Read at call time, so
#: a test can shrink it to reach multi-chunk paths on small inputs.
DEFAULT_CHUNK_SIZE = 4096


def score_batch(
    model: ScorableModel,
    X: np.ndarray,
    backend=None,
) -> np.ndarray:
    """Score every row of ``X`` with bounded peak memory.

    Equivalent to ``model.score_samples(X)``, bit for bit, but
    processed :data:`DEFAULT_CHUNK_SIZE` rows at a time.  Returns
    scores of shape ``(n,)``, aligned with the rows of ``X``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model_api.ScorableModel` of any
        family.  Batch-relative families are scored in one call (see
        module docs).
    X:
        Raw (unnormalised) observations, shape ``(n, d)``.  Anything
        other than a 2-D matrix is rejected up front rather than
        failing later inside ``score_samples``.
    backend:
        Checked by :func:`~repro.linalg.backend.resolve_backend` and
        otherwise ignored: ``"roots"`` has one stationary-root solver.
    """
    resolve_backend(backend)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigurationError(
            f"X must be 2-D (objects x attributes), got ndim={X.ndim}"
        )
    n = X.shape[0]
    if getattr(model, "pointwise_scores", True):
        chunk = DEFAULT_CHUNK_SIZE
    else:
        chunk = max(n, 1)  # batch-relative: one call, positions intact
    out = np.empty(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        out[start:stop] = model.score_samples(X[start:stop])
    return out
