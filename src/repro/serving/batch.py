"""Bounded-memory batch scoring of any fitted ScorableModel.

Scoring is embarrassingly parallel across objects, but the vectorised
projection step materialises an ``(n, n_grid)`` distance matrix plus a
handful of ``(n,)`` work vectors — on a 100k-row input that is tens of
megabytes per temporary and the allocator, not the arithmetic, starts
to dominate.  :func:`score_batch` therefore walks the input in chunks:
peak additional memory is ``O(chunk_size * (d + n_grid))`` regardless
of ``n``, while the scores themselves are written into one
preallocated output vector.

Chunking never changes the answer: every object's projection is an
independent 1-D solve, and the scores are polished to their basin's
exact stationary point (see :mod:`repro.core.projection`), so chunked
and unchunked runs agree to float precision.  The same holds for every
*pointwise* family (``model.pointwise_scores`` true): a row's score
depends only on that row.  Batch-relative families (the rank
aggregators, whose score is a row's position among the rows it arrived
with) are scored in a single call instead — chunking them would change
the answer, so it is never done.

Every chunk scores through the model's cached
:class:`~repro.geometry.engine.ProjectionEngine`: the curve's power
conversion and self-product polynomial are built once per fitted model,
so per-chunk setup is a single ``X @ C`` matmul however many chunks a
stream is split into.

Scoring runs on the calling thread.  Concurrency lives one level up:
the daemon's worker processes and its request micro-batcher.

Usage
-----
>>> from repro.serving import score_batch
>>> scores = score_batch(model, X_large, chunk_size=8192)

For streaming pipelines that don't want the output in memory either::

    for start, stop, chunk_scores in iter_score_chunks(model, X, 8192):
        sink.write(chunk_scores)
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.model_api import ScorableModel
from repro.linalg.backend import resolve_backend

#: Default rows per projection chunk — a few MB of temporaries at the
#: default ``n_grid`` of 32, small enough for any serving box, large
#: enough that per-chunk Python overhead is negligible.
DEFAULT_CHUNK_SIZE = 4096


def _validate_chunk_size(chunk_size: Optional[int]) -> int:
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    return chunk_size


def _chunk_scorer(model, backend):
    """Per-chunk scoring callable for ``model``.

    Only the Bézier family takes the engine ``backend=`` keyword
    (``model.accepts_solver_kwargs``); every other family is called
    with the plain one-argument signature, which keeps the Bézier hot
    path byte-identical while letting any ScorableModel flow through
    the same chunk loop.
    """
    if getattr(model, "accepts_solver_kwargs", False):
        return lambda chunk: model.score_samples(chunk, backend=backend)
    return lambda chunk: np.asarray(
        model.score_samples(chunk), dtype=float
    )


def iter_score_chunks(
    model: ScorableModel,
    X: np.ndarray,
    chunk_size: Optional[int] = None,
    backend=None,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, scores)`` triples over chunks of ``X``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model_api.ScorableModel` of any
        family.
    X:
        Raw (unnormalised) observations, shape ``(n, d)``.  An empty
        input (``n == 0``) yields nothing; anything other than a 2-D
        matrix is rejected up front rather than failing later inside
        ``score_samples``.
    chunk_size:
        Rows per chunk; ``None`` uses :data:`DEFAULT_CHUNK_SIZE`.
        Batch-relative families (``model.pointwise_scores`` false)
        ignore it and yield one chunk covering all of ``X``.
    backend:
        Optional root-solver backend, resolved and validated up front
        (before any chunk is scored) and applied to every chunk; see
        :mod:`repro.linalg.backend`.  Ignored by families without
        engine backends.

    Yields
    ------
    ``(start, stop, scores)`` with ``scores`` of shape ``(stop - start,)``
    covering rows ``X[start:stop]``, in order.
    """
    chunk_size = _validate_chunk_size(chunk_size)
    # ``None`` stays ``None`` so the model keeps its own default.
    if backend is not None:
        backend = resolve_backend(backend)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigurationError(
            f"X must be 2-D (objects x attributes), got ndim={X.ndim}"
        )
    score = _chunk_scorer(model, backend)
    if not getattr(model, "pointwise_scores", True):
        # Batch-relative scores: one chunk, positions intact.
        if X.shape[0]:
            yield 0, X.shape[0], score(X)
        return
    for start in range(0, X.shape[0], chunk_size):
        stop = min(start + chunk_size, X.shape[0])
        yield start, stop, score(X[start:stop])


def score_batch(
    model: ScorableModel,
    X: np.ndarray,
    chunk_size: Optional[int] = None,
    backend=None,
) -> np.ndarray:
    """Score every row of ``X`` with bounded peak memory.

    Equivalent to ``model.score_samples(X)`` but processed
    ``chunk_size`` rows at a time.  Returns scores of shape ``(n,)``,
    aligned with the rows of ``X``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model_api.ScorableModel` of any
        family.  Batch-relative families are scored in one call
        (``chunk_size`` is ignored — see module docs).
    X:
        Raw (unnormalised) observations, shape ``(n, d)``.
    chunk_size:
        Rows per chunk; ``None`` uses :data:`DEFAULT_CHUNK_SIZE`.
    backend:
        Optional root-solver backend for every chunk (name or
        instance; ``None`` = numpy reference).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigurationError(
            f"X must be 2-D (objects x attributes), got ndim={X.ndim}"
        )
    out = np.empty(X.shape[0])
    for start, stop, scores in iter_score_chunks(
        model, X, chunk_size, backend=backend
    ):
        out[start:stop] = scores
    return out
