"""Golden Section Search (GSS) for one-dimensional minimisation.

The RPC learning algorithm (Algorithm 1 in the paper) needs, for every
data point ``x_i``, the latent coordinate ``s_i in [0, 1]`` whose curve
point ``f(s_i)`` is closest to ``x_i``.  The first-order condition
Eq.(20) is a quintic polynomial with no closed-form roots, so the paper
adopts Golden Section Search on the squared distance.  This module
provides a careful scalar implementation plus a vectorised variant that
runs one GSS per data point simultaneously — the workhorse of the
projection step.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError

#: The inverse golden ratio, (sqrt(5) - 1) / 2.
INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

#: Squared inverse golden ratio, used to place the initial interior points.
INV_PHI2 = (3.0 - np.sqrt(5.0)) / 2.0


def golden_section_search(
    func: Callable[[float], float],
    lo: float = 0.0,
    hi: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> Tuple[float, float]:
    """Minimise a unimodal scalar function on ``[lo, hi]``.

    Parameters
    ----------
    func:
        The objective.  It is assumed unimodal on the bracket; for
        multimodal objectives combine with a coarse grid scan (see
        :func:`bracketed_minimum`).
    lo, hi:
        Bracket endpoints with ``lo < hi``.
    tol:
        Terminate when the bracket width falls below ``tol``.
    max_iter:
        Hard cap on iterations; GSS shrinks the bracket by the golden
        ratio each step so roughly ``log(tol / (hi - lo)) / log(0.618)``
        iterations are needed.

    Returns
    -------
    (x, fx):
        The approximate minimiser and its objective value.
    """
    if not hi > lo:
        raise ConfigurationError(
            f"golden_section_search needs lo < hi, got [{lo}, {hi}]"
        )
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")

    a, b = float(lo), float(hi)
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = func(c)
    fd = func(d)

    for _ in range(max_iter):
        if h <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = func(d)

    if fc < fd:
        return c, fc
    return d, fd


def golden_section_search_batch(
    func: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
    pair_func: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``n`` independent golden-section searches simultaneously.

    ``func`` must accept a vector ``s`` of shape ``(n,)`` and return the
    per-element objective values, also shape ``(n,)``.  Element ``i`` of
    the search never mixes with element ``j``; the vectorisation is a
    pure speed optimisation over a Python loop of scalar searches.

    Parameters
    ----------
    func:
        Vectorised objective.
    lo, hi:
        Per-search bracket endpoints, each shape ``(n,)``.
    tol, max_iter:
        As in :func:`golden_section_search`.
    pair_func:
        Optional fused objective for precompiled callers: receives both
        initial interior points stacked as an ``(n, 2)`` array and
        returns the ``(n, 2)`` objective values in one call — the
        projection engine supplies a single batched Horner pass here.
        When given, ``pair_func`` must compute exactly ``func``
        column-wise; it is used for the bracket set-up evaluation
        (``func`` still evaluates the loop's single fresh point).

    Returns
    -------
    (x, fx):
        Arrays of shape ``(n,)`` with per-search minimisers and values.

    Notes
    -----
    The loop follows the textbook value-reuse scheme, vectorised: per
    iteration exactly one fresh interior point is evaluated per search
    (the surviving point's objective value is carried over, not
    recomputed), so an iteration costs one ``func`` call over ``(n,)``
    plus branch-free ``np.where`` bookkeeping.

    Each search freezes the moment *its own* bracket width reaches
    ``tol`` — not when the whole batch does.  A row therefore runs an
    iteration count determined solely by its own initial bracket, which
    makes the result bit-identical however the rows are batched
    (chunked vs one-shot scoring, and the serving micro-batcher that
    coalesces rows from unrelated requests).  The earlier
    batch-wide termination kept shrinking already-converged rows while
    slower batchmates finished, so the same row could come back with
    different last bits depending on what it shared a batch with.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        raise ConfigurationError(
            f"lo and hi must share a shape, got {lo.shape} vs {hi.shape}"
        )
    if np.any(hi < lo):
        raise ConfigurationError("every bracket needs lo <= hi")

    a = lo.copy()
    b = hi.copy()
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    if pair_func is not None:
        fcd = pair_func(np.stack([c, d], axis=-1))
        fc, fd = fcd[..., 0], fcd[..., 1]
    else:
        fc = func(c)
        fd = func(d)

    active = h > tol
    for _ in range(max_iter):
        if not np.any(active):
            break
        left = fc < fd
        # Where the left interior point wins, shrink the bracket to
        # [a, d] and reuse c (with its known value fc) as the new right
        # interior point; elsewhere shrink to [c, b] and reuse d as the
        # new left interior point.  Only the remaining interior point is
        # fresh, so each iteration costs a single objective evaluation.
        # Rows whose own bracket already reached ``tol`` are frozen in
        # place (batch-split invariance — see Notes).
        a = np.where(active & ~left, c, a)
        b = np.where(active & left, d, b)
        h = b - a
        fresh = np.where(left, a + INV_PHI2 * h, a + INV_PHI * h)
        f_fresh = func(fresh)
        c, d = (
            np.where(active, np.where(left, fresh, d), c),
            np.where(active, np.where(left, c, fresh), d),
        )
        fc, fd = (
            np.where(active, np.where(left, f_fresh, fd), fc),
            np.where(active, np.where(left, fc, f_fresh), fd),
        )
        active = h > tol

    x = np.where(fc < fd, c, d)
    fx = np.minimum(fc, fd)
    return x, fx


def bracketed_minimum(
    func: Callable[[np.ndarray], np.ndarray],
    n_grid: int = 32,
    lo: float = 0.0,
    hi: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Coarse grid scan that brackets the global minimum on ``[lo, hi]``.

    GSS assumes unimodality.  The squared distance from a point to a
    cubic Bezier curve can have up to three local minima, so Algorithm 1
    is made robust by first scanning ``n_grid`` evenly spaced values and
    then returning, for each search, the bracket ``[s* - step, s* + step]``
    around the best grid point ``s*``.

    ``func`` takes a grid vector of shape ``(g,)`` broadcast over all
    searches and must return values of shape ``(n, g)`` — one row per
    independent search.

    Returns
    -------
    (bracket_lo, bracket_hi):
        Arrays of shape ``(n,)`` delimiting a per-search bracket that
        contains the best grid point.
    """
    if n_grid < 3:
        raise ConfigurationError(f"n_grid must be >= 3, got {n_grid}")
    grid = np.linspace(lo, hi, n_grid)
    values = func(grid)
    values = np.atleast_2d(values)
    best = np.argmin(values, axis=1)
    step = (hi - lo) / (n_grid - 1)
    bracket_lo = np.clip(grid[best] - step, lo, hi)
    bracket_hi = np.clip(grid[best] + step, lo, hi)
    return bracket_lo, bracket_hi
