"""Batched Horner evaluation — the projection engine's inner kernel.

The projection hot path (grid scan, batched Golden Section Search,
Newton polish, roots fallback) reduces, once the squared-distance
polynomials are precompiled, to evaluating ``n`` same-degree
polynomials at one or a few points each.  Doing that with Horner's
scheme costs ``deg`` fused multiply-adds per point and — unlike
rebuilding the Bernstein basis and multiplying by the control-point
matrix — carries no factor of the ambient dimension ``d`` and no
``pow`` calls.  Every solver shares the two kernels below so the
arithmetic (and therefore the scores) cannot drift between paths.

Coefficients are ascending throughout: ``coeffs[i, j]`` multiplies
``s**j`` in polynomial ``i``.  Everything is evaluated in float64.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError


def horner_batch(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate ``n`` polynomials at per-row point sets, shape ``(n, p)``.

    Parameters
    ----------
    coeffs:
        Matrix of shape ``(n, m)``; row ``i`` holds the ascending-power
        coefficients of polynomial ``i``.
    x:
        Evaluation points.  Shape ``(n, p)`` evaluates row ``i`` of
        ``coeffs`` at ``x[i]``; a 1-D vector of shape ``(p,)`` is a
        shared grid broadcast to every row (the grid-scan case).

    Returns
    -------
    Values of shape ``(n, p)``.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, (coeffs.shape[0], x.size))
    elif x.ndim != 2 or x.shape[0] != coeffs.shape[0]:
        raise ConfigurationError(
            f"x must be 1-D (shared grid) or ({coeffs.shape[0]}, p), "
            f"got shape {x.shape}"
        )
    result = np.broadcast_to(coeffs[:, -1:], x.shape).copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        result *= x
        result += coeffs[:, j : j + 1]
    return result


def horner_pointwise(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate polynomial ``i`` at the single point ``s[i]``, shape ``(n,)``.

    The innermost loop of batched GSS and Newton refinement: everything
    stays 1-D, so each iteration is ``deg`` in-place multiply-adds over
    one ``(n,)`` work vector with no 2-D temporaries.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    s = np.asarray(s, dtype=float).ravel()
    if s.size != coeffs.shape[0]:
        raise ConfigurationError(
            f"s has {s.size} entries for {coeffs.shape[0]} polynomials"
        )
    result = coeffs[:, -1].copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        result *= s
        result += coeffs[:, j]
    return result
