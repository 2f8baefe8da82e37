"""Real-root finding for low-degree polynomials.

The projection step of RPC learning solves the first-order condition
Eq.(20), ``f'(s)^T (x - f(s)) = 0``, which for a cubic Bezier curve is a
*quintic* polynomial in ``s``.  The paper mentions the Jenkins–Traub
algorithm as one option; this module provides the equivalent facility
using the companion-matrix eigenvalue method (the same approach used by
``numpy.roots``) followed by a couple of Newton polishing steps, plus
helpers to keep only real roots inside a bracket.

The stacked-eigvals minimiser is the test oracle of the
``projection="roots"`` solver option of the RPC model, whose runtime
path plugs the closed-form roots of :mod:`repro.linalg.closedform`
into :func:`batched_minimize_on_interval` as its ``root_solver``.

Two tiers are provided.  The scalar tier (:func:`real_roots`,
:func:`minimize_polynomial_on_interval`) handles one polynomial at a
time and is kept as the reference implementation.  The batched tier
(:func:`batched_real_roots`, :func:`batched_minimize_on_interval`)
solves ``n`` same-degree polynomials with **one** stacked
companion-matrix ``eigvals`` call instead of a Python loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.linalg.horner import horner_batch


def real_roots(
    coeffs: np.ndarray,
    imag_tol: float = 1e-9,
    lead_tol: float = 1e-12,
) -> np.ndarray:
    """Real roots of a polynomial given *ascending-power* coefficients.

    Parameters
    ----------
    coeffs:
        ``coeffs[k]`` multiplies ``s**k``.  Trailing (highest-order)
        zeros are trimmed automatically so a degenerate quintic that is
        really a cubic does not poison the companion matrix.
    imag_tol:
        Roots whose imaginary part is below this threshold (in absolute
        value) are treated as real.
    lead_tol:
        Relative deflation threshold: a leading coefficient whose
        magnitude is at most ``lead_tol * max|coeffs|`` is treated as
        zero and the polynomial as one degree lower.  The companion
        matrix divides every other coefficient by the leading one, so a
        quartic whose top coefficient underflowed to ~1e-18 of its
        cubic term would otherwise produce one enormous spurious root
        and three garbage ones instead of the cubic's actual roots.
        ``0`` disables deflation (exact-zero trimming still applies).

    Returns
    -------
    Sorted 1-D array of real roots (possibly empty).
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if coeffs.size == 0:
        raise ConfigurationError("empty coefficient vector")
    # Trim trailing zero coefficients (highest powers).
    nz = np.nonzero(np.abs(coeffs) > 0.0)[0]
    if nz.size == 0:
        # The zero polynomial: every point is a root; callers treat this
        # as "no informative root".
        return np.empty(0)
    coeffs = coeffs[: nz[-1] + 1]
    # Relative deflation of near-degenerate leading coefficients.
    if lead_tol > 0.0 and coeffs.size > 1:
        scale = np.max(np.abs(coeffs))
        while coeffs.size > 1 and abs(coeffs[-1]) <= lead_tol * scale:
            coeffs = coeffs[:-1]
    if coeffs.size == 1:
        return np.empty(0)  # Non-zero constant: no roots.
    # numpy.roots wants descending powers.
    roots = np.roots(coeffs[::-1])
    mask = np.abs(roots.imag) <= imag_tol
    return np.sort(roots[mask].real)


def real_roots_in_interval(
    coeffs: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
    imag_tol: float = 1e-9,
    boundary_tol: float = 1e-12,
) -> np.ndarray:
    """Real roots restricted to ``[lo, hi]`` (inclusive, with tolerance).

    Roots within ``boundary_tol`` of an endpoint are clipped onto the
    endpoint rather than discarded — the projection index of a point
    near the curve's end legitimately sits at ``s = 0`` or ``s = 1``.
    """
    roots = real_roots(coeffs, imag_tol=imag_tol)
    if roots.size == 0:
        return roots
    clipped = np.clip(roots, lo, hi)
    keep = np.abs(clipped - roots) <= boundary_tol
    return np.unique(clipped[keep])


def newton_polish(
    coeffs: np.ndarray,
    roots: np.ndarray,
    n_steps: int = 3,
) -> np.ndarray:
    """Refine approximate roots with a few Newton iterations.

    Companion-matrix eigenvalues are accurate to roughly machine
    precision times the condition number of the balancing; two or three
    Newton steps typically recover full double accuracy.  Steps that
    would diverge (zero derivative) leave the root unchanged.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    deriv = polynomial_derivative(coeffs)
    polished = np.array(roots, dtype=float, copy=True)
    for _ in range(n_steps):
        p = polyval_ascending(coeffs, polished)
        dp = polyval_ascending(deriv, polished)
        safe = np.abs(dp) > 1e-300
        step = np.zeros_like(polished)
        step[safe] = p[safe] / dp[safe]
        polished -= step
    return polished


def polynomial_derivative(coeffs: np.ndarray) -> np.ndarray:
    """Ascending-power coefficients of the derivative polynomial."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if coeffs.size <= 1:
        return np.zeros(1)
    powers = np.arange(1, coeffs.size)
    return coeffs[1:] * powers


def polyval_ascending(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial with ascending-power coefficients (Horner)."""
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    result = np.full_like(x, coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        result = result * x + c
    return result


def polyval_ascending_batch(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise Horner evaluation of ``n`` polynomials at ``n`` point sets.

    A thin alias of :func:`repro.linalg.horner.horner_batch` (the shared
    projection-engine kernel), kept under its historical name for the
    root-finding call sites in this module.

    Parameters
    ----------
    coeffs:
        Matrix of shape ``(n, m)``; row ``i`` holds the ascending-power
        coefficients of polynomial ``i``.
    x:
        Evaluation points of shape ``(n, k)`` — row ``i`` is evaluated
        under polynomial ``i`` (broadcasting a shared ``(k,)`` vector is
        also accepted).

    Returns
    -------
    Values of shape ``(n, k)``.
    """
    return horner_batch(coeffs, x)


def batched_real_roots(
    coeffs: np.ndarray,
    imag_tol: float = 1e-9,
    lead_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of ``n`` same-degree polynomials via stacked companions.

    All rows are trimmed to the common effective degree (the highest
    power with a non-zero coefficient in *any* row).  Rows whose own
    leading coefficient is degenerate relative to their magnitude are
    **deflated**: a near-cubic quartic (top coefficient underflowed to
    ``~lead_tol`` of the row's largest) is solved as the cubic it really
    is, through a smaller stacked companion batch grouped by effective
    degree, instead of building a companion matrix poisoned by the
    division by a vanishing leading coefficient.

    Parameters
    ----------
    coeffs:
        Matrix of shape ``(n, m)``, ascending powers per row.
    imag_tol:
        Eigenvalues with ``|imag| <= imag_tol`` count as real roots.
    lead_tol:
        Coefficient ``coeffs[i, j]`` is negligible when ``|coeffs[i, j]|
        <= lead_tol * max_j |coeffs[i, j]|``; the row's effective degree
        is its highest non-negligible power.

    Returns
    -------
    (roots, valid, fallback):
        ``roots`` of shape ``(n, deg)`` (junk where invalid), a boolean
        ``valid`` mask of the same shape marking genuine real roots, and
        a boolean ``fallback`` mask of shape ``(n,)``.  The fallback
        mask is now always ``False`` — degenerate rows are deflated in
        batch rather than handed back for a scalar re-solve; the third
        return survives for call-site compatibility.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n, m = coeffs.shape
    if m == 0:
        raise ConfigurationError("empty coefficient matrix")
    # Common trim: drop trailing columns that are zero in every row.
    nz_cols = np.nonzero(np.any(coeffs != 0.0, axis=0))[0]
    if nz_cols.size == 0 or nz_cols[-1] == 0:
        # Constant (or identically zero) polynomials: no informative roots.
        return (
            np.zeros((n, 0)),
            np.zeros((n, 0), dtype=bool),
            np.zeros(n, dtype=bool),
        )
    coeffs = coeffs[:, : nz_cols[-1] + 1]
    deg = coeffs.shape[1] - 1

    # Per-row effective degree: highest power whose coefficient is not
    # negligible relative to the row's own magnitude.  -1 marks a row
    # that is numerically the zero polynomial (no informative roots).
    scale = np.max(np.abs(coeffs), axis=1)
    notsmall = np.abs(coeffs) > lead_tol * scale[:, np.newaxis]
    has_any = notsmall.any(axis=1)
    eff = np.where(has_any, deg - np.argmax(notsmall[:, ::-1], axis=1), -1)

    roots = np.zeros((n, deg))
    valid = np.zeros((n, deg), dtype=bool)

    def _solve_companions(rows: np.ndarray, d: int) -> None:
        sub = coeffs[rows, : d + 1]
        monic = sub[:, :-1] / sub[:, -1, np.newaxis]
        g = monic.shape[0]
        comp = np.zeros((g, d, d))
        idx = np.arange(d - 1)
        comp[:, idx + 1, idx] = 1.0
        comp[:, :, -1] = -monic
        eig = np.linalg.eigvals(comp)  # (g, d), complex
        roots[rows, :d] = eig.real
        valid[rows, :d] = np.abs(eig.imag) <= imag_tol

    full = eff == deg
    if np.any(full):
        _solve_companions(full, deg)
    degenerate_degrees = np.unique(eff[(eff < deg) & (eff >= 1)])
    for d in degenerate_degrees:
        # Deflate: solve the row as the degree it effectively has,
        # dropping the negligible top coefficients.  The tiny truncated
        # terms perturb the true roots by O(lead_tol); callers polish
        # with Newton steps on the full polynomial afterwards.
        _solve_companions(eff == d, int(d))
    return roots, valid, np.zeros(n, dtype=bool)


def batched_minimize_on_interval(
    coeffs: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
    imag_tol: float = 1e-9,
    boundary_tol: float = 1e-12,
    newton_steps: int = 3,
    root_solver=None,
) -> np.ndarray:
    """Row-wise global minimiser of ``n`` polynomials on ``[lo, hi]``.

    The batched counterpart of :func:`minimize_polynomial_on_interval`:
    stationary points come from one stacked companion-matrix eigenvalue
    call (or a pluggable solver), are polished by vectorised Newton
    steps, and the argmin per row is taken over ``{lo, hi}`` plus the
    row's in-interval stationary points.

    Parameters
    ----------
    coeffs:
        Matrix of shape ``(n, m)``, ascending-power coefficients of the
        polynomials to minimise (one per row).
    lo, hi:
        Interval endpoints.
    imag_tol, boundary_tol:
        Real-root classification tolerances, as in
        :func:`real_roots_in_interval`.
    newton_steps:
        Newton polishing iterations applied to the stationary points.
    root_solver:
        Optional replacement for :func:`batched_real_roots`, called as
        ``root_solver(deriv, lo, hi) -> (roots, valid, fallback)`` with
        the same return convention.  This keeps candidate clipping,
        Newton polish and the final argmin byte-for-byte shared between
        the eigvals oracle and the closed-form solver of
        :mod:`repro.linalg.closedform` (the runtime ``"roots"`` path),
        so their agreement is structural rather than accidental.

    Returns
    -------
    Array of shape ``(n,)``: the per-row minimiser in ``[lo, hi]``.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    n, m = coeffs.shape
    powers = np.arange(1, m)
    deriv = coeffs[:, 1:] * powers[np.newaxis, :] if m > 1 else np.zeros((n, 1))

    if root_solver is None:
        roots, valid, fallback = batched_real_roots(deriv, imag_tol=imag_tol)
    else:
        roots, valid, fallback = root_solver(deriv, lo, hi)

    out = np.empty(n)
    if roots.shape[1] == 0:
        # No stationary points anywhere: compare the endpoints only.
        endpoints = np.array([lo, hi])
        values = polyval_ascending_batch(coeffs, endpoints)
        out[:] = endpoints[np.argmin(values, axis=1)]
    else:
        # Restrict to the interval (clipping near-boundary roots onto
        # the endpoints, as the scalar path does), then polish.
        clipped = np.clip(roots, lo, hi)
        valid = valid & (np.abs(clipped - roots) <= boundary_tol)
        polished = np.where(valid, clipped, lo)
        if newton_steps > 0 and m > 2:
            dderiv = deriv[:, 1:] * powers[np.newaxis, : m - 2]
            for _ in range(newton_steps):
                p = polyval_ascending_batch(deriv, polished)
                dp = polyval_ascending_batch(dderiv, polished)
                safe = np.abs(dp) > 1e-300
                step = np.where(safe, p / np.where(safe, dp, 1.0), 0.0)
                polished = polished - step
        polished = np.clip(polished, lo, hi)

        candidates = np.concatenate(
            [polished, np.full((n, 1), lo), np.full((n, 1), hi)], axis=1
        )
        values = polyval_ascending_batch(coeffs, candidates)
        values[:, : roots.shape[1]][~valid] = np.inf
        out = candidates[np.arange(n), np.argmin(values, axis=1)]

    if np.any(fallback):
        for i in np.nonzero(fallback)[0]:
            out[i] = minimize_polynomial_on_interval(coeffs[i], lo, hi)
    return out


def minimize_polynomial_on_interval(
    coeffs: np.ndarray,
    lo: float = 0.0,
    hi: float = 1.0,
    derivative_coeffs: Optional[np.ndarray] = None,
) -> float:
    """Global minimiser of a polynomial on a closed interval.

    Evaluates the polynomial at the interval endpoints and at every real
    stationary point inside the interval, returning the argmin.  This is
    exact (up to root-finding accuracy) for the degree-6 squared-distance
    polynomials arising from cubic Bezier projection.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    if derivative_coeffs is None:
        derivative_coeffs = polynomial_derivative(coeffs)
    candidates = [lo, hi]
    stationary = real_roots_in_interval(derivative_coeffs, lo, hi)
    if stationary.size:
        stationary = newton_polish(derivative_coeffs, stationary)
        stationary = np.clip(stationary, lo, hi)
        candidates.extend(stationary.tolist())
    candidates_arr = np.asarray(candidates, dtype=float)
    values = polyval_ascending(coeffs, candidates_arr)
    return float(candidates_arr[int(np.argmin(values))])
