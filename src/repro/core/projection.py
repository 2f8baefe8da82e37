"""Projection step of Algorithm 1: solving Eq.(20) for the scores.

Given the current curve ``f`` and data ``X``, the projection step finds
for every point the latent coordinate

    ``s_i = argmin_{s in [0, 1]} ‖x_i − f(s)‖²``

whose stationary condition Eq.(20), ``f'(s)^T (x_i − f(s)) = 0``, is a
quintic polynomial for a cubic curve.  Three interchangeable solvers
are provided, matching the options discussed in Section 5:

* ``"gss"`` — grid bracketing + batched Golden Section Search (the
  paper's choice; robust to the up-to-three local minima of the
  distance function);
* ``"roots"`` — exact stationary-point enumeration via companion-matrix
  root finding (the Jenkins–Traub-style alternative);
* ``"newton"`` — grid bracketing followed by safeguarded Newton on the
  stationary condition (the Gradient/Gauss–Newton-style alternative).

All three routes run through the polynomial-evaluation projection
engine (:mod:`repro.geometry.engine`): the squared-distance polynomial
of every point is compiled once per call into plain power coefficients,
and the grid scan, every GSS iteration, every Newton step and the
``"roots"`` fallback evaluate those coefficients with one shared
batched Horner kernel — no Bernstein rebuild or ``P @ basis`` matmul
inside any solver loop.  The pre-engine formulation, which evaluated
the curve itself inside the loops, is retained verbatim as
:func:`project_points_legacy_gss`; it serves as the correctness oracle
in ``tests/test_projection_engine.py`` and as the baseline of the
``serving_engine`` benchmark.

All solvers return scores in ``[0, 1]`` and are benchmarked against
each other in the ablation suite.  Since the serving PR the ``"gss"``
path finishes with a few clamped Newton steps (:func:`_polish_scores`),
which nails each score to its basin's exact stationary point; this
shifts results by up to ~1e-8 versus the original GSS-only seed in
exchange for bitwise reproducibility across bracketing strategies
(cold vs warm) and batch splits (chunked vs one-shot scoring).  The
engine preserves that contract: engine and legacy scores agree to
1e-8 (usually ~1e-12) because both end on the same stationary points.

Warm starts
-----------
Inside Algorithm 1 the curve moves a little per iteration, so the
previous iteration's scores are excellent initial guesses.  Passing
``s0`` to :func:`project_points` replaces the full ``n_grid``-point
bracketing scan with a narrow bracket centred on each ``s0_i``, plus a
sparse safeguard scan that detects points whose global basin moved away
from the warm bracket (those few points are re-projected from scratch).
This cuts the per-iteration grid-search cost that dominates the
``O(n)`` term measured by ``benchmarks/test_bench_scaling.py``.

Engine reuse
------------
Compiling a batch is one matmul, but building the engine also converts
the curve to power coefficients; callers that project many chunks
against one fixed curve (the serving paths) should construct a single
:class:`~repro.geometry.engine.ProjectionEngine` and pass it via the
``engine=`` parameter so that per-chunk setup amortises.  The engine is
immutable, so one instance is safe across the daemon's handler threads.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.geometry.bezier import BezierCurve
from repro.geometry.engine import CompiledProjection, ProjectionEngine
from repro.obs.engineprof import current as _active_profile
from repro.linalg.polyroots import (
    polynomial_derivative,
    polyval_ascending,
)

ProjectionMethod = Literal["gss", "roots", "newton"]

_VALID_METHODS = ("gss", "roots", "newton")

#: Resolution of the sparse safeguard scan used by warm-started
#: projection to catch basin switches (includes both endpoints).
_SAFEGUARD_GRID = 7


def warm_bracket_width(n_grid: int) -> float:
    """Half-width of a warm-start bracket: one cold-grid cell.

    Also the maximum per-iteration curve movement for which the fit
    loop trusts warm starts — the two must stay equal, or the fit
    could hand :func:`_project_points` guesses farther from the
    optimum than the bracket can recover from.
    """
    return 1.0 / max(n_grid - 1, 2)


def _pointwise_squared_distance(
    curve: BezierCurve, X: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """``‖x_i − f(s_i)‖²`` per row via curve evaluation, shape ``(n,)``.

    Kept on the legacy (curve-evaluating) formulation; the engine path
    uses :meth:`CompiledProjection.distance` instead.
    """
    return np.sum((X - curve.evaluate(s).T) ** 2, axis=1)


def project_points(
    curve: BezierCurve,
    X: np.ndarray,
    method: ProjectionMethod = "gss",
    n_grid: int = 32,
    tol: float = 1e-10,
    s0: Optional[np.ndarray] = None,
    engine: Optional[ProjectionEngine] = None,
    backend=None,
) -> np.ndarray:
    """Compute projection scores for every row of ``X``.

    Parameters
    ----------
    curve:
        The current Bezier curve iterate.
    X:
        Data matrix of shape ``(n, d)``.
    method:
        One of ``"gss"``, ``"roots"``, ``"newton"`` (see module docs).
    n_grid:
        Bracketing grid resolution for the iterative methods.
    tol:
        Convergence tolerance of the 1-D solves.
    s0:
        Optional warm-start scores of shape ``(n,)`` (typically the
        previous iteration's projection).  The iterative methods then
        search a narrow bracket around each ``s0_i`` instead of running
        the full grid scan.  A sparse :data:`_SAFEGUARD_GRID`-point
        scan triggers a cold re-projection for points it catches
        escaping the bracket, but it is a heuristic: a guess more than
        about one grid cell from the optimum can land in the wrong
        basin undetected, so callers must supply guesses that are
        already close (the fit loop additionally gates warm starts on
        small curve movement).  Ignored by ``"roots"``, which is
        already exact and gridless.
    engine:
        Optional prebuilt :class:`ProjectionEngine` for ``curve``.
        Serving callers that score many chunks against one model pass
        their cached engine here so the per-call curve setup (power
        conversion, self-product coefficients) is paid once.  An engine
        built for a *different* curve is ignored and rebuilt — passing
        a stale engine can never change the scores.
    backend:
        Optional root-solver backend (name or
        :class:`~repro.linalg.backend.KernelBackend` instance) for this
        batch; ``None`` keeps the engine's default (the numpy
        reference).  See :mod:`repro.linalg.backend`.

    Returns
    -------
    Scores ``s`` of shape ``(n,)`` with entries in ``[0, 1]``.
    """
    if method not in _VALID_METHODS:
        raise ConfigurationError(
            f"unknown projection method {method!r}; valid: {_VALID_METHODS}"
        )
    X = np.asarray(X, dtype=float)
    if engine is None or engine.curve is not curve:
        engine = ProjectionEngine(curve)
    compiled = engine.compile(X, backend=backend)
    if method == "roots":
        return compiled.minimize_exact()
    if s0 is not None:
        return _project_warm(
            curve, X, s0, method=method, n_grid=n_grid, tol=tol,
            engine=engine, compiled=compiled, backend=backend,
        )
    if method == "gss":
        _, lo, hi = compiled.bracket(n_grid)
        # The Newton polish recovers full precision from any
        # basin-correct point, so GSS only needs to land inside the
        # right basin: run it at a coarse tolerance (the warm path has
        # always done this) and let the polish do the last digits.
        coarse_tol = max(tol, 1e-4)
        s = compiled.solve_gss(lo, hi, tol=coarse_tol)
        return compiled.polish(s, half_width=2.0 * coarse_tol)
    return _project_newton(compiled, n_grid=n_grid, tol=tol)


def _project_warm(
    curve: BezierCurve,
    X: np.ndarray,
    s0: np.ndarray,
    method: ProjectionMethod,
    n_grid: int,
    tol: float,
    engine: ProjectionEngine,
    compiled: CompiledProjection,
    backend=None,
) -> np.ndarray:
    """Warm-started projection: narrow brackets around ``s0`` + safeguard.

    The bracket half-width equals one cold-grid step, so a point whose
    optimum drifted by less than a grid cell is solved without any grid
    scan.  A :data:`_SAFEGUARD_GRID`-point sparse scan flags points
    whose true basin clearly lies elsewhere and re-projects them cold.
    The guarantee is only ``d(s_warm) <= min(d on the sparse grid)``:
    a better basin hiding between sparse samples goes unnoticed, which
    is acceptable for near-optimal guesses but not for arbitrary ones.
    """
    s0 = np.clip(np.asarray(s0, dtype=float).ravel(), 0.0, 1.0)
    if s0.size != X.shape[0]:
        raise ConfigurationError(
            f"s0 has {s0.size} entries for {X.shape[0]} data rows"
        )
    width = warm_bracket_width(n_grid)
    lo = np.clip(s0 - width, 0.0, 1.0)
    hi = np.clip(s0 + width, 0.0, 1.0)

    if method == "newton":
        s_warm = compiled.newton_refine(s0, lo, hi, tol=tol)
    else:
        # The Newton polish below recovers full precision from any
        # basin-correct starting point, so the warm GSS only needs to
        # land inside the right basin — run it at a coarse tolerance
        # and let the polish do the last digits.
        coarse_tol = max(tol, 1e-4)
        s_warm = compiled.solve_gss(lo, hi, tol=coarse_tol)
        s_warm = compiled.polish(s_warm, half_width=2.0 * coarse_tol)

    # Safeguard: a sparse scan over [0, 1] catches basin switches the
    # narrow bracket cannot see.  Points where a sparse-grid sample is
    # strictly closer than the warm solution are re-projected cold.
    d_warm = compiled.distance(s_warm)
    sparse = np.linspace(0.0, 1.0, _SAFEGUARD_GRID)
    d_sparse = compiled.distance_on_grid(sparse)
    escaped = np.min(d_sparse, axis=1) < d_warm - 1e-14
    prof = _active_profile()
    if prof is not None:
        # Warm-start effectiveness: rows whose narrow bracket held vs
        # rows the safeguard sent back to a cold projection.
        n_missed = int(np.count_nonzero(escaped))
        prof.count("warm_start_hits", int(escaped.size) - n_missed)
        prof.count("warm_start_misses", n_missed)
    if np.any(escaped):
        s_cold = project_points(
            curve, X[escaped], method=method, n_grid=n_grid, tol=tol,
            engine=engine, backend=backend,
        )
        d_cold = compiled[escaped].distance(s_cold)
        better = d_cold < d_warm[escaped]
        replacement = s_warm[escaped]
        replacement[better] = s_cold[better]
        s_warm[escaped] = replacement
    return s_warm


def _polish_scores(
    curve: BezierCurve,
    X: np.ndarray,
    s: np.ndarray,
    half_width: float = 1e-5,
    tol: float = 1e-14,
    compiled: Optional[CompiledProjection] = None,
) -> np.ndarray:
    """Refine GSS scores to the exact stationary point of their basin.

    Golden Section Search resolves ``s`` only to about ``sqrt(eps)``
    (function-value comparisons go blind once the quadratic term drops
    below float precision), which leaves ~1e-8 jitter that warm and
    cold runs would disagree on.  A few clamped Newton steps on
    Eq.(20) inside a tight bracket push every interior score to its
    basin's true optimum (~1e-14), making projection results
    reproducible across bracketing strategies.  Scores are only
    replaced where the polished point is at least as close to the data
    point, so constrained endpoint optima survive untouched.

    Routed through the engine since the engine PR: the Newton steps run
    on the compiled distance-polynomial derivatives rather than on
    curve evaluations (same iterate, cheaper arithmetic).
    """
    if compiled is None:
        compiled = ProjectionEngine(curve).compile(X)
    return compiled.polish(s, half_width=half_width, tol=tol)


def _project_newton(
    compiled: CompiledProjection,
    n_grid: int,
    tol: float,
    max_iter: int = 50,
) -> np.ndarray:
    """Safeguarded Newton iteration on the stationary condition.

    Works on the compiled polynomial form of ``g(s) = f'(s)·(x − f(s))``
    (``-1/2 D'(s)``), starting from the best grid point and falling back
    to bisection-style clamping into the bracket when a Newton step
    escapes it.
    """
    s, lo, hi = compiled.bracket(n_grid)
    return compiled.newton_refine(s, lo, hi, tol=tol, max_iter=max_iter)


# ----------------------------------------------------------------------
# Pre-engine reference path
# ----------------------------------------------------------------------
def _legacy_curve_eval(curve: BezierCurve, s: np.ndarray) -> np.ndarray:
    """Seed-era curve evaluation: ``comb``/``pow`` basis + ``P @ basis``.

    Frozen replica of what ``BezierCurve.evaluate`` cost before this
    PR's Bernstein vectorisation, so the legacy baseline measures the
    true pre-engine per-iteration price.  Do not optimise.
    """
    from math import comb

    k = curve.degree
    s = np.atleast_1d(np.asarray(s, dtype=float))
    one_minus = 1.0 - s
    basis = np.empty((k + 1,) + s.shape)
    for r in range(k + 1):
        basis[r] = comb(k, r) * one_minus ** (k - r) * s**r
    return curve.control_points @ basis


def project_points_legacy_gss(
    curve: BezierCurve,
    X: np.ndarray,
    n_grid: int = 32,
    tol: float = 1e-10,
) -> np.ndarray:
    """The pre-engine cold GSS path, kept as a frozen reference.

    Replicates what ``project_points(method="gss")`` did before the
    projection engine landed: grid scan, GSS objective and Newton
    polish all evaluate the curve itself — Bernstein basis rebuild
    (``math.comb`` + power ladders) and a ``P @ basis`` matmul per
    evaluation, with the seed's batched GSS loop that recomputes both
    interior points every iteration.  Used by the engine agreement
    tests and as the baseline of the ``serving_engine`` benchmark / CI
    perf smoke — do not optimise this function.
    """
    from repro.linalg.golden_section import INV_PHI, INV_PHI2

    X = np.asarray(X, dtype=float)
    grid = np.linspace(0.0, 1.0, n_grid)
    pts = _legacy_curve_eval(curve, grid)  # (d, g)
    sq = (
        np.sum(X**2, axis=1)[:, np.newaxis]
        - 2.0 * X @ pts
        + np.sum(pts**2, axis=0)[np.newaxis, :]
    )
    best = np.argmin(sq, axis=1)
    step = 1.0 / (n_grid - 1)
    lo = np.clip(grid[best] - step, 0.0, 1.0)
    hi = np.clip(grid[best] + step, 0.0, 1.0)

    def objective(s: np.ndarray) -> np.ndarray:
        return np.sum((X.T - _legacy_curve_eval(curve, s)) ** 2, axis=0)

    # Seed-era batch GSS: branch-free bookkeeping, both interior points
    # re-evaluated per iteration (two objective calls where the current
    # value-reuse loop spends one).
    a = lo.copy()
    b = hi.copy()
    h = b - a
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc = objective(c)
    fd = objective(d)
    for _ in range(200):
        if np.all(h <= tol):
            break
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        c = a + INV_PHI2 * h
        d = a + INV_PHI * h
        fc = objective(c)
        fd = objective(d)
    s_opt = np.where(fc < fd, c, d)

    # Curve-based polish (the pre-engine _polish_scores), with the same
    # noise-tolerant acceptance as the engine's polish: strictly
    # comparing distances rejects a stationary refinement whenever the
    # O(ds^2) improvement drops below evaluation noise, and the two
    # paths would then disagree by the rejected point's GSS jitter.
    half_width = 1e-5
    p_lo = np.clip(s_opt - half_width, 0.0, 1.0)
    p_hi = np.clip(s_opt + half_width, 0.0, 1.0)
    s_new = _newton_refine_curve(
        curve, X, s_opt.copy(), p_lo, p_hi, tol=1e-14, max_iter=4
    )
    d_old = _pointwise_squared_distance(curve, X, s_opt)
    d_new = _pointwise_squared_distance(curve, X, s_new)
    slack = 64.0 * np.finfo(float).eps * (1.0 + np.abs(d_old))
    return np.where(d_new <= d_old + slack, s_new, s_opt)


def _newton_refine_curve(
    curve: BezierCurve,
    X: np.ndarray,
    s: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
    max_iter: int = 50,
) -> np.ndarray:
    """Clamped Newton on Eq.(20) via curve evaluation (legacy path).

    The engine path performs the identical iterate on compiled
    polynomial derivatives (:meth:`CompiledProjection.newton_refine`);
    this curve-based form survives only inside
    :func:`project_points_legacy_gss`.
    """
    hodograph = curve.derivative_curve()
    second = hodograph.derivative_curve() if curve.degree >= 2 else None

    for _ in range(max_iter):
        f_s = curve.evaluate(s)  # (d, n)
        df_s = hodograph.evaluate(s)
        residual = X.T - f_s  # (d, n)
        g = np.sum(df_s * residual, axis=0)
        ddf_s = second.evaluate(s) if second is not None else np.zeros_like(df_s)
        dg = np.sum(ddf_s * residual, axis=0) - np.sum(df_s**2, axis=0)
        # Guard against vanishing curvature.
        safe = np.abs(dg) > 1e-14
        delta = np.zeros_like(s)
        delta[safe] = g[safe] / dg[safe]
        s_new = np.clip(s - delta, lo, hi)
        if s.size == 0 or np.max(np.abs(s_new - s)) < tol:
            s = s_new
            break
        s = s_new

    # Endpoint correction: the constrained minimiser may sit at a
    # bracket endpoint where g != 0; compare against the endpoints.
    candidates = np.stack([s, lo, hi], axis=0)  # (3, n)
    dists = np.empty_like(candidates)
    for row in range(candidates.shape[0]):
        pts_row = curve.evaluate(candidates[row])
        dists[row] = np.sum((X.T - pts_row) ** 2, axis=0)
    pick = np.argmin(dists, axis=0)
    return candidates[pick, np.arange(s.size)]


def stationary_polynomial(curve: BezierCurve, x: np.ndarray) -> np.ndarray:
    """Ascending-power coefficients of Eq.(20) for a single point.

    For a degree-``k`` curve with power coefficients ``C`` (so ``f(s) =
    C z``), the stationary condition ``f'(s)·(x − f(s))`` is a
    polynomial of degree ``2k − 1`` (a quintic when ``k = 3``).
    Exposed for tests and for didactic examples; the ``"roots"`` solver
    uses the equivalent derivative-of-distance formulation.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != curve.dimension:
        raise ConfigurationError(
            f"point has {x.size} attributes, curve lives in R^{curve.dimension}"
        )
    # distance²(s) = (x - Cz)·(x - Cz); Eq.(20) is -(1/2) d(distance²)/ds.
    dist_coeffs = curve.distance_polynomials(x[np.newaxis, :])[0]
    return -0.5 * polynomial_derivative(dist_coeffs)


def stationary_residual(curve: BezierCurve, x: np.ndarray, s: float) -> float:
    """Value of ``f'(s)·(x − f(s))`` — zero at interior optima."""
    coeffs = stationary_polynomial(curve, x)
    return float(polyval_ascending(coeffs, np.asarray([s]))[0])
