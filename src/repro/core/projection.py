"""Projection step of Algorithm 1: solving Eq.(20) for the scores.

Given the current curve ``f`` and data ``X``, the projection step finds
for every point the latent coordinate

    ``s_i = argmin_{s in [0, 1]} ‖x_i − f(s)‖²``

whose stationary condition Eq.(20), ``f'(s)^T (x_i − f(s)) = 0``, is a
quintic polynomial for a cubic curve.  Three interchangeable solvers
are provided, matching the options discussed in Section 5:

* ``"newton"`` — grid bracketing followed by safeguarded Newton on the
  stationary condition (the Gradient/Gauss–Newton-style alternative;
  the default);
* ``"gss"`` — grid bracketing + batched Golden Section Search (the
  paper's solver, robust to the up-to-three local minima of the
  distance function; kept for the Section 5 ablation and for saved
  models, which record the solver they were fitted with);
* ``"roots"`` — exact stationary-point enumeration (the
  Jenkins–Traub-style alternative), with the stationary roots found in
  closed form (:mod:`repro.linalg.closedform`).

Newton and GSS search the same grid bracket and end on the same
stationary point (GSS finishes with a few clamped Newton steps that
nail each score to its basin's optimum), so they agree to ~1e-14;
Newton gets there in a handful of steps where GSS needs dozens of
iterations, which cuts the bundled fits to 55–70% of their GSS time.
Both can only find the basin their bracket isolates: with the default
32-point grid they settle in a non-global basin on 3 of 40,000
uniform rows in the countries data range, where ``"roots"`` finds a
point 4e-6 to 4e-4 closer in squared distance (worst score gap
0.715; see ``docs/performance.md``).

All three run through the polynomial-evaluation projection engine
(:mod:`repro.geometry.engine`): the squared-distance polynomial of
every point is compiled once per call into plain power coefficients,
and the grid scan, every GSS iteration, every Newton step and the
``"roots"`` path evaluate those coefficients with one shared batched
Horner kernel.  The cold dispatch itself is
:meth:`CompiledProjection.project
<repro.geometry.engine.CompiledProjection.project>`, which
:meth:`BezierCurve.project <repro.geometry.bezier.BezierCurve.project>`
shares.

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
    could hand :func:`_project_warm` guesses farther from the
    optimum than the bracket can recover from.
    """
    return 1.0 / max(n_grid - 1, 2)


def project_points(
    curve: BezierCurve,
    X: np.ndarray,
    method: ProjectionMethod = "newton",
    n_grid: int = 32,
    tol: float = 1e-10,
    s0: Optional[np.ndarray] = None,
    engine: Optional[ProjectionEngine] = None,
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
    compiled = engine.compile(X)
    if s0 is not None and method != "roots":
        return _project_warm(
            curve, X, s0, method=method, n_grid=n_grid, tol=tol,
            engine=engine, compiled=compiled,
        )
    return compiled.project(method, n_grid=n_grid, tol=tol)


def _project_warm(
    curve: BezierCurve,
    X: np.ndarray,
    s0: np.ndarray,
    method: ProjectionMethod,
    n_grid: int,
    tol: float,
    engine: ProjectionEngine,
    compiled: CompiledProjection,
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
            engine=engine,
        )
        d_cold = compiled[escaped].distance(s_cold)
        better = d_cold < d_warm[escaped]
        replacement = s_warm[escaped]
        replacement[better] = s_cold[better]
        s_warm[escaped] = replacement
    return s_warm


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
