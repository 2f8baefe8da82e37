"""Polynomial-evaluation projection engine for Bezier curves.

The projection step (Eq.(20)'s first-order condition, solved by grid
scan + Golden Section Search in the paper) used to re-derive the
Bernstein basis and pay one ``P @ basis`` matmul per GSS iteration per
batch — an ``O(k * d * n)`` rebuild for what is, per point, a fixed
univariate polynomial.  This module compiles the squared distance

    ``D_i(s) = ||x_i - f(s)||^2``

of every point into plain ascending power coefficients (degree ``2k``,
via the same expansion as :meth:`BezierCurve.distance_polynomials`)
exactly once, and then every solver — grid bracketing, batched GSS,
warm-start refinement, Newton polish, and the exact ``"roots"``
fallback — evaluates those coefficients with the shared batched Horner
kernel of :mod:`repro.linalg.horner`.  Each solver iteration drops to
``O(k * n)`` fused multiply-adds with no basis rebuild and no factor of
the ambient dimension.

Two-level structure:

* :class:`ProjectionEngine` is built once per curve.  It caches the
  power-basis coefficient matrix ``C`` and the data-independent
  self-product coefficients of ``f(s) . f(s)`` so that compiling a new
  batch of points costs one ``X @ C`` matmul plus a row-sum.
* :meth:`ProjectionEngine.compile` binds a data batch, producing a
  :class:`CompiledProjection` that owns the ``(n, 2k + 1)`` coefficient
  matrix, its first two derivative ladders, every solver primitive and
  the one cold-projection dispatch, :meth:`CompiledProjection.project`.

A :class:`ProjectionEngine` is immutable after construction and a
:class:`CompiledProjection` after compilation, so the daemon's handler
threads can share one engine per model.  All arithmetic is float64.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.linalg.closedform import closed_form_stationary_roots
from repro.linalg.golden_section import golden_section_search_batch
from repro.linalg.horner import horner_batch, horner_pointwise
from repro.linalg.polyroots import batched_minimize_on_interval
from repro.obs.engineprof import current as _active_profile


def _row_invariant_product(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``X @ B`` with per-row bits independent of ``X``'s row count.

    BLAS picks different kernels (gemv vs gemm, different blocking) for
    different ``M``, so ``(X @ B)[i]`` can differ in the last ulp
    between a 1-row and an n-row call — which would leak through the
    compiled coefficients and break the serving contract that scoring
    is bit-identical however rows are chunked or micro-batched.
    Unoptimized ``einsum`` reduces each output element over the (tiny)
    contracted axis in a fixed order, independent of the row count;
    the contracted dimension here is ``d`` or ``k + 1``, small enough
    that the BLAS advantage is a few hundred microseconds per 4096-row
    chunk — noise next to the solver iterations it feeds.
    """
    return np.einsum("ij,jk->ik", X, B)


def curve_self_product_coefficients(C: np.ndarray) -> np.ndarray:
    """Ascending coefficients of ``s -> f(s) . f(s)``, shape ``(2k + 1,)``.

    ``C`` is the ``(d, k + 1)`` power-coefficient matrix of the curve
    (``f(s) = C z``).  The product polynomial's coefficient of ``s^m``
    is the ``m``-th anti-diagonal sum of the Gram matrix ``C^T C``.
    """
    C = np.asarray(C, dtype=float)
    k = C.shape[1] - 1
    gram = C.T @ C
    idx = np.add.outer(np.arange(k + 1), np.arange(k + 1))
    return np.bincount(idx.ravel(), weights=gram.ravel(), minlength=2 * k + 1)


def squared_distance_coefficients(
    C: np.ndarray, X: np.ndarray, ff: np.ndarray = None
) -> np.ndarray:
    """Per-point coefficients of ``s -> ||x_i - C z(s)||^2``, ``(n, 2k + 1)``.

    Expanding the square gives ``f.f - 2 x.f + x.x``: a shared
    data-independent degree-``2k`` part (``ff``, precomputable once per
    curve), a degree-``k`` cross term (one ``X @ C`` matmul), and a
    constant row norm.
    """
    C = np.asarray(C, dtype=float)
    X = np.asarray(X, dtype=float)
    k = C.shape[1] - 1
    if ff is None:
        ff = curve_self_product_coefficients(C)
    coeffs = np.tile(ff, (X.shape[0], 1))
    coeffs[:, : k + 1] -= 2.0 * _row_invariant_product(X, C)
    coeffs[:, 0] += np.sum(X**2, axis=1)
    return coeffs


class ProjectionEngine:
    """Per-curve precompiled projection solvers.

    Construction extracts everything about the curve the solvers need
    (power coefficients and the self-product polynomial); binding a
    data batch with :meth:`compile` is then a single matmul, so one
    engine amortises the setup across many chunks of the same curve —
    the serving paths hold exactly one per fitted model.
    """

    def __init__(self, curve):
        self._curve = curve
        self._C = curve.power_coefficients()  # (d, k + 1)
        self._ff = curve_self_product_coefficients(self._C)

    @property
    def curve(self):
        """The curve this engine was compiled from."""
        return self._curve

    @property
    def degree(self) -> int:
        return self._C.shape[1] - 1

    @property
    def dimension(self) -> int:
        return self._C.shape[0]

    def compile(self, X: np.ndarray) -> "CompiledProjection":
        """Bind a data batch, returning its compiled distance polynomials."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ConfigurationError(
                f"X must have shape (n, {self.dimension}), got {X.shape}"
            )
        prof = _active_profile()
        if prof is not None:
            prof.count("engine_compiles")
        return CompiledProjection(
            squared_distance_coefficients(self._C, X, ff=self._ff),
            X=X,
            C=self._C,
        )


class CompiledProjection:
    """Squared-distance polynomials of one data batch, plus solvers.

    Holds the ``(n, 2k + 1)`` ascending coefficient matrix and its
    first two derivative ladders; every method below is a thin
    composition of Horner evaluations over those three matrices.
    """

    def __init__(
        self,
        coeffs: np.ndarray,
        X: np.ndarray = None,
        C: np.ndarray = None,
    ):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.coeffs = coeffs
        m = coeffs.shape[1]
        powers = np.arange(1, m, dtype=float)
        self.dcoeffs = (
            coeffs[:, 1:] * powers if m > 1 else np.zeros((coeffs.shape[0], 1))
        )
        self.ddcoeffs = (
            self.dcoeffs[:, 1:] * powers[: m - 2]
            if m > 2
            else np.zeros((coeffs.shape[0], 1))
        )
        # Optional data/curve views enabling the BLAS grid-scan fast
        # path of :meth:`distance_on_grid`; purely an optimisation, the
        # Horner fallback computes the same distances.
        self._X = None if X is None else np.asarray(X, dtype=float)
        self._C = None if C is None else np.asarray(C, dtype=float)
        self._sqnorm = (
            np.sum(X**2, axis=1) if X is not None and C is not None else None
        )

    def __len__(self) -> int:
        return self.coeffs.shape[0]

    def __getitem__(self, rows) -> "CompiledProjection":
        """A compiled view of a row subset (mask or index array)."""
        return CompiledProjection(
            self.coeffs[rows],
            X=self._X[rows] if self._X is not None else None,
            C=self._C,
        )

    # ------------------------------------------------------------------
    # Evaluation primitives
    # ------------------------------------------------------------------
    def distance(self, s: np.ndarray) -> np.ndarray:
        """``||x_i - f(s_i)||^2`` per row, shape ``(n,)``."""
        return horner_pointwise(self.coeffs, s)

    def distance_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Distances of every row to ``f`` on a shared grid, ``(n, g)``.

        When the data view is available the ``(n, g)`` matrix is built
        as ``|x|^2 - 2 X F + colnorm(F)`` with ``F`` the curve sampled
        on the grid from its power coefficients — one fused product
        over the ambient dimension instead of ``2k`` Horner passes
        over all ``n * g`` entries (row-invariant by construction, see
        :func:`_row_invariant_product`).
        """
        grid = np.asarray(grid, dtype=float).ravel()
        if self._X is None or self._C is None:
            return horner_batch(self.coeffs, grid)
        k = self._C.shape[1] - 1
        Z = np.empty((k + 1, grid.size))
        Z[0] = 1.0
        for j in range(1, k + 1):
            np.multiply(Z[j - 1], grid, out=Z[j])
        F = self._C @ Z  # (d, g) — no data rows involved, BLAS is fine
        return (
            self._sqnorm[:, np.newaxis]
            - 2.0 * _row_invariant_product(self._X, F)
            + np.sum(F**2, axis=0)[np.newaxis, :]
        )

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------
    def project(self, method: str, n_grid: int, tol: float) -> np.ndarray:
        """Cold projection of every row: the one solver dispatch.

        ``"newton"`` runs safeguarded Newton on Eq.(20) from the best
        grid point of an ``n_grid`` scan, clamped to that point's
        bracket.  ``"gss"`` runs GSS in the same bracket; GSS only
        needs to land inside the right basin, so it runs at a coarse
        tolerance and the Newton polish recovers the last digits.
        ``"roots"`` is the exact, gridless :meth:`minimize_exact`.
        """
        if method == "roots":
            return self.minimize_exact()
        if method == "newton":
            s, lo, hi = self.bracket(n_grid)
            return self.newton_refine(s, lo, hi, tol=tol)
        if method == "gss":
            _, lo, hi = self.bracket(n_grid)
            coarse_tol = max(tol, 1e-4)
            s = self.solve_gss(lo, hi, tol=coarse_tol)
            return self.polish(s, half_width=2.0 * coarse_tol)
        raise ConfigurationError(
            f"unknown projection method {method!r}; "
            "valid: 'gss', 'roots', 'newton'"
        )

    def bracket(
        self, n_grid: int, lo: float = 0.0, hi: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coarse grid scan: per-row ``(s_best, bracket_lo, bracket_hi)``.

        The distance to a degree-``k`` curve can have up to ``2k - 1``
        stationary points, so GSS/Newton need a bracket that isolates
        the global basin first — same contract as
        :func:`repro.linalg.golden_section.bracketed_minimum`.
        """
        if n_grid < 3:
            raise ConfigurationError(f"n_grid must be >= 3, got {n_grid}")
        # Profiling hooks (here and in the other solvers): one
        # ContextVar read and an ``is None`` branch per *call* when no
        # profile is active — see :mod:`repro.obs.engineprof`.
        prof = _active_profile()
        t0 = time.perf_counter() if prof is not None else 0.0
        grid = np.linspace(lo, hi, n_grid)
        values = self.distance_on_grid(grid)
        best = np.argmin(values, axis=1)
        step = (hi - lo) / (n_grid - 1)
        s_best = grid[best]
        if prof is not None:
            prof.add_phase(
                "grid_scan", time.perf_counter() - t0, rows=len(self)
            )
        return (
            s_best,
            np.clip(s_best - step, lo, hi),
            np.clip(s_best + step, lo, hi),
        )

    def solve_gss(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        tol: float = 1e-10,
        max_iter: int = 200,
    ) -> np.ndarray:
        """Batched GSS on the compiled distances within ``[lo, hi]``.

        The two initial interior points are evaluated in one fused
        Horner pass (see ``pair_func`` in
        :func:`golden_section_search_batch`).
        """
        prof = _active_profile()
        t0 = time.perf_counter() if prof is not None else 0.0
        s_opt, _ = golden_section_search_batch(
            self.distance,
            lo,
            hi,
            tol=tol,
            max_iter=max_iter,
            pair_func=lambda cd: horner_batch(self.coeffs, cd),
        )
        if prof is not None:
            prof.add_phase("gss", time.perf_counter() - t0, rows=len(self))
        return s_opt

    def newton_refine(
        self,
        s: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        tol: float = 1e-10,
        max_iter: int = 50,
    ) -> np.ndarray:
        """Clamped Newton on Eq.(20) within per-row brackets.

        Eq.(20) is ``-1/2 D'(s) = 0``, so the Newton step is
        ``D'(s) / D''(s)`` on the compiled derivative ladders — the
        same iterate as the curve-based formulation (``g = f'.(x - f)``)
        at a fraction of the cost.  Ends with the usual endpoint
        comparison so constrained optima at bracket edges survive.

        Each row stops iterating the moment *its own* step falls below
        ``tol`` (rather than when the batch-wide maximum does), so the
        iterate a row ends on is independent of which other rows share
        its batch — the bit-level batch-split invariance the serving
        micro-batcher relies on when it coalesces rows from unrelated
        requests into one solve.
        """
        prof = _active_profile()
        t0 = time.perf_counter() if prof is not None else 0.0
        iterations = 0
        s = np.asarray(s, dtype=float).copy()
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        active = np.ones(s.shape, dtype=bool)
        for _ in range(max_iter):
            if not np.any(active):
                break
            iterations += 1
            g = horner_pointwise(self.dcoeffs, s)
            dg = horner_pointwise(self.ddcoeffs, s)
            safe = active & (np.abs(dg) > 1e-14)
            delta = np.zeros_like(s)
            delta[safe] = g[safe] / dg[safe]
            s_new = np.clip(s - delta, lo, hi)
            active = active & (np.abs(s_new - s) >= tol)
            s = s_new
        candidates = np.stack([s, lo, hi], axis=-1)  # (n, 3)
        dists = horner_batch(self.coeffs, candidates)
        pick = np.argmin(dists, axis=1)
        if prof is not None:
            prof.add_phase(
                "newton", time.perf_counter() - t0, rows=len(self)
            )
            prof.count("newton_iterations", iterations)
        return candidates[np.arange(s.size), pick]

    def polish(
        self,
        s: np.ndarray,
        half_width: float = 1e-5,
        tol: float = 1e-14,
    ) -> np.ndarray:
        """Refine GSS scores to the exact stationary point of their basin.

        GSS resolves ``s`` only to about ``sqrt(eps)``; a few clamped
        Newton steps inside a tight bracket recover ~1e-14, making
        results reproducible across bracketing strategies and batch
        splits.  Scores are only replaced where the polished point is
        at least as close, so constrained endpoint optima are kept.

        The acceptance test carries a few-ulp slack: near the optimum a
        genuine improvement of ``O(ds^2)`` sits below the evaluation
        noise of the distance itself, and a strict ``<=`` would reject
        the polished (exactly stationary) point on a coin flip — the
        pre-engine path did exactly that, which is where its residual
        ~1e-8 jitter came from.  The slack admits at most a noise-level
        distance increase, i.e. an ``O(sqrt(eps))``-in-``s`` move.
        """
        s = np.asarray(s, dtype=float)
        lo = np.clip(s - half_width, 0.0, 1.0)
        hi = np.clip(s + half_width, 0.0, 1.0)
        s_new = self.newton_refine(s, lo, hi, tol=tol, max_iter=4)
        d_old = self.distance(s)
        slack = 64.0 * np.finfo(float).eps * (1.0 + np.abs(d_old))
        improved = self.distance(s_new) <= d_old + slack
        return np.where(improved, s_new, s)

    def minimize_exact(self, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The ``"roots"`` path: exact stationary-point enumeration.

        Stationary roots come from the analytic closed forms plus
        monotone-interval isolation (:mod:`repro.linalg.closedform`);
        the stacked-eigvals minimiser they replace is the test oracle.
        """
        prof = _active_profile()
        t0 = time.perf_counter() if prof is not None else 0.0
        result = batched_minimize_on_interval(
            self.coeffs, lo, hi, root_solver=closed_form_stationary_roots
        )
        if prof is not None:
            prof.add_phase(
                "roots", time.perf_counter() - t0, rows=len(self)
            )
        return result
