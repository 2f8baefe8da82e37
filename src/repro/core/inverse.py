"""Theorem 2 machinery: the ranking function φ as the inverse of f.

The paper grounds the RPC in a duality: a strictly monotone ranking
function ``phi : R^d -> R`` has a strictly monotone inverse curve
``f : R -> R^d`` with ``x = f(s) + eps`` (Eq.(11)), and the two share
all geometric properties (Theorem 2).  The RPC learns ``f``; this
module makes the dual ``phi`` concrete:

* :class:`InverseRankingFunction` — a callable φ built from a fitted
  curve, evaluating the projection index with optional linear
  extrapolation beyond the curve ends (so φ is defined on all of
  ``R^d``, as the theorem's statement requires);
* :func:`gradient_is_positive` — the first-order strict-monotonicity
  condition ``∇f(s) ≻ 0`` of Theorem 1/2, checked along the curve;
* :func:`verify_inverse_duality` — the round-trip law
  ``phi(f(s)) = s`` on a grid, quantifying the numerical fidelity of
  the inverse pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import DataValidationError
from repro.core.projection import ProjectionMethod, project_points
from repro.geometry.bezier import BezierCurve
from repro.geometry.cubic import validate_direction_vector


class InverseRankingFunction:
    """The ranking function φ dual to a strictly monotone curve f.

    Parameters
    ----------
    curve:
        A fitted (strictly monotone) Bezier curve in unit coordinates.
    method:
        Projection solver used to evaluate φ.

    Notes
    -----
    For points inside the curve's reach, ``phi(x)`` is the projection
    index ``s_f(x)`` of Eq.(A-2).  Points beyond the ends would all
    clamp to 0 or 1, breaking strictness; φ therefore extends linearly
    past the ends using the end tangent direction, preserving the
    strict order among out-of-range points (the same device the
    theorem's unbounded domain implies).
    """

    def __init__(
        self,
        curve: BezierCurve,
        method: ProjectionMethod = "newton",
    ):
        self.curve = curve
        self.method = method
        self._d0 = curve.derivative(np.array([0.0]))[:, 0]
        self._d1 = curve.derivative(np.array([1.0]))[:, 0]
        self._f0 = curve.start
        self._f1 = curve.end

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Evaluate φ on rows of ``X``; returns shape ``(n,)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.curve.dimension:
            raise DataValidationError(
                f"X must have shape (n, {self.curve.dimension}), got "
                f"{X.shape}"
            )
        s = project_points(self.curve, X, method=self.method)
        # Linear extension at the clamped ends: move the score by the
        # tangential coordinate of the overshoot, scaled to parameter
        # units via the end speed.
        out = s.astype(float)
        at_start = s <= 1e-9
        at_end = s >= 1.0 - 1e-9
        if np.any(at_start):
            speed0 = max(float(self._d0 @ self._d0), 1e-12)
            overshoot = (X[at_start] - self._f0) @ self._d0 / speed0
            out[at_start] = np.minimum(overshoot, 0.0)
        if np.any(at_end):
            speed1 = max(float(self._d1 @ self._d1), 1e-12)
            overshoot = (X[at_end] - self._f1) @ self._d1 / speed1
            out[at_end] = 1.0 + np.maximum(overshoot, 0.0)
        return out


def gradient_is_positive(
    curve: BezierCurve,
    alpha: np.ndarray,
    n_samples: int = 512,
    strict_tol: float = 0.0,
) -> bool:
    """Check the Theorem 1/2 condition ``∇f(s) ≻ 0`` along the curve.

    In the paper's signed sense: every component of ``alpha_j *
    f_j'(s)`` must be strictly positive on a dense parameter grid.
    """
    alpha = validate_direction_vector(alpha, d=curve.dimension)
    grid = np.linspace(0.0, 1.0, n_samples)
    deriv = curve.derivative(grid) * alpha[:, np.newaxis]
    return bool(np.all(deriv > strict_tol))


@dataclass
class DualityReport:
    """Outcome of :func:`verify_inverse_duality`.

    Attributes
    ----------
    max_roundtrip_error:
        ``max_s |phi(f(s)) − s|`` over the test grid.
    monotone_scores:
        Whether φ applied to curve samples is strictly increasing in s.
    gradient_positive:
        The Theorem 1 gradient condition along the curve.
    """

    max_roundtrip_error: float
    monotone_scores: bool
    gradient_positive: bool

    @property
    def holds(self) -> bool:
        """Theorem 2 duality verified to reasonable numerical accuracy."""
        return (
            self.max_roundtrip_error < 1e-3
            and self.monotone_scores
            and self.gradient_positive
        )


def verify_inverse_duality(
    curve: BezierCurve,
    alpha: np.ndarray,
    n_samples: int = 101,
    method: ProjectionMethod = "newton",
) -> DualityReport:
    """Empirically verify ``phi = f^{-1}`` on curve samples.

    Evaluates ``phi(f(s))`` for a grid of ``s`` and reports the worst
    round-trip error, score monotonicity and the gradient condition —
    the executable content of Theorem 2.
    """
    phi = InverseRankingFunction(curve, method=method)
    grid = np.linspace(0.0, 1.0, n_samples)
    on_curve = curve.evaluate(grid).T
    scores = phi(on_curve)
    return DualityReport(
        max_roundtrip_error=float(np.max(np.abs(scores - grid))),
        monotone_scores=bool(np.all(np.diff(scores) > -1e-12)),
        gradient_positive=gradient_is_positive(curve, alpha),
    )
