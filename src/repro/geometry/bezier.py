"""General-degree Bezier curves in ``R^d``.

A :class:`BezierCurve` wraps a ``(d, k + 1)`` control-point matrix and
offers evaluation, derivatives, degree elevation, de Casteljau
subdivision, arc length, and projection of external points onto the
curve.  The RPC model (degree 3, constrained control points) is built
on top of this class; keeping the general machinery separate lets the
geometry be tested against classical Bezier identities independently of
the ranking semantics.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.integrate import quad

from repro.core.exceptions import ConfigurationError
from repro.geometry.bernstein import (
    bernstein_basis,
    bernstein_derivative_basis,
    bernstein_to_power_matrix,
    power_vector,
)
from repro.geometry.engine import ProjectionEngine, squared_distance_coefficients


class BezierCurve:
    """A Bezier curve ``f(s) = sum_r B_r^k(s) p_r`` on ``s in [0, 1]``.

    Parameters
    ----------
    control_points:
        Matrix of shape ``(d, k + 1)``: column ``r`` is the point
        ``p_r``.  The curve starts at column 0 and ends at column ``k``.
        (The paper's Eq.(15) uses the same column convention: ``P =
        (p0, p1, p2, p3)``.)
    """

    def __init__(self, control_points: np.ndarray):
        P = np.asarray(control_points, dtype=float)
        if P.ndim != 2:
            raise ConfigurationError(
                f"control_points must be a (d, k+1) matrix, got ndim={P.ndim}"
            )
        if P.shape[1] < 2:
            raise ConfigurationError(
                "a Bezier curve needs at least two control points "
                f"(degree >= 1), got {P.shape[1]}"
            )
        if not np.all(np.isfinite(P)):
            raise ConfigurationError("control_points contain NaN or inf")
        self._P = P

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def control_points(self) -> np.ndarray:
        """The ``(d, k + 1)`` control-point matrix (a defensive copy)."""
        return self._P.copy()

    @property
    def degree(self) -> int:
        """Polynomial degree ``k`` of the curve."""
        return self._P.shape[1] - 1

    @property
    def dimension(self) -> int:
        """Ambient dimension ``d``."""
        return self._P.shape[0]

    @property
    def start(self) -> np.ndarray:
        """Curve point at ``s = 0`` (equals the first control point)."""
        return self._P[:, 0].copy()

    @property
    def end(self) -> np.ndarray:
        """Curve point at ``s = 1`` (equals the last control point)."""
        return self._P[:, -1].copy()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Evaluate the curve; returns shape ``(d, n)`` for 1-D ``s``."""
        return self.evaluate(s)

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """Evaluate ``f(s)`` for a vector of parameters.

        Parameters
        ----------
        s:
            Parameter values, shape ``(n,)`` (scalars are promoted).

        Returns
        -------
        Array of shape ``(d, n)``.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        basis = bernstein_basis(self.degree, s)  # (k+1, n)
        return self._P @ basis

    def evaluate_de_casteljau(self, s: float) -> np.ndarray:
        """Evaluate one parameter via the de Casteljau recurrence.

        Numerically the most stable evaluation; used in tests as an
        oracle for :meth:`evaluate`.
        """
        pts = self._P.copy()
        k = self.degree
        for level in range(k):
            pts[:, : k - level] = (1.0 - s) * pts[:, : k - level] + s * pts[
                :, 1 : k - level + 1
            ]
        return pts[:, 0].copy()

    def derivative_curve(self) -> "BezierCurve":
        """The hodograph: a degree ``k - 1`` Bezier curve equal to ``f'``.

        Eq.(17): ``f'(s) = k * sum_j B_j^{k-1}(s) (p_{j+1} - p_j)``.
        """
        k = self.degree
        if k == 0:
            raise ConfigurationError("degree-0 curve has no derivative curve")
        diff = k * (self._P[:, 1:] - self._P[:, :-1])
        return BezierCurve(diff) if k >= 2 else BezierCurve(
            np.column_stack([diff[:, 0], diff[:, 0]])
        )

    def derivative(self, s: np.ndarray) -> np.ndarray:
        """Evaluate ``f'(s)``; returns shape ``(d, n)``."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        dbasis = bernstein_derivative_basis(self.degree, s)
        return self._P @ dbasis

    # ------------------------------------------------------------------
    # Power-basis view
    # ------------------------------------------------------------------
    def power_coefficients(self) -> np.ndarray:
        """Coefficients ``C`` with ``f(s) = C z``, ``z = (1, s, ..., s^k)``.

        Returns shape ``(d, k + 1)``; column ``j`` multiplies ``s^j``.
        This is ``P M`` in the paper's notation.
        """
        M = bernstein_to_power_matrix(self.degree)
        return self._P @ M

    # ------------------------------------------------------------------
    # Geometric operations
    # ------------------------------------------------------------------
    def elevate_degree(self) -> "BezierCurve":
        """Return an equivalent curve of degree ``k + 1``.

        Degree elevation preserves the curve point-for-point; tests use
        it to check that geometric queries are representation
        independent.
        """
        k = self.degree
        P = self._P
        Q = np.empty((self.dimension, k + 2))
        Q[:, 0] = P[:, 0]
        Q[:, -1] = P[:, -1]
        for r in range(1, k + 1):
            w = r / (k + 1.0)
            Q[:, r] = w * P[:, r - 1] + (1.0 - w) * P[:, r]
        return BezierCurve(Q)

    def subdivide(self, s: float) -> Tuple["BezierCurve", "BezierCurve"]:
        """Split the curve at parameter ``s`` into two Bezier curves.

        Both halves are degree ``k``; their union traces exactly the
        original curve (left covers ``[0, s]``, right covers ``[s, 1]``).
        """
        if not 0.0 <= s <= 1.0:
            raise ConfigurationError(f"split parameter must lie in [0,1], got {s}")
        k = self.degree
        pts = self._P.copy()
        left = np.empty_like(self._P)
        right = np.empty_like(self._P)
        left[:, 0] = pts[:, 0]
        right[:, k] = pts[:, k]
        for level in range(k):
            pts[:, : k - level] = (1.0 - s) * pts[:, : k - level] + s * pts[
                :, 1 : k - level + 1
            ]
            left[:, level + 1] = pts[:, 0]
            right[:, k - level - 1] = pts[:, k - level - 1]
        return BezierCurve(left), BezierCurve(right)

    def arc_length(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Arc length of the curve segment via adaptive quadrature."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigurationError(
                f"need 0 <= lo <= hi <= 1, got lo={lo}, hi={hi}"
            )

        def speed(t: float) -> float:
            return float(np.linalg.norm(self.derivative(np.array([t]))[:, 0]))

        value, _abserr = quad(speed, lo, hi, limit=200)
        return float(value)

    # ------------------------------------------------------------------
    # Projection of external points
    # ------------------------------------------------------------------
    def project(
        self,
        X: np.ndarray,
        method: str = "newton",
        n_grid: int = 32,
        tol: float = 1e-10,
    ) -> np.ndarray:
        """Projection indices ``s_f(x)`` of Eq.(A-2) for each row of ``X``.

        The cold path of :func:`repro.core.projection.project_points`,
        bit for bit: both compile the rows with the projection engine
        and call :meth:`CompiledProjection.project
        <repro.geometry.engine.CompiledProjection.project>`.

        Parameters
        ----------
        X:
            Data of shape ``(n, d)``.
        method:
            ``"newton"`` (default) — grid scan plus safeguarded Newton
            on the stationary condition; ``"gss"`` — grid scan plus
            batched Golden Section Search (the paper's solver);
            ``"roots"`` — exact minimisation of the squared-distance
            polynomial via its stationary points.
        n_grid:
            Grid resolution of the bracketing scan (``"newton"`` and
            ``"gss"``).
        tol:
            Step tolerance of the 1-D solve.  GSS scores are
            additionally Newton-polished onto their basin's stationary
            point, so both grid methods reach ~1e-14.

        Returns
        -------
        Array of shape ``(n,)`` with values in ``[0, 1]``.
        """
        return ProjectionEngine(self).compile(X).project(
            method, n_grid=n_grid, tol=tol
        )

    def distance_polynomials(self, X: np.ndarray) -> np.ndarray:
        """Ascending coefficients of ``s -> ‖x_i − f(s)‖²`` for each row.

        Returns shape ``(n, 2k + 1)``: row ``i`` is the degree-``2k``
        squared-distance polynomial of point ``x_i``.  Shared between the
        batched ``"roots"`` projection, the projection engine and
        diagnostic tooling (the expansion itself lives in
        :func:`repro.geometry.engine.squared_distance_coefficients`).
        """
        X = np.asarray(X, dtype=float)
        return squared_distance_coefficients(self.power_coefficients(), X)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation of the curve.

        Python ``repr`` round-trips floats exactly, so a
        ``to_dict`` → ``json`` → ``from_dict`` cycle reproduces the
        control points bit-for-bit.
        """
        return {
            "type": "BezierCurve",
            "degree": self.degree,
            "dimension": self.dimension,
            "control_points": self._P.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BezierCurve":
        """Rebuild a curve from :meth:`to_dict` output."""
        if payload.get("type") != "BezierCurve":
            raise ConfigurationError(
                f"payload is not a BezierCurve dict: type={payload.get('type')!r}"
            )
        curve = cls(np.asarray(payload["control_points"], dtype=float))
        if curve.degree != payload.get("degree", curve.degree):
            raise ConfigurationError(
                f"control points imply degree {curve.degree} but payload "
                f"declares {payload['degree']}"
            )
        return curve

    def projection_residuals(self, X: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Residual vectors ``x_i - f(s_i)``, shape ``(n, d)``."""
        pts = self.evaluate(np.asarray(s, dtype=float))
        return np.asarray(X, dtype=float) - pts.T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BezierCurve(degree={self.degree}, dimension={self.dimension})"
        )
