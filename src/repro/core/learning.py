"""Algorithm 1: alternating minimisation for RPC control points.

The learning problem Eq.(19)–(20) is

    ``min_{P, s}  J(P, s) = sum_i ‖x_i − P M z_i‖²``

subject to ``P in [0,1]^{d x 4}``, ``s_i in [0,1]`` and the stationary
condition picking each ``s_i`` as the projection index of ``x_i``.  The
solver alternates:

1. **Projection step** — hold ``P``, solve Eq.(20) for every ``s_i``
   (safeguarded Newton by default, the paper's Golden Section Search
   with ``projection="gss"``; see :mod:`repro.core.projection`).
2. **Control-point step** — hold ``s``, move ``P`` by either one
   preconditioned Richardson step (Eq.(27), the paper's update) or the
   closed-form pseudo-inverse solution (Eq.(26), kept as an ablation),
   then re-pin the end points and clip interior control points into the
   open unit cube so Proposition 1 keeps certifying monotonicity.

Iteration stops when the relative decrease of ``J`` falls below ``xi``,
when ``J`` increases (the paper's ΔJ < 0 early-stop), or at
``max_iter``.  The full trajectory is recorded in a
:class:`LearningTrace` so tests can assert the monotone-descent
property of Proposition 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError, ConvergenceWarning
from repro.core.projection import (
    ProjectionMethod,
    project_points,
    warm_bracket_width,
)
from repro.geometry.bernstein import bernstein_to_power_matrix, power_vector
from repro.geometry.bezier import BezierCurve
from repro.geometry.cubic import pinned_endpoints, validate_direction_vector
from repro.geometry.monotonicity import clip_to_interior
from repro.linalg.pseudoinverse import pinv_solve
from repro.linalg.richardson import optimal_step_size, richardson_step

UpdateMethod = Literal["richardson", "pinv"]

_VALID_UPDATES = ("richardson", "pinv")
_VALID_INITS = ("random", "linear")


@dataclass
class LearningTrace:
    """Per-iteration diagnostics of one RPC fit.

    Attributes
    ----------
    objectives:
        ``J(P_t, s_t)`` after each completed iteration (including the
        initial configuration at index 0).
    step_sizes:
        The Richardson ``gamma_t`` used at each *accepted* control-point
        update, so ``len(step_sizes) == n_iterations`` (empty for the
        pseudo-inverse ablation).  A gamma belonging to an iteration
        rejected by the ΔJ < 0 early stop is not recorded.
    n_iterations:
        Number of completed alternations.
    converged:
        Whether the relative-decrease criterion was met (as opposed to
        hitting ``max_iter`` or the ΔJ < 0 early stop).
    stopped_on_increase:
        True when the ΔJ < 0 rule of Algorithm 1 fired.
    """

    objectives: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    n_iterations: int = 0
    converged: bool = False
    stopped_on_increase: bool = False

    @property
    def final_objective(self) -> float:
        """The last recorded value of ``J``."""
        return self.objectives[-1] if self.objectives else float("nan")

    def is_monotone_decreasing(self, atol: float = 1e-9) -> bool:
        """Whether the recorded objective sequence never increases.

        Proposition 2 guarantees this up to the final iteration when
        the early stop fires; the trace drops the post-increase state,
        so a healthy run always satisfies this check.
        """
        J = np.asarray(self.objectives)
        return bool(np.all(np.diff(J) <= atol))


@dataclass
class FitResult:
    """Outcome of :func:`fit_rpc_curve`.

    Attributes
    ----------
    curve:
        The learned (constrained, strictly monotone) cubic curve.
    scores:
        Projection scores of the training rows, shape ``(n,)``.
    trace:
        Optimisation diagnostics.
    """

    curve: BezierCurve
    scores: np.ndarray
    trace: LearningTrace


def initialize_control_points(
    X: np.ndarray,
    alpha: np.ndarray,
    degree: int = 3,
    init: Literal["random", "linear"] = "random",
    rng: Optional[np.random.Generator] = None,
    margin: float = 1e-3,
) -> np.ndarray:
    """Initial ``P^(0)`` per Step 2 of Algorithm 1.

    End points are pinned at the hypercube corners given by ``alpha``;
    the interior points are either random data samples (the paper's
    choice, ``init="random"``) or evenly spaced points along the
    corner-to-corner diagonal (``init="linear"``, the deterministic
    start :class:`~repro.core.rpc.RankingPrincipalCurve` fits from by
    default).  Interior points are nudged inside the open cube by
    ``margin``.
    """
    X = np.asarray(X, dtype=float)
    alpha = validate_direction_vector(alpha, d=X.shape[1])
    if degree < 1:
        raise ConfigurationError(f"degree must be >= 1, got {degree}")
    p0, p_end = pinned_endpoints(alpha)
    n_interior = degree - 1
    columns = [p0]
    if init == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        if X.shape[0] < max(n_interior, 1):
            raise ConfigurationError(
                f"need at least {n_interior} rows to sample interior "
                f"control points, got {X.shape[0]}"
            )
        # Sort the sampled rows by their score along the diagonal so the
        # initial control polyline already runs worst-corner -> best-corner.
        idx = rng.choice(X.shape[0], size=n_interior, replace=False)
        samples = np.clip(X[idx], margin, 1.0 - margin)
        direction = (p_end - p0) / max(float(np.linalg.norm(p_end - p0)), 1e-12)
        ordering = np.argsort(samples @ direction)
        columns.extend(samples[ordering])
    elif init == "linear":
        for r in range(1, degree):
            w = r / degree
            point = (1.0 - w) * p0 + w * p_end
            columns.append(np.clip(point, margin, 1.0 - margin))
    else:
        raise ConfigurationError(
            f"unknown init {init!r}; use 'random' or 'linear'"
        )
    columns.append(p_end)
    return np.column_stack(columns)


def objective_value(
    X: np.ndarray,
    curve: BezierCurve,
    s: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
) -> float:
    """``J(P, s) = sum_i w_i ‖x_i − f(s_i)‖²`` (Eq.(19), weighted form).

    With ``sample_weight`` omitted all weights are one and this is
    exactly the paper's objective.
    """
    residual = curve.projection_residuals(X, s)
    sq = np.sum(residual**2, axis=1)
    if sample_weight is not None:
        sq = sq * np.asarray(sample_weight, dtype=float).ravel()
    return float(np.sum(sq))


def _validate_sample_weight(
    sample_weight: Optional[np.ndarray], n: int
) -> Optional[np.ndarray]:
    """Validate per-object weights: positive, finite, length ``n``."""
    if sample_weight is None:
        return None
    w = np.asarray(sample_weight, dtype=float).ravel()
    if w.size != n:
        raise ConfigurationError(
            f"sample_weight has {w.size} entries for {n} objects"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ConfigurationError(
            "sample_weight entries must be finite and strictly positive"
        )
    return w


def fit_rpc_curve(
    X: np.ndarray,
    alpha: np.ndarray,
    degree: int = 3,
    projection: ProjectionMethod = "newton",
    update: UpdateMethod = "richardson",
    precondition: bool = True,
    xi: float = 1e-6,
    max_iter: int = 500,
    inner_updates: int = 1,
    n_grid: int = 32,
    init: Literal["random", "linear"] = "random",
    rng: Optional[np.random.Generator] = None,
    enforce_constraints: bool = True,
    margin: float = 1e-6,
    sample_weight: Optional[np.ndarray] = None,
    warm_start: bool = True,
) -> FitResult:
    """Run Algorithm 1 on normalised data ``X in [0, 1]^{n x d}``.

    Parameters
    ----------
    X:
        Normalised data matrix (rows are objects).  Callers normally go
        through :class:`repro.core.rpc.RankingPrincipalCurve`, which
        handles Eq.(29) min–max normalisation; this function assumes
        its input already lives in the unit cube.
    alpha:
        Direction vector of the ranking task.
    degree:
        Bezier degree ``k``; the paper fixes 3 (and the ablation bench
        sweeps 2–4).
    projection:
        1-D solver for the projection step.
    update:
        ``"richardson"`` (Eq.(27)) or ``"pinv"`` (Eq.(26)).
    precondition:
        Toggle the diagonal preconditioner inside the Richardson step.
    xi:
        Stop when ``J_t − J_{t+1} < xi * max(J_0, 1)`` (relative form
        of Algorithm 1's ΔJ < ξ test).
    max_iter:
        Iteration cap; a :class:`ConvergenceWarning` is emitted when
        reached without satisfying ``xi``.
    inner_updates:
        Number of Richardson steps per outer iteration (1 in the
        paper; more can accelerate convergence on stiff problems).
    n_grid:
        Bracketing grid size of the projection solvers.
    init, rng:
        Control-point initialisation (see
        :func:`initialize_control_points`).
    enforce_constraints:
        Re-pin end points and clip interior points after every update —
        the constraint set of Proposition 1.  Disabling this yields an
        *unconstrained* cubic principal curve used as a Fig. 5(c)-style
        baseline.
    margin:
        Clipping margin keeping interior points strictly inside the
        cube.
    sample_weight:
        Optional strictly positive per-object weights.  The objective
        becomes ``sum_i w_i ‖x_i − f(s_i)‖²``: the weighted normal
        equations replace ``(MZ)(MZ)ᵀ`` and ``X(MZ)ᵀ`` with their
        weighted counterparts, and the projection step is unchanged
        (each ``s_i`` minimises its own residual regardless of
        ``w_i``).  Useful for emphasising trusted observations or
        de-weighting suspected outliers.
    warm_start:
        Reuse each iteration's scores as brackets for the next
        projection step (see :func:`repro.core.projection.project_points`),
        replacing the full per-iteration grid scan with narrow
        bracketed solves plus a sparse safeguard, gated on the curve
        having moved less than one grid cell that iteration.  On by
        default; both settings converge to the same optimum (final
        objectives agree to ~1e-10 on the bundled datasets, asserted
        in the test suite) but the iteration-by-iteration score noise
        differs at solver-tolerance level.  Pass ``False`` for the
        paper-literal cold grid scan every iteration.

    Returns
    -------
    :class:`FitResult` with the fitted curve, training scores and trace.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConfigurationError(f"X must be 2-D, got ndim={X.ndim}")
    if X.shape[0] < 2:
        raise ConfigurationError(
            f"need at least 2 rows to fit a curve, got {X.shape[0]}"
        )
    if xi <= 0:
        raise ConfigurationError(f"xi must be positive, got {xi}")
    alpha = validate_direction_vector(alpha, d=X.shape[1])
    weights = _validate_sample_weight(sample_weight, X.shape[0])

    M = bernstein_to_power_matrix(degree)
    P = initialize_control_points(
        X, alpha, degree=degree, init=init, rng=rng
    )
    curve = BezierCurve(P)
    s = project_points(curve, X, method=projection, n_grid=n_grid)
    J = objective_value(X, curve, s, sample_weight=weights)

    trace = LearningTrace(objectives=[J])
    J_scale = max(J, 1.0)

    # Weighted design rows: the normal equations of the weighted
    # objective use G diag(w) G^T and X diag(w) G^T.
    X_w = X if weights is None else X * weights[:, np.newaxis]

    for iteration in range(max_iter):
        # --- control-point step -------------------------------------
        Z = power_vector(s, degree)  # (k+1, n), Eq.(23)
        G = M @ Z  # (k+1, n)
        G_w = G if weights is None else G * weights[np.newaxis, :]
        if update == "richardson":
            A = G_w @ G.T
            B = X_w.T @ G.T
            gamma = optimal_step_size(A)
            P_new = richardson_step(
                P,
                A,
                B,
                gamma=gamma,
                precondition=precondition,
                steps=max(inner_updates, 1),
            )
            trace.step_sizes.append(gamma)
        elif update == "pinv":
            if weights is None:
                P_new, _diag = pinv_solve(G, X.T)
            else:
                root_w = np.sqrt(weights)
                P_new, _diag = pinv_solve(
                    G * root_w[np.newaxis, :],
                    X.T * root_w[np.newaxis, :],
                )
        else:
            raise ConfigurationError(
                f"unknown update {update!r}; use 'richardson' or 'pinv'"
            )
        if enforce_constraints:
            P_new = clip_to_interior(P_new, alpha, margin=margin)
        curve_new = BezierCurve(P_new)

        # --- projection step -----------------------------------------
        # Warm brackets are only trustworthy when the curve moved by
        # less than about one bracketing-grid cell this iteration (the
        # early iterations take large steps and can carry an optimum
        # across basins); otherwise fall back to the cold grid scan.
        curve_moved = float(np.max(np.abs(P_new - P)))
        use_warm = warm_start and curve_moved <= warm_bracket_width(n_grid)
        s_new = project_points(
            curve_new,
            X,
            method=projection,
            n_grid=n_grid,
            s0=s if use_warm else None,
        )
        J_new = objective_value(X, curve_new, s_new, sample_weight=weights)

        delta = J - J_new
        if delta < 0.0:
            # Step 6 of Algorithm 1: J increased (possible because the
            # constraint clipping perturbs the unconstrained descent
            # direction); keep the previous iterate and stop.  The
            # Richardson gamma recorded above belongs to the rejected
            # iteration, so drop it to keep len(step_sizes) equal to
            # n_iterations.
            if update == "richardson" and trace.step_sizes:
                trace.step_sizes.pop()
            trace.stopped_on_increase = True
            break

        P, curve, s, J = P_new, curve_new, s_new, J_new
        trace.objectives.append(J)
        trace.n_iterations = iteration + 1

        if delta < xi * J_scale:
            trace.converged = True
            break

    if not trace.converged and not trace.stopped_on_increase:
        warnings.warn(
            f"RPC learning hit max_iter={max_iter} with relative decrease "
            f"still above xi={xi}",
            ConvergenceWarning,
            stacklevel=2,
        )

    return FitResult(curve=curve, scores=s, trace=trace)
