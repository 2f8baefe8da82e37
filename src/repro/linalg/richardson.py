"""Preconditioned Richardson iteration for the control-point update.

Section 5 of the paper replaces the closed-form pseudo-inverse solution
``P = X (M Z)^+`` — which is numerically fragile because ``Z`` is often
ill-conditioned mid-iteration — with a single damped Richardson step

    ``P_{t+1} = P_t - gamma_t (P_t A - B) D^{-1}``,

where ``A = (M Z)(M Z)^T``, ``B = X (M Z)^T``, ``D`` is a diagonal
preconditioner built from the column L2-norms of ``A``, and the step
size ``gamma_t = 2 / (lambda_min + lambda_max)`` uses the extreme
eigenvalues of ``A`` (the classical optimal Richardson parameter for a
symmetric positive-definite system).

This module implements that update in isolation so it can be unit
tested against direct solves, and offers a full iterative solver for
callers who want Richardson to convergence rather than one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.exceptions import ConfigurationError


def column_norm_preconditioner(A: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Diagonal preconditioner with the column L2-norms of ``A``.

    Returns the diagonal entries (not a dense matrix).  Entries are
    floored at ``eps`` so a zero column cannot produce a division by
    zero downstream.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ConfigurationError(f"A must be 2-D, got ndim={A.ndim}")
    norms = np.linalg.norm(A, axis=0)
    return np.maximum(norms, eps)


def optimal_step_size(A: np.ndarray, floor: float = 1e-12) -> float:
    """Return ``2 / (lambda_min + lambda_max)`` for symmetric PSD ``A``.

    Eq.(28) of the paper.  ``A`` is symmetrised before the eigenvalue
    computation to guard against floating-point asymmetry, and the
    denominator is floored to keep the step finite when ``A`` is
    numerically singular.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigurationError(f"A must be square, got shape {A.shape}")
    sym = 0.5 * (A + A.T)
    eigvals = np.linalg.eigvalsh(sym)
    lo = float(eigvals[0])
    hi = float(eigvals[-1])
    denom = max(lo + hi, floor)
    return 2.0 / denom


def richardson_step(
    P: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    gamma: Optional[float] = None,
    precondition: bool = True,
    steps: int = 1,
) -> np.ndarray:
    """``steps`` preconditioned Richardson updates towards ``P A = B``.

    Parameters
    ----------
    P:
        Current iterate, shape ``(d, m)``.
    A:
        Symmetric PSD system matrix, shape ``(m, m)``.
    B:
        Right-hand side, shape ``(d, m)``.
    gamma:
        Step size; computed by :func:`optimal_step_size` when omitted.
    precondition:
        Apply the column-norm diagonal preconditioner (Eq.(27)).  The
        ablation benchmark toggles this flag.
    steps:
        Number of updates to chain, all with the same ``gamma``.  The
        inputs are checked and the preconditioner computed once, and
        the result equals ``steps`` chained single-step calls bit for
        bit.

    Returns
    -------
    The updated iterate, same shape as ``P``.
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    P = np.asarray(P, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if P.shape != B.shape:
        raise ConfigurationError(
            f"P and B must share a shape, got {P.shape} vs {B.shape}"
        )
    if A.shape != (P.shape[1], P.shape[1]):
        raise ConfigurationError(
            f"A must be ({P.shape[1]}, {P.shape[1]}), got {A.shape}"
        )
    if gamma is None:
        gamma = optimal_step_size(A)
    # Without the preconditioner, dividing by 1.0 leaves every bit as is.
    diag = column_norm_preconditioner(A)[np.newaxis, :] if precondition else 1.0
    for _ in range(steps):
        P = P - gamma * ((P @ A - B) / diag)
    return P


@dataclass
class RichardsonResult:
    """Outcome of :func:`richardson_solve`.

    Attributes
    ----------
    solution:
        Final iterate.
    n_iterations:
        Number of update steps performed.
    residual_norm:
        Frobenius norm of ``P A - B`` at the final iterate.
    converged:
        Whether the residual tolerance was met within the iteration cap.
    """

    solution: np.ndarray
    n_iterations: int
    residual_norm: float
    converged: bool


def richardson_solve(
    A: np.ndarray,
    B: np.ndarray,
    P0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    precondition: bool = True,
) -> RichardsonResult:
    """Iterate :func:`richardson_step` until ``‖P A − B‖_F <= tol``.

    Used by tests to confirm the single-step update moves towards the
    least-squares solution, and available to callers who prefer an
    inverse-free solve of ``P A = B`` for symmetric PSD ``A``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if P0 is None:
        P = np.zeros_like(B)
    else:
        P = np.array(P0, dtype=float, copy=True)
    gamma = optimal_step_size(A)
    residual_norm = float(np.linalg.norm(P @ A - B))
    n = 0
    while residual_norm > tol and n < max_iter:
        P = richardson_step(P, A, B, gamma=gamma, precondition=precondition)
        residual_norm = float(np.linalg.norm(P @ A - B))
        n += 1
    return RichardsonResult(
        solution=P,
        n_iterations=n,
        residual_norm=residual_norm,
        converged=residual_norm <= tol,
    )
