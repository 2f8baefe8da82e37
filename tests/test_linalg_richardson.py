"""Tests for the preconditioned Richardson update (Eq.(27)–(28))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.linalg import (
    column_norm_preconditioner,
    optimal_step_size,
    richardson_solve,
    richardson_step,
)


def _spd_system(rng, d=3, m=4):
    """Random SPD system P A = B with a known solution."""
    G = rng.normal(size=(m, m + 2))
    A = G @ G.T + 0.1 * np.eye(m)
    P_true = rng.normal(size=(d, m))
    B = P_true @ A
    return A, B, P_true


class TestOptimalStepSize:
    def test_identity_gives_one(self):
        assert optimal_step_size(np.eye(4)) == pytest.approx(1.0)

    def test_classical_formula(self, rng):
        A, _, _ = _spd_system(rng)
        eig = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert optimal_step_size(A) == pytest.approx(2.0 / (eig[0] + eig[-1]))

    def test_singular_matrix_finite_step(self):
        A = np.zeros((3, 3))
        gamma = optimal_step_size(A)
        assert np.isfinite(gamma) and gamma > 0

    def test_nonsquare_raises(self):
        with pytest.raises(ConfigurationError):
            optimal_step_size(np.ones((2, 3)))


class TestPreconditioner:
    def test_column_norms(self):
        A = np.array([[3.0, 0.0], [4.0, 0.0]])
        diag = column_norm_preconditioner(A)
        assert diag[0] == pytest.approx(5.0)
        assert diag[1] >= 1e-12  # floored, not zero

    def test_positive_everywhere(self, rng):
        A = rng.normal(size=(5, 5))
        assert np.all(column_norm_preconditioner(A) > 0)

    def test_non_2d_raises(self):
        with pytest.raises(ConfigurationError):
            column_norm_preconditioner(np.ones(3))


class TestRichardsonStep:
    def test_exact_solution_is_fixed_point(self, rng):
        A, B, P_true = _spd_system(rng)
        stepped = richardson_step(P_true, A, B)
        np.testing.assert_allclose(stepped, P_true, atol=1e-10)

    def test_step_decreases_residual(self, rng):
        A, B, P_true = _spd_system(rng)
        P0 = P_true + rng.normal(scale=0.5, size=P_true.shape)
        r0 = np.linalg.norm(P0 @ A - B)
        P1 = richardson_step(P0, A, B, precondition=False)
        r1 = np.linalg.norm(P1 @ A - B)
        assert r1 < r0

    def test_preconditioned_step_decreases_residual(self, rng):
        A, B, P_true = _spd_system(rng)
        # Badly scaled system: multiply one column's influence.
        scale = np.diag([1.0, 100.0, 1.0, 1.0])
        A_bad = scale @ A @ scale
        B_bad = P_true @ A_bad
        P0 = P_true + rng.normal(scale=0.5, size=P_true.shape)
        r0 = np.linalg.norm(P0 @ A_bad - B_bad)
        P1 = richardson_step(P0, A_bad, B_bad, precondition=True)
        assert np.linalg.norm(P1 @ A_bad - B_bad) < r0

    def test_shape_mismatch_raises(self, rng):
        A, B, _ = _spd_system(rng)
        with pytest.raises(ConfigurationError):
            richardson_step(np.zeros((2, 3)), A, B)

    def test_wrong_system_shape_raises(self):
        with pytest.raises(ConfigurationError):
            richardson_step(np.zeros((2, 4)), np.eye(3), np.zeros((2, 4)))

    def test_explicit_gamma_used(self, rng):
        A, B, P_true = _spd_system(rng)
        P0 = np.zeros_like(P_true)
        # gamma = 0 must be a no-op.
        same = richardson_step(P0, A, B, gamma=0.0)
        np.testing.assert_array_equal(same, P0)

    @pytest.mark.parametrize("precondition", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_steps_equal_chained_single_steps(self, rng, precondition, k):
        A, B, P_true = _spd_system(rng)
        P0 = P_true + rng.normal(scale=0.5, size=P_true.shape)
        gamma = optimal_step_size(A)
        chained = P0
        for _ in range(k):
            chained = richardson_step(
                chained, A, B, gamma=gamma, precondition=precondition
            )
        batched = richardson_step(
            P0, A, B, gamma=gamma, precondition=precondition, steps=k
        )
        assert np.array_equal(batched, chained)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_steps_below_one_raises(self, rng, steps):
        A, B, P_true = _spd_system(rng)
        with pytest.raises(ConfigurationError, match="steps"):
            richardson_step(P_true, A, B, steps=steps)


class TestRichardsonSolve:
    def test_converges_to_true_solution(self, rng):
        A, B, P_true = _spd_system(rng)
        result = richardson_solve(A, B, tol=1e-10)
        assert result.converged
        np.testing.assert_allclose(result.solution, P_true, atol=1e-6)

    def test_reports_iterations(self, rng):
        A, B, _ = _spd_system(rng)
        result = richardson_solve(A, B, tol=1e-8)
        assert result.n_iterations > 0
        assert result.residual_norm <= 1e-8

    def test_unpreconditioned_converges_too(self, rng):
        A, B, P_true = _spd_system(rng)
        result = richardson_solve(A, B, tol=1e-8, precondition=False)
        assert result.converged
        np.testing.assert_allclose(result.solution, P_true, atol=1e-5)

    def test_warm_start(self, rng):
        A, B, P_true = _spd_system(rng)
        cold = richardson_solve(A, B, tol=1e-10)
        warm = richardson_solve(A, B, P0=P_true, tol=1e-10)
        assert warm.n_iterations <= cold.n_iterations

    def test_max_iter_respected(self, rng):
        A, B, _ = _spd_system(rng)
        result = richardson_solve(A, B, tol=1e-16, max_iter=3)
        assert result.n_iterations <= 3
