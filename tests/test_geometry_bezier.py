"""Tests for the general BezierCurve class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.projection import project_points
from repro.geometry import BezierCurve


@pytest.fixture
def curve2d():
    """A fixed 2-D cubic used across tests."""
    P = np.array(
        [
            [0.0, 0.1, 0.9, 1.0],
            [0.0, 0.6, 0.4, 1.0],
        ]
    )
    return BezierCurve(P)


class TestConstruction:
    def test_properties(self, curve2d):
        assert curve2d.degree == 3
        assert curve2d.dimension == 2
        np.testing.assert_array_equal(curve2d.start, [0.0, 0.0])
        np.testing.assert_array_equal(curve2d.end, [1.0, 1.0])

    def test_control_points_are_copied(self, curve2d):
        pts = curve2d.control_points
        pts[0, 0] = 99.0
        assert curve2d.control_points[0, 0] == 0.0

    def test_one_point_raises(self):
        with pytest.raises(ConfigurationError):
            BezierCurve(np.ones((2, 1)))

    def test_non_2d_raises(self):
        with pytest.raises(ConfigurationError):
            BezierCurve(np.ones(4))

    def test_nan_raises(self):
        P = np.ones((2, 4))
        P[0, 1] = np.nan
        with pytest.raises(ConfigurationError):
            BezierCurve(P)


class TestEvaluation:
    def test_endpoints_interpolated(self, curve2d):
        out = curve2d.evaluate(np.array([0.0, 1.0]))
        np.testing.assert_allclose(out[:, 0], curve2d.start)
        np.testing.assert_allclose(out[:, 1], curve2d.end)

    def test_matches_de_casteljau(self, curve2d, rng):
        for s in rng.uniform(size=20):
            direct = curve2d.evaluate(np.array([s]))[:, 0]
            stable = curve2d.evaluate_de_casteljau(float(s))
            np.testing.assert_allclose(direct, stable, atol=1e-12)

    def test_linear_curve_is_segment(self):
        P = np.array([[0.0, 2.0], [1.0, 3.0]])
        curve = BezierCurve(P)
        out = curve.evaluate(np.array([0.5]))
        np.testing.assert_allclose(out[:, 0], [1.0, 2.0])

    def test_scalar_promoted(self, curve2d):
        out = curve2d.evaluate(0.5)
        assert out.shape == (2, 1)

    def test_convex_hull_property(self, curve2d):
        # Every curve point lies in the control-point convex hull's
        # bounding box (a weaker but easily checkable consequence).
        s = np.linspace(0, 1, 100)
        pts = curve2d.evaluate(s)
        P = curve2d.control_points
        assert np.all(pts >= P.min(axis=1, keepdims=True) - 1e-12)
        assert np.all(pts <= P.max(axis=1, keepdims=True) + 1e-12)


class TestDerivatives:
    def test_hodograph_matches_finite_difference(self, curve2d):
        s = np.linspace(0.05, 0.95, 13)
        eps = 1e-7
        analytic = curve2d.derivative(s)
        numeric = (curve2d.evaluate(s + eps) - curve2d.evaluate(s - eps)) / (
            2 * eps
        )
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_derivative_curve_equals_derivative(self, curve2d):
        s = np.linspace(0, 1, 9)
        hodo = curve2d.derivative_curve()
        np.testing.assert_allclose(
            hodo.evaluate(s), curve2d.derivative(s), atol=1e-12
        )

    def test_endpoint_tangents(self, curve2d):
        # f'(0) = k (p1 - p0), f'(1) = k (p_k - p_{k-1}).
        P = curve2d.control_points
        d0 = curve2d.derivative(np.array([0.0]))[:, 0]
        d1 = curve2d.derivative(np.array([1.0]))[:, 0]
        np.testing.assert_allclose(d0, 3 * (P[:, 1] - P[:, 0]), atol=1e-12)
        np.testing.assert_allclose(d1, 3 * (P[:, 3] - P[:, 2]), atol=1e-12)


class TestPowerCoefficients:
    def test_reproduces_curve(self, curve2d):
        s = np.linspace(0, 1, 7)
        C = curve2d.power_coefficients()
        Z = np.vander(s, 4, increasing=True).T
        np.testing.assert_allclose(C @ Z, curve2d.evaluate(s), atol=1e-12)


class TestElevationAndSubdivision:
    def test_degree_elevation_preserves_curve(self, curve2d):
        s = np.linspace(0, 1, 33)
        elevated = curve2d.elevate_degree()
        assert elevated.degree == 4
        np.testing.assert_allclose(
            elevated.evaluate(s), curve2d.evaluate(s), atol=1e-12
        )

    def test_double_elevation(self, curve2d):
        s = np.linspace(0, 1, 9)
        twice = curve2d.elevate_degree().elevate_degree()
        np.testing.assert_allclose(
            twice.evaluate(s), curve2d.evaluate(s), atol=1e-12
        )

    def test_subdivision_covers_curve(self, curve2d):
        left, right = curve2d.subdivide(0.3)
        s = np.linspace(0, 1, 11)
        # left(u) = f(0.3 u); right(u) = f(0.3 + 0.7 u).
        np.testing.assert_allclose(
            left.evaluate(s), curve2d.evaluate(0.3 * s), atol=1e-12
        )
        np.testing.assert_allclose(
            right.evaluate(s), curve2d.evaluate(0.3 + 0.7 * s), atol=1e-12
        )

    def test_subdivision_at_endpoint(self, curve2d):
        left, _right = curve2d.subdivide(0.0)
        s = np.linspace(0, 1, 5)
        # Left half collapses to the start point.
        np.testing.assert_allclose(
            left.evaluate(s),
            np.tile(curve2d.start[:, None], (1, 5)),
            atol=1e-12,
        )

    def test_bad_split_raises(self, curve2d):
        with pytest.raises(ConfigurationError):
            curve2d.subdivide(1.5)


class TestArcLength:
    def test_straight_line_length(self):
        P = np.array([[0.0, 3.0], [0.0, 4.0]])
        assert BezierCurve(P).arc_length() == pytest.approx(5.0, rel=1e-9)

    def test_additivity(self, curve2d):
        total = curve2d.arc_length()
        split = curve2d.arc_length(0.0, 0.4) + curve2d.arc_length(0.4, 1.0)
        assert total == pytest.approx(split, rel=1e-8)

    def test_at_least_chord_length(self, curve2d):
        chord = float(np.linalg.norm(curve2d.end - curve2d.start))
        assert curve2d.arc_length() >= chord - 1e-12

    def test_bad_interval_raises(self, curve2d):
        with pytest.raises(ConfigurationError):
            curve2d.arc_length(0.8, 0.2)


class TestProjection:
    def test_points_on_curve_project_to_themselves(self, curve2d):
        s_true = np.linspace(0.05, 0.95, 9)
        X = curve2d.evaluate(s_true).T
        s_hat = curve2d.project(X, method="gss")
        np.testing.assert_allclose(s_hat, s_true, atol=1e-4)

    def test_roots_method_agrees_with_gss(self, curve2d, rng):
        X = rng.uniform(-0.2, 1.2, size=(40, 2))
        s_gss = curve2d.project(X, method="gss")
        s_roots = curve2d.project(X, method="roots")
        d_gss = np.sum((X - curve2d.evaluate(s_gss).T) ** 2, axis=1)
        d_roots = np.sum((X - curve2d.evaluate(s_roots).T) ** 2, axis=1)
        # Distances must agree (parameters can differ at symmetry points).
        np.testing.assert_allclose(d_gss, d_roots, atol=1e-6)

    def test_roots_never_worse_than_gss(self, curve2d, rng):
        X = rng.uniform(0.0, 1.0, size=(60, 2))
        s_gss = curve2d.project(X, method="gss")
        s_roots = curve2d.project(X, method="roots")
        d_gss = np.sum((X - curve2d.evaluate(s_gss).T) ** 2, axis=1)
        d_roots = np.sum((X - curve2d.evaluate(s_roots).T) ** 2, axis=1)
        assert np.all(d_roots <= d_gss + 1e-9)

    def test_projection_in_unit_interval(self, curve2d, rng):
        X = rng.uniform(-5, 5, size=(30, 2))
        s = curve2d.project(X)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_far_points_project_to_endpoints(self, curve2d):
        X = np.array([[-10.0, -10.0], [10.0, 10.0]])
        s = curve2d.project(X)
        assert s[0] == pytest.approx(0.0, abs=1e-6)
        assert s[1] == pytest.approx(1.0, abs=1e-6)

    def test_wrong_dimension_raises(self, curve2d):
        with pytest.raises(ConfigurationError):
            curve2d.project(np.ones((5, 3)))

    @pytest.mark.parametrize("method", ["gss", "newton", "roots"])
    def test_matches_project_points_bit_for_bit(self, curve2d, rng, method):
        X = rng.uniform(-0.2, 1.2, size=(50, 2))
        np.testing.assert_array_equal(
            curve2d.project(X, method=method),
            project_points(curve2d, X, method=method),
        )

    def test_default_method_is_newton(self, curve2d, rng):
        X = rng.uniform(-0.2, 1.2, size=(50, 2))
        np.testing.assert_array_equal(
            curve2d.project(X), curve2d.project(X, method="newton")
        )

    def test_unknown_method_raises(self, curve2d):
        with pytest.raises(ConfigurationError):
            curve2d.project(np.ones((2, 2)), method="magic")

    def test_residuals_shape(self, curve2d, rng):
        X = rng.uniform(size=(7, 2))
        s = curve2d.project(X)
        residuals = curve2d.projection_residuals(X, s)
        assert residuals.shape == (7, 2)
        np.testing.assert_allclose(
            residuals, X - curve2d.evaluate(s).T, atol=1e-12
        )
