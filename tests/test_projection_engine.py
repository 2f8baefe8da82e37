"""Projection-engine correctness: Horner kernels, compiled polynomials,
and three-way solver agreement across degrees.

The engine replaces curve evaluation inside every projection solver
with Horner evaluation of precompiled squared-distance polynomials, so
its correctness oracle is three-fold:

* the Horner kernels against :func:`numpy.polynomial.polynomial.polyval`;
* the compiled coefficients against a naive double-loop expansion and
  against direct ``‖x − f(s)‖²`` evaluation;
* the engine-GSS scores against the frozen pre-engine GSS path
  (:func:`project_points_legacy_gss`) and the exact ``"roots"`` solver,
  property-style over random curves of degree 3–7.

Agreement contract: per point the scores match to 1e-8 (in practice
~1e-12 — all paths finish on the same stationary points), except on
genuine ties where two basins are equally deep and solvers may pick
either argmin; those must tie in distance essentially exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval as np_polyval

from repro.core.exceptions import ConfigurationError
from repro.core.projection import (
    project_points,
    project_points_legacy_gss,
)
from repro.geometry.bezier import BezierCurve
from repro.geometry.engine import (
    CompiledProjection,
    ProjectionEngine,
    curve_self_product_coefficients,
    squared_distance_coefficients,
)
from repro.linalg.backend import resolve_backend
from repro.linalg.golden_section import golden_section_search_batch
from repro.linalg.horner import horner_batch, horner_pointwise

S_ATOL = 1e-8
#: Two scores count as a genuine tie when their squared distances agree
#: to this tolerance — the same convention as the repo-wide solver
#: agreement suite (near-tied basins are a property of the distance
#: function, not of any solver).
DIST_ATOL = 1e-10

DEGREES = (3, 4, 5, 6, 7)
SEEDS_PER_DEGREE = 6

#: Every root-solver backend.
BACKENDS = ("numpy", "closed-form")


def _random_curve_and_points(degree: int, seed: int):
    """A random degree-``k`` curve in the unit cube plus a mixed batch."""
    rng = np.random.default_rng(1000 * degree + seed)
    d = int(rng.integers(2, 5))
    P = rng.uniform(0.0, 1.0, size=(d, degree + 1))
    curve = BezierCurve(P)
    s_true = rng.uniform(size=30)
    near = curve.evaluate(s_true).T + rng.normal(0.0, 0.05, size=(30, d))
    far = rng.uniform(-0.3, 1.3, size=(8, d))
    return curve, np.vstack([near, far])


class TestHornerKernels:
    def test_batch_matches_numpy_polyval(self):
        rng = np.random.default_rng(0)
        coeffs = rng.normal(size=(12, 7))
        x = rng.uniform(-1.0, 2.0, size=(12, 5))
        expected = np.array(
            [np_polyval(x[i], coeffs[i]) for i in range(12)]
        )
        np.testing.assert_allclose(horner_batch(coeffs, x), expected)

    def test_batch_broadcasts_shared_grid(self):
        rng = np.random.default_rng(1)
        coeffs = rng.normal(size=(4, 5))
        grid = np.linspace(0.0, 1.0, 9)
        out = horner_batch(coeffs, grid)
        assert out.shape == (4, 9)
        np.testing.assert_allclose(out[2], np_polyval(grid, coeffs[2]))

    def test_pointwise_matches_batch_diagonal(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=(20, 7))
        s = rng.uniform(size=20)
        np.testing.assert_array_equal(
            horner_pointwise(coeffs, s),
            horner_batch(coeffs, s[:, np.newaxis])[:, 0],
        )

    def test_shape_mismatches_rejected(self):
        coeffs = np.ones((3, 4))
        with pytest.raises(ConfigurationError):
            horner_pointwise(coeffs, np.ones(5))
        with pytest.raises(ConfigurationError):
            horner_batch(coeffs, np.ones((5, 2)))

    def test_empty_batch(self):
        out = horner_pointwise(np.empty((0, 7)), np.empty(0))
        assert out.shape == (0,)


class TestCompiledCoefficients:
    @pytest.mark.parametrize("degree", DEGREES)
    def test_matches_naive_double_loop(self, degree):
        curve, X = _random_curve_and_points(degree, seed=0)
        C = curve.power_coefficients()
        k = curve.degree
        # Seed-era expansion, coefficient by coefficient.
        ff = np.zeros(2 * k + 1)
        for a in range(k + 1):
            for b in range(k + 1):
                ff[a + b] += float(C[:, a] @ C[:, b])
        np.testing.assert_allclose(
            curve_self_product_coefficients(C), ff, rtol=1e-13, atol=1e-13
        )
        naive = np.tile(ff, (X.shape[0], 1))
        naive[:, : k + 1] -= 2.0 * (X @ C)
        naive[:, 0] += np.sum(X**2, axis=1)
        np.testing.assert_allclose(
            squared_distance_coefficients(C, X), naive, rtol=1e-13, atol=1e-13
        )

    @pytest.mark.parametrize("degree", DEGREES)
    def test_distance_matches_curve_evaluation(self, degree):
        curve, X = _random_curve_and_points(degree, seed=1)
        compiled = ProjectionEngine(curve).compile(X)
        rng = np.random.default_rng(3)
        s = rng.uniform(size=X.shape[0])
        direct = np.sum((X - curve.evaluate(s).T) ** 2, axis=1)
        np.testing.assert_allclose(
            compiled.distance(s), direct, rtol=0, atol=1e-9
        )
        grid = np.linspace(0.0, 1.0, 11)
        direct_grid = np.array(
            [np.sum((X - curve.evaluate(g).T) ** 2, axis=1)[:, ] for g in grid]
        ).T
        np.testing.assert_allclose(
            compiled.distance_on_grid(grid), direct_grid, rtol=0, atol=1e-9
        )

    def test_subset_view_slices_rows(self):
        curve, X = _random_curve_and_points(3, seed=2)
        compiled = ProjectionEngine(curve).compile(X)
        mask = np.zeros(len(compiled), dtype=bool)
        mask[[1, 5, 7]] = True
        sub = compiled[mask]
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.coeffs, compiled.coeffs[mask])
        s = np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(
            sub.distance(s), horner_pointwise(compiled.coeffs[mask], s)
        )

    def test_compile_rejects_wrong_width(self):
        curve, X = _random_curve_and_points(3, seed=3)
        with pytest.raises(ConfigurationError):
            ProjectionEngine(curve).compile(X[:, :-1])


#: Bracketing grid for the agreement sweep.  The default 32-point grid
#: is matched to RPC-plausible monotone cubics; the distance function
#: of a *random* degree-7 curve can hide basins narrower than 1/31, and
#: a missed basin is a grid-resolution property shared by every
#: grid-bracketed solver, not an engine/legacy discrepancy.  129 points
#: isolate every basin arising in this sweep so the test compares the
#: solvers, not the grid.
N_GRID = 129


def _assert_three_way_agreement(curve, X, context):
    s_engine = project_points(curve, X, method="gss", n_grid=N_GRID)
    s_legacy = project_points_legacy_gss(curve, X, n_grid=N_GRID)
    s_roots = project_points(curve, X, method="roots")
    compiled = ProjectionEngine(curve).compile(X)
    d = {
        "engine": compiled.distance(s_engine),
        "legacy": compiled.distance(s_legacy),
        "roots": compiled.distance(s_roots),
    }
    for name, other in (("legacy", s_legacy), ("roots", s_roots)):
        assert np.all((other >= 0.0) & (other <= 1.0)), context
        s_gap = np.abs(s_engine - other)
        d_gap = np.abs(d["engine"] - d[name])
        disagrees = (s_gap > S_ATOL) & (d_gap > DIST_ATOL)
        assert not np.any(disagrees), (
            f"{context}: engine vs {name} disagree on "
            f"{int(disagrees.sum())} points; worst s-gap "
            f"{s_gap[disagrees].max():.3e}, worst distance-gap "
            f"{d_gap[disagrees].max():.3e}"
        )


class TestSolverAgreementAcrossDegrees:
    @pytest.mark.parametrize("degree", DEGREES)
    @pytest.mark.parametrize("seed", range(SEEDS_PER_DEGREE))
    def test_engine_vs_legacy_vs_roots(self, degree, seed):
        curve, X = _random_curve_and_points(degree, seed)
        _assert_three_way_agreement(
            curve, X, context=f"degree {degree} seed {seed}"
        )

    @pytest.mark.parametrize("degree", DEGREES)
    def test_warm_start_agrees_with_cold(self, degree):
        curve, X = _random_curve_and_points(degree, seed=99)
        cold = project_points(curve, X, method="gss")
        warm = project_points(curve, X, method="gss", s0=cold)
        compiled = ProjectionEngine(curve).compile(X)
        close = np.abs(warm - cold) <= S_ATOL
        tied = np.abs(
            compiled.distance(warm) - compiled.distance(cold)
        ) <= DIST_ATOL
        assert np.all(close | tied), f"degree {degree}"

    def test_engine_kwarg_for_wrong_curve_is_ignored(self):
        curve, X = _random_curve_and_points(3, seed=4)
        other, _ = _random_curve_and_points(3, seed=5)
        stale = ProjectionEngine(other)
        np.testing.assert_array_equal(
            project_points(curve, X, method="gss", engine=stale),
            project_points(curve, X, method="gss"),
        )


class TestBackendDtypeAgreement:
    """Every backend against the default path.

    Runs must agree with the numpy reference to the repo-wide
    1e-8/1e-10 contract (in practice exactly: the backends share the
    clip/boundary/Newton-polish semantics and differ only in how
    stationary roots are found).
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", ("gss", "roots"))
    @pytest.mark.parametrize("degree", DEGREES)
    def test_float64_agrees_with_reference(self, degree, method, backend):
        curve, X = _random_curve_and_points(degree, seed=7)
        ref = project_points(curve, X, method=method)
        got = project_points(curve, X, method=method, backend=backend)
        compiled = ProjectionEngine(curve).compile(X)
        close = np.abs(got - ref) <= S_ATOL
        tied = np.abs(
            compiled.distance(got) - compiled.distance(ref)
        ) <= DIST_ATOL
        assert np.all(close | tied), (
            f"degree {degree} method {method} backend {backend}"
        )

    @pytest.mark.parametrize("method", ("gss", "roots"))
    @pytest.mark.parametrize("degree", DEGREES)
    def test_explicit_numpy_float64_is_byte_identical(self, degree, method):
        """Spelling out the defaults must not change a single bit."""
        curve, X = _random_curve_and_points(degree, seed=13)
        ref = project_points(curve, X, method=method)
        got = project_points(curve, X, method=method, backend="numpy")
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_batch_split_invariance(self, degree, backend):
        """Chunk boundaries never move a score, whatever the backend.

        The same byte-identity the serving layer pins for the default
        path (chunked == unchunked), here for each backend: per-row
        convergence is tracked per slot, so a row's solve cannot depend
        on which other rows share its batch.
        """
        curve, X = _random_curve_and_points(degree, seed=17)
        full = project_points(curve, X, method="roots", backend=backend)
        split = np.concatenate([
            project_points(curve, X[:7], method="roots", backend=backend),
            project_points(curve, X[7:23], method="roots", backend=backend),
            project_points(curve, X[23:], method="roots", backend=backend),
        ])
        np.testing.assert_array_equal(split, full)

    def test_numba_request_without_numba_is_rejected(self):
        """numba is not a backend; its name is rejected by name."""
        with pytest.raises(ConfigurationError, match="numba"):
            resolve_backend("numba")


class TestEdgeCases:
    @pytest.mark.parametrize("method", ("gss", "roots", "newton"))
    def test_empty_input(self, method):
        curve, _ = _random_curve_and_points(3, seed=6)
        X = np.empty((0, curve.dimension))
        s = project_points(curve, X, method=method)
        assert s.shape == (0,)

    def test_empty_input_warm(self):
        curve, _ = _random_curve_and_points(3, seed=6)
        X = np.empty((0, curve.dimension))
        s = project_points(curve, X, method="gss", s0=np.empty(0))
        assert s.shape == (0,)

    @pytest.mark.parametrize("method", ("gss", "roots", "newton"))
    def test_single_point(self, method):
        curve, X = _random_curve_and_points(3, seed=7)
        x = X[:1]
        s_one = project_points(curve, x, method=method)
        assert s_one.shape == (1,)
        s_all = project_points(curve, X, method=method)
        compiled = ProjectionEngine(curve).compile(x)
        close = abs(float(s_one[0]) - float(s_all[0])) <= S_ATOL
        tied = abs(
            float(compiled.distance(s_one[:1])[0])
            - float(compiled.distance(s_all[:1])[0])
        ) <= DIST_ATOL
        assert close or tied

    def test_point_on_curve_projects_to_itself(self):
        curve, _ = _random_curve_and_points(4, seed=8)
        s_true = np.array([0.25, 0.5, 0.75])
        X = curve.evaluate(s_true).T
        for method in ("gss", "roots", "newton"):
            s = project_points(curve, X, method=method)
            compiled = ProjectionEngine(curve).compile(X)
            assert np.all(compiled.distance(s) <= 1e-12), method


class TestFusedGSS:
    def test_pair_func_matches_plain(self):
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(50, 7))
        coeffs[:, -1] = np.abs(coeffs[:, -1]) + 0.5  # coercive upward
        lo = np.zeros(50)
        hi = np.ones(50)

        def func(s):
            return horner_pointwise(coeffs, s)

        x_plain, f_plain = golden_section_search_batch(func, lo, hi)
        x_fused, f_fused = golden_section_search_batch(
            func, lo, hi, pair_func=lambda cd: horner_batch(coeffs, cd)
        )
        np.testing.assert_array_equal(x_plain, x_fused)
        np.testing.assert_array_equal(f_plain, f_fused)
