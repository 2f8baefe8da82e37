"""Kernel-backend suite: closed-form root solving, backend resolution,
and the daemon's backend telemetry.

The closed-form solver replaces the eigenvalue companion-matrix root
finder on the serving hot path, so its oracle is ``numpy.roots``
directly: every real root the companion matrix finds (degree <= 4) or
every sign-crossing root inside the projection interval (degree >= 5)
must come back to ~1e-12, including the adversarial shapes — double
roots, biquadratics, near-degenerate leading coefficients and extreme
scalings — where textbook quadratic/Cardano/Ferrari formulas break.
"""

from __future__ import annotations

import json
import threading
import urllib.request
import warnings

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rpc import RankingPrincipalCurve
from repro.data.synthetic import sample_monotone_cloud
from repro.linalg.backend import (
    BACKEND_CHOICES,
    ClosedFormBackend,
    NumpyBackend,
    resolve_backend,
)
from repro.linalg.closedform import (
    closed_form_real_roots,
    closed_form_stationary_roots,
    isolated_real_roots,
)
from repro.linalg.horner import horner_batch
from repro.linalg.polyroots import (
    batched_minimize_on_interval,
    batched_real_roots,
    real_roots,
)
from repro.server import ModelRegistry, ScoringHTTPServer
from repro.serving import save_model

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _np_real_roots(coeffs_ascending):
    """Reference real roots via numpy's companion eigenvalues."""
    c = np.asarray(coeffs_ascending, dtype=float)
    # trim exact-zero leading coefficients the way numpy.roots wants
    c_desc = c[::-1]
    nz = np.flatnonzero(c_desc != 0.0)
    if nz.size == 0 or nz[0] == c_desc.size - 1:
        return np.array([])
    r = np.roots(c_desc[nz[0]:])
    return np.sort(r[np.abs(r.imag) < 1e-9].real)


def _assert_roots_match(got, expected, context, atol=1e-9):
    got = np.sort(np.asarray(got, dtype=float))
    expected = np.asarray(expected, dtype=float)
    assert got.size == expected.size, (
        f"{context}: found {got.size} roots, expected {expected.size} "
        f"(got {got}, expected {expected})"
    )
    if expected.size:
        scale = 1.0 + np.abs(expected)
        np.testing.assert_allclose(got, expected, atol=atol * scale.max())


def _assert_root_sets_match(got, expected, context, atol=1e-6):
    """Set-wise comparison for multiple-root cases: the closed forms
    report the *set* of real roots, so a double root may come back once
    or twice — both are correct answers."""
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.size > 0 or expected.size == 0, context
    for r in expected:
        assert np.any(np.abs(got - r) <= atol * (1.0 + abs(r))), (
            f"{context}: expected root {r} missing from {got}"
        )
    for r in got:
        assert np.any(np.abs(expected - r) <= atol * (1.0 + abs(r))), (
            f"{context}: spurious root {r} not in {expected}"
        )


def _from_roots(roots, lead=1.0):
    """Ascending coefficients of ``lead * prod (x - r)``."""
    c = np.atleast_1d(np.polynomial.polynomial.polyfromroots(roots))
    return c * lead


# ---------------------------------------------------------------------------
# closed-form roots, degree <= 4
# ---------------------------------------------------------------------------


class TestClosedFormRoots:
    @pytest.mark.parametrize("degree", (1, 2, 3, 4))
    def test_random_batches_match_numpy_roots(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=(200, degree + 1))
        coeffs[:, -1] += np.sign(coeffs[:, -1]) + 0.1  # keep full degree
        roots, valid = closed_form_real_roots(coeffs)
        for i in range(coeffs.shape[0]):
            _assert_roots_match(
                roots[i][valid[i]],
                _np_real_roots(coeffs[i]),
                context=f"degree {degree} row {i}",
            )

    @pytest.mark.parametrize("scale", (1e-8, 1.0, 1e8))
    def test_scaling_invariance(self, scale):
        rng = np.random.default_rng(99)
        coeffs = rng.normal(size=(100, 5)) * scale
        coeffs[:, -1] += np.sign(coeffs[:, -1]) * scale
        roots, valid = closed_form_real_roots(coeffs)
        for i in range(coeffs.shape[0]):
            _assert_roots_match(
                roots[i][valid[i]],
                _np_real_roots(coeffs[i]),
                context=f"scale {scale} row {i}",
            )

    def test_double_root_quadratic(self):
        # (x - 0.4)^2: textbook discriminant rounds negative; the
        # relative tolerance keeps the double root.
        coeffs = _from_roots([0.4, 0.4])[np.newaxis]
        roots, valid = closed_form_real_roots(coeffs)
        assert valid[0].sum() == 2
        np.testing.assert_allclose(roots[0][valid[0]], 0.4, atol=1e-7)

    def test_double_root_cubic(self):
        # (x - 0.3)^2 (x - 0.9): disc == 0 border of the Cardano branch.
        coeffs = _from_roots([0.3, 0.3, 0.9])[np.newaxis]
        roots, valid = closed_form_real_roots(coeffs)
        _assert_root_sets_match(
            roots[0][valid[0]], [0.3, 0.9], "double-root cubic"
        )

    def test_double_double_quartic(self):
        coeffs = _from_roots([0.2, 0.2, 0.8, 0.8])[np.newaxis]
        roots, valid = closed_form_real_roots(coeffs)
        _assert_root_sets_match(
            roots[0][valid[0]], [0.2, 0.8], "double-double quartic"
        )

    def test_biquadratic_hits_ferrari_degenerate_branch(self):
        # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4): q == 0 makes Ferrari's
        # alpha-division blow up; the biquadratic branch must catch it.
        coeffs = np.array([[4.0, 0.0, -5.0, 0.0, 1.0]])
        roots, valid = closed_form_real_roots(coeffs)
        _assert_roots_match(
            roots[0][valid[0]], [-2.0, -1.0, 1.0, 2.0], "biquadratic"
        )

    def test_no_real_roots(self):
        coeffs = np.array([[1.0, 0.0, 1.0]])  # x^2 + 1
        roots, valid = closed_form_real_roots(coeffs)
        assert not valid.any()

    def test_degree_above_four_rejected(self):
        with pytest.raises(ConfigurationError, match="degree"):
            closed_form_real_roots(np.ones((1, 6)))

    def test_mixed_effective_degrees_in_one_batch(self):
        rows = [
            _from_roots([0.5], lead=2.0).tolist() + [0.0, 0.0, 0.0],
            _from_roots([0.1, 0.9]).tolist() + [0.0, 0.0],
            _from_roots([0.2, 0.5, 0.7]).tolist() + [0.0],
            _from_roots([0.1, 0.3, 0.6, 0.8]).tolist(),
        ]
        coeffs = np.array([r + [0.0] * (5 - len(r)) for r in rows])
        roots, valid = closed_form_real_roots(coeffs)
        for i, row in enumerate(rows):
            _assert_roots_match(
                roots[i][valid[i]],
                _np_real_roots(np.trim_zeros(np.array(row), "b")),
                context=f"mixed row {i}",
            )


class TestIsolatedRoots:
    @pytest.mark.parametrize("degree", (5, 6, 7, 9))
    def test_crossing_roots_match_numpy_inside_interval(self, degree):
        rng = np.random.default_rng(degree * 7)
        coeffs = rng.normal(size=(100, degree + 1))
        coeffs[:, -1] += np.sign(coeffs[:, -1]) + 0.1
        roots, valid = isolated_real_roots(coeffs, 0.0, 1.0)
        for i in range(coeffs.shape[0]):
            ref = _np_real_roots(coeffs[i])
            ref = ref[(ref >= 0.0) & (ref <= 1.0)]
            # random polynomials have simple (crossing) roots a.s.
            _assert_roots_match(
                np.sort(roots[i][valid[i]]),
                ref,
                context=f"degree {degree} row {i}",
            )

    def test_stationary_solver_agrees_with_eigvals_minimizer(self):
        # degree-6 polynomials: the squared-distance shape the
        # projection engine minimises for cubic curves.
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=(300, 7))
        coeffs[:, -1] += np.sign(coeffs[:, -1]) + 0.1
        s_ref = batched_minimize_on_interval(coeffs, 0.0, 1.0)
        s_cf = batched_minimize_on_interval(
            coeffs, 0.0, 1.0, root_solver=closed_form_stationary_roots
        )
        from numpy.polynomial.polynomial import polyval

        d_ref = polyval(s_ref, coeffs.T, tensor=False)
        d_cf = polyval(s_cf, coeffs.T, tensor=False)
        close = np.abs(s_ref - s_cf) <= 1e-10
        tied = np.abs(d_ref - d_cf) <= 1e-10 * (1.0 + np.abs(d_ref))
        assert np.all(close | tied), (
            f"{int((~(close | tied)).sum())} rows disagree"
        )


# ---------------------------------------------------------------------------
# polyroots deflation regressions (near-degenerate leading coefficients)
# ---------------------------------------------------------------------------


class TestNearDegenerateDeflation:
    def test_scalar_near_cubic_quartic(self):
        # 1e-20 x^4 + cubic: the monic companion would divide by 1e-20
        # and poison every eigenvalue; deflation must solve the cubic.
        cubic = _from_roots([0.2, 0.5, 0.9])
        coeffs = np.append(cubic, 1e-20)
        got = real_roots(coeffs)
        _assert_roots_match(got, [0.2, 0.5, 0.9], "scalar near-cubic")

    def test_batched_near_cubic_quartic(self):
        cubic_a = _from_roots([0.1, 0.4, 0.7])
        cubic_b = _from_roots([0.3, 0.6, 0.8])
        quartic = _from_roots([0.25, 0.45, 0.65, 0.85])
        coeffs = np.vstack([
            np.append(cubic_a, 1e-19),
            np.append(cubic_b, 0.0),
            quartic,
        ])
        roots, valid, fallback = batched_real_roots(coeffs)
        assert not fallback.any()
        _assert_roots_match(
            roots[0][valid[0]], [0.1, 0.4, 0.7], "batched row 0"
        )
        _assert_roots_match(
            roots[1][valid[1]], [0.3, 0.6, 0.8], "batched row 1"
        )
        _assert_roots_match(
            roots[2][valid[2]], [0.25, 0.45, 0.65, 0.85], "batched row 2"
        )

    def test_closed_form_matches_on_near_degenerate_rows(self):
        cubic = _from_roots([0.15, 0.55, 0.95])
        coeffs = np.append(cubic, 1e-18)[np.newaxis]
        roots, valid = closed_form_real_roots(coeffs)
        _assert_roots_match(
            roots[0][valid[0]], [0.15, 0.55, 0.95], "closed-form deflation"
        )

    def test_minimizer_survives_near_degenerate_derivative(self):
        # distance-like polynomial whose derivative has a ~0 lead term:
        # the poisoned companion matrix used to push the argmin to junk
        rng = np.random.default_rng(8)
        quintics = rng.normal(size=(20, 6))
        quintics[:, -1] *= 1e-18  # near-degenerate lead everywhere
        coeffs = np.hstack([np.ones((20, 1)), quintics / np.arange(1, 7)])
        s_ref = batched_minimize_on_interval(coeffs, 0.0, 1.0)
        s_cf = batched_minimize_on_interval(
            coeffs, 0.0, 1.0, root_solver=closed_form_stationary_roots
        )
        assert np.all((s_ref >= 0.0) & (s_ref <= 1.0))
        from numpy.polynomial.polynomial import polyval

        d_ref = polyval(s_ref, coeffs.T, tensor=False)
        d_cf = polyval(s_cf, coeffs.T, tensor=False)
        close = np.abs(s_ref - s_cf) <= 1e-10
        tied = np.abs(d_ref - d_cf) <= 1e-10 * (1.0 + np.abs(d_ref))
        assert np.all(close | tied)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_default_is_numpy_singleton(self):
        assert resolve_backend(None) is resolve_backend("numpy")
        assert resolve_backend("default") is resolve_backend("numpy")
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_names_are_cached_singletons(self):
        assert resolve_backend("closed-form") is resolve_backend(
            "closed_form"
        )
        assert resolve_backend("NumPy") is resolve_backend("numpy")

    def test_instance_passthrough(self):
        backend = ClosedFormBackend()
        assert resolve_backend(backend) is backend

    def test_auto_prefers_fastest_available(self):
        assert resolve_backend("auto").name == "closed-form"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend("fortran")

    def test_choices_cover_available_names(self):
        for name in BACKEND_CHOICES:
            assert resolve_backend(name).name in BACKEND_CHOICES

    def test_backend_kernels_match_reference(self):
        """Each backend's stationary minimiser lands on the reference
        answer (or an exactly tied basin) for random coercive sextics."""
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(40, 7))
        coeffs[:, -1] = np.abs(coeffs[:, -1]) + 0.5
        reference = NumpyBackend().minimize_stationary(coeffs)
        d_ref = horner_batch(coeffs, reference[:, np.newaxis])[:, 0]
        for name in BACKEND_CHOICES:
            s = resolve_backend(name).minimize_stationary(coeffs)
            d = horner_batch(coeffs, s[:, np.newaxis])[:, 0]
            close = np.abs(s - reference) <= 1e-10
            tied = np.abs(d - d_ref) <= 1e-10 * (1.0 + np.abs(d_ref))
            assert np.all(close | tied), name


class TestDtypePreservingKernels:
    def test_integer_coefficients_still_promote_to_float64(self):
        out = horner_batch(np.ones((2, 3), dtype=int), np.zeros(4))
        assert out.dtype == np.float64


# ---------------------------------------------------------------------------
# daemon telemetry: backend visible at every reporting surface
# ---------------------------------------------------------------------------


ALPHA = np.array([1.0, 1.0, -1.0])


def _request(base, method, path, body=None, headers=None, timeout=10):
    req = urllib.request.Request(
        base + path, data=body, method=method, headers=headers or {}
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read()


@pytest.fixture(scope="module")
def saved_model_path(tmp_path_factory):
    cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=3, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=3, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    path = tmp_path_factory.mktemp("backend_models") / "demo.json"
    save_model(model, path, feature_names=["a", "b", "c"])
    return cloud.X, path


def _boot(path, **kwargs):
    registry = ModelRegistry()
    registry.register("demo", str(path))
    server = ScoringHTTPServer(("127.0.0.1", 0), registry, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    return server, base


class TestServerBackendTelemetry:
    def test_default_server_reports_numpy_float64(self, saved_model_path):
        _, path = saved_model_path
        server, base = _boot(path)
        try:
            _, _, body = _request(base, "GET", "/metrics")
            engine = json.loads(body)["engine"]
            assert engine["backend"] == "numpy"
        finally:
            server.shutdown()
            server.server_close()

    def test_configured_backend_reaches_every_surface(
        self, saved_model_path
    ):
        X, path = saved_model_path
        server, base = _boot(path, backend="closed-form")
        try:
            payload = json.dumps({"rows": X[:5].tolist()}).encode()
            status, _, body = _request(
                base,
                "POST",
                "/v1/models/demo/score",
                body=payload,
                headers={"Content-Type": "application/json"},
            )
            assert status == 200
            scores = json.loads(body)["scores"]
            assert len(scores) == 5

            _, _, body = _request(base, "GET", "/metrics")
            engine = json.loads(body)["engine"]
            assert engine["backend"] == "closed-form"
            assert engine.get("backend_closed_form_compiles", 0) >= 1

            _, _, body = _request(base, "GET", "/v1/models")
            for entry in json.loads(body)["models"]:
                assert entry["backend"] == "closed-form"

            _, _, body = _request(base, "GET", "/metrics?format=prometheus")
            text = body.decode()
            assert 'repro_engine_info{backend="closed-form"} 1' in text
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_backend_fails_boot(self, saved_model_path):
        _, path = saved_model_path
        registry = ModelRegistry()
        registry.register("demo", str(path))
        with pytest.raises(ConfigurationError, match="backend"):
            ScoringHTTPServer(
                ("127.0.0.1", 0), registry, backend="fortran"
            )

    def test_numba_without_numba_fails_boot(self, saved_model_path):
        """numba is not a backend; asking for it is a boot error."""
        _, path = saved_model_path
        registry = ModelRegistry()
        registry.register("demo", str(path))
        with pytest.raises(ConfigurationError, match="numba"):
            ScoringHTTPServer(("127.0.0.1", 0), registry, backend="numba")
