"""Tests for the public RankingPrincipalCurve estimator."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
import repro.core.rpc as rpc_module
from repro.core.rpc import RankingPrincipalCurve
from repro.data.countries import load_countries
from repro.data.journals import load_journals
from repro.data.synthetic import sample_monotone_cloud
from repro.evaluation.metrics import spearman_rho
from repro.serving import loads_model


@pytest.fixture(scope="module")
def fitted_model_and_cloud():
    """One shared fit for the read-only assertions (module scope)."""
    cloud = sample_monotone_cloud(
        alpha=np.array([1.0, 1.0, -1.0]), n=150, seed=11, noise=0.02
    )
    model = RankingPrincipalCurve(
        alpha=[1, 1, -1], random_state=0, n_restarts=2
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    return model, cloud


class TestConfiguration:
    def test_bad_alpha_raises(self):
        with pytest.raises(ConfigurationError):
            RankingPrincipalCurve(alpha=[1, 0])

    def test_bad_degree_raises(self):
        with pytest.raises(ConfigurationError):
            RankingPrincipalCurve(alpha=[1, 1], degree=0)

    def test_bad_restarts_raises(self):
        with pytest.raises(ConfigurationError):
            RankingPrincipalCurve(alpha=[1, 1], n_restarts=0)

    @pytest.mark.parametrize("name", ["projection", "update", "init"])
    def test_bad_solver_option_raises(self, name):
        # n_restarts=1 forces the only restart to "linear", so a bad
        # init is never read by the fit and must fail here.
        with pytest.raises(ConfigurationError, match=name):
            RankingPrincipalCurve(alpha=[1, 1], n_restarts=1, **{name: "bogus"})

    @pytest.mark.parametrize("name", ["projection", "update", "init"])
    def test_bad_solver_option_in_saved_model_fails_at_load(
        self, name, fitted_model_and_cloud
    ):
        model, _ = fitted_model_and_cloud
        payload = model.to_dict()
        payload["hyperparameters"][name] = "bogus"
        with pytest.raises(ConfigurationError, match=name):
            RankingPrincipalCurve.from_dict(payload)
        with pytest.raises(ConfigurationError, match=name):
            loads_model(json.dumps(payload))

    def test_capability_declarations(self):
        model = RankingPrincipalCurve(alpha=[1, 1, -1, -1])
        assert model.has_linear_capacity
        assert model.has_nonlinear_capacity
        assert model.parameter_size == 16  # 4 x 4 control points


class TestNotFittedGuards:
    def test_all_accessors_raise(self):
        model = RankingPrincipalCurve(alpha=[1, 1])
        X = np.random.default_rng(0).uniform(size=(5, 2))
        with pytest.raises(NotFittedError):
            model.score_samples(X)
        with pytest.raises(NotFittedError):
            _ = model.curve_
        with pytest.raises(NotFittedError):
            _ = model.control_points_
        with pytest.raises(NotFittedError):
            _ = model.training_scores_
        with pytest.raises(NotFittedError):
            model.explained_variance(X)
        with pytest.raises(NotFittedError):
            model.reconstruct(np.array([0.5]))


class TestFittedBehaviour:
    def test_scores_in_unit_interval(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        s = model.score_samples(cloud.X)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_recovers_latent_order(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        s = model.score_samples(cloud.X)
        assert spearman_rho(s, cloud.latent) > 0.97

    def test_constraints_satisfied(self, fitted_model_and_cloud):
        model, _ = fitted_model_and_cloud
        model.check_constraints()  # must not raise

    def test_explained_variance_high(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        assert model.explained_variance(cloud.X) > 0.9

    def test_rank_returns_labelled_list(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        labels = [f"obj{i}" for i in range(cloud.X.shape[0])]
        ranking = model.rank(cloud.X, labels=labels)
        assert len(ranking.top(3)) == 3
        assert ranking.positions.min() == 1
        assert ranking.positions.max() == cloud.X.shape[0]

    def test_reconstruct_inverts_scoring(self, fitted_model_and_cloud):
        model, _ = fitted_model_and_cloud
        s = np.linspace(0.1, 0.9, 7)
        points = model.reconstruct(s)
        s_back = model.score_samples(points)
        np.testing.assert_allclose(s_back, s, atol=1e-3)

    def test_control_points_original_units(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        P_orig = model.control_points_original_
        assert P_orig.shape == (3, 4)
        # End points in original units span the data's min/max box.
        lo = cloud.X.min(axis=0)
        hi = cloud.X.max(axis=0)
        assert np.all(P_orig[:, 0] >= lo - 1e-9)
        assert np.all(P_orig[:, 0] <= hi + 1e-9)

    def test_training_scores_match_rescoring(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        np.testing.assert_allclose(
            model.training_scores_,
            model.score_samples(cloud.X),
            atol=1e-6,
        )

    def test_order_property(self, fitted_model_and_cloud):
        model, _ = fitted_model_and_cloud
        np.testing.assert_array_equal(model.order_.alpha, [1.0, 1.0, -1.0])


class TestMonotonicityGuarantee:
    def test_dominated_points_score_lower(self, fitted_model_and_cloud):
        model, cloud = fitted_model_and_cloud
        order = model.order_
        s = model.score_samples(cloud.X)
        strict = order.strict_dominance_matrix(cloud.X)
        rows, cols = np.nonzero(strict)
        # For every strictly dominated pair, the dominating point must
        # score at least as high (scores can tie only at the clamped
        # boundary s = 0 or s = 1).
        bad = 0
        for i, j in zip(rows, cols):
            if s[j] - s[i] < -1e-9:
                bad += 1
        assert bad == 0


class TestReproducibility:
    def test_same_seed_same_result(self):
        cloud = sample_monotone_cloud(
            alpha=np.array([1.0, 1.0]), n=60, seed=2, noise=0.02
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = RankingPrincipalCurve(
                alpha=[1, 1], random_state=42, n_restarts=2
            ).fit(cloud.X)
            b = RankingPrincipalCurve(
                alpha=[1, 1], random_state=42, n_restarts=2
            ).fit(cloud.X)
        np.testing.assert_array_equal(
            a.control_points_, b.control_points_
        )

    def test_generator_accepted_as_seed(self):
        cloud = sample_monotone_cloud(
            alpha=np.array([1.0, 1.0]), n=60, seed=2, noise=0.02
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = RankingPrincipalCurve(
                alpha=[1, 1],
                random_state=np.random.default_rng(3),
                n_restarts=1,
            ).fit(cloud.X)
        assert model.training_scores_.shape == (60,)


class TestDefaultFit:
    """The default fit is the one deterministic diagonal start."""

    @pytest.fixture(params=["countries", "journals"], scope="class")
    def dataset(self, request):
        if request.param == "countries":
            return load_countries()
        return load_journals()

    @staticmethod
    def _fit(data, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return RankingPrincipalCurve(data.alpha, **kwargs).fit(data.X)

    def test_one_start_that_converges(self, dataset, monkeypatch):
        calls = []
        original = rpc_module.fit_rpc_curve

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(rpc_module, "fit_rpc_curve", counted)
        self._fit(dataset, random_state=0)
        assert len(calls) == 1
        assert calls[0].trace.converged

    def test_seed_does_not_move_a_bit(self, dataset):
        fits = [
            self._fit(dataset, random_state=seed) for seed in (0, 1, None)
        ]
        for other in fits[1:]:
            assert np.array_equal(
                other.control_points_, fits[0].control_points_
            )
            assert np.array_equal(
                other.score_samples(dataset.X),
                fits[0].score_samples(dataset.X),
            )

    def test_objective_no_worse_than_four_starts(self, dataset):
        one = self._fit(dataset, random_state=0)
        four = self._fit(dataset, random_state=0, n_restarts=4)
        assert (
            one.trace_.final_objective
            <= four.trace_.final_objective + 1e-6
        )


class TestValidation:
    def test_wrong_width_raises(self):
        model = RankingPrincipalCurve(alpha=[1, 1])
        with pytest.raises(DataValidationError):
            model.fit(np.ones((10, 3)))

    def test_nan_raises(self):
        model = RankingPrincipalCurve(alpha=[1, 1])
        X = np.ones((10, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataValidationError):
            model.fit(X)

    def test_1d_raises(self):
        model = RankingPrincipalCurve(alpha=[1, 1])
        with pytest.raises(DataValidationError):
            model.fit(np.ones(10))


class TestScaleTranslationInvariance:
    """Meta-rule 1 holds end-to-end for the full pipeline."""

    def test_ranking_survives_affine_transform(self):
        cloud = sample_monotone_cloud(
            alpha=np.array([1.0, -1.0]), n=80, seed=9, noise=0.02
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = RankingPrincipalCurve(
                alpha=[1, -1], random_state=1, n_restarts=1, init="linear"
            ).fit(cloud.X)
            scales = np.array([12.0, 0.05])
            shifts = np.array([-40.0, 7.0])
            transformed = cloud.X * scales + shifts
            moved = RankingPrincipalCurve(
                alpha=[1, -1], random_state=1, n_restarts=1, init="linear"
            ).fit(transformed)
        s_base = base.score_samples(cloud.X)
        s_moved = moved.score_samples(transformed)
        # Same ranking list (scores may differ in the last decimals).
        np.testing.assert_array_equal(
            np.argsort(s_base), np.argsort(s_moved)
        )
