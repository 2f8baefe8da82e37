"""Golden round-trip and batch-scoring tests for the serving subsystem.

The serving contract is exactness: persistence must reproduce the
fitted model bit-for-bit (JSON via shortest-round-trip float repr,
``.npz`` via binary doubles), and chunked batch scoring must match the
unchunked path bit for bit.  These tests pin that contract on
the two bundled paper datasets plus synthetic data large enough to
exercise multi-chunk paths.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError, NotFittedError
from repro.data import load_countries, load_journals
from repro.data.normalize import MinMaxNormalizer
from repro.data.synthetic import sample_monotone_cloud
from repro.geometry.bezier import BezierCurve
from repro.serving import (
    dumps_model,
    load_model,
    loads_model,
    save_model,
    score_batch,
)


def _fit(data, **kwargs):
    model = RankingPrincipalCurve(
        alpha=data.alpha, random_state=0, **kwargs
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(data.X)
    return model


@pytest.fixture(scope="module")
def country_model():
    return _fit(load_countries())


@pytest.fixture(scope="module")
def journal_model():
    return _fit(load_journals())


class TestDictRoundTrips:
    def test_bezier_curve_exact(self, s_shape_curve):
        payload = json.loads(json.dumps(s_shape_curve.to_dict()))
        rebuilt = BezierCurve.from_dict(payload)
        assert np.array_equal(
            rebuilt.control_points, s_shape_curve.control_points
        )

    def test_bezier_rejects_foreign_payload(self):
        with pytest.raises(ConfigurationError):
            BezierCurve.from_dict({"type": "Snake"})

    def test_normalizer_exact(self, rng):
        X = rng.normal(size=(30, 4)) * np.array([1.0, 1e6, 1e-6, 3.0])
        norm = MinMaxNormalizer().fit(X)
        payload = json.loads(json.dumps(norm.to_dict()))
        rebuilt = MinMaxNormalizer.from_dict(payload)
        assert np.array_equal(rebuilt.data_min_, norm.data_min_)
        assert np.array_equal(rebuilt.data_max_, norm.data_max_)
        assert np.array_equal(rebuilt.transform(X), norm.transform(X))

    def test_unfitted_normalizer_round_trip(self):
        rebuilt = MinMaxNormalizer.from_dict(
            MinMaxNormalizer(clip=True).to_dict()
        )
        assert rebuilt.clip is True
        assert rebuilt.data_min_ is None

    def test_unfitted_model_round_trip(self):
        model = RankingPrincipalCurve(
            alpha=[1, -1], degree=2, projection="newton", warm_start=True
        )
        rebuilt = RankingPrincipalCurve.from_dict(
            json.loads(json.dumps(model.to_dict()))
        )
        assert rebuilt.degree == 2
        assert rebuilt.projection == "newton"
        assert rebuilt.warm_start is True
        assert np.array_equal(rebuilt.alpha, model.alpha)
        with pytest.raises(NotFittedError):
            rebuilt.score_samples(np.zeros((1, 2)))

    def test_future_format_version_rejected(self):
        payload = RankingPrincipalCurve(alpha=[1, 1]).to_dict()
        payload["format_version"] = 2
        with pytest.raises(ConfigurationError, match="format version"):
            RankingPrincipalCurve.from_dict(payload)

    def test_save_does_not_mutate_model(self, tmp_path):
        model = RankingPrincipalCurve(alpha=[1, -1])
        model.feature_names_ = ["orig_a", "orig_b"]
        path = save_model(
            model, tmp_path / "m.json", feature_names=["new_a", "new_b"]
        )
        assert model.feature_names_ == ["orig_a", "orig_b"]
        assert load_model(path).feature_names_ == ["new_a", "new_b"]

    def test_fitted_model_trace_preserved(self, country_model):
        rebuilt = loads_model(dumps_model(country_model))
        assert (
            rebuilt.trace_.objectives == country_model.trace_.objectives
        )
        assert (
            rebuilt.trace_.step_sizes == country_model.trace_.step_sizes
        )
        assert (
            rebuilt.trace_.n_iterations
            == country_model.trace_.n_iterations
        )


class TestGoldenRoundTrips:
    """Fit on the paper datasets, save → load → score: bit-identical."""

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_countries(self, country_model, tmp_path, suffix):
        data = load_countries()
        reference = country_model.score_samples(data.X)
        path = save_model(country_model, tmp_path / f"model{suffix}")
        served = load_model(path)
        assert np.array_equal(score_batch(served, data.X), reference)
        # Rankings (order over labels) are therefore identical too.
        ref_order = np.argsort(-reference, kind="stable")
        new_order = np.argsort(-score_batch(served, data.X), kind="stable")
        assert np.array_equal(ref_order, new_order)

    @pytest.mark.parametrize("suffix", [".json", ".npz"])
    def test_journals(self, journal_model, tmp_path, suffix):
        data = load_journals()
        reference = journal_model.score_samples(data.X)
        path = save_model(journal_model, tmp_path / f"model{suffix}")
        served = load_model(path)
        assert np.array_equal(score_batch(served, data.X), reference)

    def test_control_points_and_normalizer_exact(
        self, country_model, tmp_path
    ):
        path = save_model(country_model, tmp_path / "model.npz")
        served = load_model(path)
        assert np.array_equal(
            served.control_points_, country_model.control_points_
        )
        assert np.array_equal(
            served.training_scores_, country_model.training_scores_
        )
        assert np.array_equal(
            served._normalizer.data_min_,
            country_model._normalizer.data_min_,
        )

    def test_feature_names_survive(self, country_model, tmp_path):
        names = ["GDP", "LEB", "IMR", "TB"]
        path = save_model(
            country_model, tmp_path / "model.json", feature_names=names
        )
        assert load_model(path).feature_names_ == names

    def test_unknown_suffix_rejected(self, country_model, tmp_path):
        with pytest.raises(ConfigurationError):
            save_model(country_model, tmp_path / "model.pickle")
        with pytest.raises(ConfigurationError):
            load_model(tmp_path / "model.pickle")


class TestScoreBatch:
    def test_chunked_matches_unchunked_100k(
        self, country_model, scoring_chunk
    ):
        # The acceptance-scale check: 100k rows, chunked projection,
        # bit-identical to the one-shot path.
        data = load_countries()
        rng = np.random.default_rng(0)
        idx = rng.integers(0, data.X.shape[0], size=100_000)
        X = data.X[idx] * rng.uniform(0.95, 1.05, size=(100_000, 1))
        scoring_chunk(X.shape[0])
        unchunked = score_batch(country_model, X)
        scoring_chunk(8192)
        chunked = score_batch(country_model, X)
        assert np.array_equal(chunked, unchunked)
        assert np.all((chunked >= 0.0) & (chunked <= 1.0))

    def test_odd_chunk_sizes(self, country_model, scoring_chunk):
        data = load_countries()
        reference = country_model.score_samples(data.X)
        for chunk in (1, 7, 170, 171, 172, 10_000):
            scoring_chunk(chunk)
            assert np.array_equal(
                score_batch(country_model, data.X), reference
            ), chunk

    def test_rejects_non_2d(self, country_model):
        # Fail fast instead of failing later inside score_samples.
        with pytest.raises(ConfigurationError, match="must be 2-D"):
            score_batch(country_model, np.zeros(5))
        with pytest.raises(ConfigurationError, match="must be 2-D"):
            score_batch(country_model, np.zeros((2, 2, 2)))

    def test_empty_input_handled_cleanly(self, country_model):
        empty = np.empty((0, 4))
        scores = score_batch(country_model, empty)
        assert scores.shape == (0,)

    def test_unfitted_model_raises(self):
        model = RankingPrincipalCurve(alpha=[1, 1])
        with pytest.raises(NotFittedError):
            score_batch(model, np.zeros((3, 2)))

    def test_works_on_synthetic_cloud(self, scoring_chunk):
        alpha = np.array([1.0, 1.0, -1.0])
        cloud = sample_monotone_cloud(alpha=alpha, n=200, seed=2, noise=0.02)
        model = RankingPrincipalCurve(alpha=alpha, random_state=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(cloud.X)
        scoring_chunk(33)
        scores = score_batch(model, cloud.X)
        assert np.array_equal(scores, model.score_samples(cloud.X))


class TestWarmStartDefault:
    """PR 2 flipped ``warm_start`` on by default (agreement ~1e-10)."""

    def test_default_is_on(self):
        assert RankingPrincipalCurve(alpha=[1, 1]).warm_start is True

    def test_payloads_without_the_field_stay_cold(self):
        # Models saved before the flag existed keep their original
        # (cold-scan) behaviour when reloaded.
        payload = RankingPrincipalCurve(alpha=[1, 1]).to_dict()
        del payload["hyperparameters"]["warm_start"]
        assert RankingPrincipalCurve.from_dict(payload).warm_start is False


class TestWarmStartEndToEnd:
    def test_warm_model_round_trips_and_matches_cold(self, tmp_path):
        data = load_countries()
        cold = _fit(data, warm_start=False)
        warm = _fit(data, warm_start=True)
        assert warm.trace_.final_objective == pytest.approx(
            cold.trace_.final_objective, abs=1e-8
        )
        path = save_model(warm, tmp_path / "warm.json")
        served = load_model(path)
        assert served.warm_start is True
        assert np.array_equal(
            score_batch(served, data.X), warm.score_samples(data.X)
        )
