"""Family registry and persistence round-trip matrix.

Every registered model family must (a) fit through the uniform
ScorableModel surface, (b) survive each persistence layout — JSON,
``.npz``, manifest directory — and score byte-identically afterwards,
and (c) fail loudly (file, offending value, supported set) on payloads
this build cannot read.  These tests pin all three properties for all
registered families at once, so adding a family without full
persistence support fails here before it ships.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError
from repro.core.model_api import ScorableModel, describe_model
from repro.data.synthetic import sample_monotone_cloud
from repro.families import (
    build_model,
    family_names,
    family_of,
    get_family,
    resolve_payload_family,
)
from repro.serving import score_batch
from repro.serving.extsort import pack_block_frame, unpack_block_frame
from repro.serving.persistence import (
    MANIFEST_NAME,
    check_model_path,
    is_manifest_path,
    load_manifest,
    load_model,
    model_mtime_ns,
    save_manifest,
    save_model,
)

ALPHA = np.array([1.0, 1.0, -1.0])

#: The paper's model plus every comparator the zoo grew; pinned as a
#: set so a registry regression (a family silently dropped) fails here.
EXPECTED_FAMILIES = {
    "rpc",
    "hastie-stuetzle",
    "polyline",
    "elastic-map",
    "tibshirani",
    "first-pca",
    "kernel-pca",
    "weighted-sum",
    "median-rank",
    "borda",
    "manifold",
    "pagerank",
}

LAYOUTS = ("json", "npz", "manifest")


def _fit_family(name: str):
    """A fitted model of family ``name`` plus scoring input for it."""
    rng = np.random.default_rng(11)
    model = build_model(name, alpha=ALPHA)
    if name == "pagerank":
        n = 12
        adjacency = (rng.uniform(size=(n, n)) < 0.3).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(adjacency)
        X_score = rng.integers(0, n, size=(20, 1)).astype(float)
    else:
        cloud = sample_monotone_cloud(alpha=ALPHA, n=60, seed=5, noise=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(cloud.X)
        X_score = sample_monotone_cloud(
            alpha=ALPHA, n=25, seed=9, noise=0.05
        ).X
    return model, X_score


@pytest.fixture(scope="module")
def fitted_families():
    return {name: _fit_family(name) for name in family_names()}


class TestRegistry:
    def test_expected_families_registered(self):
        assert set(family_names()) == EXPECTED_FAMILIES

    def test_unknown_family_lookup(self):
        with pytest.raises(ConfigurationError, match="frobnicator"):
            get_family("frobnicator")

    def test_family_of(self, fitted_families):
        for name, (model, _) in fitted_families.items():
            assert family_of(model) == name

    def test_registry_pointwise_mirrors_class(self):
        for name in family_names():
            family = get_family(name)
            assert family.pointwise == bool(family.cls.pointwise_scores)

    def test_models_satisfy_protocol(self, fitted_families):
        for model, _ in fitted_families.values():
            assert isinstance(model, ScorableModel)
            assert model.is_fitted

    def test_describe_model(self, fitted_families):
        for name, (model, _) in fitted_families.items():
            info = describe_model(model)
            assert info["family"] == name
            assert info["fitted"] is True

    def test_legacy_payload_resolves_to_rpc(self):
        family = resolve_payload_family(
            {"type": "RankingPrincipalCurve", "format_version": 1}
        )
        assert family.name == "rpc"

    def test_payload_without_family_rejected(self):
        with pytest.raises(ConfigurationError, match="family"):
            resolve_payload_family({"type": "SomethingElse"})

    def test_build_model_requires_alpha(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            build_model("first-pca")


class TestRoundTripMatrix:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
    def test_round_trip_scores_byte_identical(
        self, fitted_families, tmp_path, name, layout, scoring_chunk
    ):
        model, X = fitted_families[name]
        if layout == "manifest":
            path = tmp_path / f"{name}-manifest"
        else:
            path = tmp_path / f"{name}.{layout}"
        save_model(model, path, feature_names=None)
        loaded = load_model(path)
        assert type(loaded) is type(model)
        assert loaded.family == name
        assert loaded.is_fitted
        scoring_chunk(7)
        expected = score_batch(model, X)
        got = score_batch(loaded, X)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
    def test_feature_names_survive_manifest(
        self, fitted_families, tmp_path, name
    ):
        model, _ = fitted_families[name]
        names = [f"attr{i}" for i in range(3)]
        path = save_model(model, tmp_path / "m", feature_names=names)
        assert load_model(path).feature_names_ == names

    def test_chunked_equals_unchunked_everywhere(
        self, fitted_families, scoring_chunk
    ):
        # Pointwise families: chunk boundaries must not change a single
        # bit, which is what lets the micro-batcher coalesce requests.
        # Batch-relative families: score_batch must hand the whole
        # input to one call, so a tiny chunk is a no-op too.  A BLAS
        # matmul picks its kernel by row count, so 1000+ rows at chunks
        # 1 and 3 catch any product that is not row-invariant.
        rng = np.random.default_rng(3)
        for name, (model, _) in fitted_families.items():
            if name == "pagerank":
                X = rng.integers(0, 12, size=(1200, 1)).astype(float)
            else:
                X = sample_monotone_cloud(
                    alpha=ALPHA, n=1200, seed=13, noise=0.05
                ).X
            whole = np.asarray(model.score_samples(X), dtype=float)
            for chunk in (1, 3):
                scoring_chunk(chunk)
                assert np.array_equal(score_batch(model, X), whole), (
                    name,
                    chunk,
                )

    def test_scoring_never_writes_its_input(self, fitted_families):
        # A shard scores a block straight from its frame's bytes, a
        # read-only view: a family writing into its input would raise
        # here rather than need a copy on every request.
        for name, (model, X_score) in fitted_families.items():
            labels = [""] * len(X_score)
            _, X, _ = unpack_block_frame(pack_block_frame(labels, X_score, 0))
            assert not X.flags.writeable
            assert np.array_equal(
                score_batch(model, X), score_batch(model, X_score)
            ), name


class TestManifestLayout:
    def test_manifest_contents(self, fitted_families, tmp_path):
        model, _ = fitted_families["elastic-map"]
        directory = save_manifest(model, tmp_path / "elmap")
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["manifest_version"] == 1
        assert manifest["family"] == "elastic-map"
        assert manifest["format_version"] == 1
        roles = {shard["role"] for shard in manifest["shards"]}
        assert roles == {"payload", "arrays"}
        assert (directory / "payload.json").is_file()
        assert (directory / "arrays.npz").is_file()
        # The array fields were sharded out of the scalar payload.
        payload = json.loads((directory / "payload.json").read_text())
        assert payload["fitted"]["nodes"] is None

    def test_stateless_family_manifest_has_no_array_shard(
        self, fitted_families, tmp_path
    ):
        model, _ = fitted_families["median-rank"]
        directory = save_manifest(model, tmp_path / "agg")
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        roles = [shard["role"] for shard in manifest["shards"]]
        assert roles == ["payload"]
        assert not (directory / "arrays.npz").exists()

    def test_load_by_manifest_file_path(self, fitted_families, tmp_path):
        model, X = fitted_families["rpc"]
        directory = save_manifest(model, tmp_path / "rpc")
        via_dir = load_manifest(directory)
        via_file = load_manifest(directory / MANIFEST_NAME)
        assert np.array_equal(
            via_dir.score_samples(X), via_file.score_samples(X)
        )

    def test_mtime_tracks_manifest_descriptor(
        self, fitted_families, tmp_path
    ):
        model, _ = fitted_families["rpc"]
        directory = save_manifest(model, tmp_path / "rpc")
        assert model_mtime_ns(directory) == (
            (directory / MANIFEST_NAME).stat().st_mtime_ns
        )

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            load_manifest(empty)

    def test_unsupported_manifest_version_rejected(
        self, fitted_families, tmp_path
    ):
        model, _ = fitted_families["rpc"]
        directory = save_manifest(model, tmp_path / "rpc")
        manifest_file = directory / MANIFEST_NAME
        manifest = json.loads(manifest_file.read_text())
        manifest["manifest_version"] = 99
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="manifest_version"):
            load_model(directory)


class TestErrorContract:
    """Unknown family / format_version errors name the file, the
    offending value, and the supported set (the PR's pinned contract).
    """

    def test_unknown_family_names_file_value_and_supported(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"family": "frobnicator"}))
        with pytest.raises(ConfigurationError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "frobnicator" in message
        assert "rpc" in message  # the supported set is spelled out

    def test_unknown_format_version_names_file_and_value(
        self, fitted_families, tmp_path
    ):
        model, _ = fitted_families["first-pca"]
        path = tmp_path / "stale.json"
        payload = model.to_payload()
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "format version" in message
        assert "99" in message
        assert "[1]" in message  # supported version set

    def test_unknown_format_version_in_manifest(
        self, fitted_families, tmp_path
    ):
        model, _ = fitted_families["polyline"]
        directory = save_manifest(model, tmp_path / "poly")
        payload_file = directory / "payload.json"
        payload = json.loads(payload_file.read_text())
        payload["format_version"] = 7
        payload_file.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="format version"):
            load_model(directory)

    def test_family_mismatch_rejected(self, fitted_families, tmp_path):
        model, _ = fitted_families["borda"]
        payload = model.to_payload()
        payload["family"] = "median-rank"  # wrong adapter for the bytes
        from repro.families import BordaCountAdapter

        with pytest.raises(ConfigurationError, match="family"):
            BordaCountAdapter.from_payload(payload)

    def test_legacy_v1_single_file_still_loads(self, tmp_path):
        # A payload written before the family registry existed: no
        # ``family`` key, only the legacy ``type`` discriminator.
        cloud = sample_monotone_cloud(alpha=ALPHA, n=40, seed=2, noise=0.05)
        model = RankingPrincipalCurve(
            alpha=ALPHA, random_state=0, n_restarts=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(cloud.X)
        legacy = model.to_dict()
        assert "family" not in legacy
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(legacy))
        loaded = load_model(path)
        assert isinstance(loaded, RankingPrincipalCurve)
        assert np.array_equal(
            loaded.score_samples(cloud.X), model.score_samples(cloud.X)
        )


class TestModelPaths:
    def test_manifest_paths_accepted(self, tmp_path):
        assert check_model_path(tmp_path / "model-dir") is not None
        assert check_model_path(tmp_path / "dir" / MANIFEST_NAME) is not None

    def test_single_file_paths_not_manifests(self, tmp_path):
        assert not is_manifest_path(tmp_path / "m.json")
        assert not is_manifest_path(tmp_path / "m.npz")
        assert is_manifest_path(tmp_path / "models" / "elmap")

    def test_foreign_suffix_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="pickle"):
            check_model_path(tmp_path / "m.pickle")
