"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.normalize import normalize_unit_cube
from repro.data.synthetic import (
    sample_crescent,
    sample_monotone_cloud,
    sample_s_curve,
)
from repro.geometry.cubic import cubic_from_interior_points


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def alpha2() -> np.ndarray:
    """A 2-D all-benefit direction vector."""
    return np.array([1.0, 1.0])


@pytest.fixture
def alpha4() -> np.ndarray:
    """The country task's direction vector."""
    return np.array([1.0, 1.0, -1.0, -1.0])


@pytest.fixture
def crescent_unit() -> np.ndarray:
    """Normalised crescent cloud (Fig. 5(a) shape), 120 points."""
    return normalize_unit_cube(sample_crescent(n=120, seed=7).X)


@pytest.fixture
def s_curve_unit() -> np.ndarray:
    """Normalised S-shaped cloud, 120 points."""
    return normalize_unit_cube(sample_s_curve(n=120, seed=7).X)


@pytest.fixture
def monotone_cloud_3d():
    """A 3-D RPC-recoverable cloud with its latent scores."""
    return sample_monotone_cloud(
        alpha=np.array([1.0, 1.0, -1.0]), n=150, seed=11, noise=0.02
    )


@pytest.fixture
def s_shape_curve():
    """A fixed strictly monotone 2-D cubic (S-shaped)."""
    return cubic_from_interior_points(
        np.array([1.0, 1.0]),
        p1=np.array([0.1, 0.6]),
        p2=np.array([0.9, 0.4]),
    )


@pytest.fixture
def scoring_chunk(monkeypatch):
    """Setter for the fixed scoring chunk, undone after the test.

    ``repro.serving.batch.DEFAULT_CHUNK_SIZE`` is read at call time and
    never changes a score; tests shrink it only to reach multi-chunk
    paths on small inputs.
    """
    from repro.serving import batch

    def set_chunk(rows: int) -> None:
        monkeypatch.setattr(batch, "DEFAULT_CHUNK_SIZE", rows)

    return set_chunk
