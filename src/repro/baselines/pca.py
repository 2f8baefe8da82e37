"""First-PCA and kernel-PCA ranking baselines (Section 4.1's contrast).

The first principal component is "the simplest ranking rule": project
every observation onto the direction of maximal variance and rank by
the coordinate.  The paper grants it smoothness, explicitness and
affine invariance but shows it fails on curved clouds (Fig. 5(a)) and
can break strict monotonicity when the component aligns with an axis.

Kernel PCA extends the projection nonlinearly, but the feature-space
map is not order-preserving — the motivating criticism in the paper's
introduction — which :mod:`repro.core.meta_rules` exposes empirically.
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.core.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.data.normalize import MinMaxNormalizer
from repro.geometry.cubic import validate_direction_vector
from repro.linalg.rowwise import row_invariant_product


class FirstPCARanker:
    """Rank by the first principal component (after Eq.(29) normalisation).

    Parameters
    ----------
    alpha:
        Direction vector of the task; used to orient the component so
        that higher scores mean better objects (the raw SVD direction
        has arbitrary sign).
    """

    def __init__(self, alpha: np.ndarray):
        self.alpha = validate_direction_vector(np.asarray(alpha, dtype=float))
        self._normalizer: Optional[MinMaxNormalizer] = None
        self.mean_: Optional[np.ndarray] = None
        self.direction_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "FirstPCARanker":
        """Learn the component from raw observations."""
        X = self._validate(X)
        self._normalizer = MinMaxNormalizer().fit(X)
        U = self._normalizer.transform(X)
        self.mean_ = U.mean(axis=0)
        centred = U - self.mean_
        _u, _s, vt = np.linalg.svd(centred, full_matrices=False)
        direction = vt[0]
        # Orient towards the task's "best" corner.
        if float(direction @ self.alpha) < 0.0:
            direction = -direction
        self.direction_ = direction
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """First principal components ``w^T (x − mu)`` — higher is better."""
        if self.direction_ is None or self._normalizer is None:
            raise NotFittedError("FirstPCARanker")
        X = self._validate(X)
        U = self._normalizer.transform(X)
        return row_invariant_product(U - self.mean_, self.direction_)

    def explained_variance(self, X: np.ndarray) -> float:
        """Variance fraction captured by the component line."""
        if self.direction_ is None or self._normalizer is None:
            raise NotFittedError("FirstPCARanker")
        X = self._validate(X)
        U = self._normalizer.transform(X)
        centred = U - self.mean_
        along = centred @ self.direction_
        recon = np.outer(along, self.direction_)
        ss_res = float(np.sum((centred - recon) ** 2))
        ss_tot = float(np.sum(centred**2))
        if ss_tot <= 0.0:
            return 1.0
        return 1.0 - ss_res / ss_tot

    # ------------------------------------------------------------------
    # Meta-rule capability declarations
    # ------------------------------------------------------------------
    @property
    def has_linear_capacity(self) -> bool:
        """PCA is exactly a linear scorer."""
        return True

    @property
    def has_nonlinear_capacity(self) -> bool:
        """A straight line cannot express nonlinear attribute links."""
        return False

    @property
    def parameter_size(self) -> Optional[int]:
        """``d`` direction weights plus ``d`` mean entries."""
        return 2 * int(self.alpha.size)

    # ------------------------------------------------------------------
    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != self.alpha.size:
            raise DataValidationError(
                f"X has {X.shape[1]} attributes but alpha has {self.alpha.size}"
            )
        return X


class KernelPCARanker:
    """Rank by the first kernel principal component (RBF or polynomial).

    Implements kernel PCA from scratch: centre the kernel matrix,
    eigendecompose, and score new points by the centred kernel
    projection onto the leading eigenvector.  The paper's point is that
    this map is *not order-preserving*; the meta-rule assessment
    reproduces that failure.

    Parameters
    ----------
    alpha:
        Task direction vector (for orientation only).
    kernel:
        ``"rbf"`` or ``"poly"``.
    gamma:
        RBF width parameter ``exp(−gamma ‖x − y‖²)``.
    degree:
        Polynomial kernel degree for ``kernel="poly"``.
    """

    def __init__(
        self,
        alpha: np.ndarray,
        kernel: Literal["rbf", "poly"] = "rbf",
        gamma: float = 2.0,
        degree: int = 3,
    ):
        self.alpha = validate_direction_vector(np.asarray(alpha, dtype=float))
        if kernel not in ("rbf", "poly"):
            raise ConfigurationError(f"unknown kernel {kernel!r}")
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        self.kernel = kernel
        self.gamma = float(gamma)
        self.degree = int(degree)
        self._normalizer: Optional[MinMaxNormalizer] = None
        self._train: Optional[np.ndarray] = None
        self._row_means: Optional[np.ndarray] = None
        self._total_mean: float = 0.0
        self._component: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        # Row-invariant product: a scored row's kernel values must not
        # depend on how many rows were scored with it.
        AB = row_invariant_product(A, B.T)
        if self.kernel == "rbf":
            d2 = (
                np.sum(A**2, axis=1)[:, np.newaxis]
                - 2.0 * AB
                + np.sum(B**2, axis=1)[np.newaxis, :]
            )
            return np.exp(-self.gamma * np.maximum(d2, 0.0))
        return (1.0 + AB) ** self.degree

    def fit(self, X: np.ndarray) -> "KernelPCARanker":
        """Centre the training kernel and extract the leading component."""
        X = self._validate(X)
        self._normalizer = MinMaxNormalizer().fit(X)
        U = self._normalizer.transform(X)
        self._train = U
        K = self._kernel_matrix(U, U)
        self._row_means = K.mean(axis=1)
        self._total_mean = float(K.mean())
        n = K.shape[0]
        centred = (
            K
            - self._row_means[:, np.newaxis]
            - self._row_means[np.newaxis, :]
            + self._total_mean
        )
        eigvals, eigvecs = np.linalg.eigh(centred)
        lead = eigvecs[:, -1]
        lam = max(float(eigvals[-1]), 1e-12)
        self._component = lead / np.sqrt(lam)
        # Orient: correlate with the naive alpha-weighted sum.
        naive = U @ self.alpha
        scores = row_invariant_product(centred, self._component)
        if float(np.corrcoef(scores, naive)[0, 1]) < 0.0:
            self._component = -self._component
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Kernel principal components of (normalised) observations."""
        if self._component is None or self._train is None:
            raise NotFittedError("KernelPCARanker")
        assert self._normalizer is not None and self._row_means is not None
        X = self._validate(X)
        U = self._normalizer.transform(X)
        K = self._kernel_matrix(U, self._train)  # (m, n)
        centred = (
            K
            - K.mean(axis=1)[:, np.newaxis]
            - self._row_means[np.newaxis, :]
            + self._total_mean
        )
        return row_invariant_product(centred, self._component)

    # ------------------------------------------------------------------
    # Meta-rule capability declarations
    # ------------------------------------------------------------------
    @property
    def has_linear_capacity(self) -> bool:
        """RBF feature space does not contain exactly linear scorers."""
        return self.kernel == "poly"

    @property
    def has_nonlinear_capacity(self) -> bool:
        """Kernel maps are intrinsically nonlinear."""
        return True

    @property
    def parameter_size(self) -> Optional[int]:
        """Unknown: one dual coefficient per training point (data-sized)."""
        return None

    # ------------------------------------------------------------------
    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
        if X.shape[1] != self.alpha.size:
            raise DataValidationError(
                f"X has {X.shape[1]} attributes but alpha has {self.alpha.size}"
            )
        return X
