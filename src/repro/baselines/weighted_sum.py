"""Weighted-summation ranking — the introduction's strawman baseline.

"To rank from multi-attribute objects, weighted summation of attributes
is widely used to provide a scalar score for each object.  But
different weight assignments give different ranking lists such that
ranking results are not convincing enough."  We implement it anyway: it
is linear, smooth, explicit and strictly monotone (for positive
weights), but it has *no nonlinear capacity* and needs an expert to
pick the weights — the two failings the meta-rule report shows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.data.normalize import MinMaxNormalizer
from repro.geometry.cubic import validate_direction_vector
from repro.linalg.rowwise import row_invariant_product


class WeightedSumRanker:
    """Score by ``theta^T x_hat`` on Eq.(29)-normalised attributes.

    Parameters
    ----------
    alpha:
        Task direction vector; cost attributes enter with a negative
        sign so that higher scores always mean better objects.
    weights:
        Expert-assigned non-negative attribute weights; uniform when
        omitted.  Weights are normalised to sum to one.
    """

    def __init__(
        self,
        alpha: np.ndarray,
        weights: Optional[Sequence[float]] = None,
    ):
        self.alpha = validate_direction_vector(np.asarray(alpha, dtype=float))
        d = self.alpha.size
        if weights is None:
            w = np.full(d, 1.0 / d)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if w.size != d:
                raise ConfigurationError(
                    f"{w.size} weights for {d} attributes"
                )
            if np.any(w < 0.0):
                raise ConfigurationError("weights must be non-negative")
            total = float(w.sum())
            if total <= 0.0:
                raise ConfigurationError("weights must not all be zero")
            w = w / total
        self.weights = w
        self._normalizer: Optional[MinMaxNormalizer] = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "WeightedSumRanker":
        """Record normalisation bounds (the only data-driven part)."""
        X = self._validate(X)
        self._normalizer = MinMaxNormalizer().fit(X)
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Signed weighted sum of normalised attributes, in ``[0, 1]``.

        Cost attributes contribute ``w_j (1 − x_hat_j)`` so the score
        is 1 at the best corner and 0 at the worst — the same reference
        convention RPC uses.
        """
        if self._normalizer is None:
            raise NotFittedError("WeightedSumRanker")
        X = self._validate(X)
        U = self._normalizer.transform(X)
        oriented = np.where(self.alpha > 0, U, 1.0 - U)
        return row_invariant_product(oriented, self.weights)

    # ------------------------------------------------------------------
    # Meta-rule capability declarations
    # ------------------------------------------------------------------
    @property
    def has_linear_capacity(self) -> bool:
        """The scorer is exactly linear."""
        return True

    @property
    def has_nonlinear_capacity(self) -> bool:
        """No nonlinearity is expressible — the paper's criticism."""
        return False

    @property
    def parameter_size(self) -> Optional[int]:
        """``d`` weights (Def. 6's canonical example)."""
        return int(self.weights.size)

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
