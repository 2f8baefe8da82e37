"""Shared adapter machinery for non-Bézier model families.

An adapter wraps one of the existing zoo models (``repro.princurve``,
``repro.baselines``) and supplies the parts of the
:class:`~repro.core.model_api.ScorableModel` contract the wrapped class
predates: the ``family``/``format_version`` identity, exact
``to_payload``/``from_payload`` persistence, the serving
``score_batch`` signature, and the ``is_fitted``/``n_attributes``
introspection the registry's ``describe()`` needs.

The wrapped model is exposed as ``.model`` so evaluation code that
wants the family-specific surface (e.g. ``reconstruction_error`` on a
principal curve) can still reach it.
"""

from __future__ import annotations

from typing import Any, ClassVar, List, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError


def as_float_list(array) -> Optional[list]:
    """``tolist()`` with ``None`` passthrough, for payload fields."""
    if array is None:
        return None
    return np.asarray(array, dtype=float).tolist()


class ModelAdapter:
    """Base class: delegation + the payload envelope shared by every
    adapted family.

    Subclasses set the class-level identity (``family``, ``model_cls``,
    optionally ``pointwise_scores``) and implement the four state
    hooks: ``_hyperparameters``, ``_fitted_payload``,
    ``_restore_fitted`` and the ``is_fitted``/``n_attributes``
    properties.
    """

    family: ClassVar[str]
    format_version: ClassVar[int] = 1
    pointwise_scores: ClassVar[bool] = True
    model_cls: ClassVar[type]

    def __init__(self, model: Any = None, **hyperparams):
        if model is not None:
            if hyperparams:
                raise ConfigurationError(
                    f"pass either a prebuilt {self.model_cls.__name__} "
                    "or hyperparameters, not both"
                )
            if not isinstance(model, self.model_cls):
                raise ConfigurationError(
                    f"{type(self).__name__} wraps "
                    f"{self.model_cls.__name__}, got "
                    f"{type(model).__name__}"
                )
        else:
            model = self.model_cls(**hyperparams)
        self.model = model
        self.feature_names_: Optional[List[str]] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(family={self.family!r})"

    # ------------------------------------------------------------------
    # Scoring surface
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "ModelAdapter":
        self.model.fit(np.asarray(X, dtype=float))
        return self

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # Uniform width validation so every family surfaces a shape
        # mismatch as DataValidationError (the daemon's 422), not as a
        # family-specific broadcasting error deep in the wrapped model.
        expected = self.n_attributes
        if (
            expected is not None
            and X.ndim == 2
            and X.shape[1] != expected
        ):
            raise DataValidationError(
                f"model expects {expected} attributes, got {X.shape[1]}"
            )
        return np.asarray(self.model.score_samples(X), dtype=float)

    def score_batch(
        self,
        X: np.ndarray,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Serving entry point with the daemon's uniform signature."""
        # Imported lazily: repro.serving's persistence module imports
        # repro.families for payload dispatch, so a module-level import
        # here would be circular.
        from repro.serving.batch import score_batch

        return score_batch(self, X, chunk_size=chunk_size)

    # ------------------------------------------------------------------
    # State hooks
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError

    @property
    def n_attributes(self) -> Optional[int]:
        raise NotImplementedError

    def _hyperparameters(self) -> dict:
        """JSON-serialisable constructor arguments of the wrapped model."""
        raise NotImplementedError

    def _fitted_payload(self) -> dict:
        """JSON-serialisable fitted state (called only when fitted)."""
        raise NotImplementedError

    def _restore_fitted(self, fitted: dict) -> None:
        """Inverse of :meth:`_fitted_payload` onto ``self.model``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Persistence envelope
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """Exact snapshot: ``from_payload(to_payload())`` scores any
        input bit-identically (floats survive JSON via shortest
        round-trip ``repr``)."""
        return {
            "family": self.family,
            "format_version": self.format_version,
            "hyperparameters": self._hyperparameters(),
            "feature_names": self.feature_names_,
            "fitted": self._fitted_payload() if self.is_fitted else None,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelAdapter":
        family = payload.get("family")
        if family != cls.family:
            raise ConfigurationError(
                f"payload family {family!r} does not match adapter "
                f"family {cls.family!r}"
            )
        version = payload.get("format_version")
        if version != cls.format_version:
            raise ConfigurationError(
                f"unsupported model format version {version!r} for "
                f"family {cls.family!r}; this build reads format "
                f"version {cls.format_version}"
            )
        adapter = cls(**payload.get("hyperparameters", {}))
        names = payload.get("feature_names")
        adapter.feature_names_ = (
            [str(name) for name in names] if names is not None else None
        )
        fitted = payload.get("fitted")
        if fitted is not None:
            adapter._restore_fitted(fitted)
        return adapter
