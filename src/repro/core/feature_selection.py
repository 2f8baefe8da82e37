"""RPC-based feature selection (the paper's stated future work).

Section 7: "From an application view point, there are many indicators
for ranking objects.  RPC can also be used to do feature selection
which is one part of our future works."  This module implements the
natural realisation of that idea: quantify how much each attribute
contributes to the learned ranking skeleton and drop the attributes
that contribute least.

Two complementary importance measures are provided:

* **curve span** — how far the fitted curve travels along attribute
  ``j`` relative to the attribute's noise level around the curve.  An
  attribute the skeleton barely moves along (or that is mostly noise)
  does not help order the objects.
* **leave-one-out consistency** — refit the RPC without attribute
  ``j`` and measure the Kendall tau between the reduced ranking and
  the full ranking.  An attribute whose removal leaves the ranking
  intact is redundant; a large drop marks an influential attribute.

:func:`select_features` combines them into a greedy backward
elimination that keeps the ranking within a tau budget of the full
model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.core.rpc import RankingPrincipalCurve
from repro.evaluation.metrics import kendall_tau


@dataclass
class AttributeImportance:
    """Importance report for one attribute.

    Attributes
    ----------
    index:
        Column index of the attribute.
    name:
        Attribute name (``x{j}`` when not supplied).
    curve_span:
        Normalised travel of the fitted curve along this attribute
        divided by the residual noise level; higher = more structural.
    loo_tau:
        Kendall tau between the full ranking and the ranking refitted
        without this attribute; *lower* means the attribute carries
        more unique ordering information.
    """

    index: int
    name: str
    curve_span: float
    loo_tau: float

    @property
    def influence(self) -> float:
        """Scalar importance: ``1 − loo_tau`` (unique ordering info)."""
        return 1.0 - self.loo_tau


@dataclass
class FeatureSelectionResult:
    """Outcome of :func:`select_features`.

    Attributes
    ----------
    selected:
        Indices of the retained attributes, ascending.
    dropped:
        Indices eliminated, in elimination order.
    importances:
        Per-attribute reports from the full model.
    final_tau:
        Kendall tau between the final reduced ranking and the full one.
    """

    selected: list[int]
    dropped: list[int]
    importances: list[AttributeImportance]
    final_tau: float


def _fit_scores(X: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    model = RankingPrincipalCurve(alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(X)
    return model.score_samples(X)


def attribute_importances(
    X: np.ndarray,
    alpha: np.ndarray,
    attribute_names: Optional[Sequence[str]] = None,
) -> list[AttributeImportance]:
    """Score every attribute's contribution to the RPC ranking.

    Parameters
    ----------
    X:
        Raw observations, shape ``(n, d)`` with ``d >= 2``.
    alpha:
        Direction vector of the full task.
    attribute_names:
        Optional names for the report.

    Every fit is the default deterministic diagonal start, so
    differences reflect the data, not the initialisation.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataValidationError(
            f"feature selection needs (n, d>=2) data, got shape {X.shape}"
        )
    alpha = np.asarray(alpha, dtype=float).ravel()
    d = X.shape[1]
    if attribute_names is None:
        attribute_names = [f"x{j}" for j in range(d)]
    if len(attribute_names) != d:
        raise DataValidationError(
            f"{len(attribute_names)} names for {d} attributes"
        )

    model = RankingPrincipalCurve(alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(X)
    full_scores = model.score_samples(X)

    # Curve span: travel along each normalised attribute vs residual
    # noise in that attribute.
    s_dense = np.linspace(0.0, 1.0, 201)
    curve_unit = model.curve_.evaluate(s_dense)  # (d, m)
    spans = np.abs(curve_unit[:, -1] - curve_unit[:, 0])
    assert model._normalizer is not None
    X_unit = model._normalizer.transform(X)
    s_train = model.training_scores_
    residuals = X_unit - model.curve_.evaluate(s_train).T
    noise = np.maximum(np.std(residuals, axis=0), 1e-9)

    reports = []
    for j in range(d):
        keep = [k for k in range(d) if k != j]
        reduced_scores = _fit_scores(X[:, keep], alpha[keep])
        tau = kendall_tau(full_scores, reduced_scores)
        reports.append(
            AttributeImportance(
                index=j,
                name=str(attribute_names[j]),
                curve_span=float(spans[j] / noise[j]),
                loo_tau=float(tau),
            )
        )
    return reports


def select_features(
    X: np.ndarray,
    alpha: np.ndarray,
    attribute_names: Optional[Sequence[str]] = None,
    min_tau: float = 0.95,
    min_attributes: int = 2,
) -> FeatureSelectionResult:
    """Greedy backward elimination under a ranking-consistency budget.

    Repeatedly drops the attribute whose removal perturbs the current
    ranking least, as long as the reduced ranking stays within
    ``min_tau`` Kendall agreement of the *full* model's ranking and at
    least ``min_attributes`` attributes remain.

    Returns
    -------
    :class:`FeatureSelectionResult`
    """
    if not 0.0 < min_tau <= 1.0:
        raise ConfigurationError(f"min_tau must be in (0, 1], got {min_tau}")
    if min_attributes < 2:
        raise ConfigurationError(
            f"min_attributes must be >= 2, got {min_attributes}"
        )
    X = np.asarray(X, dtype=float)
    alpha = np.asarray(alpha, dtype=float).ravel()
    d = X.shape[1]
    importances = attribute_importances(
        X, alpha, attribute_names=attribute_names
    )
    full_scores = _fit_scores(X, alpha)

    selected = list(range(d))
    dropped: list[int] = []
    final_tau = 1.0
    while len(selected) > min_attributes:
        best_candidate = None
        best_tau = -np.inf
        for j in selected:
            keep = [k for k in selected if k != j]
            scores = _fit_scores(X[:, keep], alpha[keep])
            tau = kendall_tau(full_scores, scores)
            if tau > best_tau:
                best_tau = tau
                best_candidate = j
        if best_tau < min_tau or best_candidate is None:
            break
        selected.remove(best_candidate)
        dropped.append(best_candidate)
        final_tau = float(best_tau)
    return FeatureSelectionResult(
        selected=sorted(selected),
        dropped=dropped,
        importances=importances,
        final_tau=final_tau,
    )
