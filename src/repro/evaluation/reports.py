"""One-call plain-text evaluation report for a fitted ranking model.

Bundles the library's assessments — fit quality, meta-rules,
strict-monotonicity violations and the head/tail of the ranking list —
into a single report string.  Examples print it; downstream users can
attach it to the ranking they publish, which is the paper's entire
point: unsupervised rankings should ship with their label-free
evidence.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.meta_rules import MetaRuleReport, assess_ranking_model
from repro.core.order import RankingOrder
from repro.core.rpc import RankingPrincipalCurve
from repro.core.scoring import build_ranking_list
from repro.evaluation.monotonicity import (
    OrderViolationSummary,
    count_order_violations,
)


@dataclass
class EvaluationReport:
    """All label-free evidence about one fitted RPC ranking.

    Attributes
    ----------
    explained_variance:
        Fraction of variance the curve reconstructs.
    meta_rules:
        The five-rule assessment.
    violations:
        Strict-monotonicity violation counts on the data.
    n_objects:
        Number of ranked objects.
    top, bottom:
        The extremes of the list as ``(label, score)`` pairs.
    """

    explained_variance: float
    meta_rules: MetaRuleReport
    violations: OrderViolationSummary
    n_objects: int
    top: list[tuple[str, float]]
    bottom: list[tuple[str, float]]

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"RPC evaluation report — {self.n_objects} objects",
            "=" * 48,
            f"explained variance : {self.explained_variance:.4f}",
            (
                "order violations   : "
                f"{self.violations.n_inversions} inversions, "
                f"{self.violations.n_ties} ties over "
                f"{self.violations.n_comparable_pairs} comparable pairs"
            ),
            "",
            self.meta_rules.summary(),
            "",
            "top of the list:",
        ]
        for label, score in self.top:
            lines.append(f"  {score:.4f}  {label}")
        lines.append("bottom of the list:")
        for label, score in self.bottom:
            lines.append(f"  {score:.4f}  {label}")
        return "\n".join(lines)


def evaluate_rpc_ranking(
    model: RankingPrincipalCurve,
    X: np.ndarray,
    labels: Optional[Sequence[str]] = None,
    refit: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    k_extremes: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> EvaluationReport:
    """Assemble an :class:`EvaluationReport` for a fitted RPC.

    Parameters
    ----------
    model:
        A fitted :class:`RankingPrincipalCurve`.
    X:
        The data the report describes.
    labels:
        Optional object names.
    refit:
        Pipeline closure for the invariance check; defaults to
        refitting an identically configured default (one-start) model.
    k_extremes:
        Number of list-head and list-tail entries to include.
    rng:
        Randomness for probes; defaults to a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    order = model.order_
    scores = model.score_samples(X)
    ranking = build_ranking_list(
        scores,
        labels=list(labels) if labels is not None else None,
    )

    if refit is None:

        def refit(data: np.ndarray) -> np.ndarray:
            clone = RankingPrincipalCurve(
                alpha=model.alpha,
                degree=model.degree,
                projection=model.projection,
                update=model.update,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                clone.fit(data)
            return clone.score_samples(data)

    meta = assess_ranking_model(
        model=model,
        scorer=model.score_samples,
        fit_and_score=refit,
        X=X,
        order=order,
        rng=rng,
    )
    violations = count_order_violations(
        model.score_samples, X, order, tie_tol=1e-9
    )
    return EvaluationReport(
        explained_variance=model.explained_variance(X),
        meta_rules=meta,
        violations=violations,
        n_objects=X.shape[0],
        top=ranking.top(k_extremes),
        bottom=ranking.bottom(k_extremes),
    )
