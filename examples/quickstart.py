#!/usr/bin/env python
"""Quickstart: rank synthetic multi-attribute objects with an RPC.

This example walks through the whole public API on a synthetic
dataset whose ground-truth latent quality is known:

1. generate noisy observations along a strictly monotone curve
   (the generative model ``x = f(s) + eps`` of Eq.(11));
2. fit a :class:`repro.RankingPrincipalCurve`;
3. inspect scores, the ranking list, the learned control points and
   the optimisation trace;
4. verify the five meta-rules hold for the fitted model.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.core.meta_rules import assess_ranking_model
from repro.core.order import RankingOrder
from repro.data import sample_monotone_cloud
from repro.evaluation import spearman_rho
from repro.viz import ascii_scatter


def main() -> None:
    # Three attributes: two benefits ("quality", "coverage") and one
    # cost ("defect rate").
    alpha = np.array([1.0, 1.0, -1.0])
    cloud = sample_monotone_cloud(alpha=alpha, n=200, noise=0.02, seed=7)
    labels = [f"item-{i:03d}" for i in range(cloud.X.shape[0])]

    print("=== Fit ===")
    model = RankingPrincipalCurve(alpha=alpha, random_state=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranking = model.fit_rank(cloud.X, labels=labels)

    trace = model.trace_
    print(f"iterations        : {trace.n_iterations}")
    print(f"final objective J : {trace.final_objective:.6f}")
    print(f"monotone descent  : {trace.is_monotone_decreasing()}")
    print(f"explained variance: {model.explained_variance(cloud.X):.4f}")

    print("\n=== Ranking list (top and bottom 5) ===")
    for label, score in ranking.top(5):
        print(f"  {label}  score={score:.4f}")
    print("  ...")
    for label, score in ranking.bottom(5):
        print(f"  {label}  score={score:.4f}")

    rho = spearman_rho(model.score_samples(cloud.X), cloud.latent)
    print(f"\nSpearman rho vs ground-truth latent: {rho:.4f}")

    print("\n=== Learned control points (original units) ===")
    print(np.array_str(model.control_points_original_, precision=4))

    print("\n=== Meta-rule assessment ===")

    def fit_and_score(X: np.ndarray) -> np.ndarray:
        refit = RankingPrincipalCurve(alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            refit.fit(X)
        return refit.score_samples(X)

    report = assess_ranking_model(
        model=model,
        scorer=model.score_samples,
        fit_and_score=fit_and_score,
        X=cloud.X,
        order=RankingOrder(alpha=alpha),
    )
    print(report.summary())

    print("\n=== First two attributes with the fitted curve ===")
    s_dense = np.linspace(0.0, 1.0, 150)
    curve_pts = model.reconstruct(s_dense)
    print(
        ascii_scatter(
            cloud.X[:, :2],
            curve=curve_pts[:, :2],
            width=64,
            height=18,
            title="attribute 1 (x) vs attribute 0 (y)... data '.' curve '#'",
        )
    )


if __name__ == "__main__":
    main()
