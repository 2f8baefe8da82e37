#!/usr/bin/env python
"""Table 1 / Fig. 6: RPC detects ordinal information RankAgg discards.

Three objects A, B, C are observed on two attributes.  Median rank
aggregation ties A and B (average position 1.5 each) and is completely
insensitive to moving A to A' because no per-attribute order changes.
RPC, ranking from the numeric observations along an S-type curve,
separates A from B — and flips their order when A moves to A'.

Run:  python examples/toy_sensitivity.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.baselines import MedianRankAggregator
from repro.data import (
    sample_around_curve,
    table1a_objects,
    table1b_objects,
)
from repro.geometry import cubic_from_interior_points
from repro.viz import ascii_scatter


def fit_on_s_curve(toy):
    """Fit an RPC against the Fig. 6 S-type supporting cloud."""
    s_curve = cubic_from_interior_points(
        toy.alpha, p1=[0.1, 0.6], p2=[0.9, 0.4]
    )
    support = sample_around_curve(s_curve, n=80, noise=0.02, seed=1)
    X = np.vstack([toy.X, support.X, [[0.0, 0.0], [1.0, 1.0]]])
    model = RankingPrincipalCurve(alpha=toy.alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(X)
    return model, support


def report(tag, toy, model):
    agg = MedianRankAggregator(alpha=toy.alpha)
    kappa = agg.aggregate_positions(toy.X)
    scores = model.score_samples(toy.X)
    order = np.argsort(-scores)
    print(f"\n=== Table 1({tag}) ===")
    print(f"{'object':<8}{'x1':>7}{'x2':>7}{'RankAgg':>9}{'RPC score':>11}")
    for i, label in enumerate(toy.labels):
        print(
            f"{label:<8}{toy.X[i, 0]:>7.2f}{toy.X[i, 1]:>7.2f}"
            f"{kappa[i]:>9.2f}{scores[i]:>11.4f}"
        )
    ranked = " < ".join(toy.labels[i] for i in np.argsort(scores))
    print(f"RPC order (worst to best): {ranked}")
    return scores, kappa


def main() -> None:
    toy_a = table1a_objects()
    toy_b = table1b_objects()

    model_a, support = fit_on_s_curve(toy_a)
    scores_a, kappa_a = report("a", toy_a, model_a)

    model_b, _ = fit_on_s_curve(toy_b)
    scores_b, kappa_b = report("b", toy_b, model_b)

    print("\n=== What changed when A moved to A'? ===")
    print(f"RankAgg values: unchanged ({kappa_a[0]:.2f} vs {kappa_b[0]:.2f}) "
          "— aggregation never saw the numeric shift.")
    flip_a = "A below B" if scores_a[0] < scores_a[1] else "A above B"
    flip_b = "A' below B" if scores_b[0] < scores_b[1] else "A' above B"
    print(f"RPC: {flip_a} in (a), but {flip_b} in (b) — the model reads "
          "the observation itself, not just its per-attribute positions.")

    print("\n=== Fig. 6: objects against the learned S-type curve ===")
    s_dense = np.linspace(0.0, 1.0, 200)
    curve_pts = model_a.reconstruct(s_dense)
    canvas = np.vstack([toy_a.X, support.X])
    print(
        ascii_scatter(
            canvas,
            curve=curve_pts,
            width=60,
            height=18,
            title="supporting cloud '.' with RPC '#' (A, B, C among them)",
        )
    )


if __name__ == "__main__":
    main()
