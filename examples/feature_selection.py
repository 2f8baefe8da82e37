#!/usr/bin/env python
"""Feature selection with RPCs — the paper's Section 7 future work.

Adds two deliberately useless indicators to the country life-quality
table (a pure-noise column and a constant-plus-jitter column), then

1. scores every indicator's contribution to the learned ranking
   (curve-span and leave-one-out importance);
2. runs greedy backward elimination under a ranking-consistency
   budget and shows the junk indicators are eliminated first;
3. verifies the reduced ranking agrees with the full one.

Run:  python examples/feature_selection.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.core.feature_selection import (
    attribute_importances,
    select_features,
)
from repro.data import load_countries
from repro.evaluation import kendall_tau


def main() -> None:
    data = load_countries(n_countries=100)
    rng = np.random.default_rng(42)

    # Two junk indicators: uniform noise and near-constant jitter.
    noise = rng.uniform(0.0, 100.0, size=(data.X.shape[0], 1))
    jitter = 50.0 + rng.normal(0.0, 0.5, size=(data.X.shape[0], 1))
    X = np.hstack([data.X, noise, jitter])
    names = ["GDP", "LEB", "IMR", "TB", "NOISE", "JITTER"]
    alpha = np.concatenate([data.alpha, [1.0, 1.0]])

    print(f"countries: {X.shape[0]}   indicators: {', '.join(names)}")
    print("(NOISE and JITTER are synthetic junk added for this demo)\n")

    print("=== Per-indicator importance ===")
    reports = attribute_importances(X, alpha, attribute_names=names)
    print(f"{'indicator':<10}{'curve span / noise':>20}{'LOO tau':>10}"
          f"{'influence':>11}")
    for r in sorted(reports, key=lambda r: -r.influence):
        print(f"{r.name:<10}{r.curve_span:>20.2f}{r.loo_tau:>10.4f}"
              f"{r.influence:>11.4f}")

    print("\n=== Greedy backward elimination (tau budget 0.9) ===")
    result = select_features(
        X, alpha, attribute_names=names, min_tau=0.9, min_attributes=2
    )
    print(f"dropped (in order): "
          f"{[names[j] for j in result.dropped] or 'nothing'}")
    print(f"selected          : {[names[j] for j in result.selected]}")
    print(f"final Kendall tau vs full ranking: {result.final_tau:.4f}")

    print("\n=== Sanity: reduced model vs full model ===")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = RankingPrincipalCurve(alpha=alpha).fit(X)
        keep = result.selected
        reduced = RankingPrincipalCurve(alpha=alpha[keep]).fit(X[:, keep])
    tau = kendall_tau(
        full.score_samples(X), reduced.score_samples(X[:, keep])
    )
    print(f"Kendall tau (full d={X.shape[1]} vs reduced "
          f"d={len(keep)}): {tau:.4f}")
    print("\nReading the two tools together: the curve-span column flags "
          "the junk indicators (the skeleton barely moves along NOISE "
          "and JITTER relative to their scatter), while backward "
          "elimination removes whatever is *redundant for the ordering* "
          "— which can also include a real indicator that duplicates "
          "another (here TB, which tracks IMR).  Both diagnostics are "
          "label-free.")


if __name__ == "__main__":
    main()
