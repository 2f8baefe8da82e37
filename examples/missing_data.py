#!/usr/bin/env python
"""Missing data: the paper dropped 58 of 451 journals — can we do better?

Section 6.2.2 removes every journal with a missing indicator before
fitting.  This example knocks random cells out of the journal table
and compares three strategies:

1. **drop** — the paper's choice: fit and rank only complete rows
   (incomplete journals get no rank at all);
2. **median impute** — fill holes with the attribute median, rank all;
3. **curve impute** — fit the RPC on complete rows, project incomplete
   rows through their observed coordinates (masked projection), rank
   all and reconstruct the holes from the curve.

Ground truth for the comparison is the ranking fitted on the original
complete table.

Run:  python examples/missing_data.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.data import load_journals
from repro.data.missing import (
    CurveImputer,
    drop_missing_rows,
    median_impute,
    missing_summary,
)
from repro.evaluation import kendall_tau


def main() -> None:
    data = load_journals(n_journals=200)
    rng = np.random.default_rng(7)

    # Reference ranking on the intact table.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = RankingPrincipalCurve(alpha=data.alpha).fit(data.X)
    ref_scores = reference.score_samples(data.X)

    # Knock out ~8% of cells (keeping 60 rows intact to fit from).
    X_holey = data.X.copy()
    holes = rng.uniform(size=X_holey.shape) < 0.08
    holes[:60] = False
    empty_rows = holes.all(axis=1)
    holes[empty_rows, 0] = False
    X_holey[holes] = np.nan

    summary = missing_summary(X_holey)
    print(f"journals: {summary['n_rows']}   missing cells: "
          f"{summary['n_missing_cells']} "
          f"({100 * summary['cell_missing_rate']:.1f}%)   incomplete rows: "
          f"{summary['n_incomplete_rows']}")

    # Strategy 1: drop (the paper's).
    complete, labels_c, kept = drop_missing_rows(X_holey, labels=data.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dropped_model = RankingPrincipalCurve(alpha=data.alpha).fit(complete)
    tau_drop = kendall_tau(
        dropped_model.score_samples(complete), ref_scores[kept]
    )

    # Strategy 2: median imputation.
    X_median = median_impute(X_holey)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        median_model = RankingPrincipalCurve(alpha=data.alpha).fit(X_median)
    tau_median = kendall_tau(
        median_model.score_samples(X_median), ref_scores
    )

    # Strategy 3: curve imputation + masked scoring.
    imputer = CurveImputer(alpha=data.alpha)
    result = imputer.fit_transform(X_holey)
    tau_curve = kendall_tau(result.scores, ref_scores)
    cell_error = float(
        np.mean(np.abs(result.X_imputed[holes] - data.X[holes]))
    )

    print("\n=== Agreement with the intact-table ranking (Kendall tau) ===")
    print(f"drop incomplete rows : {tau_drop:.4f}  "
          f"(but ranks only {len(kept)}/{summary['n_rows']} journals)")
    print(f"median imputation    : {tau_median:.4f}  (ranks all)")
    print(f"curve imputation     : {tau_curve:.4f}  (ranks all)")
    print(f"\ncurve-imputed cell mean abs error: {cell_error:.4f} "
          "(original units)")
    print("\nThe masked projection ranks every journal — including the "
          "ones the paper had to discard — while staying consistent "
          "with the complete-data ranking.")


if __name__ == "__main__":
    main()
