#!/usr/bin/env python
"""End-to-end CSV workflow: the downstream user's path through the API.

1. Export the bundled country table to a CSV (as a stand-in for "your
   own data file").
2. Load it back with :func:`repro.data.load_csv`, declare attribute
   directions with the '+NAME/-NAME' spec, fit an RPC.
3. Write the ranking to ``ranking.csv`` and print a stability report
   for the extremes (bootstrap confidence for a label-free ranking).

The same flow is available non-programmatically as::

    python -m repro rank countries.csv --alpha "+GDP,+LEB,-IMR,-Tuberculosis"

Run:  python examples/csv_workflow.py
"""

from __future__ import annotations

import tempfile
import pathlib

from repro import RankingPrincipalCurve
from repro.data import (
    COUNTRY_ATTRIBUTES,
    load_countries,
    load_csv,
    parse_alpha_spec,
    save_csv,
    save_ranking_csv,
)
from repro.evaluation import bootstrap_rank_stability


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-csv-"))
    data_path = workdir / "countries.csv"
    ranking_path = workdir / "ranking.csv"

    # 1. Export the bundled table (pretend this is the user's file).
    source = load_countries(n_countries=60)
    save_csv(
        data_path,
        source.labels,
        source.X,
        COUNTRY_ATTRIBUTES,
        label_column="country",
    )
    print(f"wrote {data_path} ({source.n_countries} rows)")

    # 2. Load + declare directions + fit.
    table = load_csv(data_path, label_column="country")
    alpha = parse_alpha_spec(
        "+GDP,+LEB,-IMR,-Tuberculosis", table.attribute_names
    )
    model = RankingPrincipalCurve(alpha=alpha, random_state=0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranking = model.fit_rank(table.X, labels=table.labels)
    print(f"fitted RPC: explained variance "
          f"{model.explained_variance(table.X):.3f}")

    # 3. Persist the ranking and show the extremes.
    save_ranking_csv(ranking_path, ranking)
    print(f"wrote {ranking_path}\n")
    print("top 5:")
    for label, score in ranking.top(5):
        print(f"  {score:.4f}  {label}")
    print("bottom 3:")
    for label, score in ranking.bottom(3):
        print(f"  {score:.4f}  {label}")

    # 4. How confident is the list?  Bootstrap the fit.
    def factory():
        return RankingPrincipalCurve(alpha=alpha)

    report = bootstrap_rank_stability(
        factory,
        table.X,
        labels=table.labels,
        n_resamples=6,
        random_state=1,
    )
    interesting = [ranking.labels[i] for i in ranking.order[:3]] + [
        ranking.labels[i] for i in ranking.order[-3:]
    ]
    print("\nbootstrap position stability (6 resamples):")
    print(report.table(rows=interesting))
    print("\nTight spreads at the extremes mean the top/bottom of the "
          "list would survive resampling the dataset — a label-free "
          "confidence statement to accompany the ranking.")


if __name__ == "__main__":
    main()
