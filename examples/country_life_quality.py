#!/usr/bin/env python
"""Country life-quality ranking (the paper's Section 6.2.1 experiment).

Ranks 171 countries on four GAPMINDER-style indicators — GDP per
capita, life expectancy at birth (benefits), infant mortality and
tuberculosis incidence (costs) — with ``alpha = (+1, +1, -1, -1)``.
Reproduces the Table 2 presentation: RPC scores/orders next to an
Elmap comparator, the learned control points in original units, and
the explained-variance comparison, plus Fig. 7's pairwise panels.

Run:  python examples/country_life_quality.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.data import (
    PAPER_EXPLAINED_VARIANCE,
    PAPER_TABLE2_RPC,
    load_countries,
)
from repro.data.normalize import MinMaxNormalizer
from repro.princurve import ElasticMapCurve
from repro.viz import pairwise_panels, render_panels


def main() -> None:
    data = load_countries()
    print(f"countries: {data.n_countries}   attributes: GDP, LEB, IMR, TB")
    print(f"alpha = {data.alpha}   ({int(data.is_from_paper.sum())} rows "
          "embedded verbatim from Table 2, the rest synthesized)")

    model = RankingPrincipalCurve(alpha=data.alpha, random_state=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranking = model.fit_rank(data.X, labels=data.labels)

    # Elmap comparator at the paper's regularisation level.
    normalizer = MinMaxNormalizer().fit(data.X)
    X_unit = normalizer.transform(data.X)
    elmap = ElasticMapCurve(
        n_nodes=10, stretch=0.1, bend=1.0, orient_alpha=data.alpha
    ).fit(X_unit)
    elmap_scores = elmap.score_samples(X_unit)

    print("\n=== Explained variance (Table 2 headline) ===")
    print(f"RPC  : {model.explained_variance(data.X):.3f}   "
          f"(paper: {PAPER_EXPLAINED_VARIANCE['rpc']:.2f})")
    print(f"Elmap: {elmap.explained_variance(X_unit):.3f}   "
          f"(paper: {PAPER_EXPLAINED_VARIANCE['elmap']:.2f})")

    print("\n=== Table 2 rows: paper vs measured ===")
    header = (
        f"{'Country':<16}{'RPC score':>11}{'RPC order':>11}"
        f"{'paper score':>13}{'paper order':>13}{'Elmap score':>13}"
    )
    print(header)
    print("-" * len(header))
    for name, (paper_score, paper_order) in PAPER_TABLE2_RPC.items():
        idx = data.labels.index(name)
        print(
            f"{name:<16}{ranking.scores[idx]:>11.4f}"
            f"{ranking.positions[idx]:>11d}{paper_score:>13.4f}"
            f"{paper_order:>13d}{elmap_scores[idx]:>13.4f}"
        )

    print("\n=== Learned control points (original units, Table 2 bottom) ===")
    P = model.control_points_original_
    names = ["GDP", "LEB", "IMR", "TB"]
    for j, attr in enumerate(names):
        cells = "".join(f"{P[j, r]:>12.2f}" for r in range(P.shape[1]))
        print(f"  {attr:<4} p0..p3: {cells}")

    print("\n=== Fig. 7: pairwise projections (GDP/LEB panel) ===")
    panels = pairwise_panels(X_unit, model.curve_, attribute_names=names)
    gdp_leb = next(p for p in panels if p.names == ("GDP", "LEB"))
    print(render_panels([gdp_leb], width=64, height=18))

    print("\nInterpretation: the curve climbs steeply at low GDP — small "
          "income gains buy large LEB/IMR improvements — then flattens, "
          "matching the paper's reading of the $14300 threshold.")

    # The diminishing-returns observation, quantified: LEB gain along
    # the curve in the first GDP quintile vs the last.
    s = np.linspace(0.0, 1.0, 101)
    curve_orig = model.reconstruct(s)
    gdp_curve, leb_curve = curve_orig[:, 0], curve_orig[:, 1]
    low = gdp_curve <= np.quantile(gdp_curve, 0.2)
    high = gdp_curve >= np.quantile(gdp_curve, 0.8)
    gain_low = (leb_curve[low].max() - leb_curve[low].min()) / max(
        gdp_curve[low].max() - gdp_curve[low].min(), 1e-9
    )
    gain_high = (leb_curve[high].max() - leb_curve[high].min()) / max(
        gdp_curve[high].max() - gdp_curve[high].min(), 1e-9
    )
    print(f"\nLEB years gained per extra $1000 of GDP:")
    print(f"  poorest curve segment : {1000 * gain_low:.2f}")
    print(f"  richest curve segment : {1000 * gain_high:.2f}")


if __name__ == "__main__":
    main()
