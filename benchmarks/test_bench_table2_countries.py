"""Table 2: life-quality ranking of 171 countries, RPC vs Elmap.

Paper's claims to reproduce:

* RPC explains ~90% of variance vs ~86% for Elmap;
* the Table 2 tier structure — Luxembourg/Norway/Kuwait/Singapore/US
  at the top, Moldova..Iraq mid-table around score 0.51, South
  Africa..Swaziland at the bottom;
* RPC scores live in [0, 1] with interpretable worst/best references,
  while Elmap's centred scores assign no country the zero reference;
* the learned control points are ``4 x d`` interpretable numbers
  (printed in original units like the paper's bottom rows).

The benchmark times the full country fit.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve
from repro.data import (
    PAPER_EXPLAINED_VARIANCE,
    PAPER_TABLE2_RPC,
)
from repro.data.normalize import normalize_unit_cube
from repro.evaluation import spearman_rho
from repro.princurve import ElasticMapCurve

from conftest import emit, format_table


def test_table2_country_ranking(benchmark, country_data, country_model):
    data = country_data

    def fit_once():
        model = RankingPrincipalCurve(
            alpha=data.alpha, random_state=1, n_restarts=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(data.X)
        return model

    benchmark.pedantic(fit_once, rounds=3, iterations=1)

    model = country_model
    ranking = model.rank(data.X, labels=data.labels)
    X_unit = normalize_unit_cube(data.X)
    elmap = ElasticMapCurve(
        n_nodes=10, stretch=0.1, bend=1.0, orient_alpha=data.alpha
    ).fit(X_unit)
    elmap_scores = elmap.score_samples(X_unit)

    ev_rpc = model.explained_variance(data.X)
    ev_elmap = elmap.explained_variance(X_unit)

    rows = []
    for name, (paper_score, paper_order) in PAPER_TABLE2_RPC.items():
        idx = data.labels.index(name)
        rows.append(
            [
                name,
                f"{ranking.scores[idx]:.4f}",
                ranking.positions[idx],
                f"{paper_score:.4f}",
                paper_order,
                f"{elmap_scores[idx]:+.4f}",
            ]
        )
    rows.append(["-- explained variance --", f"{ev_rpc:.3f}",
                 f"(paper {PAPER_EXPLAINED_VARIANCE['rpc']:.2f})",
                 f"{ev_elmap:.3f}",
                 f"(paper {PAPER_EXPLAINED_VARIANCE['elmap']:.2f})", ""])
    emit(
        "table2_countries",
        format_table(
            ["country", "RPC score", "RPC order", "paper score",
             "paper order", "Elmap score"],
            rows,
            "Table 2: country life-quality ranking (measured vs paper; "
            f"{int(data.is_from_paper.sum())} of {len(data.labels)} rows "
            "are the paper's, the rest synthesized)",
        ),
    )

    # Shape claim 1: RPC explains more variance than the Elmap
    # comparator, both near the paper's 90/86 band.
    assert ev_rpc > ev_elmap
    assert ev_rpc > 0.85
    # Shape claim 2: the paper's tiers are preserved.
    pos = {name: ranking.position_of(name) for name in PAPER_TABLE2_RPC}
    top = ["Luxembourg", "Norway", "Kuwait", "Singapore", "United States"]
    middle = ["Moldova", "Vanuatu", "Suriname", "Morocco", "Iraq"]
    bottom = ["South Africa", "Sierra Leone", "Djibouti", "Zimbabwe",
              "Swaziland"]
    assert max(pos[c] for c in top) < min(pos[c] for c in middle)
    assert max(pos[c] for c in middle) < min(pos[c] for c in bottom)
    # Shape claim 3: measured scores correlate with the paper's scores
    # on the 15 shared rows.
    measured = np.array(
        [ranking.scores[data.labels.index(n)] for n in PAPER_TABLE2_RPC]
    )
    paper = np.array([v[0] for v in PAPER_TABLE2_RPC.values()])
    assert spearman_rho(measured, paper) > 0.9
    # Shape claim 4: interpretability — exactly 4 x d parameters.
    assert model.control_points_original_.shape == (4, 4)
    # Elmap's centred scores straddle zero with no worst/best anchor.
    assert elmap_scores.min() < 0.0 < elmap_scores.max()
