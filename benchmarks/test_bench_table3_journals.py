"""Table 3: comprehensive ranking of 393 JCR2012-style journals.

Paper's claims to reproduce:

* the top tier (TPAMI, ENTERP INF SYST, J STAT SOFTW, MIS Q, ACM
  COMPUT SURV) ranks far above the mid-tier rows (DSS, CSDA, TKDE,
  MACH LEARN, SMC-A);
* the comprehensive score disagrees with any single indicator — in
  particular the TKDE/SMC-A gap by raw IF collapses under RPC
  because TKDE's influence score compensates;
* measured scores correlate with the paper's printed scores on the
  shared rows.

The benchmark times the full journal fit (n=393, d=5).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import RankingPrincipalCurve, build_ranking_list
from repro.data import PAPER_TABLE3_RPC
from repro.evaluation import kendall_tau, spearman_rho

from conftest import emit, format_table


def test_table3_journal_ranking(benchmark, journal_data, journal_model):
    data = journal_data

    def fit_once():
        model = RankingPrincipalCurve(
            alpha=data.alpha, random_state=1, n_restarts=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(data.X)
        return model

    benchmark.pedantic(fit_once, rounds=3, iterations=1)

    model = journal_model
    ranking = model.rank(data.X, labels=data.labels)
    if_ranking = build_ranking_list(data.X[:, 0], labels=data.labels)

    rows = []
    for name, (paper_score, paper_order) in PAPER_TABLE3_RPC.items():
        idx = data.labels.index(name)
        rows.append(
            [
                name,
                f"{ranking.scores[idx]:.4f}",
                ranking.positions[idx],
                f"{paper_score:.4f}",
                paper_order,
                if_ranking.positions[idx],
            ]
        )
    emit(
        "table3_journals",
        format_table(
            ["journal", "RPC score", "RPC order", "paper score",
             "paper order", "raw-IF order"],
            rows,
            "Table 3: journal ranking (measured vs paper vs raw IF; "
            f"{int(data.is_from_paper.sum())} of {len(data.labels)} rows "
            "are the paper's, the rest synthesized)",
        ),
    )

    # Tier separation.
    pos = {name: ranking.position_of(name) for name in PAPER_TABLE3_RPC}
    top = ["IEEE T PATTERN ANAL", "ENTERP INF SYST UK", "J STAT SOFTW",
           "MIS QUART", "ACM COMPUT SURV"]
    mid = ["DECIS SUPPORT SYST", "COMPUT STAT DATA AN",
           "IEEE T KNOWL DATA EN", "MACH LEARN", "IEEE T SYST MAN CY A"]
    assert max(pos[j] for j in top) < min(pos[j] for j in mid)

    # Paper-vs-measured correlation on shared rows.
    measured = np.array(
        [ranking.scores[data.labels.index(n)] for n in PAPER_TABLE3_RPC]
    )
    paper = np.array([v[0] for v in PAPER_TABLE3_RPC.values()])
    assert spearman_rho(measured, paper) > 0.8

    # The comprehensive score is not any single indicator: tau with raw
    # IF is high (IF matters) but clearly below 1.
    tau_if = kendall_tau(ranking.scores, data.X[:, 0])
    assert 0.5 < tau_if < 0.98

    # The TKDE/SMC-A gap collapses relative to raw IF.
    if_gap = if_ranking.position_of(
        "IEEE T KNOWL DATA EN"
    ) - if_ranking.position_of("IEEE T SYST MAN CY A")
    rpc_gap = pos["IEEE T KNOWL DATA EN"] - pos["IEEE T SYST MAN CY A"]
    assert if_gap > 0
    assert abs(rpc_gap) < if_gap
