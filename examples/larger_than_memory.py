#!/usr/bin/env python
"""Scoring inputs larger than memory: the full streaming toolkit.

A fitted Ranking Principal Curve is a tiny object, but the inputs it
scores need not be.  This example walks the three streaming termini on
a gzipped CSV, with every knob that bounds memory spelled out:

1. ``stream_score_csv`` — scores in *input* order, one scoring chunk
   (``repro.serving.DEFAULT_CHUNK_SIZE``, 4096 rows) resident.  Use it
   when a downstream system does the ordering.
2. ``stream_rank_topk`` — the best ``k`` rows via a bounded heap,
   one chunk plus ``k`` rows resident.  Use it for leaderboards.
3. ``stream_rank_csv`` — the **complete** ranking via an external
   merge sort: scored chunks spill to sorted run files whenever more
   than ``memory_budget_rows`` rows are buffered, and a k-way merge
   writes the final list incrementally.  Byte-identical to the
   in-memory ``build_ranking_list`` path — same scores, same stable
   tie-breaks — which this script verifies at the end.

The two ranking flows are available from the shell (``repro score``
always ranks through ``stream_rank_csv``)::

    python -m repro score model.json huge.csv.gz --top-k 10
    python -m repro score model.json huge.csv.gz \
        --memory-budget-rows 100000 --output ranking.csv

Memory model of the full-ranking path: peak resident rows =
``DEFAULT_CHUNK_SIZE`` (scoring buffer) + ``memory_budget_rows``
(sorter buffer), plus ``max_open_runs`` open files during the merge;
spill files live in a temp directory that is removed on success,
error and Ctrl-C alike.

Run:  python examples/larger_than_memory.py
"""

from __future__ import annotations

import csv
import gzip
import pathlib
import random
import tempfile
import warnings

from repro import RankingPrincipalCurve, build_ranking_list
from repro.data import parse_alpha_spec, save_ranking_csv
from repro.serving import (
    iter_csv_chunks,
    save_model,
    score_batch,
    stream_rank_csv,
    stream_rank_topk,
    stream_score_csv,
)

N_ROWS = 5000  # stands in for "far more rows than RAM"
MEMORY_BUDGET_ROWS = 500  # forces ~10 sorted spill runs


def _write_big_gz(path: pathlib.Path, n_rows: int) -> None:
    """A gzipped CSV written row by row — never held in memory."""
    random.seed(20)
    with gzip.open(path, "wt", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item", "quality", "price", "defects"])
        for i in range(n_rows):
            s = round(random.random(), 2)  # coarse => plenty of ties
            writer.writerow(
                [
                    f"item{i:05d}",
                    round(s + random.gauss(0, 0.02), 6),
                    round(1.0 - s + random.gauss(0, 0.02), 6),
                    round(0.5 - 0.4 * s + random.gauss(0, 0.02), 6),
                ]
            )


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-bigcsv-"))
    big_csv = workdir / "big.csv.gz"
    _write_big_gz(big_csv, N_ROWS)
    print(f"wrote {big_csv} ({N_ROWS} rows, gzipped)")

    # Fit on a small labelled sample, persist, then stream-score the
    # big file with the saved model — the fit-once/serve-many split.
    # (In production only the sample would be materialised; the full
    # table is loaded here so the end of this script can verify the
    # streamed ranking against the in-memory path.)
    table = next(iter_csv_chunks(big_csv, chunk_size=N_ROWS))
    sample = table.X[:400]
    alpha = parse_alpha_spec(
        "+quality,-price,-defects", table.attribute_names
    )
    model = RankingPrincipalCurve(alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(sample)
    model_path = workdir / "model.json"
    save_model(model, model_path, feature_names=table.attribute_names)
    print(f"fitted on a {sample.shape[0]}-row sample, saved {model_path}")

    # 1. Scores in input order, one scoring chunk resident.
    scores_csv = workdir / "scores.csv"
    n = stream_score_csv(model, big_csv, scores_csv)
    print(f"\n[stream_score_csv] scored {n} rows -> {scores_csv}")

    # 2. Leaderboard: best 5 via a bounded heap.
    top, _ = stream_rank_topk(model, big_csv, k=5)
    print("[stream_rank_topk] top 5 of the stream:")
    for label, score in top:
        print(f"  {score:.4f}  {label}")

    # 3. Complete ranking under a fixed memory budget: the external
    #    merge sort spills sorted runs and merges them back.
    ranking_csv = workdir / "ranking.csv"
    n, head = stream_rank_csv(
        model,
        big_csv,
        ranking_csv,
        memory_budget_rows=MEMORY_BUDGET_ROWS,
        head=3,
    )
    print(
        f"[stream_rank_csv] full ranking of {n} rows -> {ranking_csv} "
        f"(never more than {MEMORY_BUDGET_ROWS} rows buffered)"
    )
    for position, (label, score) in enumerate(head, start=1):
        print(f"  #{position}  {score:.4f}  {label}")

    # Verify the promise: byte-identical to the in-memory path.
    reference_csv = workdir / "reference.csv"
    ranking = build_ranking_list(
        score_batch(model, table.X), labels=table.labels
    )
    save_ranking_csv(reference_csv, ranking)
    identical = ranking_csv.read_bytes() == reference_csv.read_bytes()
    print(f"\nbyte-identical to in-memory build_ranking_list: {identical}")
    assert identical


if __name__ == "__main__":
    main()
