"""Serving subsystem: fit once, persist, and score at scale.

The training path (:class:`repro.core.rpc.RankingPrincipalCurve`) is
iterative and data-bound; the serving path is the opposite — a fitted
model is a tiny object (``4d`` control-point coordinates plus ``2d``
normalisation bounds) that can score millions of new objects with
nothing but vectorised projection.  This package supplies the two
halves of that workflow:

* :mod:`repro.serving.persistence` — save/load fitted models of any
  registered family (:mod:`repro.families`) as JSON (human-readable,
  diff-able), NumPy ``.npz`` (binary, compact), or a versioned
  manifest directory (``manifest.json`` plus artifact shards).
  Round-trips are exact: a reloaded model scores bit-identically to
  the in-memory original.
* :mod:`repro.serving.batch` — ``score_batch(model, X, chunk_size=...)``
  scores arbitrarily large inputs in bounded memory by chunking the
  vectorised projection step (which materialises an ``(n, n_grid)``
  distance matrix), plus a generator variant for streaming pipelines.
* :mod:`repro.serving.stream` — incremental CSV scoring: lazily parse
  rows, buffer them into chunks, score each chunk and write results
  out, so ``repro score`` never materialises its input.
* :mod:`repro.serving.extsort` — spill-to-disk external merge sort,
  the full-ordering complement of the bounded top-``k`` heap: when
  *all* rows must come back ranked, sorted runs spill at a fixed
  ``memory_budget_rows`` and a k-way merge emits the complete ranking
  (``repro score``), byte-identical to the in-memory
  ``build_ranking_list`` path.

For a long-running daemon on top of these pieces (model registry,
hot reload, JSON-over-HTTP endpoints) see :mod:`repro.server`.

Quickstart
----------
>>> import numpy as np
>>> from repro import RankingPrincipalCurve
>>> from repro.serving import save_model, load_model, score_batch
>>> rng = np.random.default_rng(7)
>>> s = rng.uniform(size=200)
>>> X = np.column_stack([s, np.sqrt(s)]) + rng.normal(0, 0.01, (200, 2))
>>> model = RankingPrincipalCurve(alpha=[1, 1], random_state=0).fit(X)
>>> _ = save_model(model, "/tmp/rpc_model.json")
>>> served = load_model("/tmp/rpc_model.json")
>>> scores = score_batch(served, X, chunk_size=64)
>>> bool(np.array_equal(scores, model.score_samples(X)))
True

The CLI exposes the same workflow end-to-end::

    python -m repro save data.csv --alpha "+GDP,+LEB,-IMR,-TB" --model m.json
    python -m repro load m.json
    python -m repro score m.json fresh.csv --output ranking.csv
"""

from repro.serving.batch import (
    DEFAULT_CHUNK_SIZE,
    iter_score_chunks,
    score_batch,
)
from repro.serving.extsort import (
    DEFAULT_MAX_OPEN_RUNS,
    DEFAULT_MEMORY_BUDGET_ROWS,
    ExternalSorter,
)
from repro.serving.persistence import (
    MANIFEST_NAME,
    check_model_path,
    dumps_model,
    is_manifest_path,
    load_manifest,
    load_model,
    loads_model,
    model_mtime_ns,
    save_manifest,
    save_model,
)
from repro.serving.stream import (
    iter_csv_chunks,
    iter_csv_rows,
    iter_stream_scores,
    stream_rank_csv,
    stream_rank_topk,
    stream_score_csv,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_OPEN_RUNS",
    "DEFAULT_MEMORY_BUDGET_ROWS",
    "ExternalSorter",
    "MANIFEST_NAME",
    "check_model_path",
    "dumps_model",
    "is_manifest_path",
    "iter_csv_chunks",
    "iter_csv_rows",
    "iter_score_chunks",
    "iter_stream_scores",
    "load_manifest",
    "load_model",
    "loads_model",
    "model_mtime_ns",
    "save_manifest",
    "save_model",
    "score_batch",
    "stream_rank_csv",
    "stream_rank_topk",
    "stream_score_csv",
]
