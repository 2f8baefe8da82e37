"""Incremental CSV scoring: read, score and write without materialising.

:func:`repro.data.loaders.load_csv` reads a whole file into one
``(n, d)`` matrix before anything is scored — fine for the paper's
hundreds of rows, wrong for a serving pipeline fed multi-gigabyte
exports.  This module is the streaming counterpart: rows flow through a
fixed-size buffer of :data:`~repro.serving.batch.DEFAULT_CHUNK_SIZE`
rows, so peak memory is ``O(DEFAULT_CHUNK_SIZE * d)`` no matter how
long the file is.

The pipeline has three small stages, each usable on its own:

1. :func:`iter_csv_chunks` — parse a headered CSV (``.gz``
   decompressed transparently) a whole chunk at a time into
   :class:`~repro.data.loaders.TabularData` chunks, through the same
   parser as :func:`load_csv` (so the same validation and the same
   ``file:line`` error messages); :func:`iter_csv_rows` is the
   row-by-row view of the same parser;
2. :func:`iter_stream_scores` — push each chunk through
   :func:`~repro.serving.batch.score_batch`, yielding
   ``(labels, scores)`` per chunk;
3. a terminus per output shape: :func:`stream_score_csv` writes
   each chunk's ``label,score`` rows in one call, in input order;
   :func:`stream_rank_topk` folds the chunks into a bounded top-``k``
   heap (``repro score --top-k N``); and
   :func:`stream_rank_csv` produces the *complete* ranking through the
   external merge sort of :mod:`repro.serving.extsort`
   (``repro score``), so even a full ordering never buffers more than
   ``memory_budget_rows`` rows.

A row's score depends only on that row, bit for bit (see
:mod:`repro.serving.batch`), so the streamed scores are bit-identical
to ``score_batch(model, load_csv(path).X)`` whatever the chunking —
asserted in ``tests/test_serving_stream.py``.  ``repro score`` rides
this pipeline, and its ranking file is byte-identical to the
in-memory library ranking (``score_batch`` -> ``build_ranking_list``
-> ``save_ranking_csv``).
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import itertools
import os
import pathlib
import tempfile
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.core.model_api import ScorableModel
from repro.core.scoring import rank_entry_key
from repro.data.loaders import TabularData, iter_csv_tables
from repro.linalg.backend import resolve_backend


@contextlib.contextmanager
def atomic_output(output_path: pathlib.Path) -> Iterator[IO[str]]:
    """Write a text file atomically: temp file, then rename on success.

    The handle yielded writes to a ``<name>.*.part`` temp file in the
    *same directory* as ``output_path`` (so the final :func:`os.replace`
    never crosses a filesystem).  Only a clean exit publishes the file;
    any exception unlinks the temp file instead, so a mid-stream
    failure can never leave a torn partial output behind — the same
    written-last discipline the model manifest uses.
    """
    output_path = pathlib.Path(output_path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(output_path.parent),
        prefix=output_path.name + ".",
        suffix=".part",
    )
    tmp_path = pathlib.Path(tmp_name)
    handle = open(fd, "w", newline="")
    try:
        yield handle
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            tmp_path.unlink()
        raise
    else:
        handle.close()
        os.replace(tmp_path, output_path)


def iter_csv_rows(
    path: str | pathlib.Path,
    label_column: Optional[str] = None,
    attribute_columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> Iterator[Tuple[str, np.ndarray]]:
    """Lazily yield ``(label, values)`` pairs from a headered CSV.

    A row-by-row view of :func:`~repro.data.loaders.iter_csv_tables`
    in one-row chunks, so every row before a bad line is yielded before
    the error.  Validation matches :func:`load_csv`: ragged rows and
    non-numeric cells raise :class:`DataValidationError` with the
    offending ``file:line`` position.  Blank lines are skipped.  Bulk
    readers should use :func:`iter_csv_chunks`, which parses a whole
    chunk per step.

    Parameters
    ----------
    path:
        File to read; a ``.gz`` suffix (e.g. ``data.csv.gz``) is
        decompressed transparently while still streaming.
    label_column:
        Header of the identifier column; defaults to the first column.
    attribute_columns:
        Headers to use as attributes, in order; defaults to every
        non-label column.
    delimiter:
        Field separator.
    """
    for table in iter_csv_tables(
        path,
        chunk_size=1,
        label_column=label_column,
        attribute_columns=attribute_columns,
        delimiter=delimiter,
    ):
        yield table.labels[0], table.X[0]


def iter_csv_chunks(
    path: str | pathlib.Path,
    chunk_size: Optional[int] = None,
    label_column: Optional[str] = None,
    attribute_columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> Iterator[TabularData]:
    """Parse a CSV into :class:`TabularData` chunks of ``chunk_size`` rows.

    Every chunk except possibly the last holds exactly ``chunk_size``
    rows (``None`` uses
    :data:`~repro.serving.batch.DEFAULT_CHUNK_SIZE`); each is parsed in
    one step by :func:`~repro.data.loaders.iter_csv_tables`.  A file
    with a header but no data rows raises :class:`DataValidationError`,
    the same contract as :func:`load_csv`.
    """
    from repro.serving import batch

    if chunk_size is None:
        chunk_size = batch.DEFAULT_CHUNK_SIZE
    elif int(chunk_size) < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    yield from iter_csv_tables(
        path,
        chunk_size=int(chunk_size),
        label_column=label_column,
        attribute_columns=attribute_columns,
        delimiter=delimiter,
    )


def iter_stream_scores(
    model: ScorableModel,
    path: str | pathlib.Path,
    label_column: Optional[str] = None,
    delimiter: str = ",",
) -> Iterator[Tuple[List[str], np.ndarray]]:
    """Yield ``(labels, scores)`` per buffered chunk of a CSV, in order.

    Attribute columns are selected and ordered by the model's stored
    ``feature_names_`` when present, so a CSV with extra or reordered
    columns scores correctly.  A width mismatch against the model's
    direction vector raises :class:`DataValidationError` on the first
    chunk, before any scores are produced.

    Batch-relative families (``model.pointwise_scores`` false, e.g.
    Borda) score a row by its position among *all* rows, so for them
    the whole file is parsed as one table and scored in one call — the
    rule :func:`~repro.serving.batch.score_batch` applies in memory.
    """
    # Looked up at call time, so a patched score_batch takes effect.
    from repro.serving.batch import score_batch

    path = pathlib.Path(path)
    columns = dict(
        label_column=label_column,
        attribute_columns=model.feature_names_,
        delimiter=delimiter,
    )
    if getattr(model, "pointwise_scores", True):
        chunks = iter_csv_chunks(path, **columns)
    else:
        chunks = iter_csv_tables(path, chunk_size=None, **columns)
    for chunk in chunks:
        expected = model.n_attributes
        if expected is not None and chunk.X.shape[1] != expected:
            raise DataValidationError(
                f"model expects {expected} attributes but "
                f"{path} provides {chunk.X.shape[1]}"
            )
        yield chunk.labels, score_batch(model, chunk.X)


def stream_score_csv(
    model: ScorableModel,
    csv_path: str | pathlib.Path,
    output_path: str | pathlib.Path,
    label_column: Optional[str] = None,
    delimiter: str = ",",
    backend=None,
) -> int:
    """Score ``csv_path`` end to end, writing ``label,score`` rows.

    The incremental terminus of the streaming pipeline: each scored
    chunk is flushed to ``output_path`` before the next chunk of input
    is read, so neither the input matrix nor the score vector is ever
    fully resident.  Rows are written in input order with
    shortest-round-trip float ``repr`` (the scores reload exactly).

    The output is written to a temp file beside ``output_path`` and
    atomically renamed into place on success, so a mid-stream failure
    (a bad row deep in the input, a scoring error) leaves no partial
    output file behind.

    ``backend`` is checked by
    :func:`~repro.linalg.backend.resolve_backend` and otherwise ignored.

    Returns the number of data rows scored.
    """
    resolve_backend(backend)
    output_path = pathlib.Path(output_path)
    n_scored = 0
    with atomic_output(output_path) as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["label", "score"])
        for labels, scores in iter_stream_scores(
            model,
            csv_path,
            label_column=label_column,
            delimiter=delimiter,
        ):
            writer.writerows(zip(labels, map(repr, scores.tolist())))
            n_scored += len(labels)
    return n_scored


def stream_rank_topk(
    model: ScorableModel,
    csv_path: str | pathlib.Path,
    k: int,
    label_column: Optional[str] = None,
    delimiter: str = ",",
) -> Tuple[List[Tuple[str, float]], int]:
    """Best-``k`` objects of a streamed CSV via a bounded min-heap.

    The streaming terminus for *ranking*: where
    :func:`stream_score_csv` emits every score,
    this keeps only the current ``k`` best ``(score, label)`` entries
    in a :mod:`heapq` min-heap while chunks flow through, so the full
    ranking list is never materialised — peak memory is
    ``O(DEFAULT_CHUNK_SIZE * d + k)`` however long the file is.

    Ordering matches :func:`~repro.core.scoring.build_ranking_list`
    exactly: higher scores rank first, and exact score ties break
    toward the earlier input row (the stable-sort convention of the
    in-memory path), so the result equals
    ``build_ranking_list(all_scores, labels).top(k)``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model_api.ScorableModel`.
    csv_path:
        Input CSV (``.gz`` accepted) of objects to rank.
    k:
        Number of top entries to keep, ``k >= 0``.  ``k = 0`` scores
        (and counts) every row but keeps none; ``k`` beyond the row
        count returns the complete ranking — both are exactly
        ``build_ranking_list(all_scores, labels).top(k)``.
    label_column, delimiter:
        As in :func:`iter_stream_scores`.

    Returns
    -------
    (top, n_rows):
        ``top`` is the best-first list of ``(label, score)`` pairs
        (at most ``k``); ``n_rows`` is the total number of rows scored.
    """
    k = int(k)
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    # Heap entries are ``(score, -row_index, label)`` — exactly the
    # negation of the canonical ``rank_entry_key`` — so the min-heap
    # root is the entry to evict: on equal scores the later row
    # (smaller ``-row_index``) goes first, reproducing the stable-sort
    # tie-break.  (Written out inline to keep the per-row hot loop
    # free of calls; the final ordering below goes through the shared
    # key, so the two can never drift apart silently.)
    heap: List[Tuple[float, int, str]] = []
    n_rows = 0
    for labels, scores in iter_stream_scores(
        model,
        csv_path,
        label_column=label_column,
        delimiter=delimiter,
    ):
        if k == 0:
            # Nothing to keep, but the stream is still drained so the
            # row count (and input validation) match the k > 0 path.
            n_rows += len(labels)
            continue
        for label, score in zip(labels, scores.tolist()):
            entry = (score, -n_rows, label)
            n_rows += 1
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
    best_first = sorted(
        heap, key=lambda entry: rank_entry_key(entry[0], -entry[1])
    )
    return [(label, score) for score, _, label in best_first], n_rows


def stream_rank_csv(
    model: ScorableModel,
    csv_path: str | pathlib.Path,
    output_path: Optional[str | pathlib.Path] = None,
    label_column: Optional[str] = None,
    delimiter: str = ",",
    backend=None,
    memory_budget_rows: Optional[int] = None,
    max_open_runs: Optional[int] = None,
    tmp_dir: Optional[str | pathlib.Path] = None,
    head: int = 0,
) -> Tuple[int, List[Tuple[str, float]]]:
    """The *complete* ranking of a streamed CSV in bounded memory.

    The full-ordering terminus of the streaming pipeline: every scored
    chunk feeds an :class:`~repro.serving.extsort.ExternalSorter`,
    which spills sorted runs to disk whenever more than
    ``memory_budget_rows`` rows are buffered and merges them back in
    ranking order.  The ``position,label,score`` rows written to
    ``output_path`` are byte-identical to saving
    ``build_ranking_list(all_scores, labels)`` with
    :func:`~repro.data.loaders.save_ranking_csv` — same scores, same
    stable tie-breaks (via the shared
    :func:`~repro.core.scoring.rank_entry_key`) — while peak memory
    stays ``O(DEFAULT_CHUNK_SIZE * d + memory_budget_rows)`` however
    long the file is.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model_api.ScorableModel`.
    csv_path:
        Input CSV (``.gz`` accepted) of objects to rank.
    output_path:
        Destination for the full ranking CSV, written incrementally
        during the merge to a temp file beside it and atomically
        renamed into place on success (a failed merge leaves no torn
        output); ``None`` skips the file (useful when only the
        returned ``head`` is wanted).
    label_column, delimiter:
        As in :func:`iter_stream_scores`.
    backend:
        Checked by :func:`~repro.linalg.backend.resolve_backend` and
        otherwise ignored.
    memory_budget_rows, max_open_runs, tmp_dir:
        External-sort knobs, see
        :class:`~repro.serving.extsort.ExternalSorter`.  Run files are
        removed however the call exits.
    head:
        Also collect the first ``head`` ranked entries for the caller
        (the CLI prints them); ``0`` collects none.

    Returns
    -------
    (n_rows, head_entries):
        Total rows ranked, and the best-first ``(label, score)`` pairs
        collected per ``head``.
    """
    from repro.serving.extsort import ExternalSorter

    resolve_backend(backend)
    head = int(head)
    if head < 0:
        raise ConfigurationError(f"head must be >= 0, got {head}")
    with ExternalSorter(
        memory_budget_rows=memory_budget_rows,
        max_open_runs=max_open_runs,
        tmp_dir=tmp_dir,
    ) as sorter:
        for labels, scores in iter_stream_scores(
            model,
            csv_path,
            label_column=label_column,
            delimiter=delimiter,
        ):
            sorter.add(labels, scores)
        n_rows = sorter.n_rows
        head_entries = write_ranking(
            sorter.ranked(), output_path, head=head, delimiter=delimiter
        )
    return n_rows, head_entries


def write_ranking(
    ranked: Iterator[Tuple[int, str, float]],
    output_path: Optional[str | pathlib.Path],
    head: int = 0,
    delimiter: str = ",",
) -> List[Tuple[str, float]]:
    """Write a merged ranking as a ``position,label,score`` CSV.

    ``ranked`` is an :meth:`ExternalSorter.ranked
    <repro.serving.extsort.ExternalSorter.ranked>` stream.  Rows go
    through :func:`~repro.data.loaders.ranking_csv_row` in one
    ``writerows`` call, into a temp file atomically renamed to
    ``output_path`` on success; ``None`` writes nothing.  Returns the
    first ``head`` entries as ``(label, score)`` pairs.
    """
    # Looked up at call time, so a patched ranking_csv_row (the
    # mid-write fault tests) takes effect.
    from repro.data.loaders import RANKING_CSV_HEADER, ranking_csv_row

    top = list(itertools.islice(ranked, head))
    if output_path is not None:
        with atomic_output(pathlib.Path(output_path)) as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(RANKING_CSV_HEADER)
            writer.writerows(
                itertools.starmap(
                    ranking_csv_row, itertools.chain(top, ranked)
                )
            )
    return [(label, score) for _, label, score in top]
