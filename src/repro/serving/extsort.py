"""External merge sort: a complete ranking under a fixed memory budget.

:func:`~repro.serving.stream.stream_rank_topk` bounds memory only when
the caller wants the best ``k`` rows; when *all* rows must come back
ordered, the in-memory :func:`~repro.core.scoring.build_ranking_list`
was the only fully ordered path — and it materialises every score.
This module closes that gap with the classic two-phase external sort,
done a block of rows at a time rather than a row at a time:

1. **Spill phase** — scored chunks accumulate, as the score arrays
   themselves, in a bounded buffer; when it reaches
   ``memory_budget_rows`` rows it is ordered with one
   :func:`~repro.core.scoring.rank_order` (score descending, earlier
   input row wins exact ties — the canonical ranking key) and written
   out as one *run*: a temp file of length-prefixed binary records,
   already in ranking order.
2. **Merge phase** — each open run is decoded one 64 KiB read at a
   time into numpy columns (``neg_score``, ``row_index``) plus its
   labels.  Each merge step takes, from every run's decoded block, the
   rows whose key ``(neg_score, row_index)`` is at or below the
   smallest last key among the runs that still have unread data — no
   unread row can sort before those — orders them with one
   :func:`numpy.lexsort` and yields them as one block.  When the
   number of runs exceeds ``max_open_runs`` (the merge fan-in budget),
   groups of runs are first merged into longer runs by the same
   routine — as many passes as needed — so no more than
   ``max_open_runs`` run files are ever open *for reading* at once
   (peak handles is ``max_open_runs + 1``: the readers plus the single
   writer of the merged run or of the final output CSV).  Memory stays
   at one decoded block per open run.

``row_index`` (the global input row number) is unique, so
``(neg_score, row_index)`` is a total order and the merged stream *is*
the ranking list of :func:`build_ranking_list`: the CSV written by
:func:`~repro.serving.stream.stream_rank_csv` is byte-identical to the
in-memory path's output on the same rows, while peak buffered rows
never exceed ``memory_budget_rows`` (asserted in
``tests/test_serving_extsort.py``).

Run files live in a :class:`tempfile.TemporaryDirectory` owned by the
sorter's context manager, so they are removed on success, on any
exception, and on Ctrl-C alike::

    with ExternalSorter(memory_budget_rows=100_000) as sorter:
        for labels, scores in iter_stream_scores(model, csv_path):
            sorter.add(labels, scores)
        write_ranking(sorter.ranked().blocks, output_path)

Record format (little-endian, one record per row)::

    f8 neg_score | i8 row_index | u4 label_bytes_len | label utf-8

``neg_score`` is stored pre-negated, so a run's records are in
ascending ``(neg_score, row_index)`` order and the label bytes never
participate in a comparison.
"""

from __future__ import annotations

import operator
import os
import pathlib
import struct
import tempfile
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.core.scoring import rank_order

#: Default spill threshold: one million buffered rows is ~25 MB of
#: floats plus labels — small for a serving box, large enough that the
#: paper-scale workloads never spill at all.
DEFAULT_MEMORY_BUDGET_ROWS = 1_000_000

#: Default open-file budget for one merge pass.  64-way merges keep
#: multi-pass merging out of the picture until ~64 million rows at the
#: default budget, while staying far below any sane fd limit.
DEFAULT_MAX_OPEN_RUNS = 64

#: Fixed-width record head: ``neg_score`` f8, ``row_index`` i8,
#: ``label_len`` u4 (the utf-8 label bytes follow).
_RECORD_HEAD = struct.Struct("<dqI")

#: Rows as columns: ``(neg_scores f8, row_indices i8, labels)``.
_Columns = Tuple[np.ndarray, np.ndarray, List[str]]

#: Records packed per ``bytes`` object when writing a run: a few large
#: writes instead of two small ones per record.
_RECORDS_PER_WRITE = 4096

#: Bytes read per call when streaming a run file back: a merge holds
#: one such block, decoded, per open run.
_READ_BYTES = 1 << 16

_encode_label = operator.methodcaller("encode", "utf-8")


def _pack_records(
    neg_scores: np.ndarray,
    row_indices: np.ndarray,
    labels: Sequence[str],
) -> bytes:
    """Pack aligned columns of rows as consecutive run records."""
    data = list(map(_encode_label, labels))
    parts: List[bytes] = [b""] * (2 * len(data))
    parts[0::2] = map(
        _RECORD_HEAD.pack,
        neg_scores.tolist(),
        row_indices.tolist(),
        map(len, data),
    )
    parts[1::2] = data
    return b"".join(parts)


def _write_run(path: pathlib.Path, blocks: Iterable[_Columns]) -> None:
    """Write ranking-ordered column blocks as one run file."""
    with path.open("wb") as handle:
        for neg_scores, row_indices, labels in blocks:
            for start in range(0, len(labels), _RECORDS_PER_WRITE):
                stop = start + _RECORDS_PER_WRITE
                handle.write(
                    _pack_records(
                        neg_scores[start:stop],
                        row_indices[start:stop],
                        labels[start:stop],
                    )
                )


def _ranked_columns(
    labels: Sequence[str], scores: np.ndarray, base_row: int
) -> _Columns:
    """A block's columns in ranking order.

    The block's rows are consecutive global rows from ``base_row``, so
    the stable best-first permutation breaks ties toward the earlier
    input row — the same convention as rank_entry_key.
    """
    order = rank_order(scores)
    return (
        -scores[order],
        order + base_row,
        list(map(labels.__getitem__, order.tolist())),
    )


def pack_run_bytes(
    labels: Sequence[str], scores: np.ndarray, base_row: int = 0
) -> bytes:
    """Sort one scored block with the canonical key and pack it as a run.

    The returned bytes are a complete run file (same record format as
    the spill files): the block's rows in ranking order, with global
    row indices ``base_row + local_index`` so runs packed from disjoint
    consecutive blocks merge into exactly the ranking a single box
    would produce.  This is the wire format a shard ships back to the
    coordinator.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if len(labels) != scores.size:
        raise DataValidationError(
            f"{len(labels)} labels for {scores.size} scores"
        )
    return _pack_records(*_ranked_columns(labels, scores, int(base_row)))


def _decode_records(data: bytes) -> Tuple[_Columns, int]:
    """Decode the complete records of ``data`` into columns.

    Also returns the offset of the first record that ``data`` holds
    only part of — ``len(data)`` when none.
    """
    head_size = _RECORD_HEAD.size
    unpack_from = _RECORD_HEAD.unpack_from
    neg_scores: List[float] = []
    row_indices: List[int] = []
    labels: List[str] = []
    offset = 0
    total = len(data)
    while total - offset >= head_size:
        neg_score, row_index, label_len = unpack_from(data, offset)
        start = offset + head_size
        end = start + label_len
        if end > total:
            break
        neg_scores.append(neg_score)
        row_indices.append(row_index)
        labels.append(data[start:end].decode("utf-8"))
        offset = end
    columns = (
        np.array(neg_scores, dtype=float),
        np.array(row_indices, dtype=np.int64),
        labels,
    )
    return columns, offset


def _raise_truncated(tail: bytes, source: str) -> None:
    """Report a run that ends inside a record (``tail`` is that record)."""
    if len(tail) < _RECORD_HEAD.size:
        raise DataValidationError(
            f"truncated {source} ({len(tail)} trailing bytes)"
        )
    _, row_index, _ = _RECORD_HEAD.unpack_from(tail)
    raise DataValidationError(
        f"truncated {source} (label cut short at row {row_index})"
    )


def decode_run_bytes(data: bytes, source: str = "run bytes") -> _Columns:
    """Decode in-memory run-file bytes into ``(neg_scores, row_indices,
    labels)`` columns, in the run's order.

    Raises :class:`DataValidationError` on a truncated head or label,
    with the same text as a truncated on-disk run.
    """
    columns, offset = _decode_records(data)
    if offset < len(data):
        _raise_truncated(data[offset:], source)
    return columns


class _RunReader:
    """One sorted source of a merge: its decoded block, and the rest.

    A reader over ``path`` opens the file on its first :meth:`fill` and
    decodes it one :data:`_READ_BYTES` read at a time; a truncated file
    (a full disk, a truncating copy) raises
    :class:`DataValidationError` — data corruption, not a configuration
    mistake — once every complete record has been taken.  A reader
    built from ``columns`` has no file (the unspilled in-memory tail).
    """

    def __init__(
        self,
        path: Optional[pathlib.Path] = None,
        columns: Optional[_Columns] = None,
    ):
        self.path = path
        self.unread = path is not None  # the file has bytes left to read
        self._handle = None
        self._bytes_left = 0
        self._pending = b""
        if columns is None:
            columns = (np.empty(0), np.empty(0, dtype=np.int64), [])
        self.neg_scores, self.row_indices, self.labels = columns

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def fill(self) -> bool:
        """Decode the next block once the current one is used up.

        Returns whether any rows are buffered.
        """
        while not self.labels and self.unread:
            if self._handle is None:
                self._handle = self.path.open("rb", buffering=0)
                self._bytes_left = os.fstat(self._handle.fileno()).st_size
            block = self._handle.read(_READ_BYTES)
            self._bytes_left -= len(block)
            if not block or self._bytes_left <= 0:
                self.unread = False
                self.close()
            data = self._pending + block if self._pending else block
            columns, offset = _decode_records(data)
            self.neg_scores, self.row_indices, self.labels = columns
            self._pending = data[offset:]
        if not self.labels and self._pending:
            _raise_truncated(self._pending, f"run file {self.path.name}")
        return bool(self.labels)

    def take(self, cut: Optional[Tuple[float, int]]) -> _Columns:
        """Remove and return the buffered rows whose key is at or below
        ``cut`` — all of them when ``cut`` is ``None``."""
        count = len(self.labels)
        if cut is not None:
            neg_cut, row_cut = cut
            lo = np.searchsorted(self.neg_scores, neg_cut, side="left")
            hi = np.searchsorted(self.neg_scores, neg_cut, side="right")
            count = lo + np.searchsorted(
                self.row_indices[lo:hi], row_cut, side="right"
            )
        taken = (
            self.neg_scores[:count],
            self.row_indices[:count],
            self.labels[:count],
        )
        self.neg_scores = self.neg_scores[count:]
        self.row_indices = self.row_indices[count:]
        self.labels = self.labels[count:]
        return taken


def _merge_blocks(readers: List[_RunReader]) -> Iterator[_Columns]:
    """Merge sorted runs into blocks of columns in ranking order.

    Each step takes every buffered row at or below the smallest last
    key among the runs with unread data (all buffered rows once no run
    has any) and orders them with one lexsort; that run's block is then
    used up, so every step refills at least one reader.  Every reader
    is closed when the merge ends, fails or is closed — at once, not at
    garbage collection, so an abandoned merge (a coordinator dropping a
    job) leaves no open run file when the spill directory is removed.
    """
    try:
        live = [reader for reader in readers if reader.fill()]
        while live:
            cut = min(
                (
                    (reader.neg_scores[-1], reader.row_indices[-1])
                    for reader in live
                    if reader.unread
                ),
                default=None,
            )
            parts = [reader.take(cut) for reader in live]
            parts = [part for part in parts if part[2]]
            if len(parts) == 1:
                yield parts[0]
            else:
                neg_scores = np.concatenate([part[0] for part in parts])
                row_indices = np.concatenate([part[1] for part in parts])
                labels = [label for part in parts for label in part[2]]
                order = np.lexsort((row_indices, neg_scores))
                yield (
                    neg_scores[order],
                    row_indices[order],
                    list(map(labels.__getitem__, order.tolist())),
                )
            live = [reader for reader in live if reader.fill()]
    finally:
        for reader in readers:
            reader.close()


class MergedRanking:
    """The merged ranking, row by row or block by block.

    Iterating it yields ``(position, label, score)`` triples, best
    first, positions ``1..n_rows``.  :attr:`blocks` is the same merge
    a block at a time, as ``(labels, scores)`` lists — the path the
    ranking writers take (:func:`repro.serving.stream.write_ranking`).
    Consume one or the other.  :meth:`close` (or dropping a
    half-consumed view) closes every run file at once.
    """

    def __init__(self, merged: Iterator[_Columns]):
        self.blocks = self._iter_blocks(merged)
        self._rows = self._iter_rows()

    @staticmethod
    def _iter_blocks(
        merged: Iterator[_Columns],
    ) -> Iterator[Tuple[List[str], List[float]]]:
        try:
            for neg_scores, _, labels in merged:
                yield labels, (-neg_scores).tolist()
        finally:
            merged.close()

    def _iter_rows(self) -> Iterator[Tuple[int, str, float]]:
        position = 1
        for labels, scores in self.blocks:
            yield from zip(
                range(position, position + len(labels)), labels, scores
            )
            position += len(labels)

    def __iter__(self) -> "MergedRanking":
        return self

    def __next__(self) -> Tuple[int, str, float]:
        return next(self._rows)

    def close(self) -> None:
        self._rows.close()
        self.blocks.close()


class ExternalSorter:
    """Spill-to-disk ranking sorter with a fixed row budget.

    Feed it ``(labels, scores)`` chunks in input order via :meth:`add`,
    then consume :meth:`ranked` exactly once for the complete ranking,
    best first.  Use as a context manager — the spill directory (and
    every run file in it) is removed when the ``with`` block exits,
    however it exits.

    Parameters
    ----------
    memory_budget_rows:
        Maximum rows buffered in memory before a sorted run is spilled
        to disk; ``None`` uses :data:`DEFAULT_MEMORY_BUDGET_ROWS`.
        Inputs at most this long sort entirely in memory (no disk I/O).
    max_open_runs:
        Maximum run files open *for reading* during a merge
        (``>= 2``); more runs than this triggers intermediate merge
        passes.  One extra write handle is always open alongside the
        readers (the merged run, or the caller's output file), so
        budget ``max_open_runs + 1`` descriptors for the sort.
        ``None`` uses :data:`DEFAULT_MAX_OPEN_RUNS`.
    tmp_dir:
        Parent directory for the spill directory (``None`` = the
        system default).  Point this at the output filesystem when
        sorting inputs too large for ``/tmp``.

    Attributes
    ----------
    n_rows:
        Rows added so far.
    runs_spilled:
        Sorted run files written during the spill phase.
    merge_passes:
        Intermediate merge passes performed (0 when the run count
        stayed within ``max_open_runs``).
    max_buffered_rows:
        High-water mark of the in-memory buffer — the quantity the
        memory budget bounds (``<= memory_budget_rows`` always).
    """

    def __init__(
        self,
        memory_budget_rows: Optional[int] = None,
        max_open_runs: Optional[int] = None,
        tmp_dir: Optional[str | pathlib.Path] = None,
    ):
        if memory_budget_rows is None:
            memory_budget_rows = DEFAULT_MEMORY_BUDGET_ROWS
        memory_budget_rows = int(memory_budget_rows)
        if memory_budget_rows < 1:
            raise ConfigurationError(
                f"memory_budget_rows must be >= 1, got {memory_budget_rows}"
            )
        if max_open_runs is None:
            max_open_runs = DEFAULT_MAX_OPEN_RUNS
        max_open_runs = int(max_open_runs)
        if max_open_runs < 2:
            raise ConfigurationError(
                f"max_open_runs must be >= 2, got {max_open_runs}"
            )
        self.memory_budget_rows = memory_budget_rows
        self.max_open_runs = max_open_runs
        self._tmp_parent = tmp_dir
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._labels: List[str] = []
        self._score_chunks: List[np.ndarray] = []
        self._base_row = 0  # global index of the first buffered row
        self._run_paths: List[pathlib.Path] = []
        self._next_run_id = 0
        self._entered = False
        self._consumed = False
        self.n_rows = 0
        self.runs_spilled = 0
        self.merge_passes = 0
        self.max_buffered_rows = 0

    # ------------------------------------------------------------------
    # Context management: the spill directory lives and dies with it.
    # ------------------------------------------------------------------
    def __enter__(self) -> "ExternalSorter":
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._entered = False
        self._labels, self._score_chunks = [], []
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._run_paths = []

    # ------------------------------------------------------------------
    # Spill phase
    # ------------------------------------------------------------------
    def add(self, labels: Sequence[str], scores: np.ndarray) -> None:
        """Buffer one scored chunk, spilling sorted runs as needed.

        ``labels`` and ``scores`` are aligned and in input order;
        successive calls continue the global row numbering, so ties are
        broken across chunk *and* run boundaries exactly as the
        in-memory path breaks them.
        """
        self._require_open("add")
        if self._consumed:
            raise ConfigurationError(
                "ExternalSorter is single-use: add() after ranked()"
            )
        # A copy: the buffer must not alias an array the caller reuses.
        scores = np.array(scores, dtype=float).ravel()
        if len(labels) != scores.size:
            # Same class and message as build_ranking_list: this is
            # malformed data, not a sorter misconfiguration.
            raise DataValidationError(
                f"{len(labels)} labels for {scores.size} scores"
            )
        budget = self.memory_budget_rows
        start = 0
        n_new = scores.size
        while start < n_new:
            stop = start + min(n_new - start, budget - len(self._labels))
            self._labels.extend(labels[start:stop])
            self._score_chunks.append(scores[start:stop])
            start = stop
            self.max_buffered_rows = max(
                self.max_buffered_rows, len(self._labels)
            )
            if len(self._labels) >= budget:
                self._spill()
        self.n_rows += n_new

    def _spill(self) -> None:
        """Sort the buffer with the canonical key and write one run."""
        if not self._labels:
            return
        self._run_paths.append(self._new_run([self._buffered_columns()]))
        self.runs_spilled += 1
        self._base_row += len(self._labels)
        self._labels, self._score_chunks = [], []

    def _buffered_columns(self) -> _Columns:
        """The buffer's rows in ranking order (shared tie-break)."""
        return _ranked_columns(
            self._labels, np.concatenate(self._score_chunks), self._base_row
        )

    def _alloc_run_path(self) -> pathlib.Path:
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-extsort-",
                dir=None if self._tmp_parent is None else str(self._tmp_parent),
            )
        path = (
            pathlib.Path(self._tmpdir.name) / f"run-{self._next_run_id:06d}.bin"
        )
        self._next_run_id += 1
        return path

    def _new_run(self, blocks: Iterable[_Columns]) -> pathlib.Path:
        path = self._alloc_run_path()
        _write_run(path, blocks)
        return path

    def adopt_run_bytes(
        self,
        data: bytes,
        expect_rows: Optional[int] = None,
        source: str = "shard run",
    ) -> int:
        """Register an already-sorted run (e.g. shipped from a shard).

        The bytes must be a complete run file in ranking order — they
        are decoded and validated (structure *and* sortedness, and the
        row count against ``expect_rows`` when given) before being
        written into the spill directory, so a truncated or corrupted
        shard response is rejected instead of silently corrupting the
        merged ranking.  Returns the number of rows adopted.
        """
        self._require_open("adopt_run_bytes")
        if self._consumed:
            raise ConfigurationError(
                "ExternalSorter is single-use: adopt_run_bytes() after ranked()"
            )
        (neg_scores, row_indices, _), offset = _decode_records(data)
        # A key below its predecessor is out of order; equal keys are not.
        prev_neg, next_neg = neg_scores[:-1], neg_scores[1:]
        below = (next_neg < prev_neg) | (
            (next_neg == prev_neg) & (row_indices[1:] < row_indices[:-1])
        )
        if below.any():
            row_index = row_indices[int(np.argmax(below)) + 1]
            raise DataValidationError(
                f"{source} is not in ranking order at row {row_index}"
            )
        if offset < len(data):
            _raise_truncated(data[offset:], source)
        rows = row_indices.size
        if expect_rows is not None and rows != int(expect_rows):
            raise DataValidationError(
                f"{source} carries {rows} rows, expected {expect_rows}"
            )
        if rows:
            path = self._alloc_run_path()
            path.write_bytes(data)
            self._run_paths.append(path)
            self.runs_spilled += 1
            self.n_rows += rows
        return rows

    # ------------------------------------------------------------------
    # Merge phase
    # ------------------------------------------------------------------
    def ranked(self) -> MergedRanking:
        """The complete ranking, best first, as a :class:`MergedRanking`.

        Iterate it for ``(position, label, score)`` triples, or read
        its ``blocks``; single use.  Rows still in the buffer merge in
        memory without being spilled, so an input that never exceeded
        the budget performs no disk I/O at all.
        """
        self._require_open("ranked")
        if self._consumed:
            raise ConfigurationError(
                "ExternalSorter is single-use: ranked() already consumed"
            )
        self._consumed = True
        self._collapse_runs()
        readers = [_RunReader(path) for path in self._run_paths]
        if self._labels:
            readers.append(_RunReader(columns=self._buffered_columns()))
            self._labels, self._score_chunks = [], []
        return MergedRanking(_merge_blocks(readers))

    def _collapse_runs(self) -> None:
        """Merge groups of runs until at most ``max_open_runs`` remain.

        Each pass rewrites the ``max_open_runs`` oldest (shortest)
        runs as one longer run and deletes the sources, so disk usage
        stays ~1x the input and the final merge never opens more than
        the file budget.
        """
        while len(self._run_paths) > self.max_open_runs:
            group = self._run_paths[: self.max_open_runs]
            rest = self._run_paths[self.max_open_runs:]
            merged_path = self._new_run(
                _merge_blocks([_RunReader(path) for path in group])
            )
            for path in group:
                path.unlink()
            self._run_paths = rest + [merged_path]
            self.merge_passes += 1

    def _require_open(self, method: str) -> None:
        if not self._entered:
            raise ConfigurationError(
                f"ExternalSorter.{method}() outside its context manager; "
                "use 'with ExternalSorter(...) as sorter:' so spill files "
                "are cleaned up on every exit path"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExternalSorter(rows={self.n_rows}, "
            f"runs={len(self._run_paths)}, spilled={self.runs_spilled}, "
            f"budget={self.memory_budget_rows})"
        )
