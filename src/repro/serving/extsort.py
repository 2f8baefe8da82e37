"""External merge sort: a complete ranking under a fixed memory budget.

:func:`~repro.serving.stream.stream_rank_topk` bounds memory only when
the caller wants the best ``k`` rows; when *all* rows must come back
ordered, the in-memory :func:`~repro.core.scoring.build_ranking_list`
was the only fully ordered path — and it materialises every score.
This module closes that gap with the classic two-phase external sort:

1. **Spill phase** — scored rows accumulate in a bounded buffer; when
   the buffer reaches ``memory_budget_rows`` entries it is sorted with
   the canonical ranking key (:func:`~repro.core.scoring.rank_entry_key`:
   score descending, earlier input row wins exact ties) and written out
   as one *run* — a temp file of length-prefixed binary records, already
   in ranking order.
2. **Merge phase** — the sorted runs stream back through a k-way
   :func:`heapq.merge`.  When the number of runs exceeds
   ``max_open_runs`` (the merge fan-in budget), groups of runs are
   first merged into longer runs — as many passes as needed — so no
   more than ``max_open_runs`` run files are ever open *for reading*
   at once (peak handles is ``max_open_runs + 1``: the readers plus
   the single writer of the merged run or of the final output CSV).

Because every run is sorted by the same key that
:func:`build_ranking_list` uses, the merged stream *is* the ranking
list: the CSV written by
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
        for position, label, score in sorter.ranked():
            writer.writerow([position, label, repr(score)])

Record format (little-endian, one record per row)::

    f8 neg_score | i8 row_index | u4 label_bytes_len | label utf-8

``neg_score`` is stored pre-negated so records compare in ranking
order as plain tuples — no key function in the merge hot loop — and
``row_index`` (the global input row number) is unique, so the label
bytes never participate in a comparison.
"""

from __future__ import annotations

import heapq
import itertools
import operator
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

#: One merge entry: ``(neg_score, row_index, label)``.
_Entry = Tuple[float, int, str]


#: Records packed per ``bytes`` object when writing a run: a few large
#: writes instead of two small ones per record.
_RECORDS_PER_WRITE = 4096

#: Bytes read per call when streaming a run file back: a merge holds
#: one such block per open run.
_READ_BYTES = 1 << 16

_encode_label = operator.methodcaller("encode", "utf-8")


def _pack_records(
    neg_scores: Sequence[float],
    row_indices: Sequence[int],
    labels: Sequence[str],
) -> bytes:
    """Pack aligned columns of entries as consecutive run records."""
    data = list(map(_encode_label, labels))
    parts: List[bytes] = [b""] * (2 * len(data))
    parts[0::2] = map(
        _RECORD_HEAD.pack, neg_scores, row_indices, map(len, data)
    )
    parts[1::2] = data
    return b"".join(parts)


def _write_run(path: pathlib.Path, entries: Iterable[_Entry]) -> None:
    """Write ranking-ordered entries as one run file."""
    entries = iter(entries)
    with path.open("wb") as handle:
        while True:
            block = list(itertools.islice(entries, _RECORDS_PER_WRITE))
            if not block:
                return
            handle.write(_pack_records(*zip(*block)))


def _ranked_columns(
    labels: Sequence[str], scores: np.ndarray, base_row: int
) -> Tuple[List[float], List[int], List[str]]:
    """``(neg_scores, row_indices, labels)`` of a block in ranking order.

    The block's rows are consecutive global rows from ``base_row``, so
    the stable best-first permutation breaks ties toward the earlier
    input row — the same convention as rank_entry_key.
    """
    order = rank_order(scores)
    return (
        (-scores[order]).tolist(),
        (order + base_row).tolist(),
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


def _iter_records(data: bytes) -> Iterator[_Entry]:
    """Yield the complete records of ``data`` in order.

    Returns (as the generator's value) the offset of the first record
    that ``data`` holds only part of — ``len(data)`` when none.
    """
    head_size = _RECORD_HEAD.size
    unpack_from = _RECORD_HEAD.unpack_from
    offset = 0
    total = len(data)
    while total - offset >= head_size:
        neg_score, row_index, label_len = unpack_from(data, offset)
        start = offset + head_size
        end = start + label_len
        if end > total:
            break
        yield neg_score, row_index, data[start:end].decode("utf-8")
        offset = end
    return offset


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


def iter_run_bytes(data: bytes, source: str = "run bytes") -> Iterator[_Entry]:
    """Stream in-memory run-file bytes back as entries, validating shape.

    Raises :class:`DataValidationError` on a truncated head or label,
    mirroring :func:`_iter_run`'s corruption checks for on-disk runs.
    """
    offset = yield from _iter_records(data)
    if offset < len(data):
        _raise_truncated(data[offset:], source)


def _iter_run(path: pathlib.Path) -> Iterator[_Entry]:
    """Stream a run file back as entries, reading it a block at a time.

    A truncated file (a full disk, a truncating copy) raises
    :class:`DataValidationError` — data corruption, not a configuration
    mistake — after every complete record has been yielded.  The file
    handle closes when the generator is exhausted *or*
    garbage-collected (generator finalisation runs the ``with`` exit),
    so an abandoned merge does not leak descriptors.
    """
    pending = b""
    with path.open("rb", buffering=0) as handle:
        while True:
            block = handle.read(_READ_BYTES)
            if not block:
                break
            data = pending + block if pending else block
            offset = yield from _iter_records(data)
            pending = data[offset:]
    if pending:
        _raise_truncated(pending, f"run file {path.name}")


class ExternalSorter:
    """Spill-to-disk ranking sorter with a fixed row budget.

    Feed it ``(labels, scores)`` chunks in input order via :meth:`add`,
    then iterate :meth:`ranked` exactly once for the complete ranking,
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
        self._scores: List[float] = []
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
        self._labels, self._scores = [], []
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
        scores = np.asarray(scores, dtype=float).ravel()
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
            take = min(n_new - start, budget - len(self._scores))
            stop = start + take
            self._labels.extend(labels[start:stop])
            self._scores.extend(scores[start:stop].tolist())
            start = stop
            self.max_buffered_rows = max(
                self.max_buffered_rows, len(self._scores)
            )
            if len(self._scores) >= budget:
                self._spill()
        self.n_rows += n_new

    def _spill(self) -> None:
        """Sort the buffer with the canonical key and write one run."""
        if not self._scores:
            return
        self._run_paths.append(self._new_run(self._buffered_entries()))
        self.runs_spilled += 1
        self._base_row += len(self._scores)
        self._labels, self._scores = [], []

    def _buffered_entries(self) -> Iterator[_Entry]:
        """The buffer's entries in ranking order (shared tie-break)."""
        return zip(
            *_ranked_columns(
                self._labels,
                np.asarray(self._scores, dtype=float),
                self._base_row,
            )
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

    def _new_run(self, entries: Iterable[_Entry]) -> pathlib.Path:
        path = self._alloc_run_path()
        _write_run(path, entries)
        return path

    def adopt_run_bytes(
        self,
        data: bytes,
        expect_rows: Optional[int] = None,
        source: str = "shard run",
    ) -> int:
        """Register an already-sorted run (e.g. shipped from a shard).

        The bytes must be a complete run file in ranking order — they
        are validated record by record (structure *and* sortedness, and
        the row count against ``expect_rows`` when given) before being
        written into the spill directory, so a truncated or corrupted
        shard response is rejected instead of silently corrupting the
        merged ranking.  Returns the number of rows adopted.
        """
        self._require_open("adopt_run_bytes")
        if self._consumed:
            raise ConfigurationError(
                "ExternalSorter is single-use: adopt_run_bytes() after ranked()"
            )
        rows = 0
        prev: Optional[Tuple[float, int]] = None
        for neg_score, row_index, _label in iter_run_bytes(data, source):
            key = (neg_score, row_index)
            if prev is not None and key < prev:
                raise DataValidationError(
                    f"{source} is not in ranking order at row {row_index}"
                )
            prev = key
            rows += 1
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
    def ranked(self) -> Iterator[Tuple[int, str, float]]:
        """The complete ranking as ``(position, label, score)`` triples.

        Best first, positions ``1..n_rows``; single use.  Rows still in
        the buffer merge in memory without being spilled, so an input
        that never exceeded the budget performs no disk I/O at all.
        """
        self._require_open("ranked")
        if self._consumed:
            raise ConfigurationError(
                "ExternalSorter is single-use: ranked() already consumed"
            )
        self._consumed = True
        self._collapse_runs()
        streams: List[Iterator[_Entry]] = [
            _iter_run(path) for path in self._run_paths
        ]
        if self._scores:
            tail = list(self._buffered_entries())
            self._labels, self._scores = [], []
            streams.append(iter(tail))
        merged = heapq.merge(*streams) if len(streams) != 1 else streams[0]

        def _emit() -> Iterator[Tuple[int, str, float]]:
            try:
                for position, (neg_score, _, label) in enumerate(
                    merged, start=1
                ):
                    yield position, label, -float(neg_score)
            finally:
                # A consumer that stops early (an aborted merge, a
                # coordinator draining a dead shard) closes this
                # generator; close every run-file stream *now* rather
                # than waiting for garbage collection, so the spill
                # directory can always be removed with no open fds.
                for stream in streams:
                    close = getattr(stream, "close", None)
                    if close is not None:
                        close()

        return _emit()

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
                heapq.merge(*(_iter_run(path) for path in group))
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
