"""CSV input/output for ranking tasks.

A downstream user's data arrives as a CSV with one header row, a label
column and numeric attribute columns.  This module reads such files
into the library's ``(labels, X, attribute_names)`` form, writes
ranking lists back out, and round-trips the bundled datasets — all on
the standard library's :mod:`csv`, no pandas required.

Every CSV reader in the package — :func:`load_csv` here and the
streaming readers of :mod:`repro.serving.stream` — goes through one
chunk-at-a-time parser, :func:`iter_csv_tables`, so they accept the
same files and reject bad ones with the same ``file:line`` messages.
"""

from __future__ import annotations

import csv
import gzip
import operator
import pathlib
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.core.scoring import RankingList


@dataclass
class TabularData:
    """A labelled numeric table loaded from CSV.

    Attributes
    ----------
    labels:
        Row identifiers from the label column.
    X:
        Numeric observations, shape ``(n, d)``.
    attribute_names:
        Column headers of the attribute columns, in order.
    """

    labels: list[str]
    X: np.ndarray
    attribute_names: list[str]


def resolve_csv_columns(
    header: Sequence[str],
    label_column: Optional[str] = None,
    attribute_columns: Optional[Sequence[str]] = None,
) -> tuple[list[str], int, list[int], list[str]]:
    """Map a raw CSV header to label/attribute column indices.

    Shared by the in-memory reader (:func:`load_csv`) and the
    streaming reader (:mod:`repro.serving.stream`) so both resolve —
    and reject — columns identically.

    Returns ``(header, label_idx, attr_idx, attribute_names)`` with
    ``header`` whitespace-stripped.
    """
    header = [h.strip() for h in header]
    if label_column is None:
        label_column = header[0]
    if label_column not in header:
        raise DataValidationError(
            f"label column {label_column!r} not in header {header}"
        )
    label_idx = header.index(label_column)

    if attribute_columns is None:
        attribute_columns = [h for h in header if h != label_column]
    missing = [c for c in attribute_columns if c not in header]
    if missing:
        raise DataValidationError(
            f"attribute columns {missing} not in header {header}"
        )
    if not attribute_columns:
        raise DataValidationError("no attribute columns to load")
    attr_idx = [header.index(c) for c in attribute_columns]
    return header, label_idx, attr_idx, list(attribute_columns)


def _open_text(path: pathlib.Path) -> IO[str]:
    """Open a CSV for reading, transparently gunzipping ``.gz``.

    Compressed exports stream through :mod:`gzip`'s incremental text
    reader, so a chunked read of a ``.csv.gz`` holds no more of the
    file than a chunked read of the plain CSV.
    """
    if path.suffix == ".gz":
        return gzip.open(path, mode="rt", newline="")
    return path.open(newline="")


def iter_csv_tables(
    path: str | pathlib.Path,
    chunk_size: Optional[int] = None,
    label_column: Optional[str] = None,
    attribute_columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> Iterator[TabularData]:
    """Parse a headered CSV into :class:`TabularData` chunks.

    The one CSV parser of the package.  It works a chunk at a time:
    each chunk's labels and attribute cells are gathered in flat lists,
    the cells are converted with a single ``map(float, ...)`` (Python
    :func:`float` semantics, so ``" 1.5 "``, ``"1_000"``, ``"nan"`` and
    ``"1e400"`` all parse as they always did), and the chunk becomes one
    ``(rows, d)`` array.  Peak memory is ``O(chunk_size * d)``.

    Blank and whitespace-only lines are skipped and do not count toward
    a chunk, so every chunk except possibly the last holds exactly
    ``chunk_size`` rows.  A ragged row or a non-numeric cell raises
    :class:`DataValidationError` naming its ``file:line`` (lines count
    every CSV record, blank ones included); the first bad line in file
    order wins, and every chunk before it has been yielded.  A file
    with a header but no data rows raises after the (empty) iteration.

    Parameters
    ----------
    path:
        File to read; a ``.gz`` suffix (e.g. ``data.csv.gz``) is
        decompressed transparently while streaming.
    chunk_size:
        Rows per chunk, ``>= 1``; ``None`` yields the whole file as one
        table.
    label_column:
        Header of the identifier column; defaults to the first column.
    attribute_columns:
        Headers to use as attributes, in order; defaults to every
        non-label column.
    delimiter:
        Field separator.
    """
    path = pathlib.Path(path)
    with _open_text(path) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path} is empty") from None
        header, label_idx, attr_idx, names = resolve_csv_columns(
            header, label_column, attribute_columns
        )
        n_fields = len(header)
        d = len(attr_idx)
        first = attr_idx[0]
        if attr_idx == list(range(first, first + d)):
            pick = operator.itemgetter(slice(first, first + d))
        else:
            pick = operator.itemgetter(*attr_idx)  # d >= 2: a tuple

        def table(labels, cells, lines) -> TabularData:
            try:
                values = list(map(float, cells))
            except ValueError:
                for index, cell in enumerate(cells):
                    try:
                        float(cell)
                    except ValueError as exc:
                        raise DataValidationError(
                            f"{path}:{lines[index // d]}: non-numeric "
                            f"attribute value ({exc})"
                        ) from None
                raise
            return TabularData(
                labels=labels,
                X=np.array(values, dtype=float).reshape(-1, d),
                attribute_names=list(names),
            )

        labels: list[str] = []
        cells: list[str] = []
        lines: list[int] = []
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if len(row) == n_fields:
                label = row[label_idx].strip()
                if label or any(cell.strip() for cell in row):
                    labels.append(label)
                    cells.extend(pick(row))
                    lines.append(line_no)
                    if len(labels) == chunk_size:
                        chunk = table(labels, cells, lines)
                        # Drop the cell strings before the consumer
                        # runs: only the parsed chunk stays alive.
                        labels, cells, lines = [], [], []
                        n_rows += chunk_size
                        yield chunk
            elif any(cell.strip() for cell in row):
                # A bad cell earlier in the chunk comes first in file
                # order, so convert the pending rows before reporting.
                table(labels, cells, lines)
                raise DataValidationError(
                    f"{path}:{line_no}: expected {n_fields} fields, got "
                    f"{len(row)}"
                )
        if labels:
            chunk = table(labels, cells, lines)
            labels, cells, lines = [], [], []
            n_rows += len(chunk.labels)
            yield chunk
    if n_rows == 0:
        raise DataValidationError(f"{path} has a header but no data rows")


def load_csv(
    path: str | pathlib.Path,
    label_column: Optional[str] = None,
    attribute_columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> TabularData:
    """Read a headered CSV into a :class:`TabularData`.

    The whole file becomes one table, parsed in a single chunk by
    :func:`iter_csv_tables` — the parser the streaming readers use, so
    validation and ``file:line`` error positions are identical.

    Parameters
    ----------
    path:
        File to read (``.gz`` decompressed transparently).
    label_column:
        Header of the identifier column; defaults to the first column.
    attribute_columns:
        Headers to use as attributes, in order; defaults to every
        non-label column.
    delimiter:
        Field separator.

    Raises
    ------
    DataValidationError:
        On missing headers, non-numeric cells, or ragged rows.
    """
    (table,) = iter_csv_tables(
        path,
        label_column=label_column,
        attribute_columns=attribute_columns,
        delimiter=delimiter,
    )
    return table


def save_csv(
    path: str | pathlib.Path,
    labels: Sequence[str],
    X: np.ndarray,
    attribute_names: Sequence[str],
    label_column: str = "label",
    delimiter: str = ",",
) -> None:
    """Write a labelled numeric table as a headered CSV."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataValidationError(f"X must be 2-D, got ndim={X.ndim}")
    if len(labels) != X.shape[0]:
        raise DataValidationError(
            f"{len(labels)} labels for {X.shape[0]} rows"
        )
    if len(attribute_names) != X.shape[1]:
        raise DataValidationError(
            f"{len(attribute_names)} attribute names for {X.shape[1]} columns"
        )
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([label_column, *attribute_names])
        for label, row in zip(labels, X):
            writer.writerow([label, *(repr(float(v)) for v in row)])


#: Header of every ranking CSV — shared by :func:`save_ranking_csv`
#: and the streaming rank so the two files can never drift apart.
RANKING_CSV_HEADER = ["position", "label", "score"]


def ranking_csv_rows(
    first_position: int,
    labels: Sequence[str],
    scores: Iterable[float],
) -> Iterator[tuple]:
    """Serialised ranking rows for consecutive positions from
    ``first_position`` (shortest-round-trip float ``repr`` scores).

    The single definition of the ranking-file row format: both
    :func:`save_ranking_csv` (in-memory path) and
    :func:`repro.serving.stream.write_ranking` (external-sort path,
    one block of the merge per call) write through it, which is what
    makes their byte-identity contract a property of the code rather
    than of two copies staying in sync.
    """
    return zip(
        range(first_position, first_position + len(labels)),
        labels,
        map(repr, map(float, scores)),
    )


def save_ranking_csv(
    path: str | pathlib.Path,
    ranking: RankingList,
    delimiter: str = ",",
) -> None:
    """Write a ranking list (best first) as ``position,label,score``."""
    if ranking.labels is None:
        raise ConfigurationError(
            "ranking list has no labels; build it with labels to save"
        )
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(RANKING_CSV_HEADER)
        writer.writerows(
            ranking_csv_rows(
                1,
                list(map(ranking.labels.__getitem__, ranking.order.tolist())),
                ranking.scores[ranking.order],
            )
        )


def parse_alpha_spec(
    spec: str,
    attribute_names: Sequence[str],
) -> np.ndarray:
    """Parse a direction spec like ``"+GDP,+LEB,-IMR,-TB"`` into alpha.

    Each comma-separated token is an attribute name prefixed with
    ``+`` (benefit) or ``-`` (cost); every attribute must appear
    exactly once.  Used by the command-line interface.
    """
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    alpha = np.zeros(len(attribute_names))
    seen = set()
    names = list(attribute_names)
    for token in tokens:
        if token[0] not in "+-" or len(token) < 2:
            raise ConfigurationError(
                f"alpha token {token!r} must look like '+NAME' or '-NAME'"
            )
        sign = 1.0 if token[0] == "+" else -1.0
        name = token[1:]
        if name not in names:
            raise ConfigurationError(
                f"unknown attribute {name!r}; available: {names}"
            )
        if name in seen:
            raise ConfigurationError(f"attribute {name!r} listed twice")
        seen.add(name)
        alpha[names.index(name)] = sign
    missing = [n for n in names if n not in seen]
    if missing:
        raise ConfigurationError(
            f"attributes missing a direction: {missing}"
        )
    return alpha
