"""The shard coordinator: one ranking job fanned over many daemons.

``repro shard`` drives this class.  The input CSV streams through the
coordinator in fixed-size *blocks* of consecutive rows, dealt
round-robin over the live shard daemons: block ``i`` goes to
``live[i % len(live)]``, where ``live`` is the shard URLs in the order
given minus the dead ones.  Every shard serves the same model and keeps
no state between blocks, so any shard can take any block.  A shard
scores its block through
``POST /v1/models/<name>/rank-shard`` and returns the block as one
sorted :mod:`repro.serving.extsort` run file carrying *global* row
indices.  The coordinator adopts every run (decoded and checked for
ranking order) into an :class:`~repro.serving.extsort.ExternalSorter`
and merges them a block at a time under the usual fd budget, so the
final ``position,label,score`` CSV is **byte-identical to a single
box**: scores come from the same ``score_batch`` path, ties break on
the same ``(score, input row)`` key, rows are formatted by the same
``ranking_csv_rows``, and the output file is published with the same
atomic temp-file rename.

Failure semantics (the exactly-once story)
------------------------------------------
The block is the unit of retry.  A block is *adopted* only when its
shard's complete, validated run response has arrived; a shard that
dies mid-job (connection refused/reset, timeout, 5xx, truncated
response) is dropped from the live list and every one of its unadopted
blocks is re-posted to the survivor the shorter list now assigns.  A
block the dead shard may have half-scored was never adopted, and the
rerun lands exactly once, so the merged ranking contains every input
row exactly once whatever the failure interleaving (drilled in CI by
SIGKILLing a shard mid-rank and ``cmp``-ing against the single-box
output).
"""

from __future__ import annotations

import csv
import http.client
import json
import math
import pathlib
import socket
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError, ReproError
from repro.serving.extsort import ExternalSorter, decode_run_bytes
from repro.serving.stream import (
    atomic_output,
    iter_csv_chunks,
    write_ranking,
)

#: Rows per block — the retry/exactly-once unit and the granularity of
#: the round-robin split.  A row's score does not depend on the rows
#: scored with it, so any block size reproduces a single box; 4
#: scoring chunks per block keeps per-request overhead amortised while
#: a 120k-row job still spreads 8 blocks over a small fleet.
DEFAULT_ROWS_PER_BLOCK = 16384

#: Per-request timeout (connect + response) for a shard HTTP call.
DEFAULT_SHARD_TIMEOUT = 60.0

#: How many 429 (admission shed) responses to absorb per block —
#: sleeping ``Retry-After``-ish between attempts — before the shard is
#: treated as unavailable and the block reroutes.
_MAX_SHED_RETRIES = 40
_SHED_SLEEP = 0.05


class ShardJobError(ReproError, RuntimeError):
    """A sharded job cannot proceed (all shards dead, or a shard gave a
    definite non-retryable refusal such as 404/422)."""


class _ShardDeath(Exception):
    """Internal: this shard is gone; reroute the block (never surfaces
    to callers — either a survivor finishes the block or the job raises
    :class:`ShardJobError` when no live shard is left)."""


@dataclass
class _Block:
    """One contiguous slice of input rows (the retry unit)."""

    index: int
    row_offset: int
    labels: List[str]
    rows: List[list]
    shard: str = field(default="", compare=False)  # who scored it


class ShardCoordinator:
    """Partition score/rank jobs over shard daemons, merge exactly.

    Parameters
    ----------
    shard_urls:
        Base URLs of the shard daemons (``http://host:port``).  Every
        shard must serve ``model_name``.
    model_name:
        The registered model to score with, on every shard.
    rows_per_block:
        Rows per block (default :data:`DEFAULT_ROWS_PER_BLOCK`).
    timeout:
        Seconds per shard HTTP request before the shard is presumed
        dead and the block reroutes.
    max_open_runs, tmp_dir:
        Merge fan-in budget and spill directory for the coordinator's
        :class:`ExternalSorter` (one adopted run per block; jobs with
        more blocks than the budget trigger the usual multi-pass
        merge).
    on_block:
        Optional hook ``(block_index, shard_url, n_rows) -> None``
        called (on the coordinator thread) as each block's run is
        adopted — the load harness's kill-a-shard drill hangs off it.

    Attributes
    ----------
    dead_shards:
        URLs dropped from the live list, in order of death.
    retried_blocks:
        Blocks that were re-posted after their shard died.
    blocks_by_shard:
        Blocks successfully scored per shard URL.
    """

    def __init__(
        self,
        shard_urls: Sequence[str],
        model_name: str,
        rows_per_block: int = DEFAULT_ROWS_PER_BLOCK,
        timeout: float = DEFAULT_SHARD_TIMEOUT,
        max_open_runs: Optional[int] = None,
        tmp_dir: Optional[str | pathlib.Path] = None,
        on_block: Optional[Callable[[int, str, int], None]] = None,
    ):
        urls = [str(url).rstrip("/") for url in shard_urls]
        if not urls:
            raise ConfigurationError("need at least one shard URL")
        if len(set(urls)) != len(urls):
            raise ConfigurationError(f"duplicate shard URLs in {urls}")
        if not str(model_name).strip():
            raise ConfigurationError("model_name must be non-empty")
        rows_per_block = int(rows_per_block)
        if rows_per_block < 1:
            raise ConfigurationError(
                f"rows_per_block must be >= 1, got {rows_per_block}"
            )
        # Finite too: ``urlopen`` hands it to ``settimeout``, which
        # raises ``OverflowError`` on ``inf``.
        if not 0 < float(timeout) < math.inf:
            raise ConfigurationError(
                f"timeout must be finite and > 0 seconds, got {timeout}"
            )
        self.shard_urls = tuple(urls)
        self.model_name = str(model_name).strip()
        self.rows_per_block = rows_per_block
        self.timeout = float(timeout)
        self.max_open_runs = max_open_runs
        self.tmp_dir = tmp_dir
        self.on_block = on_block
        self._live = list(urls)
        self._lock = threading.Lock()
        self.dead_shards: List[str] = []
        self.retried_blocks = 0
        self.blocks_by_shard: Counter = Counter()
        self.n_blocks = 0

    # ------------------------------------------------------------------
    # Shard HTTP plumbing
    # ------------------------------------------------------------------
    def feature_names(self) -> Optional[List[str]]:
        """The model's attribute columns, asked of any live shard.

        Lets the coordinator select and order CSV columns exactly as a
        single box scoring with the loaded model would (extra or
        reordered input columns still rank identically).
        """
        last_error: Optional[Exception] = None
        with self._lock:
            live = list(self._live)
        for url in live:
            try:
                with urllib.request.urlopen(
                    f"{url}/v1/models/{self.model_name}",
                    timeout=self.timeout,
                ) as response:
                    entry = json.loads(response.read())
                return entry.get("feature_names")
            except urllib.error.HTTPError as exc:
                detail = exc.read().decode("utf-8", "replace")
                raise ShardJobError(
                    f"shard {url} refused model {self.model_name!r}: "
                    f"HTTP {exc.code} {detail}"
                ) from None
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_error = exc
        raise ShardJobError(
            f"no shard answered /v1/models/{self.model_name} "
            f"(last error: {last_error})"
        )

    def _mark_dead(self, url: str) -> None:
        with self._lock:
            if url not in self._live:
                return  # another block's failure got here first
            if len(self._live) == 1:
                raise ShardJobError(
                    f"every shard is dead (last: {url}); "
                    f"dead so far: {self.dead_shards + [url]}"
                )
            self._live.remove(url)
            self.dead_shards.append(url)

    def _shard_for(self, block_index: int) -> str:
        with self._lock:
            return self._live[block_index % len(self._live)]

    def _post_block(self, block: _Block) -> bytes:
        """Score one block, rerouting past dead shards; returns the run.

        Runs on an executor thread.  Raises :class:`ShardJobError` when
        the job as a whole cannot proceed.
        """
        attempt_shard = self._shard_for(block.index)
        while True:
            try:
                data = self._post_once(attempt_shard, block)
            except _ShardDeath:
                self._mark_dead(attempt_shard)
                rerouted = self._shard_for(block.index)
                with self._lock:
                    self.retried_blocks += 1
                attempt_shard = rerouted
                continue
            block.shard = attempt_shard
            with self._lock:
                self.blocks_by_shard[attempt_shard] += 1
            return data

    def _post_once(self, url: str, block: _Block) -> bytes:
        body = json.dumps(
            {
                "rows": block.rows,
                "labels": block.labels,
                "row_offset": block.row_offset,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/v1/models/{self.model_name}/rank-shard",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        sheds = 0
        while True:
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 429 and sheds < _MAX_SHED_RETRIES:
                    # Admission shed: the shard is alive but saturated.
                    # Back off briefly and re-offer before concluding
                    # anything about its health.
                    sheds += 1
                    time.sleep(_SHED_SLEEP)
                    continue
                if exc.code >= 500 or exc.code == 429:
                    raise _ShardDeath from None
                detail = exc.read().decode("utf-8", "replace")
                raise ShardJobError(
                    f"shard {url} refused block {block.index} "
                    f"(rows {block.row_offset}..."
                    f"{block.row_offset + len(block.labels) - 1}): "
                    f"HTTP {exc.code} {detail}"
                ) from None
            except (
                OSError,
                urllib.error.URLError,
                socket.timeout,
                http.client.HTTPException,
            ):
                # Connection refused/reset, DNS, timeout, truncated
                # response — the shard is gone or unreachable.
                raise _ShardDeath from None

    # ------------------------------------------------------------------
    # Input blocking
    # ------------------------------------------------------------------
    def _iter_blocks(
        self,
        csv_path: str | pathlib.Path,
        label_column: Optional[str],
        delimiter: str,
        attribute_columns: Optional[Sequence[str]],
    ) -> Iterator[_Block]:
        row_offset = 0
        for index, chunk in enumerate(
            iter_csv_chunks(
                csv_path,
                chunk_size=self.rows_per_block,
                label_column=label_column,
                attribute_columns=attribute_columns,
                delimiter=delimiter,
            )
        ):
            yield _Block(
                index=index,
                row_offset=row_offset,
                labels=list(chunk.labels),
                rows=chunk.X.tolist(),
            )
            row_offset += len(chunk.labels)

    # ------------------------------------------------------------------
    # The jobs
    # ------------------------------------------------------------------
    def _run_blocks(
        self,
        csv_path: str | pathlib.Path,
        label_column: Optional[str],
        delimiter: str,
        handle: Callable[[_Block, bytes], None],
    ) -> None:
        """Fan blocks out, bounded in flight, calling ``handle`` for
        each completed ``(block, run_bytes)`` on the coordinator thread.
        """
        attribute_columns = self.feature_names()
        max_workers = max(2, 2 * len(self.shard_urls))
        max_pending = 2 * max_workers

        def _consume(done_futures) -> None:
            for future in done_futures:
                block, data = future.result()  # raises ShardJobError
                handle(block, data)
                if self.on_block is not None:
                    self.on_block(block.index, block.shard, len(block.labels))

        with ThreadPoolExecutor(max_workers=max_workers) as executor:
            pending = set()
            try:
                for block in self._iter_blocks(
                    csv_path, label_column, delimiter, attribute_columns
                ):
                    self.n_blocks += 1
                    while len(pending) >= max_pending:
                        done, pending = wait(
                            pending, return_when=FIRST_COMPLETED
                        )
                        _consume(done)
                    pending.add(
                        executor.submit(
                            lambda b: (b, self._post_block(b)), block
                        )
                    )
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    _consume(done)
            except BaseException:
                for future in pending:
                    future.cancel()
                raise

    def rank_csv(
        self,
        csv_path: str | pathlib.Path,
        output_path: Optional[str | pathlib.Path] = None,
        label_column: Optional[str] = None,
        delimiter: str = ",",
        head: int = 0,
    ) -> Tuple[int, List[Tuple[str, float]]]:
        """Rank a CSV across the fleet; byte-identical to one box.

        Same contract as
        :func:`repro.serving.stream.stream_rank_csv` — including the
        atomic output publish and the ``(n_rows, head_entries)``
        return — except the scoring ran on the shards.
        """
        head = int(head)
        if head < 0:
            raise ConfigurationError(f"head must be >= 0, got {head}")
        with ExternalSorter(
            max_open_runs=self.max_open_runs, tmp_dir=self.tmp_dir
        ) as sorter:

            def _adopt(block: _Block, data: bytes) -> None:
                sorter.adopt_run_bytes(
                    data,
                    expect_rows=len(block.labels),
                    source=(
                        f"run for block {block.index} "
                        f"from shard {block.shard}"
                    ),
                )

            self._run_blocks(csv_path, label_column, delimiter, _adopt)
            n_rows = sorter.n_rows
            head_entries = write_ranking(
                sorter.ranked().blocks,
                output_path,
                head=head,
                delimiter=delimiter,
            )
        return n_rows, head_entries

    def score_csv(
        self,
        csv_path: str | pathlib.Path,
        output_path: str | pathlib.Path,
        label_column: Optional[str] = None,
        delimiter: str = ",",
    ) -> int:
        """Score a CSV across the fleet, writing ``label,score`` rows
        in input order — byte-identical to
        :func:`repro.serving.stream.stream_score_csv` on one box.

        Blocks complete out of order; a completed block is held (as
        labels and score strings, not rows) until every earlier block
        has been written, so the output order is the input order.
        """
        output_path = pathlib.Path(output_path)
        finished: Dict[int, List[Tuple[str, str]]] = {}
        next_to_write = 0
        n_scored = 0
        with atomic_output(output_path) as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(["label", "score"])

            def _write_ready() -> None:
                nonlocal next_to_write, n_scored
                while next_to_write in finished:
                    rows = finished.pop(next_to_write)
                    writer.writerows(rows)
                    n_scored += len(rows)
                    next_to_write += 1

            def _stash(block: _Block, data: bytes) -> None:
                # The run is rank-ordered; flip it back to input order
                # by the global row index (contiguous within a block).
                neg_scores, row_indices, labels = decode_run_bytes(
                    data, f"run for block {block.index}"
                )
                if len(labels) != len(block.labels):
                    raise ShardJobError(
                        f"block {block.index} returned {len(labels)} "
                        f"rows, expected {len(block.labels)}"
                    )
                order = np.argsort(row_indices)
                finished[block.index] = list(
                    zip(
                        map(labels.__getitem__, order.tolist()),
                        map(repr, (-neg_scores[order]).tolist()),
                    )
                )
                _write_ready()

            self._run_blocks(csv_path, label_column, delimiter, _stash)
            _write_ready()
        return n_scored

    def stats(self) -> dict:
        """A JSON-serialisable job report (the CLI prints it)."""
        with self._lock:
            return {
                "shards": list(self.shard_urls),
                "live_shards": sorted(self._live),
                "dead_shards": list(self.dead_shards),
                "n_blocks": int(self.n_blocks),
                "retried_blocks": int(self.retried_blocks),
                "blocks_by_shard": {
                    url: int(count)
                    for url, count in sorted(self.blocks_by_shard.items())
                },
                "rows_per_block": self.rows_per_block,
            }
