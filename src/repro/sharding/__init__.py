"""Multi-host sharded scoring and rank (the ``repro shard`` coordinator).

Single-box serving and streaming stopped, deliberately, at the machine
boundary: ``repro serve --workers N`` pre-forks one box's cores, and
the external sorter ranks unbounded inputs on one disk.  This package
crosses that boundary with the primitives those layers already shaped
for it:

- the :mod:`repro.serving.extsort` spill-run format is
  *merge-anywhere* — a run sorted on any host merges exactly with runs
  from any other host, because entries compare as
  ``(neg_score, global_row_index)`` tuples;
- the daemon's ``POST /v1/models/<name>/rank-shard`` endpoint takes
  one contiguous block of rows as a binary block frame
  (:func:`~repro.serving.extsort.pack_block_frame`), scores it and
  ships it back as one such run, so neither direction re-encodes a
  float as text;
- the ``/metrics`` latency histograms use fixed shared bucket bounds,
  so shard metrics sum into an exact coordinator-level roll-up.

Pieces
------
:class:`~repro.sharding.coordinator.ShardCoordinator`
    Streams a CSV in blocks, deals them round-robin over the live
    shards (block ``i`` to ``live[i % len(live)]``), adopts the
    returned runs into an :class:`~repro.serving.extsort.ExternalSorter`
    and k-way merges them into a ranking byte-identical to one box.
    A shard death mid-job reroutes that shard's blocks to survivors —
    every block lands exactly once.
:class:`~repro.sharding.local.LocalShardFleet`
    Spawns throwaway local ``repro serve`` daemons on ephemeral ports —
    the testing/CI topology, and what ``repro shard --local-workers N``
    runs on.
:func:`~repro.sharding.rollup.rollup_metrics`
    The coordinator-level ``/metrics``: fetches every shard's JSON
    metrics and merges counters and latency histograms exactly.

See ``docs/ops.md`` ("Sharded scoring and rank") for topology and
failure semantics.
"""

from repro.sharding.coordinator import ShardCoordinator, ShardJobError
from repro.sharding.local import LocalShardFleet
from repro.sharding.rollup import fetch_shard_metrics, rollup_metrics

__all__ = [
    "LocalShardFleet",
    "ShardCoordinator",
    "ShardJobError",
    "fetch_shard_metrics",
    "rollup_metrics",
]
