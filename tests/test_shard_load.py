"""Sharded-rank load harness: real daemons, a SIGKILL, identical bytes.

The in-process coordinator tests (``tests/test_sharding.py``) pin the
merge and reroute logic; this suite drills the same promises against
*separate daemon processes* spawned by :class:`LocalShardFleet` — the
topology ``repro shard --local-workers`` runs and the CI
``sharded-rank`` job reproduces at 120k rows.  The kill drill here is
the harsh one: SIGKILL (no drain, no FIN from a dying handler thread)
against the shard that round-robin routing gives the final block, so a
not-yet-posted block is guaranteed to reroute — and the
merged output must still be byte-identical to the single-box ranking.
"""

from __future__ import annotations

import filecmp
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data.loaders import save_csv
from repro.data.synthetic import sample_monotone_cloud
from repro.serving import save_model, stream_rank_csv
from repro.sharding import (
    LocalShardFleet,
    ShardCoordinator,
    fetch_shard_metrics,
    rollup_metrics,
)

ALPHA = np.array([1.0, 1.0, -1.0])
N_ROWS = 1200
ROWS_PER_BLOCK = 40  # 30 blocks: more than the in-flight window


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A saved model, a CSV to rank, and the single-box reference."""
    root = tmp_path_factory.mktemp("shard_load")
    cloud = sample_monotone_cloud(alpha=ALPHA, n=N_ROWS, seed=23, noise=0.05)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=1, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    labels = [f"item{i:05d}" for i in range(N_ROWS)]
    csv_path = root / "rows.csv"
    save_csv(csv_path, labels, cloud.X, ["a", "b", "c"], label_column="id")
    model_path = save_model(model, root / "model.json",
                            feature_names=["a", "b", "c"])
    reference = root / "single.csv"
    stream_rank_csv(model, csv_path, reference, label_column="id")
    return model_path, csv_path, reference


class TestLocalFleetRank:
    def test_three_daemons_rank_byte_identically(self, workload, tmp_path):
        model_path, csv_path, reference = workload
        output = tmp_path / "sharded.csv"
        with LocalShardFleet(model_path, n_shards=3) as fleet:
            coordinator = ShardCoordinator(
                fleet.urls, fleet.model_name, rows_per_block=ROWS_PER_BLOCK
            )
            n_rows, _ = coordinator.rank_csv(
                csv_path, output, label_column="id"
            )
            stats = coordinator.stats()
            # Roll the fleet's /metrics up while the daemons are live:
            # the coordinator view must account for every block the
            # shards served, with exact (summed-bucket) histograms.
            payloads = [fetch_shard_metrics(url) for url in fleet.urls]
        assert n_rows == N_ROWS
        assert filecmp.cmp(reference, output, shallow=False)
        assert stats["n_blocks"] == N_ROWS // ROWS_PER_BLOCK
        assert stats["dead_shards"] == []
        assert sum(stats["blocks_by_shard"].values()) == stats["n_blocks"]
        merged = rollup_metrics(payloads, urls=fleet.urls)
        endpoint = merged["endpoints"]["POST /v1/models/{name}/rank-shard"]
        assert endpoint["requests"] == stats["n_blocks"]
        assert endpoint["by_status"] == {"200": stats["n_blocks"]}
        cells = merged["latency_histograms"]["endpoints"][
            "POST /v1/models/{name}/rank-shard"
        ]
        assert sum(cells["buckets"]) == stats["n_blocks"]
        assert merged["shards"]["count"] == 3
        assert merged["shards"]["with_histograms"] == 3

    def test_sigkilled_shard_reroutes_exactly_once(self, workload, tmp_path):
        model_path, csv_path, reference = workload
        output = tmp_path / "killed.csv"
        with LocalShardFleet(model_path, n_shards=3) as fleet:
            # The shard owning the last block is SIGKILLed as soon as
            # the first block lands, so at least one block that has not
            # yet been posted must reroute to a survivor.
            victim = fleet.urls[
                (N_ROWS // ROWS_PER_BLOCK - 1) % len(fleet.urls)
            ]
            killed = []

            def _sigkill_victim(block_index, shard_url, n_rows):
                if not killed:
                    killed.append(fleet.kill(fleet.urls.index(victim)))

            coordinator = ShardCoordinator(
                fleet.urls,
                fleet.model_name,
                rows_per_block=ROWS_PER_BLOCK,
                on_block=_sigkill_victim,
            )
            n_rows, _ = coordinator.rank_csv(
                csv_path, output, label_column="id"
            )
            stats = coordinator.stats()
            assert fleet.alive() == [
                url for url in fleet.urls if url != victim
            ]
        assert killed == [victim]
        assert n_rows == N_ROWS
        # Exactly once, whatever the daemon was doing when SIGKILL
        # landed: every input row appears exactly once, bytes equal.
        assert filecmp.cmp(reference, output, shallow=False)
        assert stats["dead_shards"] == [victim]
        assert stats["retried_blocks"] >= 1
