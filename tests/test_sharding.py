"""Sharded scoring and rank: the coordinator merges exactly one box.

These tests pin the whole distributed-rank contract against live
in-process daemons: blocks are dealt round-robin in URL order and a
dead shard's blocks go only to survivors, a shard's ``rank-shard``
response is a validated extsort run with global row indices, the
coordinator's k-way merge writes output *byte-identical* to the
single-box streaming path (rank and score modes both), a shard killed
mid-job reroutes its unadopted blocks to survivors with exactly-once
output, and the coordinator-level ``/metrics`` roll-up sums shard
histograms exactly instead of averaging percentiles.
"""

from __future__ import annotations

import filecmp
import json
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.data.loaders import save_csv
from repro.data.synthetic import sample_monotone_cloud
from repro.families import build_model
from repro.obs.histogram import N_LATENCY_BUCKETS, percentile_from_buckets
from repro.server import ModelRegistry, ScoringHTTPServer
from repro.serving import (
    save_model,
    score_batch,
    stream_rank_csv,
    stream_score_csv,
)
from repro.serving.extsort import (
    ExternalSorter,
    decode_run_bytes,
    pack_run_bytes,
)
from repro.sharding import (
    ShardCoordinator,
    ShardJobError,
    fetch_shard_metrics,
    rollup_metrics,
)

ALPHA = np.array([1.0, 1.0, -1.0])
N_ROWS = 300


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A fitted model, its saved file, and a labelled CSV to rank."""
    root = tmp_path_factory.mktemp("sharding")
    cloud = sample_monotone_cloud(alpha=ALPHA, n=N_ROWS, seed=11, noise=0.03)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=0, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    labels = [f"item{i:04d}" for i in range(N_ROWS)]
    csv_path = root / "rows.csv"
    save_csv(csv_path, labels, cloud.X, ["a", "b", "c"], label_column="id")
    model_path = root / "model.json"
    save_model(model, model_path, feature_names=["a", "b", "c"])
    return model, model_path, csv_path, cloud.X, labels


def _start_server(model_path, name="demo", **kwargs):
    registry = ModelRegistry()
    registry.register(name, model_path)
    server = ScoringHTTPServer(("127.0.0.1", 0), registry, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, f"http://{host}:{port}"


@pytest.fixture()
def fleet(workload):
    """Three live in-process daemons all serving the same model."""
    _, model_path, *_ = workload
    members = [_start_server(model_path) for _ in range(3)]
    yield [url for _, _, url in members], [server for server, _, _ in members]
    for server, thread, _ in members:
        try:
            server.shutdown()
            server.server_close()
        except OSError:  # a test already tore this member down
            pass
        thread.join(timeout=5)


def _post_raw(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers, response.read()


def _post_error(url: str, payload: dict):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post_raw(url, payload)
    return excinfo.value.code, json.loads(excinfo.value.read())


class TestRoundRobinRouting:
    """Block ``i`` goes to ``live[i % len(live)]``: the ``--shard`` URLs
    in the order given, minus the dead ones."""

    @staticmethod
    def _route(urls, csv_path, rows_per_block):
        """Run a rank job; return its block -> shard map and stats."""
        placed = {}

        def _record(block_index, shard_url, n_rows):
            placed[block_index] = shard_url

        coordinator = ShardCoordinator(
            urls, "demo", rows_per_block=rows_per_block, on_block=_record
        )
        coordinator.rank_csv(csv_path, None, label_column="id")
        return placed, coordinator.stats()

    def test_block_map_is_fixed_by_url_order(self, workload, fleet):
        _, _, csv_path, *_ = workload
        urls, _ = fleet
        for order in (urls, urls[::-1], urls[1:] + urls[:1]):
            placed, stats = self._route(order, csv_path, rows_per_block=20)
            assert stats["n_blocks"] == 15
            assert placed == {i: order[i % 3] for i in range(15)}
            assert stats["live_shards"] == sorted(urls)

    def test_per_shard_counts_differ_by_at_most_one(self, workload, fleet):
        _, _, csv_path, *_ = workload
        urls, _ = fleet
        for rows_per_block in (300, 150, 64, 37, 10):
            _, stats = self._route(urls, csv_path, rows_per_block)
            counts = [stats["blocks_by_shard"].get(url, 0) for url in urls]
            assert sum(counts) == stats["n_blocks"]
            assert max(counts) - min(counts) <= 1

    def test_after_a_death_only_survivors_get_blocks(self, workload, fleet):
        _, _, csv_path, *_ = workload
        urls, servers = fleet
        victim = urls[1]
        servers[1].shutdown()
        servers[1].server_close()
        placed, stats = self._route(urls, csv_path, rows_per_block=20)
        assert sorted(placed) == list(range(15))
        assert set(placed.values()) == {urls[0], urls[2]}
        assert stats["dead_shards"] == [victim]
        assert stats["live_shards"] == sorted([urls[0], urls[2]])
        assert victim not in stats["blocks_by_shard"]

    def test_a_death_deals_later_blocks_over_the_survivors(self):
        # Routing alone, no I/O: after the death every block index maps
        # to the survivors, still in the order the URLs were given.
        urls = ["http://c:1", "http://a:1", "http://b:1"]
        coordinator = ShardCoordinator(urls, "demo")
        assert [coordinator._shard_for(i) for i in range(6)] == urls * 2
        coordinator._mark_dead("http://a:1")
        survivors = ["http://c:1", "http://b:1"]
        assert [coordinator._shard_for(i) for i in range(6)] == survivors * 3
        coordinator._mark_dead("http://c:1")
        assert {coordinator._shard_for(i) for i in range(6)} == {"http://b:1"}
        with pytest.raises(ShardJobError, match="every shard is dead"):
            coordinator._mark_dead("http://b:1")


def _run_entries(data):
    """A run's ``(neg_score, row_index, label)`` entries, in order."""
    neg_scores, row_indices, labels = decode_run_bytes(data)
    return list(zip(neg_scores.tolist(), row_indices.tolist(), labels))


class TestRunBytes:
    def test_round_trip_is_sorted_with_global_indices(self):
        scores = np.array([0.3, 0.9, 0.1, 0.9])
        labels = ["w", "x", "y", "z"]
        entries = _run_entries(pack_run_bytes(labels, scores, 100))
        # Ranking order: score desc, earlier row wins the exact tie.
        assert entries == [
            (-0.9, 101, "x"),
            (-0.9, 103, "z"),
            (-0.3, 100, "w"),
            (-0.1, 102, "y"),
        ]

    def test_pack_rejects_mismatched_lengths(self):
        with pytest.raises(DataValidationError, match="2 labels for 3"):
            pack_run_bytes(["a", "b"], np.array([1.0, 2.0, 3.0]))

    def test_iter_rejects_truncation(self):
        run = pack_run_bytes(["alpha", "beta"], np.array([2.0, 1.0]))
        with pytest.raises(DataValidationError, match="trailing bytes"):
            decode_run_bytes(run[:-8])
        with pytest.raises(DataValidationError, match="label cut short"):
            decode_run_bytes(run[:-1])

    def test_adopted_runs_merge_like_one_box(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=90)
        labels = [f"r{i}" for i in range(90)]
        with ExternalSorter(tmp_dir=tmp_path) as sorter:
            bounds = (0, 40, 64, 90)  # ragged blocks, global base rows
            for start, stop in zip(bounds, bounds[1:]):
                sorter.adopt_run_bytes(
                    pack_run_bytes(
                        labels[start:stop], scores[start:stop], start
                    ),
                    expect_rows=stop - start,
                )
            merged = list(sorter.ranked())
        with ExternalSorter(tmp_dir=tmp_path) as reference:
            reference.add(labels, scores)
            assert merged == list(reference.ranked())

    def test_adopt_rejects_unsorted_runs(self, tmp_path):
        # Two individually valid runs concatenated out of ranking
        # order: the second record's key sorts before the first.
        bad = pack_run_bytes(["a"], np.array([1.0])) + pack_run_bytes(
            ["b"], np.array([5.0]), base_row=1
        )
        with ExternalSorter(tmp_dir=tmp_path) as sorter:
            with pytest.raises(
                DataValidationError, match="not in ranking order"
            ):
                sorter.adopt_run_bytes(bad)

    def test_adopt_rejects_wrong_row_count(self, tmp_path):
        run = pack_run_bytes(["a", "b"], np.array([2.0, 1.0]))
        with ExternalSorter(tmp_dir=tmp_path) as sorter:
            with pytest.raises(
                DataValidationError, match="carries 2 rows, expected 3"
            ):
                sorter.adopt_run_bytes(run, expect_rows=3)
            assert sorter.n_rows == 0  # a rejected run is not adopted

    def test_adopt_empty_run_is_a_no_op(self, tmp_path):
        with ExternalSorter(tmp_dir=tmp_path) as sorter:
            assert sorter.adopt_run_bytes(b"") == 0
            assert sorter.n_rows == 0
            assert list(sorter.ranked()) == []


class TestRankShardEndpoint:
    @pytest.fixture(scope="class")
    def served(self, workload, tmp_path_factory):
        model, model_path, *_ = workload
        server, thread, base = _start_server(model_path)
        yield base, model
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_returns_a_sorted_run_with_global_indices(self, served):
        base, model = served
        rows = [[0.2, 0.1, 0.9], [0.9, 0.8, 0.1], [0.5, 0.5, 0.5]]
        status, headers, body = _post_raw(
            f"{base}/v1/models/demo/rank-shard",
            {"rows": rows, "labels": ["p", "q", "r"], "row_offset": 64},
        )
        assert status == 200
        assert headers["Content-Type"] == "application/octet-stream"
        entries = _run_entries(body)
        assert sorted(entries) == entries  # already in ranking order
        assert {row for _, row, _ in entries} == {64, 65, 66}
        by_row = {row - 64: -neg for neg, row, _ in entries}
        expected = score_batch(model, np.asarray(rows))
        assert [by_row[i] for i in range(3)] == expected.tolist()

    def test_default_labels_are_global_row_numbers(self, served):
        base, _ = served
        _, _, body = _post_raw(
            f"{base}/v1/models/demo/rank-shard",
            {"rows": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], "row_offset": 7},
        )
        assert {label for _, _, label in _run_entries(body)} == {"7", "8"}

    def test_single_row_is_rejected(self, served):
        base, _ = served
        code, body = _post_error(
            f"{base}/v1/models/demo/rank-shard",
            {"row": [0.1, 0.2, 0.3]},
        )
        assert code == 400
        assert "requires 'rows'" in body["error"]

    @pytest.mark.parametrize("offset", [-1, 1.5, "7", True, None])
    def test_bad_row_offset_is_400(self, served, offset):
        base, _ = served
        code, body = _post_error(
            f"{base}/v1/models/demo/rank-shard",
            {"rows": [[0.1, 0.2, 0.3]], "row_offset": offset},
        )
        assert code == 400
        assert "row_offset" in body["error"]

    def test_labels_stay_rejected_on_the_score_endpoint(self, served):
        base, _ = served
        code, body = _post_error(
            f"{base}/v1/models/demo/score",
            {"rows": [[0.1, 0.2, 0.3]], "labels": ["a"]},
        )
        assert code == 400
        assert "rank endpoints" in body["error"]

    def test_batch_relative_family_is_refused(self, tmp_path):
        cloud = sample_monotone_cloud(alpha=ALPHA, n=50, seed=4, noise=0.05)
        borda = build_model("borda", alpha=ALPHA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            borda.fit(cloud.X)
        path = save_model(borda, tmp_path / "borda.json")
        server, thread, base = _start_server(path, name="borda")
        try:
            code, body = _post_error(
                f"{base}/v1/models/borda/rank-shard",
                {"rows": cloud.X[:4].tolist(), "row_offset": 0},
            )
            assert code == 422
            assert "cannot be sharded" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestCoordinator:
    def test_rank_is_byte_identical_to_one_box(self, workload, fleet, tmp_path):
        model, _, csv_path, *_ = workload
        urls, _ = fleet
        single = tmp_path / "single.csv"
        stream_rank_csv(model, csv_path, single, label_column="id")
        coordinator = ShardCoordinator(urls, "demo", rows_per_block=64)
        sharded = tmp_path / "sharded.csv"
        n_rows, head = coordinator.rank_csv(
            csv_path, sharded, label_column="id", head=3
        )
        assert n_rows == N_ROWS
        assert filecmp.cmp(single, sharded, shallow=False)
        with single.open() as handle:
            next(handle)  # header
            for (label, score), line in zip(head, handle):
                _, file_label, file_score = line.rstrip("\n").split(",")
                assert label == file_label
                assert repr(score) == file_score
        stats = coordinator.stats()
        assert stats["n_blocks"] == 5  # 300 rows / 64
        assert sum(stats["blocks_by_shard"].values()) == 5
        assert stats["dead_shards"] == [] and stats["retried_blocks"] == 0

    def test_score_mode_matches_stream_score_csv(
        self, workload, fleet, tmp_path
    ):
        model, _, csv_path, *_ = workload
        urls, _ = fleet
        single = tmp_path / "single.csv"
        stream_score_csv(model, csv_path, single, label_column="id")
        sharded = tmp_path / "sharded.csv"
        coordinator = ShardCoordinator(urls, "demo", rows_per_block=48)
        assert coordinator.score_csv(
            csv_path, sharded, label_column="id"
        ) == N_ROWS
        assert filecmp.cmp(single, sharded, shallow=False)

    def test_dead_shard_reroutes_with_exactly_once_output(
        self, workload, fleet, tmp_path
    ):
        model, _, csv_path, *_ = workload
        urls, servers = fleet
        single = tmp_path / "single.csv"
        stream_rank_csv(model, csv_path, single, label_column="id")
        # 30 blocks of 10 rows: more than the coordinator's in-flight
        # window, so blocks are still being submitted when the victim
        # dies.  Killing the shard that owns the *last* block (by the
        # same round-robin rule) guarantees at least one not-yet-posted
        # block must reroute to a survivor.
        victim = urls[(30 - 1) % len(urls)]
        killed = []

        def _kill_victim(block_index, shard_url, n_rows):
            if not killed:
                killed.append(victim)
                server = servers[urls.index(victim)]
                server.shutdown()
                server.server_close()

        coordinator = ShardCoordinator(
            urls, "demo", rows_per_block=10, on_block=_kill_victim
        )
        sharded = tmp_path / "sharded.csv"
        n_rows, _ = coordinator.rank_csv(csv_path, sharded, label_column="id")
        assert n_rows == N_ROWS
        # Exactly once: every row present, none doubled, bytes equal.
        assert filecmp.cmp(single, sharded, shallow=False)
        stats = coordinator.stats()
        assert victim in stats["dead_shards"]
        assert stats["retried_blocks"] >= 1
        assert victim not in stats["live_shards"]

    def test_every_shard_dead_raises(self, workload, tmp_path):
        _, model_path, csv_path, *_ = workload
        server, thread, url = _start_server(model_path)
        coordinator = ShardCoordinator([url], "demo", rows_per_block=50)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        with pytest.raises(ShardJobError):
            coordinator.rank_csv(csv_path, tmp_path / "out.csv",
                                 label_column="id")

    def test_definite_refusal_is_not_retried(self, workload, tmp_path):
        # An unknown model name is a 404 from a healthy shard — a
        # definite refusal that must fail the job, not reroute forever.
        _, model_path, csv_path, *_ = workload
        server, thread, url = _start_server(model_path)
        try:
            coordinator = ShardCoordinator([url], "nope")
            with pytest.raises(ShardJobError, match="refused model"):
                coordinator.rank_csv(csv_path, tmp_path / "out.csv",
                                     label_column="id")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            ShardCoordinator([], "demo")
        with pytest.raises(ConfigurationError, match="duplicate"):
            ShardCoordinator(["http://a:1", "http://a:1/"], "demo")
        with pytest.raises(ConfigurationError):
            ShardCoordinator(["http://a:1"], "  ")
        with pytest.raises(ConfigurationError):
            ShardCoordinator(["http://a:1"], "demo", rows_per_block=0)
        for bad in (0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="timeout"):
                ShardCoordinator(["http://a:1"], "demo", timeout=bad)
        with pytest.raises(ConfigurationError):
            ShardCoordinator(["http://a:1"], "demo").rank_csv(
                "x.csv", head=-1
            )


class TestCliShard:
    def test_topology_flags_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        for argv in (
            ["shard", "x.csv", "--shard", "http://h:1",
             "--local-workers", "2", "--model-path", "m.json"],
            ["shard", "x.csv"],  # neither topology given
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "either --shard URLs or --local-workers" in err

    def test_score_mode_requires_output(self, capsys):
        from repro.cli import main

        code = main(
            ["shard", "x.csv", "--shard", "http://h:1", "--mode", "score"]
        )
        assert code == 2
        assert "--mode score requires --output" in capsys.readouterr().err

    def test_epilog_points_at_the_ops_guide(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["shard", "--help"])
        out = capsys.readouterr().out
        assert "docs/ops.md" in out
        assert "Sharded scoring and rank" in out

    def test_cli_end_to_end_over_in_process_shards(
        self, workload, fleet, tmp_path, capsys
    ):
        from repro.cli import main

        model, _, csv_path, *_ = workload
        single = tmp_path / "single.csv"
        stream_rank_csv(model, csv_path, single, label_column="id")
        output = tmp_path / "sharded.csv"
        metrics_json = tmp_path / "rollup.json"
        urls, _ = fleet
        argv = ["shard", str(csv_path), "--model-name", "demo",
                "--mode", "rank", "--rows-per-block", "50",
                "--label-column", "id", "--output", str(output),
                "--metrics-json", str(metrics_json)]
        for url in urls:
            argv += ["--shard", url]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"ranked {N_ROWS} objects across 3 shard(s)" in out
        assert "blocks: 6 (rerouted 0); dead shards: none" in out
        assert filecmp.cmp(single, output, shallow=False)
        rollup = json.loads(metrics_json.read_text())
        assert rollup["shards"]["count"] == 3
        assert (
            rollup["endpoints"]["POST /v1/models/{name}/rank-shard"][
                "requests"
            ]
            == 6
        )


class TestMetricsRollup:
    def _payload(self, requests, buckets, sum_seconds):
        return {
            "requests_total": requests,
            "rows_scored_total": requests * 10,
            "errors_total": 1,
            "requests_shed_total": 0,
            "endpoints": {
                "POST /v1/models/{name}/rank-shard": {
                    "requests": requests,
                    "by_status": {"200": requests - 1, "503": 1},
                }
            },
            "latency_histograms": {
                "format_version": 1,
                "endpoints": {
                    "POST /v1/models/{name}/rank-shard": {
                        "buckets": buckets,
                        "sum_seconds": sum_seconds,
                    }
                },
            },
        }

    def test_buckets_sum_and_percentiles_recompute_exactly(self):
        one = [0] * N_LATENCY_BUCKETS
        two = [0] * N_LATENCY_BUCKETS
        one[4], one[10] = 30, 2
        two[4], two[20] = 10, 8
        merged = rollup_metrics(
            [self._payload(32, one, 1.5), self._payload(18, two, 2.25)],
            urls=["http://a:1", "http://b:2"],
        )
        assert merged["requests_total"] == 50
        assert merged["rows_scored_total"] == 500
        assert merged["errors_total"] == 2
        endpoint = merged["endpoints"]["POST /v1/models/{name}/rank-shard"]
        assert endpoint["requests"] == 50
        assert endpoint["by_status"] == {"200": 48, "503": 2}
        cells = merged["latency_histograms"]["endpoints"][
            "POST /v1/models/{name}/rank-shard"
        ]
        expected = [a + b for a, b in zip(one, two)]
        assert cells["buckets"] == expected
        assert cells["sum_seconds"] == pytest.approx(3.75)
        # The merged percentile is the percentile of the merged
        # histogram — not any average of per-shard percentiles.
        for q in (50, 90, 99):
            assert endpoint["latency_ms"][f"p{q}"] == pytest.approx(
                round(percentile_from_buckets(expected, q) * 1e3, 3)
            )
        assert merged["shards"] == {
            "count": 2,
            "with_histograms": 2,
            "requests": [32, 18],
            "urls": ["http://a:1", "http://b:2"],
        }

    def test_missing_histograms_still_contribute_counters(self):
        bare = {"requests_total": 7}
        buckets = [0] * N_LATENCY_BUCKETS
        buckets[3] = 4
        merged = rollup_metrics([bare, self._payload(4, buckets, 0.5)])
        assert merged["requests_total"] == 11
        assert merged["shards"]["with_histograms"] == 1

    def test_foreign_bucket_layouts_are_skipped_not_summed(self):
        good = [0] * N_LATENCY_BUCKETS
        good[5] = 3
        foreign = self._payload(2, [1, 2, 3], 9.0)  # wrong bucket count
        merged = rollup_metrics([self._payload(3, good, 0.25), foreign])
        cells = merged["latency_histograms"]["endpoints"][
            "POST /v1/models/{name}/rank-shard"
        ]
        assert cells["buckets"] == good
        assert cells["sum_seconds"] == pytest.approx(0.25)

    def test_rollup_over_a_live_fleet_is_exact(self, workload, fleet, tmp_path):
        _, _, csv_path, *_ = workload
        urls, _ = fleet
        coordinator = ShardCoordinator(urls, "demo", rows_per_block=30)
        coordinator.rank_csv(csv_path, tmp_path / "out.csv",
                             label_column="id")
        payloads = [fetch_shard_metrics(url) for url in urls]
        merged = rollup_metrics(payloads, urls=urls)
        assert merged["requests_total"] == sum(
            payload["requests_total"] for payload in payloads
        )
        endpoint = merged["endpoints"]["POST /v1/models/{name}/rank-shard"]
        assert endpoint["requests"] == 10  # 300 rows / 30, no retries
        cells = merged["latency_histograms"]["endpoints"][
            "POST /v1/models/{name}/rank-shard"
        ]
        assert sum(cells["buckets"]) == 10
        assert "latency_ms" in endpoint
