"""Streaming CSV scoring: parity with the in-memory path, bit for bit.

A row's score depends only on that row, so the streaming pipeline's
scores are bit-identical to the in-memory path whatever the scoring
chunk (tests shrink it with the ``scoring_chunk`` fixture to reach
multi-chunk paths) — including through the CLI, where ``repro score`` must write the same bytes and
print the same lines as the library oracle ``score_batch`` ->
``build_ranking_list`` -> ``save_ranking_csv``.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.cli import main
from repro.core.exceptions import DataValidationError
from repro.core.scoring import build_ranking_list
from repro.data.loaders import load_csv, save_csv, save_ranking_csv
from repro.data.synthetic import sample_monotone_cloud
from repro.families import build_model
from repro.serving import (
    iter_csv_chunks,
    iter_csv_rows,
    iter_stream_scores,
    load_model,
    save_model,
    score_batch,
    stream_rank_csv,
    stream_rank_topk,
    stream_score_csv,
)

ALPHA = np.array([1.0, 1.0, -1.0])
N_ROWS = 157  # deliberately not a multiple of any chunk size used below


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A fitted model, its saved file, and a CSV of fresh rows."""
    root = tmp_path_factory.mktemp("stream")
    cloud = sample_monotone_cloud(alpha=ALPHA, n=N_ROWS, seed=9, noise=0.02)
    model = RankingPrincipalCurve(alpha=ALPHA, random_state=0, n_restarts=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(cloud.X)
    labels = [f"row{i:03d}" for i in range(N_ROWS)]
    csv_path = root / "fresh.csv"
    save_csv(csv_path, labels, cloud.X, ["a", "b", "c"], label_column="id")
    model_path = root / "model.json"
    save_model(model, model_path, feature_names=["a", "b", "c"])
    return model, model_path, csv_path, cloud.X, labels


@pytest.fixture(scope="module")
def roots_workload(workload, tmp_path_factory):
    """Saved model file of a ``projection="roots"`` fit to the
    ``workload`` rows."""
    X = workload[3]
    model = RankingPrincipalCurve(
        alpha=ALPHA, projection="roots", random_state=0, n_restarts=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(X)
    model_path = tmp_path_factory.mktemp("stream_roots") / "roots.json"
    save_model(model, model_path, feature_names=["a", "b", "c"])
    return model_path


def cli_oracle(model_path, csv_path, output, top, label_column):
    """What ``repro score`` must write and print, from the library.

    Writes ``save_ranking_csv`` of ``build_ranking_list`` over
    ``score_batch`` of the whole table to ``output``, and returns the
    stdout lines the in-memory CLI path printed before its final
    "written to" line.
    """
    model = load_model(model_path)
    table = load_csv(
        csv_path,
        label_column=label_column,
        attribute_columns=model.feature_names_,
    )
    ranking = build_ranking_list(
        score_batch(model, table.X), labels=table.labels
    )
    save_ranking_csv(output, ranking)
    lines = [
        f"scored {len(table.labels)} objects with saved model {model_path}",
        f"{'pos':>4}  {'score':>8}  label",
    ]
    for label, score in ranking.top(top):
        lines.append(
            f"{ranking.position_of(label):>4}  {score:>8.4f}  {label}"
        )
    return lines


class TestIterCsvRows:
    def test_matches_load_csv(self, workload):
        _, _, csv_path, X, labels = workload
        table = load_csv(csv_path, label_column="id")
        rows = list(iter_csv_rows(csv_path, label_column="id"))
        assert [label for label, _ in rows] == table.labels == labels
        np.testing.assert_array_equal(
            np.asarray([values for _, values in rows]), table.X
        )

    def test_column_selection_and_order(self, workload):
        _, _, csv_path, X, _ = workload
        rows = list(
            iter_csv_rows(
                csv_path, label_column="id", attribute_columns=["c", "a"]
            )
        )
        np.testing.assert_array_equal(
            np.asarray([v for _, v in rows]), X[:, [2, 0]]
        )

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,a,b\nx,1,2\ny,1\n")
        with pytest.raises(DataValidationError, match=r"ragged\.csv:3"):
            list(iter_csv_rows(path))

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,a,b\nx,1,2\ny,1,oops\n")
        with pytest.raises(DataValidationError, match=r"bad\.csv:3"):
            list(iter_csv_rows(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,a\nx,1\n\n  ,\ny,2\n")
        # The whitespace-only row (", ") is skipped like load_csv does.
        rows = list(iter_csv_rows(path))
        assert [label for label, _ in rows] == ["x", "y"]

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError, match="is empty"):
            list(iter_csv_rows(path))

    def test_unknown_label_column_raises(self, workload):
        _, _, csv_path, _, _ = workload
        with pytest.raises(DataValidationError, match="label column"):
            list(iter_csv_rows(csv_path, label_column="nope"))


class TestIterCsvChunks:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 157, 1000])
    def test_chunks_cover_input_in_order(self, workload, chunk_size):
        _, _, csv_path, X, labels = workload
        chunks = list(
            iter_csv_chunks(csv_path, chunk_size, label_column="id")
        )
        assert all(
            chunk.X.shape[0] == chunk_size for chunk in chunks[:-1]
        )
        assert sum(chunk.X.shape[0] for chunk in chunks) == N_ROWS
        np.testing.assert_array_equal(
            np.vstack([chunk.X for chunk in chunks]), X
        )
        assert [
            label for chunk in chunks for label in chunk.labels
        ] == labels
        assert chunks[0].attribute_names == ["a", "b", "c"]

    def test_no_data_rows_raises_like_load_csv(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("id,a,b\n")
        with pytest.raises(DataValidationError, match="no data rows"):
            list(iter_csv_chunks(path, 8))

    def test_bad_chunk_size(self, workload):
        from repro.core.exceptions import ConfigurationError

        _, _, csv_path, _, _ = workload
        with pytest.raises(ConfigurationError, match="chunk_size"):
            list(iter_csv_chunks(csv_path, 0))


class TestStreamScores:
    @pytest.mark.parametrize("chunk_size", [13, 64, None])
    def test_bit_identical_to_score_batch(
        self, workload, chunk_size, scoring_chunk
    ):
        model, _, csv_path, X, labels = workload
        reference = score_batch(model, X)  # one chunk at the default
        if chunk_size is not None:
            scoring_chunk(chunk_size)
        streamed_labels: list[str] = []
        streamed = []
        for chunk_labels, chunk_scores in iter_stream_scores(
            model, csv_path, label_column="id"
        ):
            streamed_labels.extend(chunk_labels)
            streamed.append(chunk_scores)
        assert streamed_labels == labels
        np.testing.assert_array_equal(np.concatenate(streamed), reference)

    def test_reordered_csv_columns_score_identically(
        self, workload, tmp_path, scoring_chunk
    ):
        # feature_names_ (stored in the model file) select and order
        # columns, so a CSV with shuffled columns streams to the same
        # scores.
        from repro.serving import load_model

        model, model_path, _, X, labels = workload
        served = load_model(model_path)
        assert served.feature_names_ == ["a", "b", "c"]
        shuffled = tmp_path / "shuffled.csv"
        save_csv(
            shuffled, labels, X[:, [2, 0, 1]], ["c", "a", "b"],
            label_column="id",
        )
        scoring_chunk(32)
        streamed = np.concatenate(
            [s for _, s in iter_stream_scores(served, shuffled)]
        )
        np.testing.assert_array_equal(streamed, score_batch(model, X))

    def test_width_mismatch_raises_before_scoring(self, workload, tmp_path):
        model, _, _, X, labels = workload
        model_no_names = RankingPrincipalCurve.from_dict(model.to_dict())
        model_no_names.feature_names_ = None
        narrow = tmp_path / "narrow.csv"
        save_csv(narrow, labels, X[:, :2], ["a", "b"], label_column="id")
        with pytest.raises(DataValidationError, match="model expects 3"):
            next(iter_stream_scores(model_no_names, narrow))


class TestStreamScoreCsv:
    def test_writes_scores_in_input_order(
        self, workload, tmp_path, scoring_chunk
    ):
        model, _, csv_path, X, labels = workload
        out = tmp_path / "scores.csv"
        scoring_chunk(50)
        n = stream_score_csv(model, csv_path, out, label_column="id")
        assert n == N_ROWS
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["label"] for row in rows] == labels
        written = np.asarray([float(row["score"]) for row in rows])
        # repr round-trip: the written text reloads to the exact float.
        np.testing.assert_array_equal(written, score_batch(model, X))
        assert list(tmp_path.iterdir()) == [out]  # no stray temp files


class TestAtomicOutput:
    """A mid-stream failure must never publish a torn output file."""

    @pytest.fixture()
    def poisoned(self, workload, tmp_path, scoring_chunk):
        """A CSV whose *third* 10-row chunk fails validation, after
        earlier chunks have already been scored and written."""
        scoring_chunk(10)
        _, _, csv_path, *_ = workload
        bad = tmp_path / "poisoned.csv"
        lines = csv_path.read_text().splitlines()
        lines[25] = lines[25].rsplit(",", 1)[0] + ",not-a-number"
        bad.write_text("\n".join(lines) + "\n")
        return bad

    def test_failed_score_leaves_no_output(self, workload, poisoned, tmp_path):
        model, *_ = workload
        out = tmp_path / "scores.csv"
        with pytest.raises(DataValidationError):
            stream_score_csv(model, poisoned, out, label_column="id")
        # Neither the output nor its .part temp file survives: the
        # pre-fix streaming path wrote the final file in place and a
        # failure left a torn prefix behind.
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["poisoned.csv"]

    def test_failed_rank_leaves_no_output(self, workload, poisoned, tmp_path):
        from repro.serving import stream_rank_csv

        model, *_ = workload
        out = tmp_path / "ranking.csv"
        with pytest.raises(DataValidationError):
            stream_rank_csv(model, poisoned, out, label_column="id")
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["poisoned.csv"]

    def test_failure_mid_rank_write_leaves_no_output(
        self, workload, tmp_path, monkeypatch
    ):
        # Fail *while the merged ranking is being written* — half the
        # rows are already in the temp file when the fault lands, the
        # moment the pre-fix code left a torn prefix at output_path.
        import repro.data.loaders as loaders
        from repro.serving import stream_rank_csv

        model, _, csv_path, *_ = workload
        real_row = loaders.ranking_csv_row

        def _faulting_row(position, label, score):
            if position > N_ROWS // 2:
                raise RuntimeError("injected mid-write fault")
            return real_row(position, label, score)

        monkeypatch.setattr(loaders, "ranking_csv_row", _faulting_row)
        out = tmp_path / "ranking.csv"
        with pytest.raises(RuntimeError, match="injected"):
            stream_rank_csv(model, csv_path, out, label_column="id")
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class TestCliStream:
    def test_stream_output_is_byte_identical(
        self, workload, roots_workload, tmp_path, capsys, scoring_chunk
    ):
        """``repro score`` writes and prints exactly the library oracle,
        for the default Newton model and a ``projection="roots"`` one."""
        _, newton_path, csv_path, _, _ = workload
        scoring_chunk(25)
        for model_path in (newton_path, roots_workload):
            output = tmp_path / f"ranking-{model_path.stem}.csv"
            assert main(
                [
                    "score", str(model_path), str(csv_path),
                    "--label-column", "id",
                    "--top", "3", "--output", str(output),
                ]
            ) == 0
            stdout = capsys.readouterr().out
            expected = tmp_path / f"oracle-{model_path.stem}.csv"
            lines = cli_oracle(model_path, csv_path, expected, 3, "id")
            assert output.read_bytes() == expected.read_bytes(), model_path
            assert stdout.splitlines() == lines + [
                f"full ranking written to {output}"
            ]

    def test_gz_input_matches_the_oracle(
        self, workload, tmp_path, capsys, scoring_chunk
    ):
        import gzip

        _, model_path, csv_path, _, _ = workload
        scoring_chunk(25)
        gz = tmp_path / "fresh.csv.gz"
        gz.write_bytes(gzip.compress(csv_path.read_bytes()))
        output = tmp_path / "ranking.csv"
        assert main(
            [
                "score", str(model_path), str(gz), "--label-column", "id",
                "--top", "4", "--output", str(output),
            ]
        ) == 0
        stdout = capsys.readouterr().out
        expected = tmp_path / "oracle.csv"
        lines = cli_oracle(model_path, csv_path, expected, 4, "id")
        assert output.read_bytes() == expected.read_bytes()
        assert stdout.splitlines() == lines + [
            f"full ranking written to {output}"
        ]

    def test_stream_bad_csv_is_reported(self, workload, tmp_path, capsys):
        _, model_path, _, _, _ = workload
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b,c\nx,1,2,oops\n")
        code = main(["score", str(model_path), str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGzipInput:
    @pytest.fixture()
    def gz_path(self, workload, tmp_path):
        """A gzipped byte-for-byte copy of the fixture CSV."""
        import gzip

        _, _, csv_path, _, _ = workload
        gz = tmp_path / "fresh.csv.gz"
        with gz.open("wb") as handle:
            handle.write(gzip.compress(csv_path.read_bytes()))
        return gz

    def test_rows_match_plain_csv(self, workload, gz_path):
        _, _, csv_path, _, _ = workload
        plain = list(iter_csv_rows(csv_path, label_column="id"))
        gz = list(iter_csv_rows(gz_path, label_column="id"))
        assert [label for label, _ in gz] == [label for label, _ in plain]
        np.testing.assert_array_equal(
            np.asarray([v for _, v in gz]),
            np.asarray([v for _, v in plain]),
        )

    def test_stream_score_round_trip(
        self, workload, gz_path, tmp_path, scoring_chunk
    ):
        """Gzipped input scores byte-identically to the plain file."""
        model, _, csv_path, _, _ = workload
        out_plain = tmp_path / "plain_scores.csv"
        out_gz = tmp_path / "gz_scores.csv"
        scoring_chunk(40)
        n_plain = stream_score_csv(
            model, csv_path, out_plain, label_column="id"
        )
        n_gz = stream_score_csv(model, gz_path, out_gz, label_column="id")
        assert n_gz == n_plain == N_ROWS
        assert out_gz.read_bytes() == out_plain.read_bytes()

    def test_validation_still_reports_lines(self, tmp_path):
        import gzip

        bad = tmp_path / "bad.csv.gz"
        with gzip.open(bad, "wt", newline="") as handle:
            handle.write("id,a,b\nx,1,oops\n")
        with pytest.raises(DataValidationError, match=r"bad\.csv\.gz:2"):
            list(iter_csv_rows(bad))


class TestStreamRankTopK:
    def test_matches_in_memory_top_k(self, workload, scoring_chunk):
        from repro.core.scoring import build_ranking_list
        from repro.serving import stream_rank_topk

        model, _, csv_path, X, labels = workload
        full = build_ranking_list(score_batch(model, X), labels=labels)
        scoring_chunk(40)
        for k in (1, 5, N_ROWS, N_ROWS + 10):
            top, n_rows = stream_rank_topk(
                model, csv_path, k, label_column="id"
            )
            assert n_rows == N_ROWS
            assert top == full.top(k)

    def test_ties_break_toward_earlier_rows(
        self, workload, tmp_path, scoring_chunk
    ):
        """Duplicate rows tie exactly; the earlier row must rank first,
        matching the stable sort of ``build_ranking_list``."""
        from repro.core.scoring import build_ranking_list
        from repro.serving import stream_rank_topk

        model, _, _, X, _ = workload
        X_dup = np.vstack([X[:5], X[:5], X[:5]])
        labels = [f"r{i:02d}" for i in range(15)]
        dup_csv = tmp_path / "dups.csv"
        save_csv(dup_csv, labels, X_dup, ["a", "b", "c"], label_column="id")
        full = build_ranking_list(score_batch(model, X_dup), labels=labels)
        scoring_chunk(4)
        top, _ = stream_rank_topk(model, dup_csv, 7, label_column="id")
        assert top == full.top(7)

    def test_k_zero_is_an_empty_wellformed_result(
        self, workload, scoring_chunk
    ):
        """``k=0`` must equal truncating the full ranking to nothing —
        an empty list, with every row still counted (regression: this
        used to raise)."""
        from repro.core.scoring import build_ranking_list
        from repro.serving import stream_rank_topk

        model, _, csv_path, X, labels = workload
        full = build_ranking_list(score_batch(model, X), labels=labels)
        scoring_chunk(40)
        top, n_rows = stream_rank_topk(model, csv_path, 0, label_column="id")
        assert top == full.top(0) == []
        assert n_rows == N_ROWS

    def test_k_zero_still_validates_input(self, workload, tmp_path):
        """The ``k=0`` fast path must keep the ``k>0`` validation
        contract: a width mismatch fails, not silently count rows."""
        from repro.serving import stream_rank_topk

        model, _, _, X, labels = workload
        model_no_names = RankingPrincipalCurve.from_dict(model.to_dict())
        model_no_names.feature_names_ = None
        narrow = tmp_path / "narrow.csv"
        save_csv(narrow, labels, X[:, :2], ["a", "b"], label_column="id")
        with pytest.raises(DataValidationError, match="model expects 3"):
            stream_rank_topk(model_no_names, narrow, 0, label_column="id")

    def test_k_beyond_row_count_equals_full_ranking(
        self, workload, scoring_chunk
    ):
        """``k > n`` must equal the whole (untruncated) ranking list,
        byte for byte on every (label, score) pair."""
        from repro.core.scoring import build_ranking_list
        from repro.serving import stream_rank_topk

        model, _, csv_path, X, labels = workload
        full = build_ranking_list(score_batch(model, X), labels=labels)
        scoring_chunk(40)
        top, n_rows = stream_rank_topk(
            model, csv_path, N_ROWS + 1000, label_column="id"
        )
        assert n_rows == N_ROWS
        assert len(top) == N_ROWS
        assert top == full.top(N_ROWS + 1000)

    def test_bad_k_rejected(self, workload):
        from repro.core.exceptions import ConfigurationError
        from repro.serving import stream_rank_topk

        model, _, csv_path, _, _ = workload
        with pytest.raises(ConfigurationError, match="k must be >= 0"):
            stream_rank_topk(model, csv_path, -1, label_column="id")


class TestBatchRelativeFamilies:
    """A Borda score is a row's position among *all* rows, so every
    streaming terminus must score the file in one call, exactly as
    ``score_batch`` does in memory — never one chunk at a time."""

    N = 120
    CHUNK = 16

    @pytest.fixture(scope="class")
    def borda(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("borda")
        cloud = sample_monotone_cloud(
            alpha=ALPHA, n=self.N, seed=5, noise=0.05
        )
        model = build_model("borda", alpha=ALPHA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(cloud.X)
        labels = [f"b{i:03d}" for i in range(self.N)]
        csv_path = root / "rows.csv"
        save_csv(csv_path, labels, cloud.X, ["a", "b", "c"],
                 label_column="id")
        oracle = score_batch(model, cloud.X)
        return model, csv_path, labels, oracle

    def test_stream_score_csv(self, borda, tmp_path, scoring_chunk):
        model, csv_path, labels, oracle = borda
        out = tmp_path / "scores.csv"
        scoring_chunk(self.CHUNK)
        stream_score_csv(model, csv_path, out, label_column="id")
        with out.open() as handle:
            rows = list(csv.reader(handle))[1:]
        assert [label for label, _ in rows] == labels
        assert [score for _, score in rows] == [
            repr(value) for value in oracle.tolist()
        ]

    def test_stream_rank_csv(self, borda, tmp_path, scoring_chunk):
        model, csv_path, labels, oracle = borda
        reference = tmp_path / "reference.csv"
        save_ranking_csv(
            reference, build_ranking_list(oracle, labels=labels)
        )
        streamed = tmp_path / "streamed.csv"
        scoring_chunk(self.CHUNK)
        stream_rank_csv(
            model, csv_path, streamed, label_column="id",
            memory_budget_rows=40,
        )
        assert streamed.read_bytes() == reference.read_bytes()

    def test_stream_rank_topk(self, borda, scoring_chunk):
        model, csv_path, labels, oracle = borda
        scoring_chunk(self.CHUNK)
        top, n_rows = stream_rank_topk(
            model, csv_path, 10, label_column="id"
        )
        assert n_rows == self.N
        assert top == build_ranking_list(oracle, labels=labels).top(10)
        # The best Borda score reflects all rows, not one 16-row chunk.
        assert top[0][1] > 2 * self.CHUNK


class TestCliTopK:
    def test_matches_plain_score_head(
        self, workload, tmp_path, capsys, scoring_chunk
    ):
        _, model_path, csv_path, _, _ = workload
        scoring_chunk(25)
        base = [
            "score", str(model_path), str(csv_path),
            "--label-column", "id", "--top", "5",
        ]
        full_out = tmp_path / "full.csv"
        assert main(base + ["--output", str(full_out)]) == 0
        plain_stdout = capsys.readouterr().out

        topk_out = tmp_path / "topk.csv"
        code = main(
            [
                "score", str(model_path), str(csv_path),
                "--label-column", "id",
                "--top-k", "5", "--output", str(topk_out),
            ]
        )
        assert code == 0
        topk_stdout = capsys.readouterr().out

        # The printed top-5 table is identical to the full ranking's.
        plain_table = [
            line for line in plain_stdout.splitlines()
            if line.startswith(" ")
        ]
        topk_table = [
            line for line in topk_stdout.splitlines()
            if line.startswith(" ")
        ]
        assert topk_table == plain_table

        # The written file is exactly the head of the full ranking.
        with full_out.open() as handle:
            full_rows = list(csv.reader(handle))
        with topk_out.open() as handle:
            topk_rows = list(csv.reader(handle))
        assert topk_rows == full_rows[:6]  # header + 5 rows


class TestChunkParserEdgeCases:
    """Chunk-at-a-time parsing must keep every row-at-a-time contract:
    the first bad line in file order wins, chunk boundaries count data
    rows only, and cells convert with Python ``float()`` exactly."""

    @staticmethod
    def _drain_until_error(path, chunk_size):
        """Chunks yielded before the error, and the error itself."""
        chunks = []
        with pytest.raises(DataValidationError) as info:
            for chunk in iter_csv_chunks(path, chunk_size):
                chunks.append(chunk)
        return chunks, str(info.value)

    def test_non_numeric_cell_wins_over_later_ragged_row(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "id,a,b\nr0,1,2\nr1,1,oops\nr2,1,2\nr3,1\nr4,1,2\n"
        )
        chunks, message = self._drain_until_error(path, 10)
        assert chunks == []
        assert "mixed.csv:3: non-numeric attribute value" in message

    def test_ragged_row_wins_over_later_non_numeric_cell(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("id,a,b\nr0,1,2\nr1,1\nr2,1,oops\n")
        chunks, message = self._drain_until_error(path, 10)
        assert chunks == []
        assert message.endswith("mixed.csv:3: expected 3 fields, got 2")

    def test_bad_cell_deep_in_a_full_chunk_reports_its_line(self, tmp_path):
        chunk_size = 4096
        bad_row = chunk_size + 4000  # 0-based data row, second chunk
        lines = ["id,a,b"] + [
            f"r{i},{i},{i + 0.5}" for i in range(2 * chunk_size)
        ]
        lines[1 + bad_row] = f"r{bad_row},{bad_row},1.2.3"
        path = tmp_path / "deep.csv"
        path.write_text("\n".join(lines) + "\n")
        chunks, message = self._drain_until_error(path, chunk_size)
        # The chunk before the bad one is still yielded, intact.
        assert [chunk.X.shape for chunk in chunks] == [(chunk_size, 2)]
        assert chunks[0].labels[-1] == f"r{chunk_size - 1}"
        assert f"deep.csv:{bad_row + 2}: non-numeric" in message
        assert "'1.2.3'" in message

    def test_blank_rows_across_chunk_boundaries(self, tmp_path):
        body = []
        for i in range(13):
            body.append(f"r{i},{i}")
            if i in (3, 4, 5, 9):  # straddle the boundaries after 5, 10
                body.extend(["", "   ,  ", ","])
        path = tmp_path / "gaps.csv"
        path.write_text("id,v\n" + "\n".join(body) + "\n\n")
        chunks = list(iter_csv_chunks(path, 5))
        assert [len(chunk.labels) for chunk in chunks] == [5, 5, 3]
        assert [label for c in chunks for label in c.labels] == [
            f"r{i}" for i in range(13)
        ]
        np.testing.assert_array_equal(
            np.vstack([chunk.X for chunk in chunks]).ravel(),
            np.arange(13.0),
        )

    def test_blank_rows_do_not_shift_error_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,a,b\nx,1,2\n\n\ny,1,oops\n")
        with pytest.raises(DataValidationError, match=r"gaps\.csv:5: "):
            list(iter_csv_chunks(path, 1))
        with pytest.raises(DataValidationError, match=r"gaps\.csv:5: "):
            list(iter_csv_rows(path))

    def test_single_attribute_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,v\na,1.5\nb,-2\nc,3e2\n")
        chunks = list(iter_csv_chunks(path, 2))
        assert [chunk.X.shape for chunk in chunks] == [(2, 1), (1, 1)]
        np.testing.assert_array_equal(
            np.vstack([chunk.X for chunk in chunks]).ravel(),
            [1.5, -2.0, 300.0],
        )
        rows = list(iter_csv_rows(path))
        assert [values.shape for _, values in rows] == [(1,)] * 3

    def test_cells_convert_exactly_like_python_float(self, tmp_path):
        cells = ["1_000", " 1.5 ", "nan", "-inf", "1e400", "-0.0",
                 "1E-320", "+7", "\t2.25"]
        rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
        path = tmp_path / "cells.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "a", "b", "c"])
            for i, row in enumerate(rows):
                writer.writerow([f"r{i}", *row])
        expected = np.array(
            [[float(cell) for cell in row] for row in rows], dtype=float
        )
        (chunk,) = iter_csv_chunks(path, 8)
        assert chunk.X.tobytes() == expected.tobytes()
        streamed = np.vstack([v for _, v in iter_csv_rows(path)])
        assert streamed.tobytes() == expected.tobytes()
        assert load_csv(path).X.tobytes() == expected.tobytes()

    def test_gzip_matches_plain_chunk_for_chunk(self, workload, tmp_path):
        import gzip

        _, _, csv_path, _, _ = workload
        gz_path = tmp_path / "fresh.csv.gz"
        gz_path.write_bytes(gzip.compress(csv_path.read_bytes()))
        plain = list(iter_csv_chunks(csv_path, 40, label_column="id"))
        gz = list(iter_csv_chunks(gz_path, 40, label_column="id"))
        assert [c.labels for c in gz] == [c.labels for c in plain]
        assert [c.X.tobytes() for c in gz] == [c.X.tobytes() for c in plain]
        assert [c.attribute_names for c in gz] == [
            c.attribute_names for c in plain
        ]
