"""External merge sort: full streaming rank, byte-identical and bounded.

Three layers under test:

* :class:`ExternalSorter` alone — merge correctness (ties across spill
  boundaries, randomized equivalence with ``build_ranking_list``),
  the memory budget (``max_buffered_rows``), multi-pass merging under
  a small open-file budget, and run-file cleanup on success, error and
  mid-merge failure;
* :func:`stream_rank_csv` — the streamed full ranking written through
  the sorter must be byte-identical to ``save_ranking_csv`` of the
  in-memory ``build_ranking_list`` path, for plain and gzipped input;
* the CLI — ``repro score`` end to end against the library oracle,
  with a memory budget small enough to spill, and the one flag
  combination it refuses.
"""

from __future__ import annotations

import csv
import pathlib
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.cli import main
from repro.core.exceptions import ConfigurationError
from repro.core.scoring import build_ranking_list
from repro.data.loaders import save_csv, save_ranking_csv
from repro.data.synthetic import sample_monotone_cloud
from repro.serving import (
    ExternalSorter,
    save_model,
    score_batch,
    stream_rank_csv,
)
from repro.serving import extsort
from repro.serving.extsort import _RunReader, _write_run, pack_run_bytes
from repro.serving.stream import write_ranking

ALPHA = np.array([1.0, 1.0, -1.0])
N_ROWS = 157  # matches the streaming suite: not a multiple of any chunk


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """A fitted model, its saved file, and a CSV of fresh rows."""
    root = tmp_path_factory.mktemp("extsort")
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


def _reference(scores, labels):
    """Best-first ``(label, score)`` pairs of the in-memory path."""
    ranking = build_ranking_list(scores, labels=labels)
    return [
        (ranking.labels[idx], float(ranking.scores[idx]))
        for idx in ranking.order
    ]


def _drain(sorter):
    return [(label, score) for _, label, score in sorter.ranked()]


def _write_entries(path, entries):
    """Write ``(neg_score, row_index, label)`` entries as one run file."""
    neg_scores, row_indices, labels = zip(*entries)
    _write_run(
        path,
        [(np.array(neg_scores), np.array(row_indices), list(labels))],
    )


def _iter_entries(path):
    """Read a run file back as entries, one decoded block at a time."""
    reader = _RunReader(path)
    while reader.fill():
        neg_scores, row_indices, labels = reader.take(None)
        yield from zip(neg_scores.tolist(), row_indices.tolist(), labels)


class TestExternalSorter:
    def test_randomized_equivalence_sweep(self):
        """External-sort output equals ``build_ranking_list`` exactly,
        across random sizes, budgets, chunkings and heavy score ties."""
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            # Coarse quantisation manufactures exact duplicate scores.
            scores = rng.choice(np.linspace(0.0, 1.0, 7), size=n)
            labels = [f"t{trial}r{i}" for i in range(n)]
            budget = int(rng.integers(1, n + 2))
            chunk = int(rng.integers(1, n + 1))
            with ExternalSorter(
                memory_budget_rows=budget,
                max_open_runs=int(rng.integers(2, 6)),
            ) as sorter:
                for start in range(0, n, chunk):
                    sorter.add(
                        labels[start:start + chunk],
                        scores[start:start + chunk],
                    )
                got = _drain(sorter)
                assert sorter.max_buffered_rows <= budget
            assert got == _reference(scores, labels), (
                f"trial {trial}: n={n} budget={budget} chunk={chunk}"
            )

    def test_ties_spanning_spill_boundaries(self):
        """Identical scores split across different run files must still
        come back in input order (the stable tie-break)."""
        scores = np.zeros(30)  # every row ties with every other row
        labels = [f"r{i:02d}" for i in range(30)]
        with ExternalSorter(memory_budget_rows=7) as sorter:
            sorter.add(labels, scores)
            assert sorter.runs_spilled >= 4  # ties genuinely cross runs
            got = _drain(sorter)
        assert got == [(label, 0.0) for label in labels]

    def test_single_row_chunks(self):
        scores = np.array([0.3, 0.9, 0.3, 0.1, 0.9])
        labels = list("abcde")
        with ExternalSorter(memory_budget_rows=2) as sorter:
            for label, score in zip(labels, scores):
                sorter.add([label], np.array([score]))
            got = _drain(sorter)
        assert got == _reference(scores, labels)

    def test_empty_input(self):
        with ExternalSorter(memory_budget_rows=4) as sorter:
            assert list(sorter.ranked()) == []
            assert sorter.n_rows == 0
            assert sorter.runs_spilled == 0

    def test_positions_are_sequential(self):
        with ExternalSorter(memory_budget_rows=3) as sorter:
            sorter.add(list("abcdefgh"), np.linspace(0, 1, 8))
            positions = [pos for pos, _, _ in sorter.ranked()]
        assert positions == list(range(1, 9))

    def test_in_memory_fast_path_never_touches_disk(self):
        with ExternalSorter() as sorter:
            sorter.add(list("abc"), np.array([0.1, 0.5, 0.3]))
            got = _drain(sorter)
            assert sorter.runs_spilled == 0
            assert sorter._tmpdir is None  # no spill dir was created
        assert [label for label, _ in got] == ["b", "c", "a"]

    def test_multi_pass_merge_under_open_file_budget(self):
        """More runs than ``max_open_runs`` forces intermediate merge
        passes; the output must not change."""
        rng = np.random.default_rng(7)
        scores = rng.choice(np.linspace(0, 1, 5), size=200)
        labels = [f"r{i:03d}" for i in range(200)]
        with ExternalSorter(
            memory_budget_rows=10, max_open_runs=2
        ) as sorter:
            sorter.add(labels, scores)
            assert sorter.runs_spilled == 20
            got = _drain(sorter)
            assert sorter.merge_passes >= 1
        assert got == _reference(scores, labels)

    def test_budget_forces_at_least_three_runs(self):
        """The acceptance-criterion shape: >= 3 spill runs, buffered
        rows within budget, output equal to the in-memory ranking."""
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=100)
        labels = [f"r{i:03d}" for i in range(100)]
        with ExternalSorter(memory_budget_rows=30) as sorter:
            sorter.add(labels, scores)
            assert sorter.runs_spilled >= 3
            got = _drain(sorter)
            assert sorter.max_buffered_rows <= 30
        assert got == _reference(scores, labels)


class TestSpillFileCleanup:
    def _spilled_dir(self, sorter) -> pathlib.Path:
        assert sorter._tmpdir is not None, "test needs a real spill"
        return pathlib.Path(sorter._tmpdir.name)

    def test_cleanup_on_success(self):
        with ExternalSorter(memory_budget_rows=5) as sorter:
            sorter.add(list("abcdefghij"), np.linspace(0, 1, 10))
            spill_dir = self._spilled_dir(sorter)
            assert list(spill_dir.iterdir())
            list(sorter.ranked())
        assert not spill_dir.exists()

    def test_cleanup_on_exception(self):
        with pytest.raises(RuntimeError, match="downstream"):
            with ExternalSorter(memory_budget_rows=5) as sorter:
                sorter.add(list("abcdefghij"), np.linspace(0, 1, 10))
                spill_dir = self._spilled_dir(sorter)
                raise RuntimeError("downstream failure")
        assert not spill_dir.exists()

    def test_cleanup_on_injected_mid_merge_failure(self):
        """A consumer that dies halfway through the merge — with run
        files open for reading — must still leave nothing behind."""
        with pytest.raises(RuntimeError, match="sink broke"):
            with ExternalSorter(memory_budget_rows=5) as sorter:
                sorter.add(list("abcdefghijklmno"), np.linspace(0, 1, 15))
                spill_dir = self._spilled_dir(sorter)
                for position, _, _ in sorter.ranked():
                    if position == 4:  # mid-merge, several rows pending
                        raise RuntimeError("sink broke")
        assert not spill_dir.exists()

    def test_cleanup_on_keyboard_interrupt(self):
        """Ctrl-C propagates through the context manager's __exit__,
        so run files are removed exactly as for any exception."""
        with pytest.raises(KeyboardInterrupt):
            with ExternalSorter(memory_budget_rows=5) as sorter:
                sorter.add(list("abcdefghij"), np.linspace(0, 1, 10))
                spill_dir = self._spilled_dir(sorter)
                next(iter(sorter.ranked()))
                raise KeyboardInterrupt
        assert not spill_dir.exists()

    def test_abandoned_ranked_iterator_closes_run_files(self, monkeypatch):
        """Closing a half-consumed ``ranked()`` view, or its block
        iterator, must close every run file *immediately* — the shard
        coordinator abandons merges when a job aborts, and waiting for
        garbage collection to finalise the readers would leave fds
        open past the spill directory's removal."""
        opened = []

        def _recording_reader(*args, **kwargs):
            reader = _RunReader(*args, **kwargs)
            opened.append(reader)
            return reader

        monkeypatch.setattr(extsort, "_RunReader", _recording_reader)
        # Small reads keep every run file open well into the merge.
        monkeypatch.setattr(extsort, "_READ_BYTES", 64)
        for view in ("rows", "blocks"):
            opened.clear()
            with ExternalSorter(memory_budget_rows=10) as sorter:
                sorter.add(
                    [f"r{i}" for i in range(30)], np.linspace(0, 1, 30)
                )
                ranked = sorter.ranked()
                assert len(opened) == 3  # one reader per run
                if view == "rows":
                    assert next(ranked)[0] == 1
                    abandoned = ranked
                else:
                    abandoned = ranked.blocks
                    labels, _ = next(abandoned)
                    assert 0 < len(labels) < 30
                assert all(reader._handle for reader in opened), view
                abandoned.close()  # abandon mid-merge
                assert not any(reader._handle for reader in opened), view


class TestSorterContract:
    def test_requires_context_manager(self):
        sorter = ExternalSorter()
        with pytest.raises(ConfigurationError, match="context manager"):
            sorter.add(["a"], np.array([0.5]))
        with pytest.raises(ConfigurationError, match="context manager"):
            sorter.ranked()

    def test_single_use(self):
        with ExternalSorter() as sorter:
            sorter.add(["a"], np.array([0.5]))
            list(sorter.ranked())
            with pytest.raises(ConfigurationError, match="single-use"):
                sorter.ranked()
            with pytest.raises(ConfigurationError, match="single-use"):
                sorter.add(["b"], np.array([0.6]))

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="memory_budget_rows"):
            ExternalSorter(memory_budget_rows=0)
        with pytest.raises(ConfigurationError, match="max_open_runs"):
            ExternalSorter(max_open_runs=1)

    def test_mismatched_lengths_rejected(self):
        from repro.core.exceptions import DataValidationError

        with ExternalSorter() as sorter:
            with pytest.raises(DataValidationError, match="2 labels"):
                sorter.add(["a", "b"], np.array([0.5]))

    def test_truncated_run_file_is_reported(self, tmp_path):
        from repro.core.exceptions import DataValidationError

        path = tmp_path / "run.bin"
        _write_entries(path, [(-0.5, 0, "hello")])
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # cut the label short
        with pytest.raises(DataValidationError, match="truncated run file"):
            list(_iter_entries(path))
        path.write_bytes(data[:10])  # cut the record head short
        with pytest.raises(DataValidationError, match="truncated run file"):
            list(_iter_entries(path))

    def test_run_larger_than_a_read_block_round_trips(self, tmp_path):
        # ~190 KB of records whose boundaries fall anywhere inside the
        # 64 KiB read blocks, and one label longer than a whole block.
        path = tmp_path / "run.bin"
        entries = [
            (-1.0 + i * 1e-4, i, f"label-{i}-" + "x" * (i % 37))
            for i in range(4000)
        ]
        entries.insert(1234, (-0.9, 99_999, "y" * 100_000))
        _write_entries(path, entries)
        assert list(_iter_entries(path)) == entries
        from repro.core.exceptions import DataValidationError

        data = path.read_bytes()
        path.write_bytes(data[:-5])  # cut the last label short
        seen = []
        with pytest.raises(DataValidationError, match="row 3999"):
            for entry in _iter_entries(path):
                seen.append(entry)
        assert seen == entries[:-1]  # every complete record came first

    def test_unicode_labels_round_trip(self, tmp_path):
        path = tmp_path / "run.bin"
        entries = [(-0.9, 0, "Ελλάδα"), (-0.5, 1, "日本"), (-0.1, 2, "øre")]
        _write_entries(path, entries)
        assert list(_iter_entries(path)) == entries


def _tied_block():
    """A seeded 1000-row scored block with many exact score ties,
    signed zeros and non-ASCII labels."""
    rng = np.random.default_rng(1515)
    scores = rng.integers(0, 200, size=1000) / 7.0
    scores[::97] = -0.0
    labels = [
        f"obj{i:04d}" if i % 11 else f"\u00d8bj-{i}-\u65e5\u672c"
        for i in range(1000)
    ]
    return labels, scores


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


class TestRunFormatBytes:
    """The run format is a wire format (shards ship it to the
    coordinator), so its bytes are pinned, not just round-tripped."""

    def test_pack_run_bytes_digest(self):
        labels, scores = _tied_block()
        data = pack_run_bytes(labels, scores, base_row=123_457)
        assert _sha256(data) == (
            "2d02b1b7dfb3d246f33a81ada41b665d905d93d7a8028a120a383527a7650fc8"
        )

    def test_spilled_run_file_digest(self):
        labels, scores = _tied_block()
        with ExternalSorter(memory_budget_rows=300) as sorter:
            sorter.add(labels[:650], scores[:650])
            sorter.add(labels[650:], scores[650:])
            assert sorter.runs_spilled == 3
            # The second run starts at global row 300 and spans both
            # add() calls.
            second = sorter._run_paths[1].read_bytes()
        assert _sha256(second) == (
            "1430348e5bea7109cb1cd924b7c833b3d3392082fac1c26a6305c5f00c89b8d1"
        )

    def test_merged_run_file_digest(self):
        labels, scores = _tied_block()
        with ExternalSorter(memory_budget_rows=300, max_open_runs=2) as sorter:
            sorter.add(labels[:650], scores[:650])
            sorter.add(labels[650:], scores[650:])
            ranked = sorter.ranked()  # collapses runs 0 and 1 into one
            merged = sorter._run_paths[-1].read_bytes()
            got = [(label, score) for _, label, score in ranked]
        assert _sha256(merged) == (
            "70a7bb7652f04dd8194ce0b420e125cd878217d073ccf1f60ec2d0bdb935894f"
        )
        assert got == _reference(scores, labels)


class TestBlockMerge:
    """Edge cases of the block merge, each checked byte for byte
    against ``save_ranking_csv(build_ranking_list(...))``."""

    @staticmethod
    def _rank(tmp_path, labels, scores, chunk=None, **sorter_kwargs):
        """``(csv_bytes, block_sizes, sorter)`` of one block-path rank."""
        chunk = chunk or max(len(labels), 1)
        path = tmp_path / "blocks.csv"
        sizes = []

        def _sized(blocks):
            for block_labels, block_scores in blocks:
                sizes.append(len(block_labels))
                yield block_labels, block_scores

        with ExternalSorter(**sorter_kwargs) as sorter:
            for start in range(0, len(labels), chunk):
                sorter.add(
                    labels[start:start + chunk], scores[start:start + chunk]
                )
            write_ranking(_sized(sorter.ranked().blocks), path)
        return path.read_bytes(), sizes, sorter

    @staticmethod
    def _oracle(tmp_path, labels, scores):
        path = tmp_path / "oracle.csv"
        save_ranking_csv(path, build_ranking_list(scores, labels=labels))
        return path.read_bytes()

    def test_cut_inside_ties_that_span_runs(self, tmp_path, monkeypatch):
        # Three long runs of equal scores, dealt over six spilled runs,
        # read back ~8 records at a time: merge steps cut inside a tie.
        monkeypatch.setattr(extsort, "_READ_BYTES", 200)
        rng = np.random.default_rng(11)
        scores = rng.permutation(np.repeat([0.9, 0.5, 0.1], 200))
        labels = [f"t{i:03d}" for i in range(600)]
        got, sizes, sorter = self._rank(
            tmp_path, labels, scores, memory_budget_rows=100
        )
        assert sorter.runs_spilled == 6
        assert got == self._oracle(tmp_path, labels, scores)
        ranked = np.sort(scores)[::-1]
        boundaries = np.cumsum(sizes)[:-1]
        assert any(
            ranked[b - 1] == ranked[b] for b in boundaries
        ), "no merge step ended inside a tie"

    def test_blocks_ending_on_the_same_score(self, tmp_path, monkeypatch):
        # Two runs with the same scores and equal-length labels decode
        # into blocks that end on the same score; only the earlier
        # row's run may be drained to that score.
        monkeypatch.setattr(extsort, "_READ_BYTES", 9 * 27)  # 9 records
        half = np.repeat(np.linspace(1.0, 0.0, 12), 5)
        scores = np.concatenate([half, half])
        labels = [f"same{i:03d}" for i in range(scores.size)]
        first_blocks = [
            extsort._decode_records(
                pack_run_bytes(labels[start:start + half.size], half, start)[
                    :extsort._READ_BYTES
                ]
            )[0]
            for start in (0, half.size)
        ]
        assert [len(block[2]) for block in first_blocks] == [9, 9]
        assert first_blocks[0][0][-1] == first_blocks[1][0][-1]
        got, sizes, sorter = self._rank(
            tmp_path, labels, scores, memory_budget_rows=half.size
        )
        assert sorter.runs_spilled == 2
        assert len(sizes) > 2
        assert got == self._oracle(tmp_path, labels, scores)

    def test_one_row_runs(self, tmp_path):
        rng = np.random.default_rng(12)
        scores = rng.choice([0.25, 0.5, 0.75], size=40)
        labels = [f"o{i}" for i in range(40)]
        got, _, sorter = self._rank(
            tmp_path, labels, scores, chunk=3, memory_budget_rows=1
        )
        assert sorter.runs_spilled == 40
        assert got == self._oracle(tmp_path, labels, scores)

    def test_multibyte_label_straddling_a_read(self, tmp_path):
        # Pick a label width that puts the first 64 KiB read boundary
        # of the first run inside a three-byte character.
        n_run = 3000
        rng = np.random.default_rng(13)
        scores = rng.uniform(size=2 * n_run)
        for width in range(1, 12):
            labels = [f"{i:05d}" + "日" * width for i in range(2 * n_run)]
            run = pack_run_bytes(labels[:n_run], scores[:n_run])
            if run[extsort._READ_BYTES] & 0xC0 == 0x80:  # continuation
                break
        else:
            pytest.fail("no label width straddles the read boundary")
        with ExternalSorter(memory_budget_rows=n_run) as sorter:
            sorter.add(labels, scores)
            assert sorter._run_paths[0].read_bytes() == run
        got, _, _ = self._rank(
            tmp_path, labels, scores, memory_budget_rows=n_run
        )
        assert got == self._oracle(tmp_path, labels, scores)

    def test_multi_pass_collapse(self, tmp_path, monkeypatch):
        monkeypatch.setattr(extsort, "_READ_BYTES", 128)
        rng = np.random.default_rng(14)
        scores = rng.choice(np.linspace(0, 1, 6), size=300)
        labels = [f"m{i:03d}" for i in range(300)]
        got, _, sorter = self._rank(
            tmp_path, labels, scores, memory_budget_rows=20, max_open_runs=2
        )
        assert sorter.runs_spilled == 15
        assert sorter.merge_passes >= 2
        assert got == self._oracle(tmp_path, labels, scores)

    def test_unspilled_tail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(extsort, "_READ_BYTES", 100)
        rng = np.random.default_rng(15)
        scores = rng.choice([0.0, -0.0, 0.5, 1.0], size=95)
        labels = [f"u{i:02d}" for i in range(95)]
        for budget in (30, 200):  # three runs and a 5-row tail; no runs
            got, _, sorter = self._rank(
                tmp_path, labels, scores, chunk=7, memory_budget_rows=budget
            )
            assert sorter.runs_spilled == 95 // budget
            assert got == self._oracle(tmp_path, labels, scores)

    def test_head_larger_than_input(self, tmp_path):
        scores = np.array([0.2, 0.9, 0.2, 0.4])
        labels = list("abcd")
        top = build_ranking_list(scores, labels=labels).top(4)
        for output in (None, tmp_path / "head.csv"):
            with ExternalSorter(memory_budget_rows=2) as sorter:
                sorter.add(labels, scores)
                head = write_ranking(sorter.ranked().blocks, output, head=10)
            assert head == top
        assert (tmp_path / "head.csv").read_bytes() == self._oracle(
            tmp_path, labels, scores
        )

    def test_randomized_tie_heavy_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2026)
        for trial in range(20):
            monkeypatch.setattr(
                extsort, "_READ_BYTES", int(rng.integers(24, 400))
            )
            n = int(rng.integers(1, 500))
            scores = rng.choice(np.linspace(-1.0, 1.0, 5), size=n)
            labels = [f"r{trial}-{i}" + "é" * (i % 3) for i in range(n)]
            got, _, _ = self._rank(
                tmp_path,
                labels,
                scores,
                chunk=int(rng.integers(1, n + 1)),
                memory_budget_rows=int(rng.integers(1, n + 2)),
                max_open_runs=int(rng.integers(2, 8)),
            )
            assert got == self._oracle(tmp_path, labels, scores), trial


class TestStreamRankCsv:
    def test_byte_identical_to_in_memory_ranking(
        self, workload, tmp_path, scoring_chunk
    ):
        model, _, csv_path, X, labels = workload
        reference = tmp_path / "reference.csv"
        save_ranking_csv(
            reference, build_ranking_list(score_batch(model, X), labels=labels)
        )
        streamed = tmp_path / "streamed.csv"
        scoring_chunk(25)
        n_rows, head = stream_rank_csv(
            model,
            csv_path,
            streamed,
            label_column="id",
            memory_budget_rows=40,  # forces >= 3 spill runs for 157 rows
        )
        assert n_rows == N_ROWS
        assert streamed.read_bytes() == reference.read_bytes()
        assert head == []

    def test_head_matches_ranking_top(self, workload, tmp_path):
        model, _, csv_path, X, labels = workload
        full = build_ranking_list(score_batch(model, X), labels=labels)
        _, head = stream_rank_csv(
            model,
            csv_path,
            tmp_path / "out.csv",
            label_column="id",
            memory_budget_rows=50,
            head=7,
        )
        assert head == full.top(7)

    def test_no_output_path_only_head(self, workload):
        model, _, csv_path, X, labels = workload
        full = build_ranking_list(score_batch(model, X), labels=labels)
        n_rows, head = stream_rank_csv(
            model, csv_path, None, label_column="id", head=3
        )
        assert n_rows == N_ROWS
        assert head == full.top(3)

    def test_gzip_input_identical(self, workload, tmp_path):
        import gzip

        model, _, csv_path, _, _ = workload
        gz_path = tmp_path / "fresh.csv.gz"
        gz_path.write_bytes(gzip.compress(csv_path.read_bytes()))
        out_plain = tmp_path / "plain.csv"
        out_gz = tmp_path / "gz.csv"
        stream_rank_csv(
            model, csv_path, out_plain, label_column="id",
            memory_budget_rows=60,
        )
        stream_rank_csv(
            model, gz_path, out_gz, label_column="id",
            memory_budget_rows=60,
        )
        assert out_gz.read_bytes() == out_plain.read_bytes()

    def test_duplicate_rows_tie_break_matches(
        self, workload, tmp_path, scoring_chunk
    ):
        """Duplicate rows (exact score ties) spanning chunk and run
        boundaries must rank in input order, as the in-memory path."""
        model, _, _, X, _ = workload
        X_dup = np.vstack([X[:6]] * 5)
        labels = [f"d{i:02d}" for i in range(30)]
        dup_csv = tmp_path / "dups.csv"
        save_csv(dup_csv, labels, X_dup, ["a", "b", "c"], label_column="id")
        reference = tmp_path / "reference.csv"
        save_ranking_csv(
            reference,
            build_ranking_list(score_batch(model, X_dup), labels=labels),
        )
        streamed = tmp_path / "streamed.csv"
        scoring_chunk(4)
        stream_rank_csv(
            model, dup_csv, streamed, label_column="id",
            memory_budget_rows=7,
        )
        assert streamed.read_bytes() == reference.read_bytes()

    def test_bad_head_rejected(self, workload):
        model, _, csv_path, _, _ = workload
        with pytest.raises(ConfigurationError, match="head"):
            stream_rank_csv(model, csv_path, None, head=-1)


class TestCliStreamRank:
    def test_byte_identical_through_cli(
        self, workload, tmp_path, capsys, scoring_chunk
    ):
        """A spilling ``repro score`` writes and prints exactly
        ``save_ranking_csv(build_ranking_list(score_batch(...)))``."""
        model, model_path, csv_path, X, labels = workload
        ranking = build_ranking_list(score_batch(model, X), labels=labels)
        rank_out = tmp_path / "rank.csv"
        scoring_chunk(25)
        assert main(
            [
                "score", str(model_path), str(csv_path),
                "--label-column", "id", "--top", "5",
                "--memory-budget-rows", "40", "--output", str(rank_out),
            ]
        ) == 0
        rank_stdout = capsys.readouterr().out

        oracle_out = tmp_path / "oracle.csv"
        save_ranking_csv(oracle_out, ranking)
        assert rank_out.read_bytes() == oracle_out.read_bytes()
        assert rank_stdout.splitlines() == [
            f"scored {N_ROWS} objects with saved model {model_path}",
            f"{'pos':>4}  {'score':>8}  label",
            *(
                f"{ranking.position_of(label):>4}  {score:>8.4f}  {label}"
                for label, score in ranking.top(5)
            ),
            f"full ranking written to {rank_out}",
        ]

    def test_rank_without_output_prints_top(self, workload, capsys):
        _, model_path, csv_path, _, _ = workload
        code = main(
            [
                "score", str(model_path), str(csv_path),
                "--label-column", "id", "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"scored {N_ROWS} objects" in out
        table = [line for line in out.splitlines() if line.startswith(" ")]
        assert len(table) == 3 + 1  # header row + 3 entries

    def test_negative_top_prints_no_rows(self, workload, capsys):
        _, model_path, csv_path, _, _ = workload
        code = main(
            [
                "score", str(model_path), str(csv_path),
                "--label-column", "id", "--top", "-2",
            ]
        )
        assert code == 0
        table = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(" ")
        ]
        assert len(table) == 1  # the header row only

    def test_memory_budget_rejected_with_top_k(self, workload, capsys):
        _, model_path, csv_path, _, _ = workload
        code = main(
            [
                "score", str(model_path), str(csv_path),
                "--top-k", "3", "--memory-budget-rows", "100",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--memory-budget-rows" in err and "--top-k" in err

    def test_memory_budget_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["score", "m.json", "x.csv", "--memory-budget-rows", "1000"]
        )
        assert args.memory_budget_rows == 1000

    @pytest.mark.parametrize("flag", ["--stream", "--rank"])
    def test_removed_mode_flags_are_refused(self, flag, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["score", "m.json", "x.csv", flag])
        assert flag in capsys.readouterr().err
