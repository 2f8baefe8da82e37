"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.synthetic import sample_monotone_cloud
from repro.serving import load_model


@pytest.fixture
def ranking_csv(tmp_path):
    """A small rankable CSV with two benefits and one cost."""
    cloud = sample_monotone_cloud(
        alpha=np.array([1.0, 1.0, -1.0]), n=40, seed=6, noise=0.02
    )
    path = tmp_path / "items.csv"
    lines = ["item,quality,coverage,defects"]
    for i, row in enumerate(cloud.X):
        lines.append(f"item{i:02d},{row[0]},{row[1]},{row[2]}")
    path.write_text("\n".join(lines) + "\n")
    return path, cloud


class TestParser:
    def test_rank_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["rank", "data.csv", "--alpha", "+a,-b", "--top", "3"]
        )
        assert args.command == "rank"
        assert args.csv_path == "data.csv"
        assert args.top == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "d.csv", "--alpha", "+a"],
            ["save", "d.csv", "--alpha", "+a", "--model", "m.json"],
        ],
    )
    def test_one_start_by_default(self, argv):
        assert build_parser().parse_args(argv).restarts == 1

    def test_demo_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["demo", "countries"])
        assert args.dataset == "countries"

    def test_demo_rejects_unknown_dataset(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "planets"])


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        # scipy.integrate was most of every CLI run's and daemon boot's
        # import time, for an arc length nothing on those paths needs.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            timeout=60,
        ).stdout
        assert out.strip() == "[]"


class TestServeParser:
    def test_serve_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "serve",
                "--model", "wellbeing=m.json",
                "--model", "journals=j.npz",
                "--port", "9001",
                "--workers", "4",
                "--batch-window-ms", "2.5",
                "--max-batch-rows", "512",
            ]
        )
        assert args.command == "serve"
        assert args.models == ["wellbeing=m.json", "journals=j.npz"]
        assert args.port == 9001
        # --workers is the pre-fork process count.
        assert args.workers == 4
        assert args.batch_window_ms == 2.5
        assert args.max_batch_rows == 512
        assert args.host == "127.0.0.1"

    def test_serve_defaults_are_single_process_unbatched(self):
        args = build_parser().parse_args(["serve", "--model", "m=m.json"])
        assert args.workers == 1
        assert args.batch_window_ms == 0.0
        assert args.max_batch_rows is None

    def test_serve_rejects_bad_worker_and_window_counts(self, tmp_path):
        import numpy as np

        from repro import RankingPrincipalCurve
        from repro.serving import save_model

        path = tmp_path / "m.json"
        save_model(
            RankingPrincipalCurve(alpha=np.array([1.0, -1.0])), path
        )
        assert main(
            ["serve", "--model", f"m={path}", "--workers", "0"]
        ) == 2
        assert main(
            ["serve", "--model", f"m={path}", "--batch-window-ms", "-1"]
        ) == 2

    def test_serve_requires_a_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "m.json", "x.csv"],
            ["serve", "--model", "m=/tmp/m.json"],
        ],
        ids=["score", "serve"],
    )
    def test_chunk_size_flag_exits_2(self, argv, capsys):
        # Scoring runs at one fixed chunk that never changes a score.
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--chunk-size", "16"])
        assert exit_info.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err

    def test_model_spec_parsing(self):
        from repro.cli import parse_model_specs

        assert parse_model_specs(["a=x.json", "b=y.npz"]) == [
            ("a", "x.json"),
            ("b", "y.npz"),
        ]

    def test_model_spec_with_equals_in_path(self):
        from repro.cli import parse_model_specs

        assert parse_model_specs(["m=dir=weird/x.json"]) == [
            ("m", "dir=weird/x.json")
        ]

    def test_bad_model_specs_rejected(self):
        from repro.core.exceptions import ConfigurationError
        from repro.cli import parse_model_specs

        for bad in (["nameonly"], ["=path.json"], ["name="]):
            with pytest.raises(ConfigurationError, match="NAME=PATH"):
                parse_model_specs(bad)
        with pytest.raises(ConfigurationError, match="twice"):
            parse_model_specs(["a=x.json", "a=y.json"])

    def test_serve_missing_model_file_is_reported(self, capsys):
        code = main(["serve", "--model", "m=/does/not/exist.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_save_warm_start_default_and_negation(self):
        parser = build_parser()
        base = ["save", "d.csv", "--alpha", "+a", "--model", "m.json"]
        assert parser.parse_args(base).warm_start is True
        assert (
            parser.parse_args(base + ["--no-warm-start"]).warm_start
            is False
        )


class TestRankCommand:
    def test_ranks_and_writes_output(self, ranking_csv, tmp_path, capsys):
        path, cloud = ranking_csv
        out_path = tmp_path / "ranking.csv"
        code = main(
            [
                "rank",
                str(path),
                "--alpha",
                "+quality,+coverage,-defects",
                "--output",
                str(out_path),
                "--top",
                "5",
                "--restarts",
                "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "ranked 40 objects" in captured.out
        assert out_path.exists()
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "position,label,score"
        assert len(lines) == 41

    def test_ranking_correlates_with_latent(self, ranking_csv, tmp_path):
        path, cloud = ranking_csv
        out_path = tmp_path / "ranking.csv"
        main(
            [
                "rank",
                str(path),
                "--alpha",
                "+quality,+coverage,-defects",
                "--output",
                str(out_path),
                "--restarts",
                "1",
            ]
        )
        # Parse the output and check the best item has high latent.
        import csv as csv_module

        with out_path.open() as handle:
            rows = list(csv_module.DictReader(handle))
        best = rows[0]["label"]
        idx = int(best.removeprefix("item"))
        assert cloud.latent[idx] > np.quantile(cloud.latent, 0.7)

    def test_bad_alpha_is_reported(self, ranking_csv, capsys):
        path, _ = ranking_csv
        code = main(["rank", str(path), "--alpha", "+nope"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_reported(self, capsys):
        code = main(["rank", "/does/not/exist.csv", "--alpha", "+a"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDemoCommand:
    def test_countries_demo_runs(self, capsys):
        code = main(["demo", "countries", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "countries: 171 objects" in out

    def test_journals_demo_runs(self, capsys):
        code = main(["demo", "journals", "--top", "3"])
        assert code == 0
        assert "journals: 393 objects" in capsys.readouterr().out


class TestServingCommands:
    """The fit-once / serve-many workflow: save, load, score."""

    @pytest.fixture(params=[".json", ".npz"])
    def saved_model(self, request, ranking_csv, tmp_path, capsys):
        path, cloud = ranking_csv
        model_path = tmp_path / f"model{request.param}"
        code = main(
            [
                "save",
                str(path),
                "--alpha",
                "+quality,+coverage,-defects",
                "--model",
                str(model_path),
                "--restarts",
                "1",
            ]
        )
        assert code == 0
        assert "model written to" in capsys.readouterr().out
        return model_path, path, cloud

    def _save(self, ranking_csv, model_path, *flags):
        code = main(
            [
                "save",
                str(ranking_csv[0]),
                "--alpha",
                "+quality,+coverage,-defects",
                "--model",
                str(model_path),
                *flags,
            ]
        )
        assert code == 0
        return model_path.read_bytes()

    def test_default_save_does_not_depend_on_seed(
        self, ranking_csv, tmp_path
    ):
        first = self._save(ranking_csv, tmp_path / "a.json", "--seed", "0")
        second = self._save(ranking_csv, tmp_path / "b.json", "--seed", "7")
        assert first == second

    def test_random_starts_record_their_seed(self, ranking_csv, tmp_path):
        path = tmp_path / "m.json"
        self._save(ranking_csv, path, "--restarts", "2", "--seed", "7")
        assert load_model(path).random_state == 7

    def test_save_writes_model(self, saved_model):
        model_path, _, _ = saved_model
        assert model_path.exists()
        assert model_path.stat().st_size > 0

    def test_load_reports_fitted_state(self, saved_model, capsys):
        model_path, _, _ = saved_model
        capsys.readouterr()
        code = main(["load", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "state: fitted" in out
        assert "quality, coverage, defects" in out
        assert "p0 =" in out

    def test_score_round_trip_matches_rank(
        self, saved_model, tmp_path, capsys, scoring_chunk
    ):
        model_path, csv_path, _ = saved_model
        out_path = tmp_path / "scored.csv"
        scoring_chunk(16)
        code = main(
            [
                "score",
                str(model_path),
                str(csv_path),
                "--output",
                str(out_path),
                "--top",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scored 40 objects" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "position,label,score"
        assert len(lines) == 41

    def test_score_in_fresh_process_is_identical(
        self, saved_model, tmp_path
    ):
        # Scoring with the reloaded model must equal scoring with a
        # model refitted identically in this process — persistence, not
        # luck: the loaded model carries the exact fitted state.
        import csv as csv_module

        from repro.serving import load_model, score_batch

        model_path, csv_path, cloud = saved_model
        served = load_model(model_path)
        expected = score_batch(served, cloud.X)

        out_path = tmp_path / "scored.csv"
        code = main(
            ["score", str(model_path), str(csv_path), "--output", str(out_path)]
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv_module.DictReader(handle))
        by_label = {row["label"]: float(row["score"]) for row in rows}
        for i, value in enumerate(expected):
            assert by_label[f"item{i:02d}"] == pytest.approx(
                value, abs=1e-12
            )

    def test_score_missing_model_is_reported(self, ranking_csv, capsys):
        path, _ = ranking_csv
        code = main(["score", "/does/not/exist.json", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_save_reports_non_convergence(
        self, ranking_csv, tmp_path, capsys, monkeypatch
    ):
        # The fit inside `save` silences ConvergenceWarning, so the CLI
        # must say itself that the saved model stopped early.
        import functools

        import repro.cli
        from repro.core.rpc import RankingPrincipalCurve

        monkeypatch.setattr(
            repro.cli,
            "RankingPrincipalCurve",
            functools.partial(RankingPrincipalCurve, max_iter=1),
        )
        path, _ = ranking_csv
        model_path = tmp_path / "model.json"
        code = main(
            [
                "save",
                str(path),
                "--alpha",
                "+quality,+coverage,-defects",
                "--model",
                str(model_path),
                "--restarts",
                "1",
            ]
        )
        assert code == 0
        assert model_path.exists()
        captured = capsys.readouterr()
        assert "model written to" in captured.out
        assert "did not converge after 1 iterations" in captured.err
        assert "final objective" in captured.err

    def test_save_rejects_unknown_format(self, ranking_csv, tmp_path, capsys):
        path, _ = ranking_csv
        code = main(
            [
                "save",
                str(path),
                "--alpha",
                "+quality,+coverage,-defects",
                "--model",
                str(tmp_path / "model.pickle"),
                "--restarts",
                "1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDuplicateLabels:
    """Two rows labelled ``x`` print their own positions — the ones the
    written ranking file gives them — not the first match twice."""

    @pytest.fixture
    def dup_csv(self, ranking_csv, tmp_path):
        path, cloud = ranking_csv
        dup = tmp_path / "dups.csv"
        lines = ["item,quality,coverage,defects"]
        for label, row in zip(["x", "y", "x", "z"], cloud.X[:4]):
            lines.append(f"{label},{row[0]},{row[1]},{row[2]}")
        dup.write_text("\n".join(lines) + "\n")
        return path, dup

    @staticmethod
    def _printed(out):
        """``(position, label)`` rows of the printed ranking table."""
        rows = []
        for line in out.splitlines():
            fields = line.split()
            if len(fields) == 3 and fields[0].isdigit():
                rows.append((int(fields[0]), fields[2]))
        return rows

    @staticmethod
    def _written(path):
        import csv as csv_module

        with path.open() as handle:
            return [
                (int(row["position"]), row["label"])
                for row in csv_module.DictReader(handle)
            ]

    def _check(self, argv, out_path, capsys):
        assert main(argv + ["--output", str(out_path)]) == 0
        printed = self._printed(capsys.readouterr().out)
        assert [position for position, _ in printed] == [1, 2, 3, 4]
        assert sorted(label for _, label in printed) == ["x", "x", "y", "z"]
        assert printed == self._written(out_path)

    def test_rank_prints_true_positions(self, dup_csv, tmp_path, capsys):
        _, dup = dup_csv
        self._check(
            ["rank", str(dup), "--alpha", "+quality,+coverage,-defects",
             "--top", "4", "--restarts", "1"],
            tmp_path / "ranking.csv",
            capsys,
        )

    @pytest.mark.parametrize("mode", [[], ["--top-k", "4"]])
    def test_score_prints_true_positions(
        self, dup_csv, mode, tmp_path, capsys
    ):
        path, dup = dup_csv
        model_path = tmp_path / "model.json"
        assert main(
            ["save", str(path), "--alpha", "+quality,+coverage,-defects",
             "--model", str(model_path), "--restarts", "1"]
        ) == 0
        capsys.readouterr()
        self._check(
            ["score", str(model_path), str(dup), "--top", "4", *mode],
            tmp_path / "ranking.csv",
            capsys,
        )
