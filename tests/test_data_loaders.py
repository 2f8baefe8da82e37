"""Tests for CSV loading/saving and the alpha-spec parser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, DataValidationError
from repro.core.scoring import build_ranking_list
from repro.data.loaders import (
    load_csv,
    parse_alpha_spec,
    save_csv,
    save_ranking_csv,
)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "country,GDP,LEB,IMR\n"
        "Atlantis,100.5,80.1,3\n"
        "Mu,20.25,60.5,40\n"
        "Lemuria,55,70,12\n"
    )
    return path


class TestLoadCsv:
    def test_basic_load(self, csv_file):
        table = load_csv(csv_file)
        assert table.labels == ["Atlantis", "Mu", "Lemuria"]
        assert table.attribute_names == ["GDP", "LEB", "IMR"]
        np.testing.assert_allclose(table.X[0], [100.5, 80.1, 3.0])

    def test_explicit_label_column(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,name,b\n1,x,2\n3,y,4\n")
        table = load_csv(path, label_column="name")
        assert table.labels == ["x", "y"]
        assert table.attribute_names == ["a", "b"]
        np.testing.assert_allclose(table.X, [[1, 2], [3, 4]])

    def test_column_subset(self, csv_file):
        table = load_csv(csv_file, attribute_columns=["IMR", "GDP"])
        assert table.attribute_names == ["IMR", "GDP"]
        np.testing.assert_allclose(table.X[0], [3.0, 100.5])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("id,v\na,1\n\n  \nb,2\n")
        table = load_csv(path)
        assert table.labels == ["a", "b"]

    def test_missing_label_column_raises(self, csv_file):
        with pytest.raises(DataValidationError):
            load_csv(csv_file, label_column="nope")

    def test_missing_attribute_raises(self, csv_file):
        with pytest.raises(DataValidationError):
            load_csv(csv_file, attribute_columns=["GDP", "nope"])

    def test_non_numeric_cell_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,v\na,oops\n")
        with pytest.raises(DataValidationError):
            load_csv(path)

    def test_error_line_counts_blank_lines(self, tmp_path):
        # The bad cell sits on physical line 5; the two blank lines
        # before it must not shift the reported position.
        path = tmp_path / "gaps.csv"
        path.write_text("id,a,b\nx,1,2\n\n\ny,1,oops\n")
        with pytest.raises(DataValidationError, match=r"gaps\.csv:5: "):
            load_csv(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,v,w\na,1\n")
        with pytest.raises(DataValidationError):
            load_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError):
            load_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,v\n")
        with pytest.raises(DataValidationError):
            load_csv(path)


class TestSaveCsv:
    def test_round_trip(self, tmp_path, rng):
        X = rng.uniform(size=(5, 3))
        labels = [f"row{i}" for i in range(5)]
        path = tmp_path / "out.csv"
        save_csv(path, labels, X, ["a", "b", "c"])
        table = load_csv(path)
        assert table.labels == labels
        assert table.attribute_names == ["a", "b", "c"]
        np.testing.assert_allclose(table.X, X)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(DataValidationError):
            save_csv(tmp_path / "x.csv", ["a"], np.ones((2, 2)), ["u", "v"])
        with pytest.raises(DataValidationError):
            save_csv(tmp_path / "x.csv", ["a", "b"], np.ones((2, 2)), ["u"])


class TestSaveRankingCsv:
    def test_best_first_output(self, tmp_path):
        ranking = build_ranking_list(
            np.array([0.2, 0.9, 0.5]), labels=["low", "high", "mid"]
        )
        path = tmp_path / "ranking.csv"
        save_ranking_csv(path, ranking)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "position,label,score"
        assert lines[1].startswith("1,high")
        assert lines[3].startswith("3,low")

    def test_unlabelled_ranking_raises(self, tmp_path):
        ranking = build_ranking_list(np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            save_ranking_csv(tmp_path / "x.csv", ranking)


class TestParseAlphaSpec:
    def test_basic(self):
        alpha = parse_alpha_spec("+GDP,+LEB,-IMR", ["GDP", "LEB", "IMR"])
        np.testing.assert_array_equal(alpha, [1.0, 1.0, -1.0])

    def test_order_independent_of_spec(self):
        alpha = parse_alpha_spec("-IMR,+GDP,+LEB", ["GDP", "LEB", "IMR"])
        np.testing.assert_array_equal(alpha, [1.0, 1.0, -1.0])

    def test_whitespace_tolerated(self):
        alpha = parse_alpha_spec(" +a , -b ", ["a", "b"])
        np.testing.assert_array_equal(alpha, [1.0, -1.0])

    def test_missing_attribute_raises(self):
        with pytest.raises(ConfigurationError):
            parse_alpha_spec("+a", ["a", "b"])

    def test_unknown_attribute_raises(self):
        with pytest.raises(ConfigurationError):
            parse_alpha_spec("+a,+z", ["a", "b"])

    def test_duplicate_raises(self):
        with pytest.raises(ConfigurationError):
            parse_alpha_spec("+a,-a", ["a"])

    def test_bad_token_raises(self):
        with pytest.raises(ConfigurationError):
            parse_alpha_spec("a,+b", ["a", "b"])
