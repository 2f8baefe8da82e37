"""Tests for ranking-list construction and score rescaling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import DataValidationError
from repro.core.scoring import (
    build_ranking_list,
    rank_entry_key,
    rank_order,
    rescale_scores,
)


class TestRankKey:
    """The one tie-break convention every ranking path must share."""

    def test_entry_key_sorts_best_first(self):
        entries = [(0.5, 0), (0.9, 1), (0.5, 2), (0.1, 3)]
        ordered = sorted(
            entries, key=lambda e: rank_entry_key(e[0], e[1])
        )
        # Highest score first; the 0.5 tie breaks toward row 0.
        assert [row for _, row in ordered] == [1, 0, 2, 3]

    def test_entry_key_ascending_flag(self):
        assert rank_entry_key(0.5, 3, descending=False) == (0.5, 3)
        assert rank_entry_key(0.5, 3) == (-0.5, 3)

    def test_rank_order_matches_build_ranking_list(self, rng):
        # Coarse quantisation manufactures exact ties; the stable
        # order must agree with build_ranking_list on every draw.
        for _ in range(20):
            scores = rng.choice(np.linspace(0, 1, 5), size=50)
            np.testing.assert_array_equal(
                rank_order(scores), build_ranking_list(scores).order
            )

    def test_rank_order_agrees_with_entry_key_sort(self, rng):
        scores = rng.choice(np.linspace(0, 1, 4), size=40)
        by_key = sorted(
            range(scores.size),
            key=lambda i: rank_entry_key(scores[i], i),
        )
        np.testing.assert_array_equal(rank_order(scores), by_key)

    def test_rank_order_ascending(self):
        scores = np.array([0.3, 0.1, 0.3, 0.2])
        assert rank_order(scores, descending=False).tolist() == [1, 3, 0, 2]


class TestBuildRankingList:
    def test_descending_order(self):
        ranking = build_ranking_list(np.array([0.1, 0.9, 0.5]))
        np.testing.assert_array_equal(ranking.order, [1, 2, 0])
        np.testing.assert_array_equal(ranking.positions, [3, 1, 2])

    def test_ascending_option(self):
        ranking = build_ranking_list(
            np.array([0.1, 0.9, 0.5]), descending=False
        )
        np.testing.assert_array_equal(ranking.order, [0, 2, 1])

    def test_labels_and_lookup(self):
        ranking = build_ranking_list(
            np.array([0.2, 0.8]), labels=["worst", "best"]
        )
        assert ranking.position_of("best") == 1
        assert ranking.position_of("worst") == 2
        assert ranking.score_of("best") == pytest.approx(0.8)

    def test_top_and_bottom(self):
        scores = np.array([0.1, 0.4, 0.9, 0.6])
        labels = ["a", "b", "c", "d"]
        ranking = build_ranking_list(scores, labels=labels)
        assert ranking.top(2) == [("c", 0.9), ("d", 0.6)]
        assert ranking.bottom(2) == [("b", 0.4), ("a", 0.1)]

    def test_top_k_clamped(self):
        ranking = build_ranking_list(np.array([1.0, 2.0]))
        assert len(ranking.top(10)) == 2

    def test_non_positive_k_selects_nothing(self):
        # k is clamped at 0, the rule of the streaming and shard paths'
        # ``max(top, 0)``: no k <= 0 returns "all but |k|" rows.
        ranking = build_ranking_list(
            np.array([0.1, 0.4, 0.9, 0.6]), labels=["a", "b", "c", "d"]
        )
        for k in (0, -1, -3, -10):
            assert ranking.top(k) == []
            assert ranking.bottom(k) == []
        assert ranking.bottom(1) == [("a", 0.1)]
        assert ranking.bottom(10) == ranking.top(10)  # all, worst last

    def test_tie_detection(self):
        tied = build_ranking_list(np.array([0.5, 0.5, 0.7]))
        untied = build_ranking_list(np.array([0.4, 0.5, 0.7]))
        assert tied.has_ties
        assert not untied.has_ties

    def test_stable_tie_breaking(self):
        ranking = build_ranking_list(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(ranking.order, [0, 1])

    def test_label_count_mismatch_raises(self):
        with pytest.raises(DataValidationError):
            build_ranking_list(np.array([1.0, 2.0]), labels=["only-one"])

    def test_unknown_label_raises(self):
        ranking = build_ranking_list(np.array([1.0]), labels=["a"])
        with pytest.raises(DataValidationError):
            ranking.position_of("zzz")

    def test_no_labels_lookup_raises(self):
        ranking = build_ranking_list(np.array([1.0, 2.0]))
        with pytest.raises(DataValidationError):
            ranking.position_of("a")
        with pytest.raises(DataValidationError):
            ranking.score_of("a")

    def test_unlabelled_top_uses_indices(self):
        ranking = build_ranking_list(np.array([0.3, 0.9]))
        assert ranking.top(1) == [("1", 0.9)]


class TestRescaleScores:
    def test_maps_to_unit_interval(self):
        out = rescale_scores(np.array([-3.0, 0.0, 7.0]))
        assert out.min() == 0.0
        assert out.max() == 1.0
        assert out[1] == pytest.approx(0.3)

    def test_constant_scores_become_zero(self):
        out = rescale_scores(np.array([4.0, 4.0, 4.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_order_preserved(self, rng):
        scores = rng.normal(size=30)
        out = rescale_scores(scores)
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(out))
