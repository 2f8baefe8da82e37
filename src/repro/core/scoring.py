"""Score post-processing and ranking-list construction.

The RPC score of an object is its projection index ``s in [0, 1]`` on
the learned curve — 0 is the worst reference corner, 1 the best.  This
module turns score vectors into ranking lists (orders, positions, tie
detection) shared by RPC and every baseline, so that all models produce
directly comparable outputs for the experiment tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DataValidationError


@dataclass
class RankingList:
    """A complete ranking of ``n`` objects.

    Attributes
    ----------
    scores:
        Raw model scores, shape ``(n,)`` — higher is better.
    order:
        Indices sorted best-first: ``order[0]`` is the top object.
    positions:
        1-based rank of each object: ``positions[i] = 1`` means object
        ``i`` is ranked first (the convention of Tables 2–3).
    labels:
        Optional object names aligned with ``scores``.
    """

    scores: np.ndarray
    order: np.ndarray
    positions: np.ndarray
    labels: Optional[list[str]] = None

    def top(self, k: int) -> list[tuple[str, float]]:
        """The best ``k`` objects as ``(label, score)`` pairs
        (none for ``k <= 0``)."""
        k = min(max(k, 0), self.scores.size)
        out = []
        for idx in self.order[:k]:
            label = self.labels[idx] if self.labels else str(idx)
            out.append((label, float(self.scores[idx])))
        return out

    def bottom(self, k: int) -> list[tuple[str, float]]:
        """The worst ``k`` objects as ``(label, score)`` pairs, worst
        last (none for ``k <= 0``)."""
        k = min(max(k, 0), self.scores.size)
        out = []
        for idx in self.order[self.scores.size - k:]:
            label = self.labels[idx] if self.labels else str(idx)
            out.append((label, float(self.scores[idx])))
        return out

    def position_of(self, label: str) -> int:
        """1-based rank of a named object."""
        if not self.labels:
            raise DataValidationError("ranking list has no labels")
        try:
            idx = self.labels.index(label)
        except ValueError as exc:
            raise DataValidationError(f"unknown label {label!r}") from exc
        return int(self.positions[idx])

    def score_of(self, label: str) -> float:
        """Score of a named object."""
        if not self.labels:
            raise DataValidationError("ranking list has no labels")
        try:
            idx = self.labels.index(label)
        except ValueError as exc:
            raise DataValidationError(f"unknown label {label!r}") from exc
        return float(self.scores[idx])

    @property
    def has_ties(self) -> bool:
        """Whether any two objects share a score exactly."""
        return np.unique(self.scores).size < self.scores.size


def rank_entry_key(
    score: float, row_index: int, descending: bool = True
) -> Tuple[float, int]:
    """The canonical per-row sort key of a ranking.

    Sorting entries by this key in *ascending* order reproduces the
    ranking convention of :func:`build_ranking_list` exactly: higher
    scores first (when ``descending``), and exact score ties broken
    toward the earlier input row — the stable-sort convention every
    ranking path in the codebase must share.  The streaming top-``k``
    heap and the external merge sort both derive their orderings from
    this key, so their output is byte-identical to the in-memory path.
    """
    score = float(score)
    return (-score if descending else score, int(row_index))


def rank_order(scores: np.ndarray, descending: bool = True) -> np.ndarray:
    """Best-first permutation of ``scores`` under the canonical key.

    Vectorised counterpart of :func:`rank_entry_key`:
    ``rank_order(scores)[0]`` is the index of the top-ranked row, and
    tied scores keep their input order (stable sort), so

    >>> import numpy as np
    >>> scores = np.array([0.5, 0.9, 0.5])
    >>> rank_order(scores).tolist()
    [1, 0, 2]
    """
    scores = np.asarray(scores, dtype=float).ravel()
    key = -scores if descending else scores
    return np.argsort(key, kind="stable")


def build_ranking_list(
    scores: np.ndarray,
    labels: Optional[Sequence[str]] = None,
    descending: bool = True,
) -> RankingList:
    """Assemble a :class:`RankingList` from raw scores.

    Parameters
    ----------
    scores:
        Score vector; by convention higher means better.
    labels:
        Optional names, one per score.
    descending:
        Rank the largest score first (the default for RPC scores).

    Ties are broken by original index (stable sort) so results are
    deterministic; the ``has_ties`` flag records that ties exist —
    which for a strictly monotone scorer on distinct objects signals a
    meta-rule violation.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if labels is not None and len(labels) != scores.size:
        raise DataValidationError(
            f"{len(labels)} labels for {scores.size} scores"
        )
    order = rank_order(scores, descending=descending)
    positions = np.empty(scores.size, dtype=int)
    positions[order] = np.arange(1, scores.size + 1)
    return RankingList(
        scores=scores,
        order=order,
        positions=positions,
        labels=list(labels) if labels is not None else None,
    )


def rescale_scores(scores: np.ndarray) -> np.ndarray:
    """Affinely map scores onto ``[0, 1]`` (best = 1, worst = 0).

    Used when comparing models whose native score ranges differ (e.g.
    Elmap's centred scores vs RPC's ``[0, 1]`` projection indices).  A
    constant score vector maps to all zeros.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    lo = float(scores.min())
    hi = float(scores.max())
    if hi - lo <= 0.0:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)
