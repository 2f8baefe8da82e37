"""Bit-exact scoring fixture: every solver path against stored scores.

``tests/data/golden_scores.json`` (written by
``tests/data/make_golden_scores.py``) holds a seeded degree-3 curve in
R^4, 257 rows (near the curve, far from it, and bisected onto the
surface where two basins of the distance function tie) and warm-start
guesses, together with the scores of every ``project_points`` method x
backend x cold/warm combination and ``score_batch`` on a model fitted
to the countries data.  All numbers are stored as ``float.hex`` and
compared with ``==``: a refactor of the scoring path must not move a
single bit.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.projection import project_points
from repro.geometry.bezier import BezierCurve
from repro.serving import loads_model, score_batch

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_scores.json")

with open(PATH) as _fh:
    GOLDEN = json.load(_fh)


def _floats(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def _assert_bits(got: np.ndarray, want_hex: list, label: str) -> None:
    want = _floats(want_hex)
    assert got.dtype == np.float64
    moved = np.flatnonzero(got != want)
    assert moved.size == 0, (
        f"{label}: {moved.size} scores moved, first at row {moved[0]}: "
        f"{float(got[moved[0]]).hex()} != {want_hex[moved[0]]}"
    )


@pytest.fixture(scope="module")
def inputs():
    curve = BezierCurve(np.array([_floats(r) for r in GOLDEN["control_points"]]))
    X = np.array([_floats(r) for r in GOLDEN["X"]])
    return curve, X, _floats(GOLDEN["s0"])


@pytest.mark.parametrize("key", sorted(GOLDEN["projections"]))
def test_project_points_bits(inputs, key):
    curve, X, s0 = inputs
    method, backend, start = key.split("/")
    s = project_points(
        curve, X, method=method, backend=backend,
        s0=s0 if start == "warm" else None,
    )
    _assert_bits(s, GOLDEN["projections"][key], key)


@pytest.mark.parametrize("backend", sorted(GOLDEN["countries_score_batch"]))
def test_score_batch_bits(backend):
    from repro.data import load_countries

    model = loads_model(GOLDEN["countries_model"])
    scores = score_batch(
        model,
        load_countries().X,
        chunk_size=GOLDEN["countries_chunk_size"],
        backend=backend,
    )
    _assert_bits(scores, GOLDEN["countries_score_batch"][backend], backend)


def test_fixture_model_keeps_its_saved_solver():
    """The stored model was fitted with GSS, and loading keeps it.

    Models saved before Newton became the default all carry
    ``"projection": "gss"``; their served scores must not move.
    """
    assert loads_model(GOLDEN["countries_model"]).projection == "gss"


def test_fixture_covers_every_combination():
    keys = set(GOLDEN["projections"])
    assert keys == {
        f"{m}/{b}/{w}"
        for m in ("gss", "newton", "roots")
        for b in ("numpy", "closed-form")
        for w in ("cold", "warm")
    }
    assert len(GOLDEN["X"]) == 257
