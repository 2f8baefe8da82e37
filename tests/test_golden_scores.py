"""Bit-exact scoring fixture: every solver path against stored scores.

``tests/data/golden_scores.json`` (written by
``tests/data/make_golden_scores.py``) holds a seeded degree-3 curve in
R^4, 257 rows (near the curve, far from it, and bisected onto the
surface where two basins of the distance function tie) and warm-start
guesses, together with scores keyed ``method/solver/start`` and
``score_batch`` on a model fitted to the countries data (recorded in
chunks of ``countries_chunk_size`` rows, checked at the fixed default
chunk: chunking must not move a bit either).  All numbers
are stored as ``float.hex`` and compared with ``==``: a refactor of the
scoring path must not move a single bit.

The ``solver`` part of a key names how ``"roots"`` finds stationary
points.  ``closed-form`` is the runtime path, so every
``*/closed-form/*`` entry is the runtime ``project_points``.
``roots/numpy/*`` is the stacked-eigvals oracle, which survives only in
tests.  ``gss`` and ``newton`` never solve for roots, so their
``numpy`` entries equal their ``closed-form`` twins.  Of the countries
entries, ``closed-form`` is ``score_batch`` with the ``backend=``
keyword spelled out and ``numpy`` is ``score_batch`` without it.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.projection import project_points
from repro.geometry.bezier import BezierCurve
from repro.geometry.engine import ProjectionEngine
from repro.linalg.polyroots import batched_minimize_on_interval
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
    method, solver, start = key.split("/")
    if solver == "closed-form":
        s = project_points(
            curve, X, method=method, s0=s0 if start == "warm" else None
        )
    elif method == "roots":
        # "roots" ignores warm starts, so both starts are the oracle.
        coeffs = ProjectionEngine(curve).compile(X).coeffs
        s = batched_minimize_on_interval(coeffs, 0.0, 1.0)
    else:
        twin = f"{method}/closed-form/{start}"
        assert GOLDEN["projections"][key] == GOLDEN["projections"][twin]
        return
    _assert_bits(s, GOLDEN["projections"][key], key)


@pytest.mark.parametrize("backend", sorted(GOLDEN["countries_score_batch"]))
def test_score_batch_bits(backend):
    from repro.data import load_countries

    model = loads_model(GOLDEN["countries_model"])
    spelled = {"backend": backend} if backend == "closed-form" else {}
    scores = score_batch(model, load_countries().X, **spelled)
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
