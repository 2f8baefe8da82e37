"""Regenerate ``golden_scores.json``, the bit-exact scoring fixture.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden_scores.py

The fixture pins, as ``float.hex`` strings, the scores of every
``project_points`` method x cold/warm combination on a seeded degree-3
curve in four dimensions, plus ``score_batch`` on a model fitted to the
bundled countries data, scored in chunks of ``BATCH_CHUNK`` rows (the
test scores at the fixed default chunk, so it also pins that chunking
never moves a bit).  Each projection is stored under two solver
keys: ``closed-form`` (the runtime path) and ``numpy`` (for ``"roots"``
the stacked-eigvals oracle; for ``gss`` and ``newton``, which never
solve for roots, a copy of the runtime scores).
``tests/test_golden_scores.py`` asserts exact equality, so regenerate
only when a change is *meant* to move scoring bits, and say so in the
change description.

The inputs are stored alongside the scores (also as ``float.hex``), so
the test never depends on this script reproducing its random draws.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import numpy as np

from repro.core.projection import project_points
from repro.core.rpc import RankingPrincipalCurve
from repro.data import load_countries
from repro.geometry.bezier import BezierCurve
from repro.geometry.engine import ProjectionEngine
from repro.linalg.polyroots import batched_minimize_on_interval
from repro.serving import batch as serving_batch
from repro.serving import dumps_model, score_batch

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_scores.json")

SEED = 20261017
N_ROWS = 257
N_TIES = 40
METHODS = ("gss", "newton", "roots")
BATCH_CHUNK = 64


def _hex(a) -> list:
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel()]


def _curve(rng) -> BezierCurve:
    """A hairpin-ish cubic in R^4: the inner control points overshoot,
    so points inside the bend see two basins of ``||x - f(s)||^2``."""
    P = np.array(
        [
            [0.0, 1.6, -0.6, 1.0],
            [0.0, 0.9, 1.1, 0.1],
            [0.0, 0.2, 0.8, 1.0],
            [0.0, 0.1, 0.9, 1.0],
        ]
    )
    return BezierCurve(P + rng.normal(0.0, 0.02, size=P.shape))


def _local_minima(curve, x, dense):
    """Interior local minimisers of the distance on a dense grid."""
    d = np.sum((curve.evaluate(dense).T - x) ** 2, axis=1)
    idx = np.flatnonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:])) + 1
    return dense[idx], d[idx]


def _near_ties(curve, rng, n):
    """Rows bisected onto the surface where two basins tie.

    For a candidate with two interior minima ``s_a < s_b``, moving it
    toward ``f(s_a)`` makes basin ``a`` the global one and toward
    ``f(s_b)`` basin ``b``; bisecting along that segment lands within a
    few ulps of the tie.
    """
    dense = np.linspace(0.0, 1.0, 4001)
    out = []
    while len(out) < n:
        x = rng.uniform(-0.2, 1.2, size=curve.dimension)
        s_min, _ = _local_minima(curve, x, dense)
        if s_min.size < 2:
            continue
        s_a, s_b = s_min[0], s_min[-1]
        cut = 0.5 * (s_a + s_b)
        xa = x + 0.3 * (curve.evaluate(np.array([s_a]))[:, 0] - x)
        xb = x + 0.3 * (curve.evaluate(np.array([s_b]))[:, 0] - x)

        def side(p):
            s = dense[np.argmin(np.sum((curve.evaluate(dense).T - p) ** 2, axis=1))]
            return s < cut

        if not side(xa) or side(xb):
            continue
        for _ in range(60):
            mid = 0.5 * (xa + xb)
            if side(mid):
                xa = mid
            else:
                xb = mid
        out.append(0.5 * (xa + xb))
    return np.array(out)


def build() -> dict:
    rng = np.random.default_rng(SEED)
    curve = _curve(rng)
    d = curve.dimension
    s_true = rng.uniform(size=N_ROWS - N_TIES - 37)
    near = curve.evaluate(s_true).T + rng.normal(0.0, 0.05, size=(s_true.size, d))
    far = rng.uniform(-0.5, 1.5, size=(37, d))
    X = np.vstack([near, far, _near_ties(curve, rng, N_TIES)])
    # Warm starts: the exact scores nudged by under one grid cell, the
    # regime the fit loop hands its warm-started projections.  "Exact"
    # is the eigvals oracle, the roots solver the fixture was first
    # written with.
    oracle = batched_minimize_on_interval(
        ProjectionEngine(curve).compile(X).coeffs, 0.0, 1.0
    )
    s0 = np.clip(oracle + rng.uniform(-0.02, 0.02, size=oracle.size), 0.0, 1.0)

    projections = {}
    for method in METHODS:
        for start in ("cold", "warm"):
            s = project_points(
                curve, X, method=method, s0=s0 if start == "warm" else None
            )
            projections[f"{method}/closed-form/{start}"] = _hex(s)
            # "roots" ignores warm starts, so both starts are the oracle.
            projections[f"{method}/numpy/{start}"] = _hex(
                oracle if method == "roots" else s
            )

    data = load_countries()
    # Pinned to GSS, the default when the fixture was written: the
    # stored model then pins the saved-model path, where a model keeps
    # the solver recorded in its payload.  The control-point update is
    # pinned to Richardson for the same reason, so a change of the fit's
    # default update leaves this fixture bit-identical.
    model = RankingPrincipalCurve(
        alpha=data.alpha, projection="gss", update="richardson",
        random_state=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(data.X)
    # A GSS model never solves for roots: "closed-form" spells out the
    # backend= keyword score_batch still accepts, "numpy" leaves it out.
    serving_batch.DEFAULT_CHUNK_SIZE = BATCH_CHUNK
    batch = {
        "closed-form": _hex(score_batch(model, data.X, backend="closed-form")),
        "numpy": _hex(score_batch(model, data.X)),
    }
    return {
        "control_points": [_hex(row) for row in curve.control_points],
        "X": [_hex(row) for row in X],
        "s0": _hex(s0),
        "projections": projections,
        "countries_model": dumps_model(model),
        "countries_chunk_size": BATCH_CHUNK,
        "countries_score_batch": batch,
    }


def main() -> int:
    with open(OUT, "w") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
