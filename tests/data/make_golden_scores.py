"""Regenerate ``golden_scores.json``, the bit-exact scoring fixture.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden_scores.py

The fixture pins, as ``float.hex`` strings, the scores of every
``project_points`` method x backend x cold/warm combination on a seeded
degree-3 curve in four dimensions, plus ``score_batch`` on a model
fitted to the bundled countries data.  ``tests/test_golden_scores.py``
asserts exact equality, so regenerate only when a change is *meant* to
move scoring bits, and say so in the change description.

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
from repro.serving import dumps_model, score_batch

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_scores.json")

SEED = 20261017
N_ROWS = 257
N_TIES = 40
METHODS = ("gss", "newton", "roots")
BACKENDS = ("numpy", "closed-form")
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
    # regime the fit loop hands its warm-started projections.
    exact = project_points(curve, X, method="roots")
    s0 = np.clip(exact + rng.uniform(-0.02, 0.02, size=exact.size), 0.0, 1.0)

    projections = {}
    for method in METHODS:
        for backend in BACKENDS:
            for start in ("cold", "warm"):
                s = project_points(
                    curve,
                    X,
                    method=method,
                    backend=backend,
                    s0=s0 if start == "warm" else None,
                )
                projections[f"{method}/{backend}/{start}"] = _hex(s)

    data = load_countries()
    model = RankingPrincipalCurve(alpha=data.alpha, random_state=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(data.X)
    batch = {
        backend: _hex(
            score_batch(model, data.X, chunk_size=BATCH_CHUNK, backend=backend)
        )
        for backend in BACKENDS
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
