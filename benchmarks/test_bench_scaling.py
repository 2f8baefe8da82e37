"""Section 5 complexity claim: O(4d + n) work per iteration.

The paper states the RPC model's per-iteration cost is linear in the
number of objects ``n`` (projection step) plus the ``4 x d``
control-point update.  We time single learning iterations across a
sweep of ``n`` and ``d`` and assert near-linear growth (ratio of
measured time to ``n`` stays within a small band), and we time the
projection step alone — the dominant term.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro.core.learning import fit_rpc_curve
from repro.core.projection import project_points
from repro.data.normalize import normalize_unit_cube
from repro.data.synthetic import sample_monotone_cloud
from repro.geometry import cubic_from_interior_points

from conftest import format_table, show


def _one_iteration_time(n: int, d: int, repeats: int = 3) -> float:
    alpha = np.ones(d)
    cloud = sample_monotone_cloud(alpha=alpha, n=n, seed=1, noise=0.02)
    X = normalize_unit_cube(cloud.X)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_rpc_curve(
                X, alpha, max_iter=1, init="linear", inner_updates=4,
                xi=1e-12,
            )
        best = min(best, time.perf_counter() - start)
    return best


def test_scaling_in_n(benchmark):
    sizes = [200, 400, 800, 1600, 3200]
    times = {n: _one_iteration_time(n, d=4) for n in sizes}
    benchmark.pedantic(
        _one_iteration_time, args=(800, 4), rounds=3, iterations=1
    )

    rows = [
        [n, f"{times[n] * 1e3:.2f}", f"{times[n] / n * 1e6:.3f}"]
        for n in sizes
    ]
    show(
        "scaling_n",
        format_table(
            ["n objects", "per-iteration ms", "microseconds per object"],
            rows,
            "Per-iteration cost vs n (d=4): the O(n) projection term",
        ),
    )

    # Near-linear growth: the per-object cost at the largest size is
    # within 4x of the per-object cost at the smallest (generous band
    # covering constant overheads and cache effects).
    per_object = [times[n] / n for n in sizes]
    assert per_object[-1] < 4.0 * per_object[0]
    # And total time grows sub-quadratically: 16x data < 40x time.
    assert times[3200] < 40.0 * times[200]


def test_scaling_in_d(benchmark):
    dims = [2, 4, 8, 16]
    times = {d: _one_iteration_time(800, d) for d in dims}
    benchmark.pedantic(
        _one_iteration_time, args=(800, 8), rounds=3, iterations=1
    )

    rows = [[d, f"{times[d] * 1e3:.2f}"] for d in dims]
    show(
        "scaling_d",
        format_table(
            ["d attributes", "per-iteration ms"],
            rows,
            "Per-iteration cost vs d (n=800): the O(4d) update term",
        ),
    )
    # Linear-ish in d as well: 8x dimensions < 24x time.
    assert times[16] < 24.0 * times[2]


def test_projection_step_dominates(benchmark):
    """The n-sized projection step is the per-iteration workhorse."""
    d = 4
    alpha = np.ones(d)
    curve = cubic_from_interior_points(
        alpha, p1=np.full(d, 0.3), p2=np.full(d, 0.7)
    )
    cloud = sample_monotone_cloud(alpha=alpha, n=2000, seed=2, noise=0.02)
    X = normalize_unit_cube(cloud.X)

    result = benchmark(lambda: project_points(curve, X, method="gss"))
    assert result.shape == (2000,)
