"""Ablations over the paper's design choices.

1. **Degree k** — the paper argues k=3 is the sweet spot: k=2 cannot
   represent all monotone shapes (higher train error on an S-shaped
   cloud), k=4 overfits (better train J, worse held-out J).
2. **Projection solver** — GSS vs exact quintic roots vs safeguarded
   Newton: same distances, different costs.
3. **Control-point update** — the preconditioned Richardson step of
   Eq.(27) keeps descending where the closed-form pseudo-inverse of
   Eq.(26) destabilises (the paper's stated motivation).
4. **Preconditioner** — with the diagonal preconditioner the descent
   per iteration is at least as good as without.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.learning import fit_rpc_curve
from repro.core.projection import project_points
from repro.data.normalize import normalize_unit_cube
from repro.data.synthetic import sample_around_curve
from repro.geometry import cubic_from_interior_points

from conftest import emit, format_table, show


def _s_cloud(n=240, seed=5, noise=0.03):
    curve = cubic_from_interior_points(
        [1.0, 1.0], p1=[0.1, 0.65], p2=[0.9, 0.35]
    )
    return sample_around_curve(curve, n=n, noise=noise, seed=seed)


def test_ablation_degree(benchmark):
    cloud = _s_cloud()
    X = normalize_unit_cube(cloud.X)
    train, test = X[:160], X[160:]
    alpha = np.array([1.0, 1.0])

    def fit_degree(k):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_rpc_curve(
                train, alpha, degree=k, init="linear", inner_updates=32
            )
        s_test = project_points(result.curve, test)
        test_J = float(
            np.sum(result.curve.projection_residuals(test, s_test) ** 2)
        )
        return result.trace.final_objective / len(train), test_J / len(test)

    results = {k: fit_degree(k) for k in (1, 2, 3, 4, 5)}
    benchmark.pedantic(fit_degree, args=(3,), rounds=3, iterations=1)

    rows = [
        [k, f"{tr:.6f}", f"{te:.6f}"]
        for k, (tr, te) in results.items()
    ]
    emit(
        "ablation_degree",
        format_table(
            ["degree k", "train J / n", "held-out J / n"],
            rows,
            "Degree ablation on an S-shaped cloud (paper argues k=3)",
        ),
    )

    # k < 3 underfits the S shape: higher train error than the cubic.
    assert results[1][0] > results[3][0] * 1.2
    assert results[2][0] > results[3][0] * 1.05
    # k = 3 generalises at least as well as the higher degrees
    # (overfitting: extra flexibility must not buy held-out quality).
    assert results[3][1] <= min(results[4][1], results[5][1]) * 1.25


def test_ablation_projection_solver(benchmark):
    cloud = _s_cloud(n=400, seed=7)
    X = normalize_unit_cube(cloud.X)
    curve = cubic_from_interior_points(
        [1.0, 1.0], p1=[0.1, 0.65], p2=[0.9, 0.35]
    )

    import time

    timings = {}
    distances = {}
    for method in ("gss", "roots", "newton"):
        start = time.perf_counter()
        s = project_points(curve, X, method=method)
        timings[method] = time.perf_counter() - start
        distances[method] = float(
            np.sum(curve.projection_residuals(X, s) ** 2)
        )

    benchmark.pedantic(
        lambda: project_points(curve, X, method="gss"),
        rounds=5,
        iterations=1,
    )

    methods = ("gss", "roots", "newton")
    title = "Projection-solver ablation (Eq.(20)); all reach the optimum"
    # The squared distances are deterministic and committed; the
    # timings vary per run, so the table carrying them is only printed.
    emit(
        "ablation_projection",
        format_table(
            ["solver", "total squared distance"],
            [[m, f"{distances[m]:.8f}"] for m in methods],
            title,
        ),
    )
    show(
        "ablation_projection_timing",
        format_table(
            ["solver", "time ms (n=400)", "total squared distance"],
            [
                [m, f"{timings[m] * 1e3:.2f}", f"{distances[m]:.8f}"]
                for m in methods
            ],
            title,
        ),
    )

    # All three solvers find the same total distance (global optimum).
    base = distances["roots"]
    assert abs(distances["gss"] - base) < 1e-5 * max(base, 1.0)
    assert abs(distances["newton"] - base) < 1e-4 * max(base, 1.0)


def test_ablation_update_rule(benchmark):
    cloud = _s_cloud(n=240, seed=9)
    X = normalize_unit_cube(cloud.X)
    alpha = np.array([1.0, 1.0])

    def fit(update):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit_rpc_curve(
                X, alpha, update=update, init="linear", inner_updates=32
            )

    richardson = fit("richardson")
    pinv = fit("pinv")
    benchmark.pedantic(fit, args=("richardson",), rounds=3, iterations=1)

    rows = [
        [
            "richardson (Eq.27)",
            richardson.trace.n_iterations,
            f"{richardson.trace.final_objective:.6f}",
            richardson.trace.stopped_on_increase,
        ],
        [
            "pinv (Eq.26)",
            pinv.trace.n_iterations,
            f"{pinv.trace.final_objective:.6f}",
            pinv.trace.stopped_on_increase,
        ],
    ]
    emit(
        "ablation_update",
        format_table(
            ["update", "iterations", "final J", "hit deltaJ<0 stop"],
            rows,
            "Control-point update ablation (the paper's Eq.(26) vs (27))",
        ),
    )

    # The Richardson path keeps descending monotonically.
    assert richardson.trace.is_monotone_decreasing()
    # And reaches an objective at least as good as the closed form,
    # which typically trips the instability early-stop.
    assert richardson.trace.final_objective <= pinv.trace.final_objective + 1e-9


def test_ablation_preconditioner(benchmark):
    cloud = _s_cloud(n=240, seed=11)
    X = normalize_unit_cube(cloud.X)
    alpha = np.array([1.0, 1.0])

    def fit(precondition):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fit_rpc_curve(
                X,
                alpha,
                precondition=precondition,
                init="linear",
                inner_updates=8,
                max_iter=60,
            )

    with_pc = fit(True)
    without_pc = fit(False)
    benchmark.pedantic(fit, args=(True,), rounds=3, iterations=1)

    rows = [
        ["with preconditioner", with_pc.trace.n_iterations,
         f"{with_pc.trace.final_objective:.6f}"],
        ["without", without_pc.trace.n_iterations,
         f"{without_pc.trace.final_objective:.6f}"],
    ]
    emit(
        "ablation_preconditioner",
        format_table(
            ["variant", "iterations", "final J"],
            rows,
            "Diagonal-preconditioner ablation (Eq.(27))",
        ),
    )

    # Both descend monotonically; the preconditioned run must be at
    # least competitive on the final objective.
    assert with_pc.trace.is_monotone_decreasing()
    assert without_pc.trace.is_monotone_decreasing()
    assert with_pc.trace.final_objective <= without_pc.trace.final_objective * 1.5
