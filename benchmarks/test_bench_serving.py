"""Serving-path performance: engine, batched roots, warm projection.

The seed solved the ``"roots"`` projection with a Python loop of
per-point companion-matrix calls, and every learning iteration paid a
full ``n_grid``-point scan.  This benchmark pins the serving-path
replacements on the scaling suite's reference size (n=3200, d=4):

* the default Newton projection must be no slower than GSS (the
  paper's solver, same grid bracket), with scores agreeing to 1e-8
  (also the CI perf-smoke gate);
* the batched ``"roots"`` solver (one stacked ``eigvals`` call) must be
  no slower than the seed's per-point loop — in practice it is an order
  of magnitude faster;
* warm-started GSS projection (narrow brackets + sparse safeguard)
  must be no slower than the cold grid-scan path it replaces inside
  the fit loop.

The tables are printed (run with ``-s``), not written: their numbers
are wall-clock timings.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core.projection import project_points
from repro.data.normalize import normalize_unit_cube
from repro.data.synthetic import sample_monotone_cloud
from repro.geometry.cubic import cubic_from_interior_points
from repro.linalg.polyroots import minimize_polynomial_on_interval

from conftest import format_table, show

N_OBJECTS = 3200
DIMENSION = 4
#: Interleaved cold/warm rounds of the warm-start gate.
ROUNDS = 5


@pytest.fixture(scope="module")
def projection_workload():
    alpha = np.ones(DIMENSION)
    curve = cubic_from_interior_points(
        alpha,
        p1=np.full(DIMENSION, 0.3),
        p2=np.full(DIMENSION, 0.7),
    )
    cloud = sample_monotone_cloud(
        alpha=alpha, n=N_OBJECTS, seed=1, noise=0.02
    )
    return curve, normalize_unit_cube(cloud.X)


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int = 5) -> float:
    return min(_seconds(fn) for _ in range(repeats))


def test_newton_vs_gss(projection_workload, benchmark):
    """The default solver gate: Newton must not be slower than GSS.

    Both paths compile each point's squared-distance polynomial once
    and share the same grid bracket; Newton then converges in a few
    steps where GSS needs dozens of iterations plus a Newton polish.
    CI's perf-smoke job runs this test under a ``timeout`` guard, so a
    regression of the default projection path fails fast.
    """
    curve, X = projection_workload

    t_gss = _best_of(lambda: project_points(curve, X, method="gss"), repeats=3)
    t_newton = _best_of(lambda: project_points(curve, X))
    benchmark(lambda: project_points(curve, X))

    s_gss = project_points(curve, X, method="gss")
    s_newton = project_points(curve, X)
    s_roots = project_points(curve, X, method="roots")
    agreement = float(np.max(np.abs(s_newton - s_gss)))
    agreement_roots = float(np.max(np.abs(s_newton - s_roots)))

    show(
        "serving_engine",
        format_table(
            ["path", "ms (best-of)", "speedup vs GSS"],
            [
                ["GSS (paper's solver)", f"{t_gss * 1e3:.2f}", "1.0x"],
                [
                    "Newton (default)",
                    f"{t_newton * 1e3:.2f}",
                    f"{t_gss / t_newton:.1f}x",
                ],
                ["agreement vs GSS (max |ds|)", f"{agreement:.2e}", ""],
                ["agreement vs roots (max |ds|)", f"{agreement_roots:.2e}", ""],
            ],
            f"Newton vs GSS projection, n={N_OBJECTS}, d={DIMENSION}",
        ),
    )

    assert agreement <= 1e-8
    # Hard CI bound: the default path must never be slower than GSS.
    # The speedup itself is recorded in the emitted table but not
    # asserted, since CI runners are noisy and 2-core.
    assert t_newton <= t_gss


def test_batched_roots_vs_seed_per_point_loop(projection_workload, benchmark):
    curve, X = projection_workload
    coeffs = curve.distance_polynomials(X)

    def seed_per_point_loop():
        return np.array(
            [
                minimize_polynomial_on_interval(coeffs[i])
                for i in range(coeffs.shape[0])
            ]
        )

    t_batched = _best_of(lambda: project_points(curve, X, method="roots"))
    t_loop = _best_of(seed_per_point_loop, repeats=3)
    benchmark(lambda: project_points(curve, X, method="roots"))

    s_batched = project_points(curve, X, method="roots")
    s_loop = seed_per_point_loop()
    agreement = float(np.max(np.abs(s_batched - s_loop)))

    show(
        "serving_projection",
        format_table(
            ["path", "ms (best-of)", "speedup vs loop"],
            [
                ["per-point roots loop (seed)", f"{t_loop * 1e3:.2f}", "1.0x"],
                [
                    "batched roots (stacked eigvals)",
                    f"{t_batched * 1e3:.2f}",
                    f"{t_loop / t_batched:.1f}x",
                ],
                [
                    "agreement (max |ds|)",
                    f"{agreement:.2e}",
                    "",
                ],
            ],
            f"Projection roots solver, n={N_OBJECTS}, d={DIMENSION}",
        ),
    )

    assert agreement < 1e-9
    # Hard bound from the satellite task: the batched path must not be
    # slower than the seed's per-point loop (generous slack for noisy
    # CI boxes; locally the speedup is >10x).
    assert t_batched <= t_loop * 1.2


def test_warm_projection_vs_cold(projection_workload, benchmark):
    curve, X = projection_workload
    s_cold = project_points(curve, X, method="gss")

    # One wall-clock pair is at the mercy of whatever else the box is
    # doing; interleaved rounds see the same load, and the median of
    # their ratios decides the gate.
    colds, warms = [], []
    for _ in range(ROUNDS):
        colds.append(_seconds(lambda: project_points(curve, X, method="gss")))
        warms.append(_seconds(
            lambda: project_points(curve, X, method="gss", s0=s_cold)
        ))
    t_cold = statistics.median(colds)
    t_warm = statistics.median(warms)
    ratio = statistics.median([w / c for w, c in zip(warms, colds)])
    benchmark(lambda: project_points(curve, X, method="gss", s0=s_cold))

    s_warm = project_points(curve, X, method="gss", s0=s_cold)
    agreement = float(np.max(np.abs(s_warm - s_cold)))

    show(
        "serving_warm_start",
        format_table(
            ["path", f"ms (median of {ROUNDS})", "speedup vs cold"],
            [
                ["cold grid scan + GSS", f"{t_cold * 1e3:.2f}", "1.0x"],
                [
                    "warm brackets + safeguard",
                    f"{t_warm * 1e3:.2f}",
                    f"{1.0 / ratio:.1f}x",
                ],
                ["agreement (max |ds|)", f"{agreement:.2e}", ""],
            ],
            f"Warm-started GSS projection, n={N_OBJECTS}, d={DIMENSION}",
        ),
    )

    assert agreement < 1e-6
    assert ratio <= 1.2


@pytest.fixture(scope="module")
def fitted_model(projection_workload):
    import warnings

    from repro import RankingPrincipalCurve

    _, X_unit = projection_workload
    model = RankingPrincipalCurve(
        alpha=np.ones(DIMENSION), random_state=0, n_restarts=1
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(X_unit)
    return model


def test_score_batch_chunked_overhead(
    projection_workload, fitted_model, benchmark, monkeypatch
):
    """Chunked scoring costs only per-chunk dispatch, not extra math."""
    from repro.serving import batch, score_batch

    _, X_unit = projection_workload
    model = fitted_model

    monkeypatch.setattr(batch, "DEFAULT_CHUNK_SIZE", N_OBJECTS)
    t_one_shot = _best_of(lambda: score_batch(model, X_unit))
    monkeypatch.setattr(batch, "DEFAULT_CHUNK_SIZE", 1024)
    t_chunked = _best_of(lambda: score_batch(model, X_unit))
    benchmark(lambda: score_batch(model, X_unit))
    # Each chunk pays a fixed solver-iteration cost, so small chunks are
    # proportionally slower; at 1024 rows the dispatch overhead stays
    # well under the 2.5x band even on slow boxes (locally ~1.6x).
    assert t_chunked <= t_one_shot * 2.5


def test_external_sort_rank_vs_in_memory(
    fitted_model, tmp_path_factory, benchmark
):
    """Full streaming rank (external merge sort) vs the in-memory path.

    The external sort exists to bound memory, not to win time — but its
    overhead over ``load_csv + build_ranking_list + save_ranking_csv``
    must stay small, because both paths share the dominant costs (CSV
    parsing and projection).  The budget here forces real spills (8
    runs) and the second variant forces multi-pass merging under an
    open-file budget of 3.  Output files must be byte-identical in all
    three cases.
    """
    from repro.core.scoring import build_ranking_list
    from repro.data.loaders import load_csv, save_csv, save_ranking_csv
    from repro.serving import score_batch, stream_rank_csv

    model = fitted_model
    root = tmp_path_factory.mktemp("extsort_bench")
    n_rows = 20000
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(n_rows, DIMENSION))
    labels = [f"obj{i:05d}" for i in range(n_rows)]
    csv_path = root / "big.csv"
    save_csv(csv_path, labels, X, [f"x{j}" for j in range(DIMENSION)])
    budget = 2500

    mem_out = root / "mem.csv"
    ext_out = root / "ext.csv"
    multi_out = root / "multi.csv"

    def in_memory():
        table = load_csv(csv_path)
        ranking = build_ranking_list(
            score_batch(model, table.X), labels=table.labels
        )
        save_ranking_csv(mem_out, ranking)

    def external(out_path, max_open_runs=None):
        stream_rank_csv(
            model,
            csv_path,
            out_path,
            memory_budget_rows=budget,
            max_open_runs=max_open_runs,
        )

    t_memory = _best_of(in_memory, repeats=3)
    t_extsort = _best_of(lambda: external(ext_out), repeats=3)
    t_multi = _best_of(lambda: external(multi_out, max_open_runs=3), repeats=3)
    benchmark(lambda: external(ext_out))

    identical = (
        ext_out.read_bytes() == mem_out.read_bytes()
        and multi_out.read_bytes() == mem_out.read_bytes()
    )

    show(
        "serving_extsort",
        format_table(
            ["path", "ms (best-of)", "vs in-memory"],
            [
                [
                    "in-memory (load_csv + build_ranking_list)",
                    f"{t_memory * 1e3:.2f}",
                    "1.00x",
                ],
                [
                    f"external sort (budget={budget} rows, 8 runs)",
                    f"{t_extsort * 1e3:.2f}",
                    f"{t_extsort / t_memory:.2f}x",
                ],
                [
                    "external sort (multi-pass, max_open_runs=3)",
                    f"{t_multi * 1e3:.2f}",
                    f"{t_multi / t_memory:.2f}x",
                ],
                ["output byte-identical", str(identical), ""],
            ],
            f"Full streaming rank via external merge sort, n={n_rows}, "
            f"d={DIMENSION}, memory budget {budget} rows",
        ),
    )

    assert identical
    # Both paths parse the same CSV and run the same projection; the
    # sort itself is a small fraction of either.  Generous slack for
    # slow CI disks — locally the single-pass overhead is ~1.1-1.3x.
    assert t_extsort <= t_memory * 2.5
