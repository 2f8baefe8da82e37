"""fit: Algorithm 1 on both bundled datasets (countries, journals)."""

from __future__ import annotations

import time
import warnings

import numpy as np

import repro.core.learning as learning
from repro import RankingPrincipalCurve
from repro.data.countries import load_countries
from repro.data.journals import load_journals
from repro.obs import engineprof
from repro.obs.engineprof import EngineProfile

from calibrate import Speedometer, normalised
from child import run_spawned
from inputs import RestartLog, best_restart_objective, restart_faults
from ledger import Outcome, Tally, median, pool_parts
from spans import LayerClock, patched, profile_layers, vm_hwm_mb

SETUP_REPEATS = 25
#: Each run fits in this many fresh processes in turn.  The fit speed
#: differs from process to process, and pooling evens that out: over
#: 10 seeds the countries median spread 0.164 (IQR/median) from one
#: process and 0.050-0.082 from three.
PROCESSES = 3
#: One round.  A countries fit takes ~1/8 of a journals fit and its
#: wall time is noisier, so it runs six times a round.
SCHEDULE = ("countries",) * 6 + ("journals",)
MIN_ROUNDS = 2
LEARNING_LAYERS = ("projection", "richardson", "clip", "objective")


def _load() -> dict:
    return {"countries": load_countries(), "journals": load_journals()}


def _layer_patches(clock: LayerClock):
    """Spans around the public step functions ``fit_rpc_curve`` calls."""
    return patched(
        (learning, "project_points",
         clock.timed("projection", learning.project_points)),
        (learning, "richardson_step",
         clock.timed("richardson", learning.richardson_step)),
        (learning, "clip_to_interior",
         clock.timed("clip", learning.clip_to_interior)),
        (learning, "objective_value",
         clock.timed("objective", learning.objective_value)),
    )


def _load_times() -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _load()
        times.append(time.perf_counter() - t0)
    return times


def measure(seed: int, part: int, seconds: float, trace: bool) -> dict:
    """Runs in a spawned process, the ``part``-th of a run's
    :data:`PROCESSES`: fits until ``seconds`` have passed."""
    meter = Speedometer()
    _, setup_kernel, load_times = meter.time(_load_times)
    datasets = _load()
    log = RestartLog()
    tally = Tally()
    faults: list = []
    objective: dict = {name: [] for name in datasets}

    def fit(name: str, index: int) -> list:
        # Restarts start from seeded random rows, and a countries fit's
        # time varies ~13% from one random state to the next.  Each fit
        # takes its own state derived from the run's seed, so a run's
        # median rests on as many draws as it has fits.
        data = datasets[name]
        state = np.random.SeedSequence([seed, part + PROCESSES * index])
        RankingPrincipalCurve(
            data.alpha, random_state=int(state.generate_state(1)[0])
        ).fit(data.X)
        return log.take()

    def rounds(meter: Speedometer, budget: float, traced: bool) -> tuple:
        """Fit rounds until ``budget`` seconds have passed; per dataset,
        the fits' normalised seconds (see ``calibrate``) and raw wall
        seconds."""
        walls = {name: [] for name in datasets}
        raw = {name: [] for name in datasets}
        per_round = []
        n_rounds = 0
        start = time.perf_counter()
        while time.perf_counter() - start < budget or n_rounds < MIN_ROUNDS:
            clock, profile = LayerClock(), EngineProfile()
            restarts = []
            round_wall = 0.0
            for name in SCHEDULE:
                index = len(walls[name])
                if traced:
                    with _layer_patches(clock), engineprof.activate(profile):
                        wall, kernel, results = meter.time(fit, name, index)
                else:
                    wall, kernel, results = meter.time(fit, name, index)
                walls[name].append(normalised([wall], [kernel])[0])
                raw[name].append(wall)
                round_wall += wall
                problems = restart_faults(results)
                if problems:
                    tally.fail("oracle")
                    faults.extend(f"{name} {p}" for p in problems)
                else:
                    tally.ok()
                objective[name].append(best_restart_objective(results))
                restarts.extend(results)
            n_rounds += 1
            if traced:
                s = clock.seconds
                layers = {
                    "core.learning.iterations": float(
                        sum(r.trace.n_iterations for r in restarts)
                    ),
                    "core.learning.converged_share": (
                        sum(r.trace.converged for r in restarts)
                        / len(restarts)
                    ),
                    "core.learning.projection_step_s": s["projection"],
                    "core.learning.control_point_step_s": (
                        s["richardson"] + s["clip"]
                    ),
                    "core.learning.objective_s": s["objective"],
                    "fit.unattributed_s": round_wall - sum(
                        s[layer] for layer in LEARNING_LAYERS
                    ),
                }
                layers.update(profile_layers(profile))
                per_round.append(layers)
        return walls, raw, per_round

    with log.active(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        budget = seconds / 2 if trace else seconds
        fit_s, raw_fit_s, _ = rounds(meter, budget, traced=False)
        traced_fit_s, per_round = {}, []
        if trace:
            traced_fit_s, _, per_round = rounds(Speedometer(), budget, True)
    return {
        "setup_s": normalised([median(load_times)], [setup_kernel])[0],
        "fit_s": fit_s,
        "raw_fit_s": raw_fit_s,
        "traced_fit_s": traced_fit_s,
        "per_round": per_round,
        "kernel_s": median(meter.points),
        "retaken": meter.retaken,
        "objective": objective,
        "tally": tally,
        "faults": faults[:10],
        "peak_rss_mb": vm_hwm_mb(),
    }


def _round_median(walls: dict) -> float:
    """Median seconds of one :data:`SCHEDULE` round."""
    return sum(
        SCHEDULE.count(name) * median(times) for name, times in walls.items()
    )


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    data = pool_parts([
        run_spawned(
            measure,
            {"seed": seed, "part": part, "seconds": seconds / PROCESSES,
             "trace": trace},
            timeout=2 * seconds / PROCESSES + 60,
        )
        for part in range(PROCESSES)
    ])
    tally = data["tally"]
    fit_s = {name: median(times) for name, times in data["fit_s"].items()}
    objective = {name: median(js) for name, js in data["objective"].items()}
    rows = sum(d.X.shape[0] for d in _load().values())
    values = {
        "serve_p50.csv_score.fit_countries_ms": fit_s["countries"] * 1e3,
        "serve_p99.csv_rank.fit_journals_ms": fit_s["journals"] * 1e3,
        "serve_rps.csv_shard_rows.fit_objects_per_s": (
            rows / sum(fit_s.values())
        ),
        "fit_objective": sum(objective.values()),
        "setup_s": median(data["setup_s"]),
        "peak_rss_mb": max(data["peak_rss_mb"]),
    }
    if trace:
        per_round = data["per_round"]
        values.update({
            name: median(r[name] for r in per_round) for name in per_round[0]
        })
        values["obs.trace_overhead"] = (
            _round_median(data["traced_fit_s"]) / _round_median(data["fit_s"])
            - 1.0
        )
    report = {
        "processes": PROCESSES,
        "fit_countries_s": median(data["raw_fit_s"]["countries"]),
        "fit_journals_s": median(data["raw_fit_s"]["journals"]),
        "kernel_ms": median(data["kernel_s"]) * 1e3,
        "calibration_points_retaken": sum(data["retaken"]),
        "fits_per_dataset": len(data["fit_s"]["countries"]),
        "best_restart_objective": objective,
        "faults": data["faults"],
    }
    return Outcome(tally.failed == 0, tally, values, report)
