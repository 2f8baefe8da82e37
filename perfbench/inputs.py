"""Seeded inputs shared by the workloads, and the fit-restart oracle."""

from __future__ import annotations

import contextlib
import pathlib
import warnings
from typing import List

import numpy as np

import repro.core.rpc as rpc
from repro import RankingPrincipalCurve
from repro.data.countries import COUNTRY_ATTRIBUTES, load_countries
from repro.serving import save_model

MODEL_NAME = "countries"


class RestartLog:
    """Every ``fit_rpc_curve`` result of a fit (one per restart).

    ``RankingPrincipalCurve`` keeps only the winning restart's trace;
    the oracle needs all of them, so the log wraps the public
    ``repro.core.rpc.fit_rpc_curve`` while active.
    """

    def __init__(self):
        self.results: list = []

    @contextlib.contextmanager
    def active(self):
        original = rpc.fit_rpc_curve

        def logged(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        rpc.fit_rpc_curve = logged
        try:
            yield self
        finally:
            rpc.fit_rpc_curve = original

    def take(self) -> list:
        results, self.results = self.results, []
        return results


def restart_faults(results: list) -> List[str]:
    """Oracle for one fit: every restart descends monotonically and
    keeps its control points in the unit cube."""
    faults = []
    for index, result in enumerate(results):
        if not result.trace.is_monotone_decreasing():
            faults.append(f"restart {index}: objective increased")
        P = result.curve.control_points
        if not (np.all(P >= 0.0) and np.all(P <= 1.0)):
            faults.append(f"restart {index}: control points left [0, 1]")
    return faults


def best_restart_objective(results: list) -> float:
    """Final J of the fit's best restart, the one the model keeps."""
    return float(min(r.trace.final_objective for r in results))


def fit_countries_model(seed: int, path: pathlib.Path):
    """Fit the served model (countries, default hyper-parameters,
    ``seed``) and save it to ``path`` with the countries attribute
    names; returns the fit's restart results."""
    data = load_countries()
    log = RestartLog()
    with log.active(), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = RankingPrincipalCurve(data.alpha, random_state=seed)
        model.fit(data.X)
    save_model(model, path, feature_names=COUNTRY_ATTRIBUTES)
    return log.take()


def attribute_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` rows drawn uniformly from the countries attribute ranges,
    rounded to 4 decimals (so a CSV round trip is exact)."""
    X = load_countries().X
    lo, hi = X.min(axis=0), X.max(axis=0)
    return np.round(lo + (hi - lo) * rng.random((n, X.shape[1])), 4)
