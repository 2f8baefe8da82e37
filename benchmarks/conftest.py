"""Shared infrastructure for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper.
Deterministic tables (the paper's Tables 1-3 and Figures 2-8, ablation
objectives) are printed to stdout *and* written to
``benchmarks/results/<name>.txt`` with :func:`emit`, so they are
committed and a diff shows when a reproduced number moves.  Tables
with a wall-clock column go through :func:`show` instead: printed,
never written, since their numbers change on every run and machine
(performance figures live in the ``perfbench/`` ledger).  Add ``-s``
to watch the tables scroll by.
"""

from __future__ import annotations

import pathlib
import warnings

import numpy as np
import pytest

from repro import RankingPrincipalCurve
from repro.data import load_countries, load_journals

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a deterministic reproduced table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")


def show(name: str, text: str) -> None:
    """Print a table with a wall-clock column; it is never written."""
    print(f"\n{text}\n[{name}: timing table, printed only]")


@pytest.fixture(scope="session")
def country_data():
    """The 171-country table (15 verbatim Table 2 rows + synthesis)."""
    return load_countries()


@pytest.fixture(scope="session")
def country_model(country_data):
    """One RPC fit on the country data shared by several benchmarks."""
    model = RankingPrincipalCurve(
        alpha=country_data.alpha, random_state=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(country_data.X)
    return model


@pytest.fixture(scope="session")
def journal_data():
    """The 393-journal table (10 verbatim Table 3 rows + synthesis)."""
    return load_journals()


@pytest.fixture(scope="session")
def journal_model(journal_data):
    """One RPC fit on the journal data shared by several benchmarks."""
    model = RankingPrincipalCurve(
        alpha=journal_data.alpha, random_state=0
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(journal_data.X)
    return model


@pytest.fixture()
def quiet_fit():
    """Context helper: fit a model with convergence warnings silenced."""

    def _fit(model, X):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return model.fit(X)

    return _fit


def format_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    """Fixed-width table formatting shared by all benchmarks."""
    widths = [
        max(len(str(headers[j])), *(len(str(r[j])) for r in rows)) + 2
        for j in range(len(headers))
    ]
    lines = [title]
    lines.append("".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("-" * sum(widths))
    for row in rows:
        lines.append("".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Convenience re-export for quick agreement reporting."""
    from repro.evaluation import spearman_rho

    return spearman_rho(a, b)
