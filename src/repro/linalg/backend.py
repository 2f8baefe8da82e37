"""The ``backend=`` keyword that only the benchmark harness still passes.

``projection="roots"`` has one stationary-root solver: the analytic
quadratic/cubic/quartic roots plus monotone-interval isolation of
:mod:`repro.linalg.closedform`, called directly by
:meth:`repro.geometry.engine.CompiledProjection.minimize_exact`.  The
stacked companion-matrix ``eigvals`` minimiser
(:func:`repro.linalg.polyroots.batched_minimize_on_interval` without a
``root_solver``) survives only as the test oracle.

``perfbench/`` still passes ``backend="auto"`` to
``RankingPrincipalCurve.score_samples``,
:func:`repro.serving.score_batch`, :func:`repro.serving.stream_score_csv`
and :func:`repro.serving.stream_rank_csv`, and records
``resolve_backend("auto").name``.  Those four functions check the
keyword with :func:`resolve_backend` and then ignore it.  The benchmark
change that drops ``backend="auto"`` from ``perfbench/`` deletes this
module and the four keywords.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.exceptions import ConfigurationError


class RootSolver(NamedTuple):
    """Named descriptor of the one stationary-root solver."""

    name: str


CLOSED_FORM = RootSolver("closed-form")


def resolve_backend(spec=None) -> RootSolver:
    """Validate a ``backend=`` value and return :data:`CLOSED_FORM`.

    ``None``, ``"auto"`` and ``"closed-form"`` all name the one solver;
    anything else (``"numpy"`` included) raises ConfigurationError.
    """
    if spec is None or spec in ("auto", CLOSED_FORM.name):
        return CLOSED_FORM
    raise ConfigurationError(
        f"unknown kernel backend {spec!r}: the only root solver is "
        f"{CLOSED_FORM.name!r} (None and 'auto' name it too)"
    )
