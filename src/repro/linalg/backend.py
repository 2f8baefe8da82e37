"""Stationary-point solvers behind ``projection="roots"``.

The exact projection path minimises each compiled squared-distance
polynomial over ``[0, 1]`` by enumerating its stationary points.  This
module names the two ways of finding those roots behind a tiny
:class:`KernelBackend` protocol (everything else in the engine is the
shared float64 Horner arithmetic of :mod:`repro.linalg.horner`):

``numpy``
    Stacked companion-matrix ``eigvals`` — the reference every other
    solver is gated against, and the library default so plain
    ``score_samples()`` output never moves.
``closed-form``
    Analytic quadratic/cubic/quartic roots plus recursive
    monotone-interval isolation (:mod:`repro.linalg.closedform`) — no
    LAPACK in the roots path at all.

``resolve_backend("auto")`` gives ``closed-form``; the CLI and the
daemon default to ``auto``, the library APIs to ``None`` (= ``numpy``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.linalg.closedform import closed_form_stationary_roots
from repro.linalg.polyroots import batched_minimize_on_interval

#: CLI-facing backend spellings.
BACKEND_CHOICES = ("auto", "numpy", "closed-form")


class KernelBackend:
    """Protocol for the engine's exact stationary-point minimisation.

    Subclasses provide a stable ``name`` (reported in ``/metrics`` and
    traces) and :meth:`minimize_stationary`, with the same shapes as
    :func:`repro.linalg.polyroots.batched_minimize_on_interval`.
    """

    name: str = "abstract"

    def minimize_stationary(
        self, coeffs: np.ndarray, lo: float = 0.0, hi: float = 1.0
    ) -> np.ndarray:
        """Row-wise global minimiser of ``n`` polynomials on ``[lo, hi]``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyBackend(KernelBackend):
    """The reference: stacked companion-matrix eigvals."""

    name = "numpy"

    def minimize_stationary(
        self, coeffs: np.ndarray, lo: float = 0.0, hi: float = 1.0
    ) -> np.ndarray:
        return batched_minimize_on_interval(coeffs, lo, hi)


class ClosedFormBackend(KernelBackend):
    """The analytic (eigvals-free) stationary-root solve."""

    name = "closed-form"

    def minimize_stationary(
        self, coeffs: np.ndarray, lo: float = 0.0, hi: float = 1.0
    ) -> np.ndarray:
        return batched_minimize_on_interval(
            coeffs, lo, hi, root_solver=closed_form_stationary_roots
        )


_BACKENDS = {"numpy": NumpyBackend(), "closed-form": ClosedFormBackend()}


def resolve_backend(
    spec: Optional[Union[str, KernelBackend]] = None,
) -> KernelBackend:
    """Resolve a backend spec (name, instance or None) to an instance.

    ``None``/"default" give the numpy reference and "auto" gives
    closed-form.  Instances pass through untouched; unknown names raise
    ConfigurationError.
    """
    if isinstance(spec, KernelBackend):
        return spec
    name = "" if spec is None else str(spec).strip().lower().replace("_", "-")
    if name in ("", "default"):
        name = "numpy"
    elif name == "auto":
        name = "closed-form"
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {spec!r}; choices: {BACKEND_CHOICES}"
        )
    return _BACKENDS[name]
