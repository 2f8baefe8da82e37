"""Numeric substrate: the solvers Algorithm 1 is built from.

This subpackage isolates the paper's numerical machinery so each piece
can be tested against textbook behaviour independently of the RPC
model:

* :mod:`repro.linalg.golden_section` — scalar and batched Golden
  Section Search (the projection-step solver of Algorithm 1).
* :mod:`repro.linalg.richardson` — the preconditioned Richardson
  control-point update of Eq.(27)–(28).
* :mod:`repro.linalg.horner` — the batched Horner kernels every
  projection-engine solver evaluates its compiled polynomials with.
* :mod:`repro.linalg.polyroots` — companion-matrix real-root finding
  for the quintic first-order condition Eq.(20); the oracle of the
  ``"roots"`` projection.
* :mod:`repro.linalg.closedform` — the closed-form stationary roots
  the ``"roots"`` projection runs on.
* :mod:`repro.linalg.rowwise` — the data-row products every pointwise
  scorer takes, bit-stable however the rows are chunked.
* :mod:`repro.linalg.pseudoinverse` — the closed-form ``P = X (MZ)^+``
  update of Eq.(26) with conditioning diagnostics.
"""

from repro.linalg.golden_section import (
    INV_PHI,
    bracketed_minimum,
    golden_section_search,
    golden_section_search_batch,
)
from repro.linalg.horner import horner_batch, horner_pointwise
from repro.linalg.polyroots import (
    batched_minimize_on_interval,
    batched_real_roots,
    minimize_polynomial_on_interval,
    newton_polish,
    polynomial_derivative,
    polyval_ascending,
    polyval_ascending_batch,
    real_roots,
    real_roots_in_interval,
)
from repro.linalg.pseudoinverse import SolveDiagnostics, condition_number, pinv_solve
from repro.linalg.richardson import (
    RichardsonResult,
    column_norm_preconditioner,
    optimal_step_size,
    richardson_solve,
    richardson_step,
)

__all__ = [
    "INV_PHI",
    "RichardsonResult",
    "SolveDiagnostics",
    "batched_minimize_on_interval",
    "batched_real_roots",
    "bracketed_minimum",
    "column_norm_preconditioner",
    "condition_number",
    "golden_section_search",
    "golden_section_search_batch",
    "horner_batch",
    "horner_pointwise",
    "minimize_polynomial_on_interval",
    "newton_polish",
    "optimal_step_size",
    "pinv_solve",
    "polynomial_derivative",
    "polyval_ascending",
    "polyval_ascending_batch",
    "real_roots",
    "real_roots_in_interval",
    "richardson_solve",
    "richardson_step",
]
