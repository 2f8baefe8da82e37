"""Matrix products whose per-row bits do not depend on the row count.

Scoring must give every object the same bits however its rows are
chunked or micro-batched.  A BLAS ``X @ B`` does not: it picks
different kernels (gemv vs gemm, different blocking) for different row
counts, so ``(X @ B)[i]`` can differ in the last ulp between a 1-row
and an n-row call.  The projection engine and the PCA and
weighted-sum baselines take their products over data rows through
:func:`row_invariant_product` instead.
"""

from __future__ import annotations

import numpy as np


def row_invariant_product(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``X @ B`` for 2-D ``X`` and 1-D or 2-D ``B``, bit-stable per row.

    Unoptimized ``einsum`` reduces each output element over the
    contracted axis in a fixed order, independent of ``X``'s row
    count.  The contracted dimension of the scoring paths is small
    (``d``, ``k + 1`` or a training-set size), so the BLAS advantage is
    noise next to the work the product feeds.
    """
    return np.einsum("ij,j...->i...", X, B)
