"""JCR2012-style journal dataset (Section 6.2.2, Table 3, Fig. 8).

The paper ranks 393 computer-science journals (451 minus 58 with
missing data) on five JCR2012 citation indicators:

* IF — two-year Impact Factor, benefit;
* 5IF — five-year Impact Factor, benefit;
* ImmInd — Immediacy Index, benefit;
* Eigenfactor — network-based Eigenfactor Score, benefit;
* IS — Article Influence Score, benefit;

with ``alpha = (1, 1, 1, 1, 1)``.

**Substitution note:** only 10 of the 393 rows are the paper's; the
other 383 are synthesized.  JCR2012 is proprietary Thomson Reuters
data.  The ten journal rows printed in Table 3 are embedded
verbatim; the rest are synthesised from a latent-quality model with
heavy-tailed IF marginals, a near-linear IF↔5IF link, and an
Eigenfactor column only weakly coupled to the others — matching the
paper's observation that "5-year IF shows almost a linear relationship
with the others [while] Eigenfactor presents no clear relationship".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError

#: Direction vector of the journal task: all five indicators are benefits.
JOURNAL_ALPHA = np.asarray([1.0, 1.0, 1.0, 1.0, 1.0])

#: Attribute names in column order.
JOURNAL_ATTRIBUTES = ("IF", "5IF", "ImmInd", "Eigenfactor", "IS")

#: The rows printed in Table 3, verbatim:
#: name -> (IF, 5IF, ImmInd, Eigenfactor, InfluenceScore).
TABLE3_ROWS: dict[str, tuple[float, float, float, float, float]] = {
    "IEEE T PATTERN ANAL": (4.795, 6.144, 0.625, 0.05237, 3.235),
    "ENTERP INF SYST UK": (9.256, 4.771, 2.682, 0.00173, 0.907),
    "J STAT SOFTW": (4.910, 5.907, 0.753, 0.01744, 3.314),
    "MIS QUART": (4.659, 7.474, 0.705, 0.01036, 3.077),
    "ACM COMPUT SURV": (3.543, 7.854, 0.421, 0.00640, 4.097),
    "DECIS SUPPORT SYST": (2.201, 3.037, 0.196, 0.00994, 0.864),
    "COMPUT STAT DATA AN": (1.304, 1.449, 0.415, 0.02601, 0.918),
    "IEEE T KNOWL DATA EN": (1.892, 2.426, 0.217, 0.01256, 1.129),
    "MACH LEARN": (1.467, 2.143, 0.373, 0.00638, 1.528),
    "IEEE T SYST MAN CY A": (2.183, 2.440, 0.465, 0.00728, 0.767),
}

#: RPC scores and 1-based orders the paper reports for the Table 3 rows.
PAPER_TABLE3_RPC: dict[str, tuple[float, int]] = {
    "IEEE T PATTERN ANAL": (1.0000, 1),
    "ENTERP INF SYST UK": (0.9505, 2),
    "J STAT SOFTW": (0.9162, 3),
    "MIS QUART": (0.9105, 4),
    "ACM COMPUT SURV": (0.9092, 5),
    "DECIS SUPPORT SYST": (0.4701, 65),
    "COMPUT STAT DATA AN": (0.4665, 66),
    "IEEE T KNOWL DATA EN": (0.4616, 67),
    "MACH LEARN": (0.4490, 68),
    "IEEE T SYST MAN CY A": (0.4466, 69),
}


@dataclass
class JournalDataset:
    """The journal citation table.

    Attributes
    ----------
    labels:
        Journal names (Table 3 rows keep real names; synthesised rows
        are ``Journal-###``).
    X:
        Observations of shape ``(n, 5)`` on
        (IF, 5IF, ImmInd, Eigenfactor, IS).
    alpha:
        Direction vector (all ones).
    is_from_paper:
        Mask over the verbatim Table 3 rows.
    """

    labels: list[str]
    X: np.ndarray
    alpha: np.ndarray
    is_from_paper: np.ndarray

    @property
    def n_journals(self) -> int:
        """Number of rows."""
        return self.X.shape[0]


def _synthesize_journal(q: float, rng: np.random.Generator) -> np.ndarray:
    """One synthetic journal at latent quality ``q in [0, 1]``.

    IF grows super-linearly in the latent (most journals cluster at low
    IF, a few reach 5–10); 5IF tracks IF nearly linearly; the Immediacy
    Index is a noisy fraction of IF; the Eigenfactor mixes a little
    quality signal with a large size-driven log-normal component; the
    Influence Score tracks 5IF with moderate noise.
    """
    base_if = 0.25 + 9.0 * q**2.2
    impact = base_if * np.exp(rng.normal(0.0, 0.20))
    five_if = impact * rng.uniform(1.0, 1.35) + rng.normal(0.0, 0.08)
    imm = max(impact * rng.uniform(0.10, 0.30) + rng.normal(0.0, 0.03), 0.0)
    eigen = 0.004 * np.exp(rng.normal(0.0, 1.1)) * (0.3 + q)
    influence = max(0.55 * five_if * np.exp(rng.normal(0.0, 0.25)), 0.02)
    return np.array([impact, max(five_if, 0.05), imm, eigen, influence])


def load_journals(
    n_journals: int = 393,
    seed: int = 20120101,
) -> JournalDataset:
    """Build the 393-journal table: Table 3 rows + calibrated synthesis.

    Parameters
    ----------
    n_journals:
        Total rows including the 10 embedded ones (>= 10).
    seed:
        Synthesis seed; the default reproduces the benchmark tables.
    """
    n_real = len(TABLE3_ROWS)
    if n_journals < n_real:
        raise ConfigurationError(
            f"n_journals must be >= {n_real} (the embedded Table 3 rows), "
            f"got {n_journals}"
        )
    rng = np.random.default_rng(seed)
    labels = list(TABLE3_ROWS.keys())
    rows = [np.asarray(v, dtype=float) for v in TABLE3_ROWS.values()]
    n_synth = n_journals - n_real
    # Latent quality is right-skewed: many average journals, few stars.
    latents = rng.beta(1.2, 2.8, size=n_synth)
    for i, q in enumerate(latents):
        labels.append(f"Journal-{i + 1:03d}")
        rows.append(_synthesize_journal(float(q), rng))
    X = np.vstack(rows)
    X = np.maximum(X, 1e-5)
    mask = np.zeros(n_journals, dtype=bool)
    mask[:n_real] = True
    return JournalDataset(
        labels=labels,
        X=X,
        alpha=JOURNAL_ALPHA.copy(),
        is_from_paper=mask,
    )
