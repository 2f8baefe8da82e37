"""Country life-quality dataset (Section 6.2.1, Table 2, Fig. 7).

The paper ranks 171 countries on four GAPMINDER indicators:

* GDP — Gross Domestic Product per capita (PPP, $/person), benefit;
* LEB — Life Expectancy at Birth (years), benefit;
* IMR — Infant Mortality Rate (per 1000 born), cost;
* TB  — new infectious Tuberculosis cases (per 100 000), cost;

with direction vector ``alpha = (+1, +1, -1, -1)``.

**Substitution note:** only 15 of the 171 rows are the paper's; the
other 156 are synthesized.  The exact 2014 GAPMINDER snapshot is not
redistributable offline.  The fifteen country rows printed in Table 2
are embedded verbatim; the remaining countries are synthesised from a
latent-development generative model calibrated to those rows
(exponential GDP growth in the latent, saturating LEB, exponentially
decaying IMR and TB, log-normal noise).  The synthetic cloud preserves
what the experiment needs: a crescent-shaped, strictly orderable
4-attribute distribution on which a curved skeleton explains more
variance than a straight one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError

#: Direction vector of the life-quality task (Example 2).
COUNTRY_ALPHA = np.asarray([1.0, 1.0, -1.0, -1.0])

#: Attribute names in column order.
COUNTRY_ATTRIBUTES = ("GDP", "LEB", "IMR", "Tuberculosis")

#: The rows printed in Table 2, verbatim: name -> (GDP, LEB, IMR, TB).
TABLE2_ROWS: dict[str, tuple[float, float, float, float]] = {
    "Luxembourg": (70014.0, 79.56, 6.0, 4.0),
    "Norway": (47551.0, 80.29, 3.0, 3.0),
    "Kuwait": (44947.0, 77.258, 11.0, 10.0),
    "Singapore": (41479.0, 79.627, 12.0, 2.0),
    "United States": (41674.0, 77.93, 2.0, 7.0),
    "Moldova": (2362.0, 67.923, 63.0, 17.0),
    "Vanuatu": (3477.0, 69.257, 37.0, 31.0),
    "Suriname": (7234.0, 68.425, 53.0, 30.0),
    "Morocco": (3547.0, 70.443, 44.0, 36.0),
    "Iraq": (3200.0, 68.495, 25.0, 37.0),
    "South Africa": (8477.0, 51.803, 349.0, 55.0),
    "Sierra Leone": (790.0, 46.365, 219.0, 160.0),
    "Djibouti": (1964.0, 54.456, 330.0, 88.0),
    "Zimbabwe": (538.0, 41.681, 311.0, 68.0),
    "Swaziland": (4384.0, 44.99, 422.0, 110.0),
}

#: RPC scores and 1-based orders the paper reports for the Table 2 rows.
PAPER_TABLE2_RPC: dict[str, tuple[float, int]] = {
    "Luxembourg": (1.0000, 1),
    "Norway": (0.8720, 2),
    "Kuwait": (0.8483, 3),
    "Singapore": (0.8305, 4),
    "United States": (0.8275, 5),
    "Moldova": (0.5139, 96),
    "Vanuatu": (0.5135, 97),
    "Suriname": (0.5133, 98),
    "Morocco": (0.5106, 99),
    "Iraq": (0.5032, 100),
    "South Africa": (0.0786, 167),
    "Sierra Leone": (0.0541, 168),
    "Djibouti": (0.0524, 169),
    "Zimbabwe": (0.0462, 170),
    "Swaziland": (0.0, 171),
}

#: Elmap scores and orders reported for the same rows (Gorban et al.).
PAPER_TABLE2_ELMAP: dict[str, tuple[float, int]] = {
    "Luxembourg": (0.892, 1),
    "Norway": (0.647, 2),
    "Kuwait": (0.608, 3),
    "Singapore": (0.578, 4),
    "United States": (0.575, 5),
    "Moldova": (0.002, 97),
    "Vanuatu": (0.011, 96),
    "Suriname": (0.011, 95),
    "Morocco": (0.002, 98),
    "Iraq": (-0.002, 100),
    "South Africa": (-0.652, 167),
    "Sierra Leone": (-0.664, 169),
    "Djibouti": (-0.655, 168),
    "Zimbabwe": (-0.680, 170),
    "Swaziland": (-0.876, 171),
}

#: Explained variance the paper reports on this task (RPC vs Elmap).
PAPER_EXPLAINED_VARIANCE = {"rpc": 0.90, "elmap": 0.86}


@dataclass
class CountryDataset:
    """The country life-quality table.

    Attributes
    ----------
    labels:
        Country names (embedded Table 2 rows keep their real names;
        synthesised rows are named ``Country-###``).
    X:
        Observations of shape ``(n, 4)`` on
        (GDP, LEB, IMR, Tuberculosis).
    alpha:
        Direction vector ``(+1, +1, -1, -1)``.
    is_from_paper:
        Boolean mask marking the verbatim Table 2 rows.
    """

    labels: list[str]
    X: np.ndarray
    alpha: np.ndarray
    is_from_paper: np.ndarray

    @property
    def n_countries(self) -> int:
        """Number of rows."""
        return self.X.shape[0]


def _synthesize_country(q: float, rng: np.random.Generator) -> np.ndarray:
    """One synthetic country at latent development level ``q in [0, 1]``.

    Calibration targets (from the verbatim rows): GDP spans roughly
    $500–$70 000 exponentially; LEB saturates from ~42 to ~80 years;
    IMR decays from ~400 to ~3 per 1000; TB decays from ~160 to ~3 per
    100 000.  Multiplicative log-normal noise keeps all attributes
    positive and gives the cloud realistic scatter.
    """
    gdp = 500.0 * np.exp(4.95 * q) * np.exp(rng.normal(0.0, 0.25))
    leb = 41.0 + 39.5 * (1.0 - np.exp(-2.1 * q)) / (1.0 - np.exp(-2.1))
    leb += rng.normal(0.0, 1.5)
    imr = (2.5 + 420.0 * np.exp(-5.5 * q)) * np.exp(rng.normal(0.0, 0.3))
    tb = (3.0 + 160.0 * np.exp(-4.2 * q)) * np.exp(rng.normal(0.0, 0.35))
    return np.array([gdp, leb, imr, tb])


def load_countries(
    n_countries: int = 171,
    seed: int = 20140219,
) -> CountryDataset:
    """Build the 171-country table: Table 2 rows + calibrated synthesis.

    Parameters
    ----------
    n_countries:
        Total rows including the 15 embedded ones (>= 15).
    seed:
        Seed of the synthesis; the default reproduces the benchmark
        tables exactly.
    """
    n_real = len(TABLE2_ROWS)
    if n_countries < n_real:
        raise ConfigurationError(
            f"n_countries must be >= {n_real} (the embedded Table 2 rows), "
            f"got {n_countries}"
        )
    rng = np.random.default_rng(seed)
    labels = list(TABLE2_ROWS.keys())
    rows = [np.asarray(v, dtype=float) for v in TABLE2_ROWS.values()]
    n_synth = n_countries - n_real
    # Latent development levels spread over the full range, mildly
    # concentrated in the middle like the real distribution.
    latents = rng.beta(1.3, 1.3, size=n_synth)
    for i, q in enumerate(latents):
        labels.append(f"Country-{i + 1:03d}")
        rows.append(_synthesize_country(float(q), rng))
    X = np.vstack(rows)
    # Clamp the physically bounded attributes into sane ranges.
    X[:, 1] = np.clip(X[:, 1], 35.0, 85.0)
    X[:, 2] = np.clip(X[:, 2], 2.0, 450.0)
    X[:, 3] = np.clip(X[:, 3], 2.0, 300.0)
    mask = np.zeros(n_countries, dtype=bool)
    mask[:n_real] = True
    return CountryDataset(
        labels=labels,
        X=X,
        alpha=COUNTRY_ALPHA.copy(),
        is_from_paper=mask,
    )
