"""Datasets and preprocessing for the reproduction experiments.

* :mod:`repro.data.normalize` — Eq.(29) min–max normalisation.
* :mod:`repro.data.toy` — the Table 1 / Fig. 6 three-object set and
  the Example 1/2 illustration points.
* :mod:`repro.data.synthetic` — crescents, ellipses, S-curves and
  generic "noisy samples around a known monotone curve" clouds.
* :mod:`repro.data.countries` — the 171-country life-quality table.
  Only 15 of the 171 rows are the paper's (Table 2); the other 156
  are synthesized.
* :mod:`repro.data.journals` — the 393-journal JCR2012-style table.
  Only 10 of the 393 rows are the paper's (Table 3); the other 383
  are synthesized.
"""

from repro.data.countries import (
    COUNTRY_ALPHA,
    COUNTRY_ATTRIBUTES,
    PAPER_EXPLAINED_VARIANCE,
    PAPER_TABLE2_ELMAP,
    PAPER_TABLE2_RPC,
    TABLE2_ROWS,
    CountryDataset,
    load_countries,
)
from repro.data.journals import (
    JOURNAL_ALPHA,
    JOURNAL_ATTRIBUTES,
    PAPER_TABLE3_RPC,
    TABLE3_ROWS,
    JournalDataset,
    load_journals,
)
from repro.data.loaders import (
    TabularData,
    load_csv,
    parse_alpha_spec,
    save_csv,
    save_ranking_csv,
)
from repro.data.missing import (
    CurveImputer,
    ImputationResult,
    drop_missing_rows,
    masked_projection,
    median_impute,
    missing_mask,
    missing_summary,
)
from repro.data.normalize import MinMaxNormalizer, normalize_unit_cube
from repro.data.synthetic import (
    LabelledCloud,
    sample_around_curve,
    sample_crescent,
    sample_ellipse,
    sample_linked_graph,
    sample_monotone_cloud,
    sample_s_curve,
)
from repro.data.toy import (
    PAPER_TABLE1_RANKAGG,
    PAPER_TABLE1A_RPC_SCORES,
    PAPER_TABLE1B_RPC_SCORES,
    ToyDataset,
    example1_points,
    example2_countries,
    table1a_objects,
    table1b_objects,
)

__all__ = [
    "COUNTRY_ALPHA",
    "COUNTRY_ATTRIBUTES",
    "JOURNAL_ALPHA",
    "JOURNAL_ATTRIBUTES",
    "PAPER_EXPLAINED_VARIANCE",
    "PAPER_TABLE1A_RPC_SCORES",
    "PAPER_TABLE1B_RPC_SCORES",
    "PAPER_TABLE1_RANKAGG",
    "PAPER_TABLE2_ELMAP",
    "PAPER_TABLE2_RPC",
    "PAPER_TABLE3_RPC",
    "TABLE2_ROWS",
    "TABLE3_ROWS",
    "CountryDataset",
    "CurveImputer",
    "ImputationResult",
    "JournalDataset",
    "LabelledCloud",
    "MinMaxNormalizer",
    "TabularData",
    "ToyDataset",
    "drop_missing_rows",
    "example1_points",
    "example2_countries",
    "load_countries",
    "load_csv",
    "load_journals",
    "masked_projection",
    "median_impute",
    "missing_mask",
    "missing_summary",
    "normalize_unit_cube",
    "parse_alpha_spec",
    "sample_around_curve",
    "sample_crescent",
    "sample_ellipse",
    "sample_linked_graph",
    "sample_monotone_cloud",
    "sample_s_curve",
    "save_csv",
    "save_ranking_csv",
    "table1a_objects",
    "table1b_objects",
]
