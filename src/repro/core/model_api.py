"""The ``ScorableModel`` protocol — one serving contract for every family.

The serving stack (persistence, registry, micro-batcher, daemon, CLI)
was originally hard-wired to :class:`repro.core.rpc.RankingPrincipalCurve`.
This module defines the small structural contract that *any* model
family must satisfy to flow through those layers instead:

``family`` / ``format_version``
    Class-level identity.  ``family`` is the short kebab-case name the
    persistence layer writes into payloads and manifests and the daemon
    reports in ``GET /v1/models``; ``format_version`` versions the
    family's payload schema so old files fail loudly, not wrongly.

``fit(X)`` / ``score_samples(X)`` / ``score_batch(X, ...)``
    The scoring surface.  ``score_samples`` is the exact per-row scorer
    (rank-compatible: higher score = better object, the convention
    every ranking list in this repo is built on); ``score_batch`` is
    the bounded-memory serving entry point with the ``chunk_size``
    signature the daemon calls.

``to_payload()`` / ``from_payload(payload)``
    Exact persistence.  ``to_payload`` returns a JSON-serialisable dict
    carrying ``family`` and ``format_version``;
    ``from_payload(to_payload())`` rebuilds a model that scores any
    input bit-identically.  Array-valued payload fields are declared in
    the family's registry entry (:mod:`repro.families`) so the ``.npz``
    and manifest layouts can store them in binary.

``pointwise_scores``
    Scoring-semantics flag.  ``True`` (the default for every curve and
    pointwise ranker) promises that a row's score depends only on that
    row, which is what makes chunked scoring and micro-batch coalescing
    exact.  Rank-aggregation families score *relative to the batch*
    (a row's score is its position among the rows it arrived with), so
    they set it ``False`` and the serving layers neither chunk nor
    coalesce them.
"""

from __future__ import annotations

from typing import (
    Any,
    ClassVar,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np


@runtime_checkable
class ScorableModel(Protocol):
    """Structural contract every servable model family satisfies.

    ``isinstance(model, ScorableModel)`` checks method presence only
    (a :func:`typing.runtime_checkable` limitation); the family test
    matrix in ``tests/test_families.py`` checks the behaviour.
    """

    #: Short kebab-case family name, e.g. ``"rpc"`` or ``"elastic-map"``.
    family: ClassVar[str]
    #: Version of this family's payload schema.
    format_version: ClassVar[int]
    #: Whether a row's score depends only on that row (see module docs).
    pointwise_scores: ClassVar[bool]

    feature_names_: Optional[List[str]]

    def fit(self, X: np.ndarray) -> "ScorableModel": ...

    def score_samples(self, X: np.ndarray) -> np.ndarray: ...

    def score_batch(
        self,
        X: np.ndarray,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray: ...

    @property
    def is_fitted(self) -> bool: ...

    @property
    def n_attributes(self) -> Optional[int]: ...

    def to_payload(self) -> dict: ...

    @classmethod
    def from_payload(cls, payload: dict) -> "ScorableModel": ...


def describe_model(model: Any) -> dict:
    """Family-agnostic summary of a loaded model.

    The registry merges this into its ``GET /v1/models`` entries; only
    keys every family can answer are always present — family-specific
    extras (the Bézier ``degree``) are included when the model exposes
    them.
    """
    out = {
        "family": getattr(model, "family", type(model).__name__),
        "fitted": bool(model.is_fitted),
        "n_attributes": model.n_attributes,
        "feature_names": getattr(model, "feature_names_", None),
    }
    degree = getattr(model, "degree", None)
    if degree is not None:
        out["degree"] = int(degree)
    return out
