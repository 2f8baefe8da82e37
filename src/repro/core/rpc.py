"""The Ranking Principal Curve estimator — the paper's contribution.

:class:`RankingPrincipalCurve` wraps the full pipeline of Section 4–5:

1. min–max normalisation of raw observations into ``[0, 1]^d``
   (Eq.(29)), remembered so new points and control points can be mapped
   both ways;
2. Algorithm 1 (alternating projection and preconditioned-Richardson
   control-point updates) from the deterministic corner-to-corner
   diagonal start; ``n_restarts > 1`` adds random starts before it,
   kept as the Algorithm 1 ablation;
3. scoring: the projection index ``s in [0, 1]`` of a (normalised)
   observation is its ranking score, 0 = worst reference corner,
   1 = best reference corner.

The estimator declares its meta-rule capabilities (linear + nonlinear
capacity, explicit ``4d`` parameter size) so it can be assessed by
:mod:`repro.core.meta_rules` alongside the baselines.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.exceptions import (
    ConfigurationError,
    DataValidationError,
    NotFittedError,
)
from repro.core.learning import (
    _VALID_INITS,
    _VALID_UPDATES,
    FitResult,
    LearningTrace,
    fit_rpc_curve,
)
from repro.core.order import RankingOrder
from repro.core.projection import (
    _VALID_METHODS,
    ProjectionMethod,
    project_points,
)
from repro.core.scoring import RankingList, build_ranking_list
from repro.data.normalize import MinMaxNormalizer
from repro.geometry.bezier import BezierCurve
from repro.geometry.cubic import validate_direction_vector
from repro.geometry.engine import ProjectionEngine
from repro.geometry.monotonicity import check_rpc_constraints
from repro.linalg.backend import resolve_backend


class RankingPrincipalCurve:
    """Unsupervised ranking via a constrained cubic Bezier principal curve.

    This class is the reference implementation of the
    :class:`~repro.core.model_api.ScorableModel` contract (``family``
    ``"rpc"``): the serving layers call only the protocol surface, so
    the Bézier curve flows through them exactly like every adapted
    family while keeping its engine-backed fast path.

    Parameters
    ----------
    alpha:
        Direction vector of the ranking task (Eq.(3)); ``+1`` marks a
        benefit attribute, ``-1`` a cost attribute.
    degree:
        Bezier degree ``k`` (the paper fixes 3; 2 and 4 are exposed for
        the under/overfitting ablation).
    projection:
        1-D solver for the projection step: ``"newton"`` (default),
        ``"gss"`` (the paper's Golden Section Search; a model keeps
        the solver it was saved with) or ``"roots"``.
    update:
        Control-point update: ``"richardson"`` (Eq.(27), default) or
        ``"pinv"`` (Eq.(26) ablation).
    precondition:
        Apply the diagonal preconditioner inside Richardson updates.
    xi:
        Relative objective-decrease stopping threshold of Algorithm 1.
    max_iter:
        Cap on alternations per restart.
    n_restarts:
        Number of fit starts; the start with the lowest final
        objective wins.  Starts ``0..n_restarts-2`` use ``init`` and
        the last start is always the corner-to-corner diagonal
        (``init="linear"``).  The default 1 is that diagonal start
        alone: a deterministic fit that reached the lowest objective
        on both bundled datasets.  ``n_restarts=4`` (three random
        starts, then the diagonal) is the Algorithm 1 ablation.
    init:
        Initialisation of every start but the last: ``"random"``
        (data samples, Step 2 of Algorithm 1) or ``"linear"``.
        Unused when ``n_restarts=1``.
    random_state:
        Seed or generator for the random starts; start ``r`` uses a
        child generator of it, so runs are reproducible.  With
        ``n_restarts=1`` it does not affect the fit.
    warm_start:
        Reuse each iteration's projection scores as brackets for the
        next projection step, skipping the full per-iteration grid
        scan (see :func:`repro.core.projection.project_points`).  On
        by default (~2x faster projections once the curve settles);
        pass ``False`` for the paper-literal cold grid scan — final
        objectives agree to ~1e-10 either way.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RankingPrincipalCurve
    >>> rng = np.random.default_rng(7)
    >>> s = rng.uniform(size=200)
    >>> X = np.column_stack([s, np.sqrt(s)]) + rng.normal(0, 0.01, (200, 2))
    >>> model = RankingPrincipalCurve(alpha=[1, 1], random_state=0).fit(X)
    >>> scores = model.score_samples(X)
    >>> bool(np.all((scores >= 0) & (scores <= 1)))
    True
    """

    #: ScorableModel identity: the family name persistence writes and
    #: the daemon reports, and the version of the payload schema below.
    family = "rpc"
    format_version = 1
    #: A row's score depends only on that row — chunking and
    #: micro-batch coalescing are exact.
    pointwise_scores = True

    def __init__(
        self,
        alpha: Sequence[float],
        degree: int = 3,
        projection: ProjectionMethod = "newton",
        update: Literal["richardson", "pinv"] = "richardson",
        precondition: bool = True,
        xi: float = 1e-6,
        max_iter: int = 300,
        inner_updates: int = 32,
        n_grid: int = 32,
        n_restarts: int = 1,
        init: Literal["random", "linear"] = "random",
        random_state: Optional[int | np.random.Generator] = None,
        enforce_constraints: bool = True,
        warm_start: bool = True,
    ):
        self.alpha = validate_direction_vector(np.asarray(alpha, dtype=float))
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        self.degree = int(degree)
        # Checked here rather than at first use, so a bad value in a
        # saved model fails at load instead of on every later score.
        for name, value, valid in (
            ("projection", projection, _VALID_METHODS),
            ("update", update, _VALID_UPDATES),
            ("init", init, _VALID_INITS),
        ):
            if value not in valid:
                raise ConfigurationError(
                    f"unknown {name} {value!r}; valid: {valid}"
                )
        self.projection = projection
        self.update = update
        self.precondition = bool(precondition)
        self.xi = float(xi)
        self.max_iter = int(max_iter)
        self.inner_updates = int(inner_updates)
        self.n_grid = int(n_grid)
        if n_restarts < 1:
            raise ConfigurationError(f"n_restarts must be >= 1, got {n_restarts}")
        self.n_restarts = int(n_restarts)
        self.init = init
        self.random_state = random_state
        self.enforce_constraints = bool(enforce_constraints)
        self.warm_start = bool(warm_start)

        #: Optional attribute names (set by persistence/CLI round-trips).
        self.feature_names_: Optional[list[str]] = None
        self._normalizer: Optional[MinMaxNormalizer] = None
        self._fit_result: Optional[FitResult] = None
        #: Lazily built ProjectionEngine for the fitted curve, shared by
        #: every scoring call (and every scoring thread — it is
        #: immutable) so chunked serving pays the curve setup once.
        self._engine_cache: Optional[ProjectionEngine] = None

    # ------------------------------------------------------------------
    # Meta-rule capability declarations (rules 3 and 5)
    # ------------------------------------------------------------------
    @property
    def has_linear_capacity(self) -> bool:
        """A cubic with interior points on the diagonal is exactly linear."""
        return True

    @property
    def has_nonlinear_capacity(self) -> bool:
        """Interior control-point placement yields the Fig. 4 shapes."""
        return self.degree >= 2

    @property
    def parameter_size(self) -> Optional[int]:
        """``d x (k + 1)`` control-point coordinates (``4d`` for cubics)."""
        return int(self.alpha.size) * (self.degree + 1)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "RankingPrincipalCurve":
        """Learn the RPC from raw (unnormalised) observations.

        Parameters
        ----------
        X:
            Data matrix of shape ``(n, d)`` in original attribute units.
        sample_weight:
            Optional strictly positive per-object weights; the fit
            minimises ``sum_i w_i ‖x_i − f(s_i)‖²``.  Use to emphasise
            trusted observations or de-weight suspected outliers.

        Returns
        -------
        ``self`` (fitted).
        """
        X = self._validate(X)
        self._normalizer = MinMaxNormalizer().fit(X)
        X_unit = self._normalizer.transform(X)

        rng = np.random.default_rng(self.random_state)
        best: Optional[FitResult] = None
        for restart in range(self.n_restarts):
            child = np.random.default_rng(rng.integers(0, 2**63 - 1))
            init = self.init if restart < self.n_restarts - 1 else "linear"
            result = fit_rpc_curve(
                X_unit,
                self.alpha,
                degree=self.degree,
                projection=self.projection,
                update=self.update,
                precondition=self.precondition,
                xi=self.xi,
                max_iter=self.max_iter,
                inner_updates=self.inner_updates,
                n_grid=self.n_grid,
                init=init,
                rng=child,
                enforce_constraints=self.enforce_constraints,
                sample_weight=sample_weight,
                warm_start=self.warm_start,
            )
            if best is None or result.trace.final_objective < best.trace.final_objective:
                best = result
        assert best is not None
        self._fit_result = best
        return self

    def fit_rank(
        self,
        X: np.ndarray,
        labels: Optional[Sequence[str]] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> RankingList:
        """Fit on ``X`` and return the training ranking list in one call."""
        self.fit(X, sample_weight=sample_weight)
        assert self._fit_result is not None
        return build_ranking_list(self._fit_result.scores, labels=labels)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def score_samples(self, X: np.ndarray, backend=None) -> np.ndarray:
        """Ranking scores in ``[0, 1]`` for raw observations.

        New points are normalised with the *training* min/max (so the
        reference corners stay fixed) and projected onto the learned
        curve; the projection index is the score.

        ``backend`` is checked by
        :func:`~repro.linalg.backend.resolve_backend` and otherwise
        ignored: ``"roots"`` has one stationary-root solver.
        """
        resolve_backend(backend)
        result = self._require_fit()
        X = self._validate(X)
        assert self._normalizer is not None
        X_unit = self._normalizer.transform(X)
        return project_points(
            result.curve,
            X_unit,
            method=self.projection,
            n_grid=self.n_grid,
            engine=self._projection_engine(result.curve),
        )

    def rank(
        self, X: np.ndarray, labels: Optional[Sequence[str]] = None
    ) -> RankingList:
        """Rank raw observations best-first."""
        return build_ranking_list(self.score_samples(X), labels=labels)

    def reconstruct(self, s: np.ndarray) -> np.ndarray:
        """Evaluate the inverse map ``f(s)`` in *original* units.

        Implements the generative reading of Eq.(11): given latent
        scores, produce the noise-free attribute vectors the curve
        associates with them.  Returns shape ``(n, d)``.
        """
        result = self._require_fit()
        assert self._normalizer is not None
        pts_unit = result.curve.evaluate(np.asarray(s, dtype=float)).T
        return self._normalizer.inverse_transform(pts_unit)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether the estimator carries a fitted curve (fit or load)."""
        return self._fit_result is not None

    @property
    def n_attributes(self) -> int:
        """Input width the model scores (``alpha``'s dimension)."""
        return int(self.alpha.size)

    @property
    def curve_(self) -> BezierCurve:
        """The learned curve in normalised ``[0, 1]^d`` coordinates."""
        return self._require_fit().curve

    @property
    def control_points_(self) -> np.ndarray:
        """Control points in normalised coordinates, shape ``(d, k + 1)``."""
        return self._require_fit().curve.control_points

    @property
    def control_points_original_(self) -> np.ndarray:
        """Control points mapped back to original units (Table 2 bottom).

        Scale/translation acts directly on control points (Eq.(16)), so
        de-normalising them yields the curve in data units.
        """
        result = self._require_fit()
        assert self._normalizer is not None
        return self._normalizer.inverse_transform(
            result.curve.control_points.T
        ).T

    @property
    def training_scores_(self) -> np.ndarray:
        """Projection scores of the training rows."""
        return self._require_fit().scores.copy()

    @property
    def trace_(self) -> LearningTrace:
        """Optimisation trace of the winning restart."""
        return self._require_fit().trace

    @property
    def order_(self) -> RankingOrder:
        """The task's order relation, built from ``alpha``."""
        return RankingOrder(alpha=self.alpha)

    def explained_variance(self, X: np.ndarray) -> float:
        """Fraction of total variance explained by the curve fit.

        The paper reports RPC at ~90% vs Elmap's 86% on the country
        data.  Defined as ``1 − SS_residual / SS_total`` in normalised
        coordinates, with ``SS_total`` the variance around the data
        mean.
        """
        result = self._require_fit()
        X = self._validate(X)
        assert self._normalizer is not None
        X_unit = self._normalizer.transform(X)
        s = project_points(
            result.curve,
            X_unit,
            method=self.projection,
            n_grid=self.n_grid,
            engine=self._projection_engine(result.curve),
        )
        residual = result.curve.projection_residuals(X_unit, s)
        ss_res = float(np.sum(residual**2))
        ss_tot = float(np.sum((X_unit - X_unit.mean(axis=0)) ** 2))
        if ss_tot <= 0.0:
            return 1.0
        return 1.0 - ss_res / ss_tot

    def check_constraints(self) -> None:
        """Assert the fitted curve satisfies the Proposition 1 constraints."""
        result = self._require_fit()
        check_rpc_constraints(result.curve.control_points, self.alpha)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable snapshot: hyperparameters + fitted state.

        Floats survive a JSON round-trip exactly (``repr`` is
        shortest-round-trip), so ``from_dict(to_dict())`` scores inputs
        bit-identically to the live model.  A ``random_state`` holding a
        live :class:`numpy.random.Generator` is dropped (recorded as
        ``None``) — refitting a reloaded model then needs a fresh seed.
        """
        payload: dict = {
            "type": "RankingPrincipalCurve",
            "format_version": 1,
            "hyperparameters": {
                "alpha": self.alpha.tolist(),
                "degree": self.degree,
                "projection": self.projection,
                "update": self.update,
                "precondition": self.precondition,
                "xi": self.xi,
                "max_iter": self.max_iter,
                "inner_updates": self.inner_updates,
                "n_grid": self.n_grid,
                "n_restarts": self.n_restarts,
                "init": self.init,
                "random_state": (
                    int(self.random_state)
                    if isinstance(self.random_state, (int, np.integer))
                    else None
                ),
                "enforce_constraints": self.enforce_constraints,
                "warm_start": self.warm_start,
            },
            "feature_names": self.feature_names_,
            "fitted": None,
        }
        if self._fit_result is not None:
            assert self._normalizer is not None
            trace = self._fit_result.trace
            payload["fitted"] = {
                "curve": self._fit_result.curve.to_dict(),
                "normalizer": self._normalizer.to_dict(),
                "training_scores": self._fit_result.scores.tolist(),
                "trace": {
                    "objectives": [float(v) for v in trace.objectives],
                    "step_sizes": [float(v) for v in trace.step_sizes],
                    "n_iterations": int(trace.n_iterations),
                    "converged": bool(trace.converged),
                    "stopped_on_increase": bool(trace.stopped_on_increase),
                },
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RankingPrincipalCurve":
        """Rebuild an estimator (fitted or not) from :meth:`to_dict`."""
        if payload.get("type") != "RankingPrincipalCurve":
            raise ConfigurationError(
                "payload is not a RankingPrincipalCurve dict: "
                f"type={payload.get('type')!r}"
            )
        version = payload.get("format_version")
        if version != 1:
            raise ConfigurationError(
                f"unsupported model format version {version!r}; this "
                "build reads format_version 1"
            )
        hp = payload["hyperparameters"]
        model = cls(
            alpha=hp["alpha"],
            degree=hp["degree"],
            projection=hp["projection"],
            update=hp["update"],
            precondition=hp["precondition"],
            xi=hp["xi"],
            max_iter=hp["max_iter"],
            inner_updates=hp["inner_updates"],
            n_grid=hp["n_grid"],
            n_restarts=hp["n_restarts"],
            init=hp["init"],
            random_state=hp["random_state"],
            enforce_constraints=hp["enforce_constraints"],
            warm_start=hp.get("warm_start", False),
        )
        names = payload.get("feature_names")
        model.feature_names_ = list(names) if names is not None else None
        fitted = payload.get("fitted")
        if fitted is not None:
            trace_d = fitted["trace"]
            trace = LearningTrace(
                objectives=list(trace_d["objectives"]),
                step_sizes=list(trace_d["step_sizes"]),
                n_iterations=int(trace_d["n_iterations"]),
                converged=bool(trace_d["converged"]),
                stopped_on_increase=bool(trace_d["stopped_on_increase"]),
            )
            model._fit_result = FitResult(
                curve=BezierCurve.from_dict(fitted["curve"]),
                scores=np.asarray(fitted["training_scores"], dtype=float),
                trace=trace,
            )
            model._normalizer = MinMaxNormalizer.from_dict(
                fitted["normalizer"]
            )
        return model

    def to_payload(self) -> dict:
        """ScorableModel persistence hook: :meth:`to_dict` plus the
        ``family`` key the family-dispatching loader switches on.

        The legacy ``"type"`` key is kept so payloads written by this
        build still load on pre-family readers.
        """
        return {"family": self.family, **self.to_dict()}

    @classmethod
    def from_payload(cls, payload: dict) -> "RankingPrincipalCurve":
        """Inverse of :meth:`to_payload`; also reads legacy
        :meth:`to_dict` payloads (no ``family`` key)."""
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_fit(self) -> FitResult:
        if self._fit_result is None:
            raise NotFittedError("RankingPrincipalCurve")
        return self._fit_result

    def _projection_engine(self, curve: BezierCurve) -> ProjectionEngine:
        """The cached per-curve projection engine (rebuilt on refit).

        Validity is keyed on curve identity, so a refit (or reload)
        that installs a new :class:`FitResult` invalidates the cache
        automatically.  Benign under concurrency: the engine is
        immutable, so the worst case is two threads building equivalent
        engines and one winning the (atomic) attribute store.
        """
        engine = self._engine_cache
        if engine is None or engine.curve is not curve:
            engine = ProjectionEngine(curve)
            self._engine_cache = engine
        return engine

    def _validate(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise DataValidationError(
                f"X must be 2-D (objects x attributes), got ndim={X.ndim}"
            )
        if X.shape[1] != self.alpha.size:
            raise DataValidationError(
                f"X has {X.shape[1]} attributes but alpha has "
                f"{self.alpha.size} entries"
            )
        if not np.all(np.isfinite(X)):
            raise DataValidationError("X contains NaN or inf entries")
        return X

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = self._fit_result is not None
        return (
            f"RankingPrincipalCurve(d={self.alpha.size}, degree={self.degree}, "
            f"projection={self.projection!r}, update={self.update!r}, "
            f"fitted={fitted})"
        )
