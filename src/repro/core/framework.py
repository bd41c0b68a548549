"""The F2PM orchestrator: monitoring data in, compared models out.

Chains the workflow of the paper's Fig. 1:

1. aggregate the :class:`~repro.core.history.DataHistory` (Sec. III-B);
2. run Lasso-regularization feature selection over the lambda grid
   (Sec. III-C — optional, but always computed so the user can compare);
3. split train/validation;
4. train every configured model on the *all-parameters* training set and
   on the *selected-parameters* training set;
5. validate each model: MAE, RAE, Max-AE, S-MAE, training/validation time.

The result object renders the paper's Tables II-IV and carries the
validation predictions behind Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregation import AggregationConfig, aggregate_history
from repro.core.dataset import TrainingSet
from repro.core.evaluation import ModelReport, evaluate_model, resolve_smae_threshold
from repro.core.feature_selection import DesignAudit, LassoFeatureSelector, SelectionResult
from repro.core.history import DataHistory
from repro.core.model_zoo import make_model
from repro.ml.base import Regressor
from repro.obs import get_logger, get_metrics, kv, span
from repro.obs.trace import Span
from repro.utils.rng import as_rng
from repro.utils.tables import render_table

_log = get_logger("core.framework")


@dataclass(frozen=True)
class F2PMConfig:
    """Configuration of an end-to-end F2PM execution."""

    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    #: Data-quality policy applied to the history before aggregation:
    #: ``None`` (default) trusts the input, ``"strict"`` raises a located
    #: :class:`~repro.core.sanitize.DataQualityError` on any defect (and
    #: is bit-identical to ``None`` on clean data), ``"repair"`` fixes
    #: what it can, ``"quarantine"`` drops offending rows/runs. Defaulted
    #: so existing artifact-store fingerprints are unchanged.
    sanitize: "str | None" = None
    #: Lambda grid for the feature-selection path (None = paper's 10^0..10^9).
    lambda_grid: "tuple[float, ...] | None" = None
    #: Lambda whose selection feeds the reduced models; None = the
    #: largest lambda retaining at least ``selection_min_features``
    #: (the paper's Table I operating point kept six features).
    selection_lambda: "float | None" = None
    selection_min_features: int = 6
    #: Models trained on both feature sets.
    models: tuple[str, ...] = ("linear", "m5p", "reptree", "svm", "svm2")
    #: Lambdas at which the Lasso is also evaluated as a predictor
    #: (the paper's Table II lists all ten).
    lasso_predictor_lambdas: tuple[float, ...] = tuple(10.0**k for k in range(10))
    #: S-MAE tolerance: absolute seconds, or fraction of mean run length.
    smae_threshold: "float | None" = None
    smae_threshold_frac: float = 0.10
    validation_fraction: float = 0.3
    #: Split whole runs (stricter, leakage-free) instead of rows.
    split_by_run: bool = False
    seed: int = 0


@dataclass
class F2PMResult:
    """Everything an F2PM execution produced."""

    config: F2PMConfig
    dataset: TrainingSet
    selector: LassoFeatureSelector
    selection: SelectionResult
    smae_threshold: float
    reports: list[ModelReport]
    #: (model name, feature_set) -> fitted estimator
    models: dict[tuple[str, str], Regressor]
    #: (model name, feature_set) -> validation predictions
    predictions: dict[tuple[str, str], np.ndarray]
    #: validation ground truth (shared by all models)
    y_validation: np.ndarray
    #: root span of the execution's trace (None when tracing is disabled)
    trace: "Span | None" = None
    #: sanitize-layer decisions (None when ``config.sanitize`` is None)
    quality: "object | None" = None

    # -- lookups ---------------------------------------------------------------

    def report(self, name: str, feature_set: str = "all") -> ModelReport:
        for r in self.reports:
            if r.name == name and r.feature_set == feature_set:
                return r
        raise KeyError(f"no report for ({name!r}, {feature_set!r})")

    def best_by_smae(self, feature_set: str = "all") -> ModelReport:
        """The winning model (lowest S-MAE) on a feature set."""
        candidates = [r for r in self.reports if r.feature_set == feature_set]
        if not candidates:
            raise ValueError(f"no reports for feature set {feature_set!r}")
        return min(candidates, key=lambda r: r.s_mae)

    # -- tables ------------------------------------------------------------------

    def comparison_table(self) -> str:
        """Full metric table over all models and both feature sets."""
        rows = [r.row() for r in self.reports]
        return render_table(
            ModelReport.HEADERS,
            rows,
            title=(
                f"F2PM model comparison (S-MAE threshold "
                f"{self.smae_threshold:.1f}s)"
            ),
        )

    def _two_column(self, metric: str, title: str, mark_capped: bool = False) -> str:
        """Paper-style table: one row per model, all-vs-selected columns.

        With *mark_capped*, a cell whose fit stopped at its solver's
        iteration cap reads ``<value> (capped)``.
        """
        names: list[str] = []
        for r in self.reports:
            if r.feature_set == "all" and r.name not in names:
                names.append(r.name)
        rows = []
        for name in names:
            row: list[object] = [name]
            for feature_set in ("all", "selected"):
                try:
                    report = self.report(name, feature_set)
                except KeyError:
                    row.append(float("nan"))
                    continue
                value = getattr(report, metric)
                if mark_capped and report.capped:
                    value = f"{value:.3f} (capped)"
                row.append(value)
            rows.append(row)
        return render_table(
            ("algorithm", "all parameters", "selected by Lasso"),
            rows,
            title=title,
        )

    def smae_table(self) -> str:
        """Paper Table II analogue."""
        return self._two_column(
            "s_mae",
            f"Soft Mean Absolute Error (seconds, threshold {self.smae_threshold:.0f}s)",
        )

    def training_time_table(self) -> str:
        """Paper Table III analogue; fits stopped at their iteration cap
        are marked."""
        return self._two_column(
            "train_time", "Training time (seconds)", mark_capped=True
        )

    def validation_time_table(self) -> str:
        """Paper Table IV analogue."""
        return self._two_column("validation_time", "Validation time (seconds)")

    @property
    def audit(self) -> DesignAudit:
        """Rank and exact dependencies of the aggregated design matrix."""
        return self.selector.audit_

    # -- provenance --------------------------------------------------------------

    def manifest(self) -> dict:
        """Reproducibility manifest for this execution.

        Everything needed to audit (or re-run) the execution in one JSON
        document: the full configuration and seed, the package version,
        the span tree with per-phase durations, the current metrics
        snapshot and every per-model validation report. Persist it next
        to the outputs with :func:`repro.obs.write_manifest`.
        """
        from repro.obs import build_manifest, get_metrics

        return build_manifest(
            "f2pm.run",
            config=self.config,
            seeds={"f2pm": self.config.seed},
            trace=self.trace,
            metrics=get_metrics().snapshot(),
            reports=[
                {
                    "name": r.name,
                    "feature_set": r.feature_set,
                    "n_features": r.n_features,
                    "mae": r.mae,
                    "rae": r.rae,
                    "max_ae": r.max_ae,
                    "s_mae": r.s_mae,
                    "s_mae_threshold": r.s_mae_threshold,
                    "train_time": r.train_time,
                    "validation_time": r.validation_time,
                    "capped": r.capped,
                }
                for r in self.reports
            ],
            extra={
                "dataset": {
                    "n_samples": self.dataset.n_samples,
                    "n_features": self.dataset.n_features,
                    "feature_names": list(self.dataset.feature_names),
                },
                "selection": {
                    "lambda": self.selection.lam,
                    "selected": list(self.selection.selected),
                },
                "design": self.audit.to_dict(),
                "smae_threshold": self.smae_threshold,
                "model_names": sorted({name for name, _ in self.models}),
            },
        )


class F2PM:
    """End-to-end framework driver."""

    def __init__(self, config: F2PMConfig | None = None) -> None:
        self.config = config or F2PMConfig()

    def run(self, history: DataHistory, jobs: int = 1) -> F2PMResult:
        """Execute the full workflow on a monitoring history.

        ``jobs`` worker processes fit the (model x feature-set) grid
        concurrently. Error metrics and predictions are identical for
        any worker count (every estimator fits deterministically); the
        per-model training/validation wall-clocks are measured inside
        whichever process ran the fit, exactly as in a serial run.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        cfg = self.config
        metrics = get_metrics()
        root = span("f2pm.run", runs=len(history), jobs=jobs)
        with root:
            # Phase A': optional sanitize pass (dirty telemetry defense).
            quality = None
            if cfg.sanitize is not None:
                from repro.core.sanitize import sanitize_history

                with span("sanitize", policy=cfg.sanitize) as sp:
                    history, quality = sanitize_history(
                        history, policy=cfg.sanitize
                    )
                    sp.set(
                        issues=len(quality.issues),
                        runs_quarantined=quality.n_runs_quarantined,
                    )

            # Phase B: aggregation + added metrics + RTTF labels.
            with span("aggregate") as sp:
                dataset = aggregate_history(history, cfg.aggregation)
                sp.set(
                    rows_in=history.n_datapoints,
                    rows_out=dataset.n_samples,
                    features=dataset.n_features,
                )
            _log.info(
                "aggregate %s",
                kv(
                    rows_in=history.n_datapoints,
                    rows_out=dataset.n_samples,
                    features=dataset.n_features,
                    window_s=cfg.aggregation.window_seconds,
                ),
            )

            # Phase C: Lasso regularization path.
            with span("select") as sp:
                grid = (
                    None if cfg.lambda_grid is None else np.asarray(cfg.lambda_grid)
                )
                selector = LassoFeatureSelector(grid).fit(dataset)
                if cfg.selection_lambda is None:
                    selection = selector.strongest_with_at_least(
                        cfg.selection_min_features
                    )
                else:
                    selection = selector.result_at(cfg.selection_lambda)
                dataset_selected = dataset.select_features(selection.selected)
                sp.set(lam=selection.lam, features_kept=selection.n_selected)
            _log.info(
                "select %s",
                kv(lam=selection.lam, features_kept=selection.n_selected),
            )
            metrics.set_gauge("f2pm.features_selected", selection.n_selected)

            # Shared train/validation split: identical rows for both feature
            # sets so errors are comparable column-to-column.
            with span("split") as sp:
                rng = as_rng(cfg.seed)
                train_full, val_full = dataset.split(
                    cfg.validation_fraction, by_run=cfg.split_by_run, seed=rng
                )
                # Re-derive the same rows on the selected columns.
                train_sel = train_full.select_features(selection.selected)
                val_sel = val_full.select_features(selection.selected)
                del dataset_selected  # the split views are what we train on
                sp.set(
                    n_train=train_full.n_samples, n_validation=val_full.n_samples
                )

            smae_threshold = resolve_smae_threshold(
                cfg.smae_threshold, cfg.smae_threshold_frac, history.mean_run_length
            )

            # Phase D: model generation + validation.
            reports: list[ModelReport] = []
            models: dict[tuple[str, str], Regressor] = {}
            predictions: dict[tuple[str, str], np.ndarray] = {}

            candidates: list[tuple[str, Regressor]] = [
                (name, make_model(name)) for name in cfg.models
            ]
            for lam in cfg.lasso_predictor_lambdas:
                exponent = int(round(np.log10(lam))) if lam > 0 else 0
                candidates.append(
                    (f"lasso(1e{exponent})", make_model("lasso", lam=lam))
                )

            # Deterministic grid order: feature set major, model minor —
            # the parallel path returns (and merges telemetry) in this
            # exact order, so reports/tables never depend on scheduling.
            # Every cell of a feature set fits that set's one split.
            splits: dict[str, tuple[TrainingSet, TrainingSet]] = {
                "all": (train_full, val_full),
                "selected": (train_sel, val_sel),
            }
            grid: list[tuple[str, str, Regressor]] = [
                (feature_set, name, _fresh(prototype))
                for feature_set in splits
                for name, prototype in candidates
            ]

            with span("train_validate", n_models=len(grid), jobs=jobs) as sp:
                if jobs > 1 and len(grid) > 1:
                    from repro.parallel import run_tasks

                    outcomes = run_tasks(
                        _fit_task,
                        [(fs, name, model, smae_threshold) for fs, name, model in grid],
                        jobs=jobs,
                        labels=[f"fit {name}/{fs}" for fs, name, _ in grid],
                        context=splits,
                    )
                else:
                    outcomes = [
                        evaluate_model(
                            name,
                            model,
                            *splits[feature_set],
                            smae_threshold=smae_threshold,
                            feature_set=feature_set,
                        )
                        for feature_set, name, model in grid
                    ]
                for (feature_set, name, _), (report, fitted, pred) in zip(
                    grid, outcomes
                ):
                    reports.append(report)
                    models[(name, feature_set)] = fitted
                    predictions[(name, feature_set)] = pred
                sp.set(n_reports=len(reports))

        metrics.inc("f2pm.runs_total")
        metrics.inc("f2pm.models_trained_total", len(models))
        _log.info(
            "f2pm run complete %s",
            kv(
                models=len(models),
                duration_s=root.duration if root else 0.0,
                smae_threshold=smae_threshold,
            ),
        )
        return F2PMResult(
            config=cfg,
            dataset=dataset,
            selector=selector,
            selection=selection,
            smae_threshold=smae_threshold,
            reports=reports,
            models=models,
            predictions=predictions,
            y_validation=val_full.y,
            trace=root if isinstance(root, Span) else None,
            quality=quality,
        )


def _fit_task(
    payload: "tuple[str, str, Regressor, float]",
) -> "tuple[ModelReport, Regressor, np.ndarray]":
    """Worker task of :meth:`F2PM.run`: fit and validate one grid cell on
    its feature set's split, which ships once per worker as the pool
    context. The wall-clocks are measured here, where the fit ran."""
    from repro.parallel import worker_context

    feature_set, name, model, smae_threshold = payload
    train, validation = worker_context()[feature_set]
    return evaluate_model(
        name,
        model,
        train,
        validation,
        smae_threshold=smae_threshold,
        feature_set=feature_set,
    )


def _fresh(prototype: Regressor) -> Regressor:
    """Clone a prototype estimator for an independent fit."""
    from repro.ml.base import clone

    return clone(prototype)
