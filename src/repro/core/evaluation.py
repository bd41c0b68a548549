"""Model validation: the paper's per-model metric set (Sec. III-D).

For each generated model F2PM reports MAE (Eq. 5), RAE (Eq. 6), the
maximum absolute error, S-MAE (errors below a tolerance T count as zero),
the training time and the validation time — "useful information for
comparing the different models produced by F2PM".

Training/validation times are real wall-clock measurements of this
repository's implementations (the only metrics here that are not
deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import TrainingSet
from repro.ml.base import Regressor, solver_converged
from repro.ml.metrics import (
    max_absolute_error,
    mean_absolute_error,
    relative_absolute_error,
    soft_mean_absolute_error,
)
from repro.obs import Span, get_logger, get_metrics, kv, span

_log = get_logger("core.evaluation")


@dataclass(frozen=True)
class ModelReport:
    """Validation outcome of one model on one training-set variant."""

    name: str
    feature_set: str  # "all" or "selected"
    n_features: int
    mae: float
    rae: float
    max_ae: float
    s_mae: float
    s_mae_threshold: float
    train_time: float
    validation_time: float
    #: The learner's iterative solver stopped at its cap.
    capped: bool = False

    def row(self) -> list[object]:
        """Row for the comparison table."""
        return [
            self.name,
            self.feature_set,
            self.n_features,
            self.mae,
            self.rae,
            self.max_ae,
            self.s_mae,
            self.train_time,
            self.validation_time,
        ]

    HEADERS = (
        "model",
        "features",
        "d",
        "MAE (s)",
        "RAE",
        "MaxAE (s)",
        "S-MAE (s)",
        "train (s)",
        "validate (s)",
    )


def resolve_smae_threshold(
    threshold: "float | None", threshold_frac: "float | None", history_mean_run: float
) -> float:
    """Resolve the S-MAE tolerance in seconds.

    Either an absolute ``threshold`` or ``threshold_frac`` (the paper's
    "10% threshold": a fraction of the mean run length, i.e. of the
    proactive-rejuvenation horizon) must be given.
    """
    if threshold is not None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        return float(threshold)
    if threshold_frac is None:
        raise ValueError("provide threshold or threshold_frac")
    if not 0.0 <= threshold_frac < 1.0:
        raise ValueError(f"threshold_frac must be in [0,1), got {threshold_frac}")
    return float(threshold_frac * history_mean_run)


def evaluate_model(
    name: str,
    model: Regressor,
    train: TrainingSet,
    validation: TrainingSet,
    *,
    smae_threshold: float,
    feature_set: str = "all",
) -> tuple[ModelReport, Regressor, np.ndarray]:
    """Fit *model* on *train*, validate on *validation*.

    Returns ``(report, fitted_model, validation_predictions)`` — the
    predictions feed the Fig. 5 predicted-vs-real plots.
    """
    if train.feature_names != validation.feature_names:
        raise ValueError("train/validation feature sets differ")
    metrics = get_metrics()
    # One clock per phase: its span's. NULL_SPAN is falsy, so with
    # tracing off a detached span still times the phase.
    with span("evaluate", model=name, feature_set=feature_set) as sp:
        with span("train") or Span("train") as t_train:
            model.fit(train.X, train.y)
        with span("validate") or Span("validate") as t_val:
            pred = model.predict(validation.X)
            mae = mean_absolute_error(validation.y, pred)
            rae = relative_absolute_error(validation.y, pred)
            max_ae = max_absolute_error(validation.y, pred)
            s_mae = soft_mean_absolute_error(validation.y, pred, smae_threshold)
        sp.set(
            n_train=train.n_samples,
            n_validation=validation.n_samples,
            n_features=train.n_features,
            s_mae=float(s_mae),
        )
    train_time, validation_time = t_train.duration, t_val.duration
    metrics.observe(f"model.fit_seconds.{name}", train_time)
    metrics.observe(f"model.predict_seconds.{name}", validation_time)
    _log.info(
        "model evaluated %s",
        kv(
            model=name,
            feature_set=feature_set,
            mae=float(mae),
            s_mae=float(s_mae),
            train_s=train_time,
            validate_s=validation_time,
        ),
    )
    report = ModelReport(
        name=name,
        feature_set=feature_set,
        n_features=train.n_features,
        mae=mae,
        rae=rae,
        max_ae=max_ae,
        s_mae=s_mae,
        s_mae_threshold=smae_threshold,
        train_time=train_time,
        validation_time=validation_time,
        capped=not solver_converged(model),
    )
    return report, model, pred
