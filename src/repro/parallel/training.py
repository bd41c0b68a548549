"""Parallel model training: fan the (model x feature-set) grid out.

Every grid cell is an independent fit of a fresh estimator on an
immutable training set, so cells ship whole to worker processes. The
training/validation wall-clocks the paper's Tables III-IV report are
measured *inside* the worker by :func:`repro.core.evaluation.evaluate_model`
(same code path as serial), so per-model timings stay honest — they are
the time the fit actually took, wherever it ran.

Error metrics and predictions are deterministic functions of the data
(every estimator in the zoo fits with a fixed seed), so the merged
result tables are identical to a serial execution's; only the
nondeterministic wall-clock columns differ, exactly as they do between
two serial executions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.parallel import telemetry
from repro.parallel.pool import run_tasks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (framework imports us)
    from repro.core.dataset import TrainingSet
    from repro.core.evaluation import ModelReport
    from repro.ml.base import Regressor


def _fit_task(payload: dict[str, Any]) -> tuple:
    """Worker entry point: fit + validate one grid cell on its feature
    set's split, read from the pool's worker context."""
    from repro.core.evaluation import evaluate_model
    from repro.parallel.pool import worker_context

    telemetry.configure_worker(payload["trace_on"], payload["metrics_on"])
    telemetry.begin_capture()
    train, validation = worker_context()[payload["feature_set"]]
    report, fitted, pred = evaluate_model(
        payload["name"],
        payload["model"],
        train,
        validation,
        smae_threshold=payload["smae_threshold"],
        feature_set=payload["feature_set"],
    )
    return report, fitted, pred, telemetry.collect()


def evaluate_grid_parallel(
    grid: "list[tuple[str, str, Regressor]]",
    splits: "dict[str, tuple[TrainingSet, TrainingSet]]",
    *,
    smae_threshold: float,
    jobs: int,
) -> "list[tuple[ModelReport, Regressor, np.ndarray]]":
    """Evaluate ``(feature_set, name, model)`` cells, each on its feature
    set's ``(train, validation)`` pair in ``splits``.

    Returns ``(report, fitted_model, predictions)`` per cell **in grid
    order**, with each cell's telemetry merged into the parent registry
    (in the same order) before returning.

    Every model in a feature set fits the same split, so ``splits`` ships
    **once per worker** as the pool context instead of being re-pickled
    into all ~len(grid) payloads.
    """
    from repro.obs import get_metrics, get_tracer

    tracer = get_tracer()
    registry = get_metrics()
    payloads = [
        {
            "feature_set": feature_set,
            "name": name,
            "model": model,
            "smae_threshold": smae_threshold,
            "trace_on": tracer.enabled,
            "metrics_on": registry.enabled,
        }
        for feature_set, name, model in grid
    ]
    outcomes = run_tasks(
        _fit_task,
        payloads,
        jobs=jobs,
        labels=[f"fit {name}/{feature_set}" for feature_set, name, _ in grid],
        context=splits,
    )
    results = []
    for report, fitted, pred, task_telemetry in outcomes:
        telemetry.merge(task_telemetry)
        results.append((report, fitted, pred))
    return results
