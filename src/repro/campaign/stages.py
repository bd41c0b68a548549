"""Staged campaign jobs with per-stage artifact caching.

morf-style staging: the pipeline ``simulate -> aggregate -> train ->
evaluate`` is four composable jobs, each persisting its own artifact to
the content-addressed store under its own canonical fingerprint. A later
stage's cache hit never touches the earlier stages (re-evaluating a
cached model loads nothing but the report); a later stage's miss pulls
exactly the prefix it needs, each prefix stage itself a cache lookup.

Artifact naming (all under one :class:`~repro.store.ArtifactStore`):

==========  ======================  ===================================
stage       entry name              fingerprint kind
==========  ======================  ===================================
simulate    ``history_<fp16>.npz``  ``campaign`` (the config itself,
                                    so caches written before the
                                    campaign layer count)
aggregate   ``dataset_<fp16>.npz``  ``campaign-dataset``
train       ``model_<fp16>.bin``    ``campaign-model``
evaluate    ``report_<fp16>.json``  ``campaign-report``
==========  ======================  ===================================

Simulation is checkpointed (:class:`~repro.store.CampaignCheckpoint`)
every ``checkpoint_every`` runs, so a killed driver resumes the cell
bit-identically. The train and evaluate stages of one cell share one
F2PM execution (:class:`CellF2PM`) that lives as long as the cell's
run. Every stage accepts ``block=False`` to raise
:class:`~repro.store.EntryBusy` instead of waiting on another driver's
per-entry lock — the cooperation primitive the manager's multi-driver
sharding is built on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

import numpy as np

from repro._version import __version__
from repro.core import AggregationConfig, F2PM, F2PMConfig, aggregate_history
from repro.core.dataset import TrainingSet
from repro.core.feature_selection import SELECTION_SOLVER
from repro.core.history import DataHistory
from repro.core.persistence import (
    FORMAT_VERSION,
    ModelEnvelope,
    load_model,
    save_model,
)
from repro.obs import get_logger, kv, span
from repro.store import ArtifactStore, CampaignCheckpoint
from repro.store.checkpoint import CHECKPOINT_EVERY
from repro.store.keys import SHORT_DIGEST_LEN, fingerprint
from repro.system.simulator import CampaignConfig, TestbedSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import CampaignCell, CampaignSpec
    from repro.core.framework import F2PMResult
    from repro.core.persistence import ModelEnvelope

_log = get_logger("campaign.stages")


# -- artifact identity --------------------------------------------------------


def campaign_fingerprint(config: CampaignConfig) -> str:
    """Full canonical fingerprint of a campaign configuration."""
    return fingerprint("campaign", config)


def history_name(config: CampaignConfig) -> str:
    """Deterministic store entry name for a campaign's history."""
    return f"history_{campaign_fingerprint(config)[:SHORT_DIGEST_LEN]}"


def _analysis_value(spec: "CampaignSpec", cell: "CampaignCell") -> dict:
    """The content that keys the aggregate stage: campaign + window +
    sanitize policy (never execution strategy)."""
    return {
        "campaign": cell.config,
        "window_seconds": spec.window_seconds,
        "sanitize": spec.sanitize,
    }


def _model_value(spec: "CampaignSpec", cell: "CampaignCell") -> dict:
    return {
        **_analysis_value(spec, cell),
        "models": spec.models,
        "train_seed": spec.train_seed,
    }


def _report_value(spec: "CampaignSpec", cell: "CampaignCell") -> dict:
    """The report scores models on the Lasso-selected set too, so its key
    also names the selection algorithm."""
    return {**_model_value(spec, cell), "selection_solver": SELECTION_SOLVER}


def stage_artifact(
    spec: "CampaignSpec", cell: "CampaignCell", stage: str
) -> tuple[str, str]:
    """``(entry name, full fingerprint)`` of one cell's stage artifact."""
    if stage == "simulate":
        fp = cell.fingerprint
        return f"history_{fp[:SHORT_DIGEST_LEN]}.npz", fp
    if stage == "aggregate":
        fp = fingerprint("campaign-dataset", _analysis_value(spec, cell))
        return f"dataset_{fp[:SHORT_DIGEST_LEN]}.npz", fp
    if stage == "train":
        fp = fingerprint("campaign-model", _model_value(spec, cell))
        return f"model_{fp[:SHORT_DIGEST_LEN]}.bin", fp
    if stage == "evaluate":
        fp = fingerprint("campaign-report", _report_value(spec, cell))
        return f"report_{fp[:SHORT_DIGEST_LEN]}.json", fp
    raise ValueError(f"unknown stage {stage!r}")


# -- stage: simulate ----------------------------------------------------------


def simulate_cell(
    config: CampaignConfig,
    store: "ArtifactStore | None",
    *,
    jobs: int = 1,
    checkpoint_every: int = CHECKPOINT_EVERY,
    block: bool = True,
) -> tuple[DataHistory, bool]:
    """Produce-or-load one campaign history; returns ``(history, produced)``.

    With a store, the artifact publishes under the campaign fingerprint
    and a cold simulation checkpoints its completed prefix (killed
    drivers resume instead of restarting). ``store=None`` simulates
    unconditionally (no persistence — scratch campaigns).
    """
    if store is None:
        return TestbedSimulator(config).run_campaign(jobs=jobs), True
    name = history_name(config)
    full_fp = campaign_fingerprint(config)
    checkpoint = CampaignCheckpoint(
        store.path(f"{name}.ckpt.npz"), key=full_fp, total_runs=config.n_runs
    )

    def produce() -> DataHistory:
        return TestbedSimulator(config).run_campaign(
            jobs=jobs, checkpoint=checkpoint, checkpoint_every=checkpoint_every
        )

    return store.get_or_produce(
        f"{name}.npz",
        produce,
        save=lambda h, path: h.save(path),
        load=DataHistory.load,
        kind="history",
        fingerprint=full_fp,
        block=block,
    )


# -- stage: aggregate ---------------------------------------------------------


def _save_dataset(dataset: TrainingSet, path) -> None:
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            X=dataset.X,
            y=dataset.y,
            feature_names=np.array(dataset.feature_names),
            run_ids=dataset.run_ids,
        )


def _load_dataset(path) -> TrainingSet:
    with np.load(path, allow_pickle=False) as data:
        return TrainingSet(
            X=data["X"],
            y=data["y"],
            feature_names=tuple(str(n) for n in data["feature_names"]),
            run_ids=data["run_ids"],
        )


def aggregate_cell(
    spec: "CampaignSpec",
    cell: "CampaignCell",
    store: "ArtifactStore | None",
    *,
    jobs: int = 1,
    checkpoint_every: int = CHECKPOINT_EVERY,
    block: bool = True,
) -> tuple[TrainingSet, bool]:
    """Aggregate one cell's history into its training set (cached)."""

    def produce() -> TrainingSet:
        history, _ = simulate_cell(
            cell.config,
            store,
            jobs=jobs,
            checkpoint_every=checkpoint_every,
            block=block,
        )
        return aggregate_history(
            history,
            AggregationConfig(window_seconds=spec.window_seconds),
            sanitize=spec.sanitize,
        )

    if store is None:
        return produce(), True
    name, fp = stage_artifact(spec, cell, "aggregate")
    return store.get_or_produce(
        name,
        produce,
        save=_save_dataset,
        load=_load_dataset,
        kind="campaign-dataset",
        fingerprint=fp,
        block=block,
    )


# -- stages: train / evaluate -------------------------------------------------


def _f2pm_config(spec: "CampaignSpec") -> F2PMConfig:
    return F2PMConfig(
        aggregation=AggregationConfig(window_seconds=spec.window_seconds),
        sanitize=spec.sanitize,
        models=spec.models,
        lasso_predictor_lambdas=(),
        seed=spec.train_seed,
    )


@dataclass
class CellF2PM:
    """The F2PM execution of one cell's run, made on first use.

    The manager creates one per cell run and hands it to each stage, so
    the train and evaluate stages share it and it ends with the cell: a
    second pass over the same cell fits again.
    """

    spec: "CampaignSpec"
    cell: "CampaignCell"
    store: "ArtifactStore | None"
    jobs: int = 1
    block: bool = True

    @cached_property
    def result(self) -> "F2PMResult":
        history, _ = simulate_cell(
            self.cell.config, self.store, jobs=self.jobs, block=self.block
        )
        return F2PM(_f2pm_config(self.spec)).run(history, jobs=self.jobs)


def train_cell(
    spec: "CampaignSpec",
    cell: "CampaignCell",
    store: "ArtifactStore | None",
    *,
    jobs: int = 1,
    block: bool = True,
    f2pm: "CellF2PM | None" = None,
) -> "tuple[ModelEnvelope, bool]":
    """Fit the cell's model grid; persist the best-by-S-MAE envelope."""
    f2pm = f2pm or CellF2PM(spec, cell, store, jobs=jobs, block=block)

    def produce() -> ModelEnvelope:
        result = f2pm.result
        best = result.best_by_smae("all")
        return ModelEnvelope(
            model=result.models[(best.name, "all")],
            feature_names=tuple(result.dataset.feature_names),
            package_version=__version__,
            format_version=FORMAT_VERSION,
            metadata={
                "model": best.name,
                "s_mae": best.s_mae,
                "cell": cell.label(),
                "campaign_fingerprint": cell.fingerprint,
            },
        )

    if store is None:
        return produce(), True
    name, fp = stage_artifact(spec, cell, "train")
    return store.get_or_produce(
        name,
        produce,
        save=lambda env, path: save_model(
            env.model, path, feature_names=env.feature_names, metadata=env.metadata
        ),
        load=load_model,
        kind="campaign-model",
        fingerprint=fp,
        block=block,
    )


def evaluate_cell(
    spec: "CampaignSpec",
    cell: "CampaignCell",
    store: "ArtifactStore | None",
    *,
    jobs: int = 1,
    block: bool = True,
    f2pm: "CellF2PM | None" = None,
) -> tuple[dict, bool]:
    """Score the cell's model grid; persist the per-model report table."""
    f2pm = f2pm or CellF2PM(spec, cell, store, jobs=jobs, block=block)

    def produce() -> dict:
        result = f2pm.result
        best = result.best_by_smae("all")
        return {
            "schema": "f2pm.campaign-report/1",
            "cell": cell.label(),
            "campaign_fingerprint": cell.fingerprint,
            "smae_threshold": result.smae_threshold,
            "best": {"model": best.name, "s_mae": best.s_mae},
            "reports": [
                {
                    "name": r.name,
                    "feature_set": r.feature_set,
                    "s_mae": r.s_mae,
                    "mae": r.mae,
                    "train_time": r.train_time,
                    "validation_time": r.validation_time,
                }
                for r in result.reports
            ],
        }

    if store is None:
        return produce(), True
    name, fp = stage_artifact(spec, cell, "evaluate")
    return store.get_or_produce(
        name,
        produce,
        save=lambda doc, path: path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        ),
        load=lambda path: json.loads(path.read_text()),
        kind="campaign-report",
        fingerprint=fp,
        block=block,
    )


# -- dispatch -----------------------------------------------------------------


def run_stage(
    spec: "CampaignSpec",
    cell: "CampaignCell",
    stage: str,
    store: "ArtifactStore | None",
    *,
    jobs: int = 1,
    checkpoint_every: int = CHECKPOINT_EVERY,
    block: bool = True,
    f2pm: "CellF2PM | None" = None,
) -> tuple[Any, bool]:
    """Execute one stage of one cell; returns ``(value, produced)``.

    ``f2pm`` is the cell run's shared F2PM execution; without one, a
    train or evaluate stage fits its own.
    """
    with span(f"campaign.stage.{stage}", cell=cell.index) as sp:
        if stage == "simulate":
            value, produced = simulate_cell(
                cell.config,
                store,
                jobs=jobs,
                checkpoint_every=checkpoint_every,
                block=block,
            )
        elif stage == "aggregate":
            value, produced = aggregate_cell(
                spec, cell, store, jobs=jobs,
                checkpoint_every=checkpoint_every, block=block,
            )
        elif stage == "train":
            value, produced = train_cell(
                spec, cell, store, jobs=jobs, block=block, f2pm=f2pm
            )
        elif stage == "evaluate":
            value, produced = evaluate_cell(
                spec, cell, store, jobs=jobs, block=block, f2pm=f2pm
            )
        else:
            raise ValueError(f"unknown stage {stage!r}")
        sp.set(produced=produced)
    _log.info(
        "stage %s %s",
        "produced" if produced else "loaded",
        kv(stage=stage, cell=cell.index, label=cell.label()),
    )
    return value, produced
