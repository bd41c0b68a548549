"""Shared campaign data for the experiment drivers.

The paper collected one week of monitoring data and derived every table
and figure from it. Analogously, all drivers here share a single default
campaign: 20 simulated runs of the TPC-W testbed under the shopping mix
with request-coupled anomalies. The campaign persists through the
content-addressed artifact store (:mod:`repro.store`) under
``~/.cache/f2pm-repro`` (override with ``F2PM_CACHE_DIR``), keyed by a
canonical fingerprint of the campaign parameters — so the first
experiment pays the simulation cost (checkpointing every few runs in
case it is killed) and the rest load the verified artifact in
milliseconds. Concurrent cold-cache drivers cooperate on a file lock:
one simulates, the others wait and load.

Nothing is cached in-process: ``runall`` loads the history once, runs
F2PM on it once and passes both to the drivers.

``F2PM_DEFAULT_RUNS`` shrinks the shared campaign (CI uses a small one
to exercise the cache cheaply); the cache key follows the config, so
differently-sized campaigns never alias.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core import AggregationConfig, DataHistory, F2PMConfig, F2PMResult
from repro.obs import build_manifest, get_logger, get_metrics, kv, write_manifest
from repro.store import ArtifactStore
from repro.system import CampaignConfig

_log = get_logger("experiments.common")


def _default_runs() -> int:
    """``F2PM_DEFAULT_RUNS`` as a run count (20 when unset or empty)."""
    raw = os.environ.get("F2PM_DEFAULT_RUNS") or "20"
    try:
        n_runs = int(raw)
    except ValueError:
        n_runs = 0
    if n_runs < 1:
        raise ValueError(f"F2PM_DEFAULT_RUNS must be a positive integer, got {raw!r}")
    return n_runs


#: The campaign every experiment shares (the "one-week trace").
DEFAULT_CAMPAIGN = CampaignConfig(n_runs=_default_runs(), seed=7)

#: Aggregation window used by the experiments (seconds).
EXPERIMENT_WINDOW = 30.0


def get_store() -> ArtifactStore:
    """The experiment artifact store (re-resolved per call, so tests can
    repoint ``F2PM_CACHE_DIR`` freely)."""
    return ArtifactStore()


def paper_spec(stages: tuple[str, ...] = ("simulate",)) -> "CampaignSpec":
    """The shared experiment campaign as a declarative spec.

    One cell — the default campaign ("the one-week trace") — whose
    simulate-stage artifact is the ``history_<fp16>.npz`` entry
    :func:`default_history` loads.
    """
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        name="paper-default",
        base=DEFAULT_CAMPAIGN,
        stages=stages,
        window_seconds=EXPERIMENT_WINDOW,
    )


def default_history(
    config: CampaignConfig | None = None, *, jobs: int = 1
) -> DataHistory:
    """The shared monitoring campaign, loaded from the artifact store
    (simulated and published on a miss).

    ``jobs`` parallelizes a cache-miss simulation; the campaign is
    deterministic for any worker count, so the cache key needs no
    ``jobs`` component. The store interaction (naming, fingerprints,
    checkpointed cold production, lock cooperation) is the campaign
    simulate stage, :func:`repro.campaign.stages.simulate_cell`.
    """
    from repro.campaign.stages import history_name, simulate_cell

    config = config or DEFAULT_CAMPAIGN
    history, produced = simulate_cell(config, get_store(), jobs=jobs)
    _log.info(
        "campaign %s %s",
        "simulated" if produced else "loaded",
        kv(key=history_name(config), runs=len(history)),
    )
    return history


def default_f2pm_config() -> F2PMConfig:
    """The F2PM configuration behind Tables II-IV and Fig. 5."""
    return F2PMConfig(aggregation=AggregationConfig(window_seconds=EXPERIMENT_WINDOW))


# -- manifests ---------------------------------------------------------------------


def driver_manifest(
    driver: str,
    f2pm_result: "F2PMResult | None" = None,
    *,
    extra: "dict | None" = None,
) -> dict:
    """Manifest for one experiment driver run.

    Wraps :func:`repro.obs.build_manifest` with the experiment naming
    convention: the F2PM execution behind the artefact (config, seed,
    trace, per-model reports) when the driver has one, the current
    metrics snapshot, and any driver-specific payload in *extra*.
    """
    kwargs: dict = {"metrics": get_metrics().snapshot(), "extra": extra}
    if f2pm_result is not None:
        kwargs["config"] = f2pm_result.config
        kwargs["seeds"] = {"f2pm": f2pm_result.config.seed}
        kwargs["trace"] = f2pm_result.trace
        kwargs["reports"] = [
            {
                "name": r.name,
                "feature_set": r.feature_set,
                "s_mae": r.s_mae,
                "mae": r.mae,
                "train_time": r.train_time,
                "validation_time": r.validation_time,
            }
            for r in f2pm_result.reports
        ]
    return build_manifest(f"experiment.{driver}", **kwargs)


def write_driver_manifest(
    driver: str, manifest: dict, directory: "Path | str | None" = None
) -> Path:
    """Persist a driver manifest next to the campaign outputs.

    Defaults to the experiment store's directory (where the shared
    campaign artifact lives), so every artefact's provenance sits beside
    the data it was derived from.
    """
    target = Path(directory) if directory is not None else get_store().root
    path = write_manifest(manifest, target / f"{driver}.manifest.json")
    _log.info("manifest written %s", kv(driver=driver, path=str(path)))
    return path
