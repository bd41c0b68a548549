"""Run every experiment in paper order, sharing one campaign + F2PM run.

Usage::

    python -m repro.experiments.runall

The shared campaign is loaded (or simulated) once and F2PM runs on it
once; each paper driver is handed the input it reads
(:func:`paper_drivers`).

Besides the tables/figures, a full reproduction emits one consolidated
telemetry bundle — a manifest with the span tree of the whole session
(one child per driver), the final metrics snapshot and the per-driver
manifests — written next to the cached campaign (``runall.telemetry.json``
in the experiment store's directory, ``common.get_store().root``).
"""

from __future__ import annotations

from pathlib import Path

from repro.campaign import CampaignManager
from repro.core import F2PM, DataHistory, F2PMResult
from repro.experiments import common
from repro.experiments import (
    ext_generalization,
    ext_incremental_curve,
    ext_mix_comparison,
    ext_rejuvenation_sweep,
    fig3_rt_correlation,
    fig4_lasso_path,
    fig5_fitted_models,
    table1_weights,
    table2_smae,
    table3_training_time,
    table4_validation_time,
)
from repro.obs import build_manifest, get_metrics, get_tracer, span, write_manifest


def paper_drivers(history: DataHistory, f2pm: F2PMResult) -> tuple:
    """``(driver, input)`` pairs in paper order: Fig. 3 reads the
    history, Fig. 4 and Table I the fitted Lasso path, the rest the F2PM
    execution."""
    return (
        (fig3_rt_correlation, history),
        (fig4_lasso_path, f2pm.selector),
        (table1_weights, f2pm.selector),
        (table2_smae, f2pm),
        (table3_training_time, f2pm),
        (table4_validation_time, f2pm),
        (fig5_fitted_models, f2pm),
        (ext_rejuvenation_sweep, f2pm),
    )


def main(telemetry_dir: "Path | str | None" = None, jobs: int = 1) -> Path:
    """Run every driver; returns the telemetry-bundle path.

    ``jobs`` parallelizes the shared campaign, the shared F2PM model
    grid, and the extension drivers' own simulations; every table and
    figure is identical for any worker count.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    driver_manifests: dict[str, dict] = {}

    root = span("experiments.runall", jobs=jobs)
    with root:
        # The shared campaign as a declarative spec: print the
        # spec-vs-store diff, then execute only the missing frontier.
        manager = CampaignManager(common.paper_spec(), common.get_store())
        print(manager.plan().summary())
        with span("campaign"):
            history = manager.run(jobs=jobs).outcome(0).results["simulate"]
        print(
            f"campaign: {len(history)} runs, {history.n_datapoints} datapoints, "
            f"mean run length {history.mean_run_length:.0f}s\n"
        )
        f2pm = F2PM(common.default_f2pm_config()).run(history, jobs=jobs)
        for driver, shared in paper_drivers(history, f2pm):
            name = driver.__name__.rsplit(".", 1)[-1]
            print(f"==== {name} ====")
            with span(name):
                result = driver.run(shared)
            if hasattr(result, "manifest"):
                driver_manifests[name] = result.manifest()
            print()

        # These extensions own their simulations (campaign config, not history).
        print("==== ext_incremental_curve ====")
        with span("ext_incremental_curve"):
            ext_incremental_curve.run(batch_runs=4, max_runs=12, jobs=jobs)
        print()
        print("==== ext_mix_comparison ====")
        with span("ext_mix_comparison"):
            ext_mix_comparison.run(n_runs=6, jobs=jobs, use_cache=True)
        print()
        print("==== ext_generalization ====")
        with span("ext_generalization"):
            ext_generalization.run(n_runs=4, jobs=jobs, use_cache=True)
        print()

    bundle = build_manifest(
        "experiments.runall",
        trace=root if tracer.enabled else None,
        metrics=metrics.snapshot(),
        extra={"drivers": driver_manifests},
    )
    target = Path(telemetry_dir) if telemetry_dir is not None else common.get_store().root
    path = write_manifest(bundle, target / "runall.telemetry.json")
    print(f"telemetry bundle -> {path}")
    return path


if __name__ == "__main__":
    import argparse

    from repro.parallel import resolve_jobs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for campaigns and model grids (default: all cores)",
    )
    main(jobs=resolve_jobs(parser.parse_args().jobs))
