"""Extension experiment — cross-scenario generalization matrix.

The paper trains and validates on a single failure scenario
(request-coupled memory/thread anomalies under the shopping mix), so it
cannot say whether an F2PM model *transfers*: does a predictor trained
on memory-leak aging still anticipate failures driven by lock
contention, connection-pool depletion, or a different machine sizing?
The related work (CHAOS, the creep-failure study) shows aging signatures
differ sharply across fault families — which makes transfer the
interesting question.

This driver answers it empirically. For every scenario in a subset of
the catalog (:mod:`repro.scenarios`) it collects a campaign, trains the
best-by-S-MAE model, then scores every (train scenario A, test scenario
B) pair: A's model predicts B's RTTF targets, scored with B's own 10%
S-MAE threshold (each scenario has its own failure horizon, so each
column uses its own tolerance). The diagonal is in-scenario accuracy;
off-diagonal minus diagonal is the *generalization gap*.

Alongside the matrix, a Lasso selection per scenario reports which of
the aggregated features survive shrinkage in each family, and the
carryover table counts, per base feature, how many scenarios select it
— separating universal aging signals (e.g. ``gen_time``) from
family-specific ones (swap for memory leaks, nothing memory-shaped for
lock contention).

Everything rides the campaign layer: the scenarios are one ``scenario``
axis of a :class:`~repro.campaign.CampaignSpec`, so cells are
content-addressed, cached per stage, and shared with any other spec
that resolves to the same configs. The cross-scoring report itself
publishes as a ``report_<fp16>.json`` artifact keyed by the cell
fingerprints + analysis parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro.campaign import CampaignManager, CampaignSpec
from repro.core.evaluation import resolve_smae_threshold
from repro.core.feature_selection import SELECTION_SOLVER, LassoFeatureSelector
from repro.experiments.common import (
    DEFAULT_CAMPAIGN,
    EXPERIMENT_WINDOW,
    driver_manifest,
    get_store,
    write_driver_manifest,
)
from repro.ml.metrics import soft_mean_absolute_error
from repro.store.keys import SHORT_DIGEST_LEN, fingerprint
from repro.utils.tables import render_table

#: Default scenario subset: the paper's baseline plus three anomaly
#: families with disjoint signatures (pure RT degradation, pool
#: depletion, time-based memory storms on a smaller VM).
GENERALIZATION_SCENARIOS: tuple[str, ...] = (
    "baseline-shopping",
    "lock-contention",
    "conn-pool-exhaustion",
    "memory-leak-storm",
)

#: Feature-selection floor: the largest lambda keeping at least this
#: many features (the paper's Table I operating point kept six).
MIN_SELECTED_FEATURES = 4


@dataclass
class GeneralizationResult:
    """The full cross-scenario matrix plus per-scenario diagnostics."""

    scenarios: tuple[str, ...]
    #: ``matrix[A][B]`` = S-MAE of A's model scored on B's data, using
    #: B's own 10% threshold.
    matrix: dict[str, dict[str, float]]
    thresholds: dict[str, float]
    mean_ttf: dict[str, float]
    best_models: dict[str, str]
    selected_features: dict[str, tuple[str, ...]]
    feature_carryover: dict[str, int]
    report_name: str

    def gap(self, train: str, test: str) -> float:
        """Generalization gap: cross-scenario S-MAE minus the test
        scenario's own in-scenario S-MAE."""
        return self.matrix[train][test] - self.matrix[test][test]

    def table(self) -> str:
        rows = [
            [a, self.best_models[a]]
            + [self.matrix[a][b] for b in self.scenarios]
            for a in self.scenarios
        ]
        return render_table(
            ("train \\ test", "model", *self.scenarios),
            rows,
            title="Cross-scenario S-MAE (s); row trains, column tests",
            float_fmt=".1f",
        )

    def carryover_table(self) -> str:
        rows = sorted(
            self.feature_carryover.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return render_table(
            ("feature", "scenarios selecting it"),
            [[name, float(count)] for name, count in rows],
            title=f"Lasso carryover across {len(self.scenarios)} scenarios",
            float_fmt=".0f",
        )


def generalization_spec(
    campaign=None,
    n_runs: int = 8,
    scenarios: tuple[str, ...] = GENERALIZATION_SCENARIOS,
) -> CampaignSpec:
    """The matrix's data-collection side as a declarative spec: one
    ``scenario`` axis, staged through training (the cross-scoring is
    this driver's own synthesis on top of the cached cell artifacts)."""
    if campaign is None:
        campaign = DEFAULT_CAMPAIGN
    if len(scenarios) < 2:
        raise ValueError(
            f"need at least 2 scenarios for a matrix, got {list(scenarios)}"
        )
    return CampaignSpec(
        name="ext-generalization",
        base=replace(campaign, n_runs=n_runs),
        axes={"scenario": tuple(scenarios)},
        stages=("simulate", "aggregate", "train"),
        window_seconds=EXPERIMENT_WINDOW,
        models=("m5p", "reptree"),
        train_seed=0,
    )


def _base_feature(name: str) -> str:
    """Collapse an aggregated column to its base feature (slope columns
    count toward the feature they differentiate)."""
    return name[: -len("_slope")] if name.endswith("_slope") else name


def run(
    campaign=None,
    verbose: bool = True,
    n_runs: int = 8,
    jobs: int = 1,
    use_cache: bool = True,
    scenarios: tuple[str, ...] = GENERALIZATION_SCENARIOS,
) -> GeneralizationResult:
    """Collect/load every scenario's campaign, then cross-score all pairs."""
    spec = generalization_spec(campaign, n_runs=n_runs, scenarios=scenarios)
    store = get_store() if use_cache else None
    campaign_result = CampaignManager(spec, store).run(jobs=jobs)

    histories: dict[str, object] = {}
    datasets: dict[str, object] = {}
    envelopes: dict[str, object] = {}
    cell_fps: dict[str, str] = {}
    for outcome in campaign_result.outcomes:
        name = dict(outcome.cell.params)["scenario"]
        histories[name] = outcome.results["simulate"]
        datasets[name] = outcome.results["aggregate"]
        envelopes[name] = outcome.results["train"]
        cell_fps[name] = outcome.cell.fingerprint
    missing = [s for s in scenarios if s not in envelopes]
    if missing:
        raise RuntimeError(f"campaign produced no outcome for {missing}")

    # Per-column tolerance: each scenario fails on its own horizon, so
    # its 10% S-MAE threshold comes from its own mean run length.
    thresholds = {
        b: resolve_smae_threshold(None, 0.10, histories[b].mean_run_length)
        for b in scenarios
    }
    matrix: dict[str, dict[str, float]] = {}
    for a in scenarios:
        env = envelopes[a]
        row: dict[str, float] = {}
        for b in scenarios:
            ds = datasets[b]
            if env.feature_names is not None and tuple(
                env.feature_names
            ) != tuple(ds.feature_names):
                raise RuntimeError(
                    f"feature schema mismatch between {a} and {b}"
                )
            row[b] = soft_mean_absolute_error(
                ds.y, env.model.predict(ds.X), thresholds[b]
            )
        matrix[a] = row

    # Which features carry across families: Lasso path per scenario at
    # the paper's operating point (max shrinkage, floor on set size).
    selected: dict[str, tuple[str, ...]] = {}
    for s in scenarios:
        selector = LassoFeatureSelector().fit(datasets[s])
        selected[s] = selector.strongest_with_at_least(
            MIN_SELECTED_FEATURES
        ).selected
    carryover: dict[str, int] = {}
    for s in scenarios:
        for base in {_base_feature(n) for n in selected[s]}:
            carryover[base] = carryover.get(base, 0) + 1

    mean_ttf = {s: float(histories[s].mean_run_length) for s in scenarios}
    best_models = {
        s: str(envelopes[s].metadata.get("model", "?")) for s in scenarios
    }
    doc = {
        "schema": "f2pm.generalization-report/1",
        "scenarios": list(scenarios),
        "n_runs": spec.base.n_runs,
        "window_seconds": spec.window_seconds,
        "models": list(spec.models),
        "train_seed": spec.train_seed,
        "cell_fingerprints": cell_fps,
        "mean_ttf": mean_ttf,
        "smae_thresholds": thresholds,
        "best_models": best_models,
        "matrix": matrix,
        "generalization_gap": {
            a: {b: matrix[a][b] - matrix[b][b] for b in scenarios}
            for a in scenarios
        },
        "selected_features": {s: list(v) for s, v in selected.items()},
        "feature_carryover": carryover,
    }
    # Publish the synthesis as a first-class report artifact, keyed by
    # exactly its inputs: the cell fingerprints plus analysis params.
    report_fp = fingerprint(
        "campaign-report",
        {
            "generalization": sorted(cell_fps.items()),
            "window_seconds": spec.window_seconds,
            "models": spec.models,
            "train_seed": spec.train_seed,
            "min_selected": MIN_SELECTED_FEATURES,
            "selection_solver": SELECTION_SOLVER,
        },
    )
    report_name = f"report_{report_fp[:SHORT_DIGEST_LEN]}.json"
    if store is not None:
        store.get_or_produce(
            report_name,
            lambda: doc,
            save=lambda d, path: path.write_text(
                json.dumps(d, indent=2, sort_keys=True) + "\n"
            ),
            load=lambda path: json.loads(path.read_text()),
            kind="campaign-report",
            fingerprint=report_fp,
        )

    result = GeneralizationResult(
        scenarios=tuple(scenarios),
        matrix=matrix,
        thresholds=thresholds,
        mean_ttf=mean_ttf,
        best_models=best_models,
        selected_features=selected,
        feature_carryover=carryover,
        report_name=report_name,
    )
    if verbose:
        print(result.table())
        print()
        print(result.carryover_table())
        if store is not None:
            print(f"\nreport artifact: {report_name}")
    if use_cache:
        write_driver_manifest(
            "ext_generalization",
            driver_manifest(
                "ext_generalization",
                extra={"report": report_name, "scenarios": list(scenarios)},
            ),
        )
    return result


if __name__ == "__main__":
    import argparse

    from repro.parallel import resolve_jobs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=8, metavar="N")
    parser.add_argument("--jobs", type=int, default=None, metavar="N")
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario to include (repeatable; default: the standard four)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="skip the artifact store"
    )
    args = parser.parse_args()
    run(
        n_runs=args.runs,
        jobs=resolve_jobs(args.jobs),
        use_cache=not args.no_cache,
        scenarios=tuple(args.scenarios) if args.scenarios else GENERALIZATION_SCENARIOS,
    )
