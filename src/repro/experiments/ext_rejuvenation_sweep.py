"""Extension experiment — proactive-rejuvenation margin sweep.

Not a paper artefact: this closes the loop the paper motivates but never
evaluates. For a range of RTTF margins, a predictive policy built on the
best F2PM model manages the testbed over a long horizon; the sweep shows
the availability trade-off:

- margin too small -> the model's prediction error (S-MAE) exceeds the
  margin, restarts fire too late, crashes slip through;
- margin too large -> restarts fire needlessly early, wasting uptime;
- margins around the S-MAE tolerance maximize availability — precisely
  why the paper defines S-MAE relative to the rejuvenation lead time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import F2PM, F2PMResult
from repro.experiments.common import (
    DEFAULT_CAMPAIGN,
    EXPERIMENT_WINDOW,
    default_f2pm_config,
    default_history,
)
from repro.rejuvenation import (
    ManagedSystem,
    ManagedSystemConfig,
    NoRejuvenation,
    PredictiveRejuvenation,
    summarize,
)
from repro.rejuvenation.metrics import AvailabilityReport
from repro.utils.tables import render_table

#: Margins expressed as multiples of the model's S-MAE tolerance.
MARGIN_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)

#: The models the policy may serve: the paper's two most accurate.
SWEEP_MODELS = ("m5p", "reptree")


@dataclass
class RejuvenationSweepResult:
    baseline: AvailabilityReport
    by_margin: dict[float, AvailabilityReport]
    smae_threshold: float

    def table(self) -> str:
        rows = [["crash-only", *self.baseline.row()[1:]]]
        for factor, report in sorted(self.by_margin.items()):
            rows.append([f"margin {factor:.2f}x S-MAE", *report.row()[1:]])
        return render_table(
            ("policy", *AvailabilityReport.HEADERS[1:]),
            rows,
            title="Proactive rejuvenation: availability vs RTTF margin",
            float_fmt=".4f",
        )

    @property
    def best_factor(self) -> float:
        return max(self.by_margin, key=lambda f: self.by_margin[f].availability)


def run(
    f2pm: F2PMResult | None = None,
    verbose: bool = True,
    horizon_seconds: float = 40_000.0,
    campaign=None,
) -> RejuvenationSweepResult:
    """Sweep predictive margins over a managed horizon, serving the more
    accurate of *f2pm*'s :data:`SWEEP_MODELS` (default: fit only those
    on the shared campaign).

    ``campaign`` must describe the same system the F2PM history was
    collected on (the model transfers only within one machine
    configuration); defaults to the shared experiment campaign.
    """
    if f2pm is None:
        config = replace(
            default_f2pm_config(), models=SWEEP_MODELS, lasso_predictor_lambdas=()
        )
        f2pm = F2PM(config).run(default_history())
    best = min((f2pm.report(name) for name in SWEEP_MODELS), key=lambda r: r.s_mae)
    model = f2pm.models[(best.name, "all")]

    managed_cfg = ManagedSystemConfig(
        horizon_seconds=horizon_seconds, window_seconds=EXPERIMENT_WINDOW
    )
    if campaign is None:
        campaign = DEFAULT_CAMPAIGN

    baseline = summarize(
        ManagedSystem(campaign, managed_cfg, NoRejuvenation()).run(seed=101)
    )
    by_margin: dict[float, AvailabilityReport] = {}
    for factor in MARGIN_FACTORS:
        policy = PredictiveRejuvenation(
            model, rttf_margin=factor * f2pm.smae_threshold, consecutive=2
        )
        log = ManagedSystem(campaign, managed_cfg, policy).run(seed=101)
        by_margin[factor] = summarize(log)

    result = RejuvenationSweepResult(
        baseline=baseline, by_margin=by_margin, smae_threshold=f2pm.smae_threshold
    )
    if verbose:
        print(result.table())
        print(
            f"\nbest margin: {result.best_factor:.2f}x the S-MAE tolerance "
            f"({f2pm.smae_threshold:.0f}s); model: {best.name}"
        )
    return result


if __name__ == "__main__":
    run()
