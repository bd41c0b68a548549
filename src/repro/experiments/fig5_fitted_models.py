"""Fig. 5 — predicted vs real RTTF per method (all parameters).

The paper plots, for each of the six methods, the model prediction (y)
against the true RTTF (x) on the validation set, with the diagonal as
ground truth. Shape to reproduce: predictions hug the diagonal near the
failure point (small RTTF) and under-predict far from it — because the
accumulating anomalies depress throughput, which slows further anomaly
accumulation and delays the actual failure beyond what early-run
dynamics suggest. Lasso-as-a-predictor stays far from the diagonal
everywhere.

Since the harness is text-based, the driver quantifies the plot: per
model, the MAE *binned by true RTTF* (near / mid / far thirds of the
horizon) plus the mean signed error far from failure (negative =
under-prediction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import F2PM, F2PMResult
from repro.experiments.common import default_f2pm_config, default_history
from repro.utils.tables import render_table

#: Models plotted in the paper's Fig. 5 panels (a)-(f).
FIG5_MODELS = ("lasso(1e9)", "linear", "m5p", "reptree", "svm", "svm2")


@dataclass
class ModelBins:
    """Binned error profile of one model's predicted-vs-real curve."""

    name: str
    mae_near: float  # true RTTF in the bottom third of the horizon
    mae_mid: float
    mae_far: float
    bias_far: float  # mean (pred - true) in the far bin

    @property
    def error_grows_with_rttf(self) -> bool:
        """Paper shape: error smallest while approaching the failure."""
        return self.mae_near <= self.mae_far


@dataclass
class Fig5Result:
    result: F2PMResult
    bins: dict[str, ModelBins]

    def table(self) -> str:
        rows = [
            [b.name, b.mae_near, b.mae_mid, b.mae_far, b.bias_far]
            for b in self.bins.values()
        ]
        return render_table(
            (
                "model",
                "MAE near failure (s)",
                "MAE mid (s)",
                "MAE far (s)",
                "bias far (s)",
            ),
            rows,
            title="Fig. 5 — prediction error vs distance from failure",
        )

    def manifest(self) -> dict:
        """Provenance manifest for the Fig. 5 artefact."""
        from repro.experiments.common import driver_manifest

        return driver_manifest(
            "fig5_fitted_models",
            self.result,
            extra={
                "bins": {
                    name: {
                        "mae_near": b.mae_near,
                        "mae_mid": b.mae_mid,
                        "mae_far": b.mae_far,
                        "bias_far": b.bias_far,
                    }
                    for name, b in self.bins.items()
                }
            },
        )


def _bin_errors(name: str, y_true: np.ndarray, y_pred: np.ndarray) -> ModelBins:
    edges = np.quantile(y_true, [1.0 / 3.0, 2.0 / 3.0])
    near = y_true <= edges[0]
    mid = (y_true > edges[0]) & (y_true <= edges[1])
    far = y_true > edges[1]
    err = y_pred - y_true
    return ModelBins(
        name=name,
        mae_near=float(np.abs(err[near]).mean()),
        mae_mid=float(np.abs(err[mid]).mean()),
        mae_far=float(np.abs(err[far]).mean()),
        bias_far=float(err[far].mean()),
    )


def run(f2pm: F2PMResult | None = None, verbose: bool = True) -> Fig5Result:
    """Read *f2pm* (default: run F2PM on the shared campaign)."""
    if f2pm is None:
        f2pm = F2PM(default_f2pm_config()).run(default_history())
    y_true = f2pm.y_validation
    bins: dict[str, ModelBins] = {}
    for name in FIG5_MODELS:
        pred = f2pm.predictions.get((name, "all"))
        if pred is None:
            continue
        bins[name] = _bin_errors(name, y_true, pred)
    result = Fig5Result(result=f2pm, bins=bins)
    if verbose:
        print(result.table())
    return result


if __name__ == "__main__":
    run()
