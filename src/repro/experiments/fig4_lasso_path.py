"""Fig. 4 — number of parameters selected by Lasso vs lambda.

The paper sweeps lambda over ten decades (10^0 .. 10^9) and counts the
non-zero weights of the Eq. (2) solution: the curve is non-increasing,
starting near the full parameter count (~30: base features + slopes +
gen_time) and ending with a handful of high-interest features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import AggregationConfig, LassoFeatureSelector, aggregate_history
from repro.experiments.common import EXPERIMENT_WINDOW, default_history
from repro.utils.tables import render_table


@dataclass
class Fig4Result:
    """The selection-count series over the lambda grid."""

    lambdas: np.ndarray
    counts: np.ndarray
    selector: LassoFeatureSelector

    def table(self) -> str:
        """One row per lambda; a count the path's knot cap stopped short
        of reads ``<count> (capped)``."""
        rows = [
            [f"1e{int(round(np.log10(r.lam)))}", r.count_label]
            for r in self.selector.results_
        ]
        return render_table(
            ("lambda", "selected parameters"),
            rows,
            title="Fig. 4 — Parameters selected by Lasso",
        )

    def manifest(self) -> dict:
        """Provenance manifest for the Fig. 4 artefact."""
        from repro.experiments.common import driver_manifest

        return driver_manifest(
            "fig4_lasso_path",
            extra={
                "lambdas": [float(lam) for lam in self.lambdas],
                "counts": [int(c) for c in self.counts],
            },
        )


def run(
    selector: LassoFeatureSelector | None = None, verbose: bool = True
) -> Fig4Result:
    """Read a fitted Lasso path (default: fit one on the shared campaign)."""
    if selector is None:
        dataset = aggregate_history(
            default_history(), AggregationConfig(window_seconds=EXPERIMENT_WINDOW)
        )
        selector = LassoFeatureSelector().fit(dataset)
    pairs = selector.selection_counts()
    result = Fig4Result(
        lambdas=np.array([lam for lam, _ in pairs]),
        counts=np.array([cnt for _, cnt in pairs]),
        selector=selector,
    )
    if verbose:
        print(result.table())
    return result


if __name__ == "__main__":
    run()
