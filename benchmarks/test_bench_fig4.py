"""Bench FIG4 — the Lasso regularization path of the paper's Fig. 4.

Benchmarks the exact LARS-Lasso path over the ten-decade lambda grid and
asserts the figure's shape: the number of selected parameters is
non-increasing in lambda, starts large, and ends with a small
high-interest set.
"""

from __future__ import annotations

import numpy as np

from repro.core import LassoFeatureSelector


def test_fig4_lasso_path(benchmark, dataset):
    def fit_path():
        return LassoFeatureSelector().fit(dataset)

    selector = benchmark(fit_path)

    counts = np.array([c for _, c in selector.selection_counts()])
    lams = np.array([lam for lam, _ in selector.selection_counts()])

    # --- Fig. 4 shape assertions -------------------------------------------
    assert lams[0] == 1.0 and lams[-1] == 1e9  # the paper's grid
    assert (np.diff(counts) <= 0).all()  # monotone shrinkage
    assert counts[0] >= 10  # weak penalty keeps a large set
    assert counts[-1] <= 8  # strong penalty keeps at most a handful
    # most of the grid still selects something (the curve is a staircase,
    # not a cliff)
    assert (counts > 0).sum() >= 7
