"""Fixtures shared by the rejuvenation suites."""

import pytest

from repro.core import AggregationConfig, aggregate_history
from repro.ml import M5PRegressor
from repro.ml.ensemble import BaggingRegressor


@pytest.fixture(scope="session")
def rttf_models(history):
    """An M5P tree and a bagged ensemble trained on 20 s windows."""
    ds = aggregate_history(history, AggregationConfig(window_seconds=20.0))
    return {
        "m5p": M5PRegressor().fit(ds.X, ds.y),
        "bagged": BaggingRegressor(n_estimators=8, seed=0).fit(ds.X, ds.y),
    }
