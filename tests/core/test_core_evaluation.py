"""Tests for model evaluation (repro.core.evaluation)."""

from collections import defaultdict

import numpy as np
import pytest

from repro import obs
from repro.core import F2PM
from repro.core.dataset import TrainingSet
from repro.core.evaluation import (
    ModelReport,
    evaluate_model,
    resolve_smae_threshold,
)
from repro.experiments.common import default_f2pm_config
from repro.ml.linear import LinearRegression
from repro.obs import get_metrics
from repro.rejuvenation import (
    FleetConfig,
    FleetController,
    ManagedSystemConfig,
    PredictiveRejuvenation,
    SyntheticFleetSource,
    SyntheticFleetSpec,
)
from repro.system import MemoryExhaustion, TestbedSimulator
from tests.conftest import LoopOnly, small_campaign


@pytest.fixture
def train_val():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 3))
    y = 10.0 * X[:, 0] + rng.normal(scale=0.5, size=120)
    names = ("a", "b", "c")
    return (
        TrainingSet(X[:90], y[:90], names),
        TrainingSet(X[90:], y[90:], names),
    )


class TestResolveThreshold:
    def test_absolute_wins(self):
        assert resolve_smae_threshold(25.0, 0.1, 1000.0) == 25.0

    def test_fractional(self):
        assert resolve_smae_threshold(None, 0.1, 2000.0) == 200.0

    def test_neither_raises(self):
        with pytest.raises(ValueError):
            resolve_smae_threshold(None, None, 1000.0)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            resolve_smae_threshold(-1.0, None, 1000.0)
        with pytest.raises(ValueError):
            resolve_smae_threshold(None, 1.5, 1000.0)


class TestEvaluateModel:
    def test_report_contents(self, train_val):
        train, val = train_val
        report, fitted, pred = evaluate_model(
            "linear", LinearRegression(), train, val, smae_threshold=1.0
        )
        assert report.name == "linear"
        assert report.n_features == 3
        assert report.mae < 1.0  # near-noiseless linear fit
        assert report.s_mae <= report.mae
        assert report.max_ae >= report.mae
        assert report.rae < 0.2
        assert report.train_time >= 0.0
        assert report.validation_time >= 0.0
        assert pred.shape == (val.n_samples,)

    def test_fitted_model_returned(self, train_val):
        train, val = train_val
        model = LinearRegression()
        _, fitted, _ = evaluate_model(
            "linear", model, train, val, smae_threshold=1.0
        )
        assert fitted is model
        assert fitted.coef_ is not None

    def test_feature_set_label(self, train_val):
        train, val = train_val
        report, _, _ = evaluate_model(
            "linear",
            LinearRegression(),
            train,
            val,
            smae_threshold=1.0,
            feature_set="selected",
        )
        assert report.feature_set == "selected"

    def test_mismatched_feature_sets_rejected(self, train_val):
        train, val = train_val
        bad_val = TrainingSet(val.X[:, :2], val.y, ("a", "b"))
        with pytest.raises(ValueError, match="differ"):
            evaluate_model(
                "linear", LinearRegression(), train, bad_val, smae_threshold=1.0
            )

    def test_report_row_matches_headers(self, train_val):
        train, val = train_val
        report, _, _ = evaluate_model(
            "linear", LinearRegression(), train, val, smae_threshold=1.0
        )
        assert len(report.row()) == len(ModelReport.HEADERS)


@pytest.fixture(scope="module")
def instrumented(history):
    """A default F2PM run, a campaign on each engine and a predictive
    fleet, recorded on one fresh registry."""
    obs.reset()
    result = F2PM(default_f2pm_config()).run(history)
    for condition in (None, LoopOnly(MemoryExhaustion())):
        TestbedSimulator(small_campaign(n_runs=2), condition).run_campaign()
    FleetController(
        SyntheticFleetSource(SyntheticFleetSpec()),
        ManagedSystemConfig(horizon_seconds=2000.0, window_seconds=20.0),
        PredictiveRejuvenation(result.models[("m5p", "all")], rttf_margin=150.0),
        FleetConfig(n_nodes=4),
    ).run(seed=0)
    return result, get_metrics().snapshot()


class TestOneClockPerInterval:
    """One clock reads each measured interval: the phase's span clock
    feeds its histogram and the report."""

    def test_times_phases_with_obs_off(self, train_val):
        train, val = train_val
        obs.disable()
        try:
            report, _, _ = evaluate_model(
                "linear", LinearRegression(), train, val, smae_threshold=1.0
            )
        finally:
            obs.enable()
        assert report.train_time > 0.0
        assert report.validation_time > 0.0

    def test_fit_histograms_sum_the_report_train_times(self, instrumented):
        result, snap = instrumented
        train_times = defaultdict(list)
        for report in result.reports:
            train_times[report.name].append(report.train_time)
        for name, times in train_times.items():
            fit = snap["histograms"][f"model.fit_seconds.{name}"]
            assert fit["count"] == len(times)
            assert fit["total"] == sum(times)

    def test_no_second_clock_is_recorded(self, instrumented):
        _, snap = instrumented
        names = [name for kind in snap.values() for name in kind]
        assert "fleet.predict_seconds" in names
        assert "ml.predictions_total" not in names
        assert not [
            name
            for name in names
            if name.startswith(
                ("profile.", "ml.fit_seconds.", "ml.predict_seconds.", "sim.fused_block_")
            )
        ]
