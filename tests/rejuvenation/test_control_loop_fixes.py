"""Regressions for the control-loop bug sweep.

Four defects surfaced while generalizing the single-node loop to the
fleet controller; each gets a pinned regression here, run through
``ManagedSystem`` (a fleet of one):

1. predictions made while holding a stale window were never recorded
   for the truth series (``fleet.rttf_error``), which then silently
   skipped exactly the stretches where the controller flew on held data;
2. purely time-based policies were only consulted on window completion,
   so total monitor dropout starved ``PeriodicRejuvenation`` forever;
3. ``sanitize.dropped_total`` was emitted only on window completion —
   the dashboard flat-lined precisely when the sanitizer dropped
   everything;
4. with ``lower_bound_quantile`` set, ``last_prediction`` was
   overwritten with the conservative lower bound, conflating the bound
   with the mean RTTF in telemetry and episode logs.
"""

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultProfile
from repro.ml.linear import LinearRegression
from repro.obs import get_metrics, get_telemetry
from repro.rejuvenation import (
    ManagedSystem,
    ManagedSystemConfig,
    NoRejuvenation,
    PeriodicRejuvenation,
    PredictiveRejuvenation,
    RejuvenationPolicy,
)
from tests.conftest import small_campaign
from tests.rejuvenation.control_reference import clone


def managed_config(**kwargs):
    defaults = dict(horizon_seconds=2000.0, window_seconds=20.0)
    defaults.update(kwargs)
    return ManagedSystemConfig(**defaults)


def constant_model(value: float) -> LinearRegression:
    model = LinearRegression()
    model.coef_ = np.zeros(30)
    model.intercept_ = float(value)
    return model


def series_points(snap, name):
    s = snap["series"].get(name)
    if s is None:
        return []
    assert s["stride"] == 1, "test scenario overflowed the series ring"
    return s["points"]


class RecordingModel:
    """Pass-through model that logs each scored row's window mean tgen
    (episode-local time), in call order."""

    def __init__(self, inner):
        self.inner = inner
        self.t_means = []

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.t_means.extend(X[:, 0].tolist())
        return self.inner.predict(X)


def predictions_per_episode(t_means):
    """Prediction counts per episode, in episode order.

    Episode-local time restarts at every reboot, so a new episode's first
    window mean drops below the last one scored; a held consult rescores
    the last window, whose mean does not drop. An episode that ends
    before its first window completes has no group.
    """
    counts = []
    last = np.inf
    for t_mean in t_means:
        if t_mean < last:
            counts.append(0)
        counts[-1] += 1
        last = t_mean
    return counts


class TestStaleHoldPredictionsRecorded:
    def test_truth_series_covers_held_predictions(self):
        # nan=0.25 drops ~98% of rows: after the first window completes,
        # the policy keeps being consulted via the stale-hold path. The
        # model never triggers (prediction far above margin), so every
        # episode ends in crash or at the horizon — and for the crash
        # episodes, EVERY prediction must get a matching truth point.
        obs.reset()
        model = RecordingModel(constant_model(1e6))
        log = ManagedSystem(
            small_campaign(n_runs=2),
            managed_config(),
            PredictiveRejuvenation(model, rttf_margin=1.0, consecutive=2),
            fault_profile=FaultProfile.from_spec("nan=0.25"),
        ).run(seed=1)
        holds = get_metrics().snapshot()["counters"].get(
            "fleet.stale_holds_total", 0
        )
        assert holds >= 1  # the stale path actually ran
        snap = get_telemetry().snapshot()
        error_ts = [t for t, _ in series_points(snap, "fleet.rttf_error")]
        counts = predictions_per_episode(model.t_means)
        assert len(counts) == len(log.episodes)  # no episode went unscored
        crashed = [
            (e, n) for e, n in zip(log.episodes, counts) if e.outcome == "crash"
        ]
        assert crashed
        # Pre-fix, held consults made a prediction but no truth point: the
        # error series missed most of each crashed episode's predictions.
        expected = [n for _, n in crashed]
        got = [sum(e.start < t <= e.end for t in error_ts) for e, _ in crashed]
        assert got == expected
        assert len(error_ts) == sum(expected)
        assert sum(expected) >= holds  # held consults are the bulk here


class TestTimeTriggerIndependentOfStream:
    def test_periodic_fires_under_total_dropout(self):
        # nan=1.0 corrupts every row, the sanitizer drops everything, no
        # window ever completes. Pre-fix the periodic policy was never
        # consulted and every episode ran to the crash.
        log = ManagedSystem(
            small_campaign(n_runs=2),
            managed_config(),
            PeriodicRejuvenation(400.0),
            fault_profile=FaultProfile.from_spec("nan=1.0"),
        ).run(seed=1)
        body = log.episodes[:-1]
        assert body
        assert all(e.outcome == "rejuvenation" for e in body)
        assert all(e.end - e.start == pytest.approx(400.0) for e in body)

    def test_base_policy_time_trigger_is_inert(self):
        assert NoRejuvenation().time_trigger(1e9) is False
        model = constant_model(100.0)
        pol = PredictiveRejuvenation(model, rttf_margin=50.0)
        assert pol.time_trigger(1e9) is False

    def test_periodic_time_trigger(self):
        pol = PeriodicRejuvenation(300.0)
        assert not pol.time_trigger(299.9)
        assert pol.time_trigger(300.0)


class TestDroppedTotalEmittedPerSample:
    """The drop series is emitted on the fleet's telemetry stride, not
    on window completion."""

    def test_series_present_with_zero_windows(self):
        obs.reset()
        ManagedSystem(
            small_campaign(n_runs=2),
            managed_config(horizon_seconds=600.0),
            NoRejuvenation(),
            fault_profile=FaultProfile.from_spec("nan=1.0"),
        ).run(seed=1)
        snap = get_telemetry().snapshot()
        s = snap["series"].get("sanitize.dropped_total")
        # Pre-fix this series had zero points: it was only emitted when a
        # window completed, and no window ever does under total dropout.
        assert s is not None and s["total"] >= 1
        assert s["last"][1] >= 1.0


class _IntervalStub:
    """Regressor stub with a fixed (lower, mean, upper) interval."""

    def __init__(self, lower, mean, upper):
        self._triple = (lower, mean, upper)

    def predict(self, X):
        return np.full(len(X), self._triple[1])

    def predict_interval(self, X, quantile):
        lo, mid, hi = self._triple
        n = len(X)
        return np.full(n, lo), np.full(n, mid), np.full(n, hi)


class TestLowerBoundExposedSeparately:
    def test_mean_and_bound_are_distinct(self):
        pol = PredictiveRejuvenation(
            _IntervalStub(80.0, 200.0, 320.0),
            rttf_margin=100.0,
            consecutive=1,
            lower_bound_quantile=0.1,
        )
        # the conservative bound (80 < 100) triggers...
        assert pol.should_rejuvenate(np.zeros(30), run_age=10.0)
        # ...but telemetry must report the mean, not the bound
        assert pol.last_prediction == 200.0
        assert pol.last_lower_bound == 80.0

    def test_mean_path_leaves_bound_unset(self):
        pol = PredictiveRejuvenation(constant_model(200.0), rttf_margin=100.0)
        pol.should_rejuvenate(np.zeros(30), run_age=10.0)
        assert pol.last_prediction == 200.0
        assert pol.last_lower_bound is None

    def test_reset_clears_both(self):
        pol = PredictiveRejuvenation(
            _IntervalStub(80.0, 200.0, 320.0),
            rttf_margin=100.0,
            lower_bound_quantile=0.1,
        )
        pol.should_rejuvenate(np.zeros(30), run_age=10.0)
        pol.reset()
        assert pol.last_prediction is None
        assert pol.last_lower_bound is None


class TestPolicyClone:
    def test_clone_shares_model_but_resets_state(self):
        model = constant_model(10.0)
        pol = PredictiveRejuvenation(model, rttf_margin=100.0, consecutive=3)
        pol.should_rejuvenate(np.zeros(30), run_age=5.0)
        assert pol._streak == 1
        twin = clone(pol)
        assert twin.model is model  # heavyweight collaborator shared
        assert twin._streak == 0 and twin.last_prediction is None
        assert pol._streak == 1  # prototype untouched
        assert isinstance(twin, RejuvenationPolicy)

    def test_clones_decide_independently(self):
        pol = PredictiveRejuvenation(
            constant_model(10.0), rttf_margin=100.0, consecutive=2
        )
        a, b = clone(pol), clone(pol)
        a.should_rejuvenate(np.zeros(30), run_age=1.0)
        assert a._streak == 1 and b._streak == 0
