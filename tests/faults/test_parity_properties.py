"""Property suite: batch↔online parity and strict no-op bit-identity.

The two pipelines (``aggregate_run`` over a stored history, and
``OnlineAggregator`` fed one datapoint at a time) must produce the same
windows — on clean streams, after sanitation of dirty streams, and for
every ``min_points`` setting. Strict sanitation of clean data must be a
no-op down to object identity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationConfig, aggregate_run
from repro.core.datapoint import FEATURES
from repro.core.history import RunRecord
from repro.core.sanitize import sanitize_run
from repro.faults import CORRUPTION_MODELS, DirtyRun, FaultProfile
from tests.rejuvenation.control_reference import OnlineAggregator

N_F = len(FEATURES)


@st.composite
def clean_run(draw):
    n = draw(st.integers(min_value=4, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    tgen = np.cumsum(rng.uniform(0.5, 5.0, size=n))
    # Telemetry-like values: a bounded band so white noise cannot mimic a
    # genuine defect (a 64x scale dip, a 50x sampling gap, a 25x fail
    # gap). The strict no-op guarantee is calibrated for plausible
    # monitor output, not for adversarial noise.
    feats = rng.uniform(2e5, 8e5, size=(n, N_F))
    feats[:, 0] = tgen
    fail = float(tgen[-1] + rng.uniform(0.1, 2.0))
    return RunRecord(features=feats, fail_time=fail, metadata={"crashed": 1.0})


windows = st.floats(min_value=2.0, max_value=100.0)
min_points = st.integers(min_value=1, max_value=5)
model_names = st.sampled_from(sorted(CORRUPTION_MODELS))
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def stream_windows(run, window, *, min_pts=1, policy="strict"):
    agg = OnlineAggregator(window, min_points=min_pts, policy=policy)
    rows = []
    for raw in run.features:
        out = agg.add(raw)
        if out is not None:
            rows.append(out)
    final = agg.flush()
    if final is not None:
        rows.append(final)
    return np.vstack(rows) if rows else np.empty((0, 0))


class TestCleanParity:
    @given(clean_run(), windows, min_points)
    @settings(max_examples=60, deadline=None)
    def test_online_equals_batch_for_any_min_points(self, run, window, min_pts):
        config = AggregationConfig(window_seconds=window, min_points=min_pts)
        batch_X, _ = aggregate_run(run, config)
        online_X = stream_windows(run, window, min_pts=min_pts)
        assert online_X.shape[0] == batch_X.shape[0]
        if batch_X.shape[0]:
            np.testing.assert_array_equal(online_X, batch_X)

    @given(clean_run(), windows)
    @settings(max_examples=40, deadline=None)
    def test_repair_mode_is_identical_on_clean_streams(self, run, window):
        strict_X = stream_windows(run, window, policy="strict")
        repair_X = stream_windows(run, window, policy="repair")
        np.testing.assert_array_equal(strict_X, repair_X)


class TestStrictNoOp:
    @given(clean_run())
    @settings(max_examples=60, deadline=None)
    def test_strict_returns_the_same_object(self, run):
        out, report = sanitize_run(run, policy="strict")
        assert report.clean
        assert out is run

    @given(clean_run())
    @settings(max_examples=60, deadline=None)
    def test_repair_on_clean_changes_nothing(self, run):
        out, report = sanitize_run(run, policy="repair")
        assert report.clean
        np.testing.assert_array_equal(out.features, run.features)
        assert out.fail_time == run.fail_time


class TestDirtyParity:
    @given(clean_run(), model_names, seeds, windows)
    @settings(max_examples=60, deadline=None)
    def test_sanitized_stream_matches_sanitized_batch(
        self, run, model, seed, window
    ):
        """repair(dirty) then stream == repair(dirty) then batch.

        Whatever a corruption model did, once the sanitize layer has
        produced a valid RunRecord the two aggregation paths must agree
        exactly — the batch↔online parity guarantee under *every*
        corruption model.
        """
        profile = FaultProfile.from_spec(
            f"{model}=1" if model in ("reset", "truncate", "failskew") else f"{model}=0.1"
        )
        dirty = profile.apply_run(DirtyRun.from_run(run), seed=seed)
        fixed, _ = sanitize_run(dirty, policy="repair")
        if fixed is None or fixed.n_datapoints == 0:
            return  # quarantined outright: nothing to compare
        batch_X, _ = aggregate_run(fixed, AggregationConfig(window_seconds=window))
        online_X = stream_windows(fixed, window)
        assert online_X.shape[0] == batch_X.shape[0]
        if batch_X.shape[0]:
            np.testing.assert_array_equal(online_X, batch_X)

    @given(clean_run(), seeds, windows)
    @settings(max_examples=40, deadline=None)
    def test_online_repair_absorbs_in_window_reordering(self, run, seed, window):
        """A late arrival still inside its window leaves parity intact."""
        rng = np.random.default_rng(seed)
        feats = run.features.copy()
        # Swap one adjacent pair that stays within a single window.
        bins = (feats[:, 0] // window).astype(np.int64)
        candidates = np.flatnonzero(
            (bins[1:] == bins[:-1]) & (np.diff(feats[:, 0]) > 0)
        )
        if candidates.size == 0:
            return
        i = int(rng.choice(candidates))
        feats[[i, i + 1]] = feats[[i + 1, i]]
        batch_X, _ = aggregate_run(run, AggregationConfig(window_seconds=window))
        agg = OnlineAggregator(window, policy="repair")
        rows = []
        for raw in feats:
            out = agg.add(raw)
            if out is not None:
                rows.append(out)
        final = agg.flush()
        if final is not None:
            rows.append(final)
        online_X = np.vstack(rows)
        np.testing.assert_array_equal(online_X, batch_X)
        assert agg.late_dropped == 0
