"""Property-based tests for datapoint aggregation (paper Sec. III-B)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationConfig, aggregate_run
from repro.core.datapoint import AGGREGATED_FEATURES, FEATURES
from repro.core.history import RunRecord

N_F = len(FEATURES)
TGEN_COL = 0


@st.composite
def random_run(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    intervals = rng.uniform(0.5, 5.0, size=n)
    tgen = np.cumsum(intervals)
    feats = rng.uniform(0.0, 1e6, size=(n, N_F))
    feats[:, TGEN_COL] = tgen
    fail_time = float(tgen[-1] + rng.uniform(0.1, 100.0))
    return RunRecord(features=feats, fail_time=fail_time, metadata={"crashed": 1.0})


windows = st.floats(min_value=1.0, max_value=200.0)


class TestAggregationProperties:
    @given(random_run(), windows)
    @settings(max_examples=60, deadline=None)
    def test_shapes_consistent(self, run, window):
        X, rttf = aggregate_run(run, AggregationConfig(window_seconds=window))
        assert X.shape == (rttf.shape[0], len(AGGREGATED_FEATURES))
        assert X.shape[0] <= run.n_datapoints

    @given(random_run(), windows)
    @settings(max_examples=60, deadline=None)
    def test_rttf_positive_and_decreasing(self, run, window):
        _, rttf = aggregate_run(run, AggregationConfig(window_seconds=window))
        assert (rttf > 0).all()
        assert (np.diff(rttf) < 0).all()

    @given(random_run(), windows)
    @settings(max_examples=60, deadline=None)
    def test_means_within_raw_bounds(self, run, window):
        X, _ = aggregate_run(run, AggregationConfig(window_seconds=window))
        for col in range(N_F):
            lo, hi = run.features[:, col].min(), run.features[:, col].max()
            assert (X[:, col] >= lo - 1e-6).all()
            assert (X[:, col] <= hi + 1e-6).all()

    @given(random_run())
    @settings(max_examples=40, deadline=None)
    def test_one_window_per_point_at_tiny_window(self, run):
        # a window smaller than the minimum spacing isolates every point
        spacing = np.diff(run.column("tgen")).min()
        if spacing <= 1e-3:
            return
        X, _ = aggregate_run(run, AggregationConfig(window_seconds=spacing * 0.49))
        assert X.shape[0] == run.n_datapoints
        # single-point windows: means equal the raw rows, slopes zero
        slope_cols = slice(N_F, N_F + N_F - 1)
        assert np.allclose(X[:, slope_cols], 0.0)

    @given(random_run())
    @settings(max_examples=40, deadline=None)
    def test_giant_window_aggregates_everything(self, run):
        span = run.column("tgen")[-1] + 1.0
        X, _ = aggregate_run(run, AggregationConfig(window_seconds=span))
        assert X.shape[0] == 1
        assert np.allclose(X[0, :N_F], run.features.mean(axis=0))

    @given(random_run(), windows)
    @settings(max_examples=60, deadline=None)
    def test_gen_time_positive(self, run, window):
        X, _ = aggregate_run(run, AggregationConfig(window_seconds=window))
        gen_col = AGGREGATED_FEATURES.index("gen_time")
        assert (X[:, gen_col] > 0).all()

    @given(random_run(), windows)
    @settings(max_examples=50, deadline=None)
    def test_online_batch_parity(self, run, window):
        """The streaming aggregator equals the batch path on any run."""
        from tests.rejuvenation.control_reference import OnlineAggregator

        batch_X, _ = aggregate_run(run, AggregationConfig(window_seconds=window))
        agg = OnlineAggregator(window)
        rows = []
        for raw in run.features:
            out = agg.add(raw)
            if out is not None:
                rows.append(out)
        tail = agg.flush()
        if tail is not None:
            rows.append(tail)
        online_X = np.vstack(rows)
        assert online_X.shape == batch_X.shape
        assert np.allclose(online_X, batch_X, rtol=1e-12, atol=1e-9)

    @given(random_run(), windows)
    @settings(max_examples=60, deadline=None)
    def test_eq1_slope_bounds(self, run, window):
        """|slope| <= (max-min)/n for each feature within the window."""
        cfg = AggregationConfig(window_seconds=window)
        X, _ = aggregate_run(run, cfg)
        bins = np.floor_divide(run.column("tgen"), window).astype(int)
        uniq = np.unique(bins)
        for row, b in enumerate(uniq):
            mask = bins == b
            n = mask.sum()
            block = run.features[mask]
            for j in range(1, N_F):
                slope = X[row, N_F + j - 1]
                spread = block[:, j].max() - block[:, j].min()
                assert abs(slope) <= spread / n + 1e-9
