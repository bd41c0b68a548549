"""Tests for the streaming aggregator (``OnlineAggregator``, the scalar
reference ``FleetStream`` is pinned to; see ``control_reference.py``)."""

import numpy as np
import pytest

from repro.core.aggregation import AggregationConfig, aggregate_run
from repro.core.datapoint import AGGREGATED_FEATURES, FEATURES
from tests.rejuvenation.control_reference import OnlineAggregator


class TestOnlineAggregator:
    def test_window_completion_emits_row(self):
        agg = OnlineAggregator(10.0)
        row = np.zeros(len(FEATURES))
        row[0] = 1.0
        assert agg.add(row) is None
        row2 = row.copy()
        row2[0] = 11.0  # next window
        out = agg.add(row2)
        assert out is not None
        assert out.shape == (len(AGGREGATED_FEATURES),)

    def test_batch_parity(self, history):
        """Streaming windows must equal the batch aggregation rows."""
        run = history[0]
        batch_X, _ = aggregate_run(run, AggregationConfig(window_seconds=30.0))
        agg = OnlineAggregator(30.0)
        online_rows = []
        for raw in run.features:
            out = agg.add(raw)
            if out is not None:
                online_rows.append(out)
        final = agg.flush()
        if final is not None:
            online_rows.append(final)
        online_X = np.vstack(online_rows)
        assert online_X.shape == batch_X.shape
        assert np.allclose(online_X, batch_X)

    def test_flush_partial_window(self):
        agg = OnlineAggregator(100.0)
        row = np.arange(float(len(FEATURES)))
        row[0] = 5.0
        agg.add(row)
        out = agg.flush()
        assert out is not None
        assert out[0] == 5.0  # mean tgen of the single point

    def test_flush_empty_returns_none(self):
        assert OnlineAggregator(10.0).flush() is None

    def test_reset_clears_state(self):
        agg = OnlineAggregator(10.0)
        row = np.zeros(len(FEATURES))
        row[0] = 3.0
        agg.add(row)
        agg.reset()
        assert agg.flush() is None
        # after reset the first point's interval is its own tgen again
        row2 = np.zeros(len(FEATURES))
        row2[0] = 4.0
        agg.add(row2)
        out = agg.flush()
        gen_col = AGGREGATED_FEATURES.index("gen_time")
        assert out[gen_col] == pytest.approx(4.0)

    def test_out_of_order_rejected(self):
        agg = OnlineAggregator(10.0)
        row = np.zeros(len(FEATURES))
        row[0] = 5.0
        agg.add(row)
        earlier = row.copy()
        earlier[0] = 2.0
        with pytest.raises(ValueError, match="order"):
            agg.add(earlier)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            OnlineAggregator(10.0).add(np.zeros(3))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            OnlineAggregator(0.0)

    def test_slope_semantics(self):
        agg = OnlineAggregator(10.0)
        r1 = np.zeros(len(FEATURES))
        r1[0], r1[2] = 1.0, 100.0  # tgen, mem_used
        r2 = np.zeros(len(FEATURES))
        r2[0], r2[2] = 2.0, 300.0
        agg.add(r1)
        agg.add(r2)
        out = agg.flush()
        slope_col = AGGREGATED_FEATURES.index("mem_used_slope")
        assert out[slope_col] == pytest.approx((300.0 - 100.0) / 2.0)


class TestMinPointsParity:
    """Satellite regression: OnlineAggregator must honour min_points."""

    def _rows(self, tgens):
        rows = []
        for t in tgens:
            row = np.arange(len(FEATURES), dtype=np.float64)
            row[0] = t
            rows.append(row)
        return rows

    def test_short_windows_suppressed_like_batch(self, history):
        run = history[0]
        config = AggregationConfig(window_seconds=30.0, min_points=3)
        batch_X, _ = aggregate_run(run, config)
        agg = OnlineAggregator(30.0, min_points=3)
        rows = [out for raw in run.features if (out := agg.add(raw)) is not None]
        final = agg.flush()
        if final is not None:
            rows.append(final)
        online_X = np.vstack(rows)
        assert online_X.shape == batch_X.shape
        assert np.allclose(online_X, batch_X)

    def test_suppressed_window_still_advances_interval_chain(self):
        # Windows: [1,2] then [11] (suppressed, min_points=2) then [21,22].
        # The batch path's interval chain runs THROUGH dropped windows:
        # the 21.0 point carries interval 10.0 (21-11), not 19.0 (21-2).
        agg = OnlineAggregator(10.0, min_points=2)
        outputs = [agg.add(r) for r in self._rows([1.0, 2.0, 11.0, 21.0, 22.0])]
        emitted = [o for o in outputs if o is not None]
        assert len(emitted) == 1  # the [11] window was suppressed
        final = agg.flush()
        assert final is not None
        # gen_time of the last window: mean(21-11, 22-21) = 5.5
        assert final[-1] == pytest.approx(5.5)

    def test_min_points_validation(self):
        with pytest.raises(ValueError, match="min_points"):
            OnlineAggregator(10.0, min_points=0)


class TestRepairPolicy:
    """Satellite regression: bounded reordering tolerance in repair mode."""

    def _row(self, t):
        row = np.ones(len(FEATURES))
        row[0] = t
        return row

    def test_strict_still_raises_on_out_of_order(self):
        agg = OnlineAggregator(10.0)
        agg.add(self._row(5.0))
        with pytest.raises(ValueError, match="order"):
            agg.add(self._row(4.0))

    def test_repair_reinserts_late_point_in_open_window(self):
        agg = OnlineAggregator(10.0, policy="repair")
        for t in (1.0, 3.0, 2.0):  # 2.0 arrives late but window 0 is open
            assert agg.add(self._row(t)) is None
        out = agg.add(self._row(11.0))  # closes window 0
        assert out is not None
        assert agg.late_dropped == 0
        # window mean of tgen over {1,2,3} = 2.0 regardless of arrival order
        assert out[0] == pytest.approx(2.0)

    def test_repair_drops_point_for_closed_window(self):
        agg = OnlineAggregator(10.0, policy="repair")
        agg.add(self._row(5.0))
        agg.add(self._row(15.0))  # closes window 0
        assert agg.add(self._row(4.0)) is None  # window 0 is gone
        assert agg.late_dropped == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            OnlineAggregator(10.0, policy="lenient")
