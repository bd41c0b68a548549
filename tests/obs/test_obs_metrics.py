"""MetricsRegistry: instruments, snapshot, reset, disabled fast path."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only increase"):
            Counter().inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        # quantiles come from log buckets: bounded relative error
        assert s["p50"] == pytest.approx(3.0, rel=0.2)
        assert s["p99"] == pytest.approx(4.0, rel=0.2)

    def test_histogram_empty_summary_and_quantile(self):
        h = Histogram()
        assert h.summary() == {"count": 0, "total": 0.0, "mean": 0.0}
        with pytest.raises(ValueError, match="empty"):
            h.quantile(0.5)

    def test_histogram_quantile_bounds(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError, match="q must be"):
            h.quantile(1.5)

    def test_histogram_memory_is_bounded_by_the_bin_space(self):
        # One million observations across twelve decades may not grow the
        # histogram past the fixed log-bucket index space.
        h = Histogram()
        for i in range(100_000):
            h.observe(1e-6 * (1.0 + (i % 9999)) * (10.0 ** (i % 12)))
        assert h.count == 100_000
        assert len(h._buckets) <= 257  # fixed bin space, not O(count)

    def test_histogram_summary_stays_exact_past_any_cap(self):
        h = Histogram()
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.total == sum(range(100))
        assert h.min == 0.0
        assert h.max == 99.0

    def test_histogram_quantile_relative_error_is_bounded(self):
        h = Histogram()
        values = [1.5**i for i in range(40)]
        for v in values:
            h.observe(v)
        for q in (0.1, 0.5, 0.9):
            exact = sorted(values)[int(round(q * (len(values) - 1)))]
            assert h.quantile(q) == pytest.approx(exact, rel=0.2)

    def test_histogram_nonpositive_values_resolve_to_min(self):
        h = Histogram()
        for v in (-2.0, 0.0, 5.0):
            h.observe(v)
        assert h.min == -2.0
        assert h.quantile(0.0) == -2.0
        assert h.count == 3

    def test_histogram_merge_is_lossless(self):
        a, b, whole = Histogram(), Histogram(), Histogram()
        for i, v in enumerate(0.001 * 3.0**i for i in range(20)):
            (a if i % 2 else b).observe(v)
            whole.observe(v)
        a.merge_state(b.state())
        assert a.state() == whole.state()
        assert a.summary() == whole.summary()


class TestRegistry:
    def test_recording_and_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("runs", 2)
        reg.inc("runs")
        reg.set_gauge("features", 6)
        reg.observe("fit_seconds", 0.5)
        reg.observe("fit_seconds", 1.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"runs": 3.0}
        assert snap["gauges"] == {"features": 6.0}
        assert snap["histograms"]["fit_seconds"]["count"] == 2
        assert snap["histograms"]["fit_seconds"]["mean"] == 1.0

    def test_snapshot_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        parsed = json.loads(reg.to_json())
        assert parsed == snap

    def test_instruments_are_lazily_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.observe("h", 1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_disabled_mode_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c", 10)
        reg.set_gauge("g", 5)
        reg.observe("h", 0.1)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enable_disable_toggle(self):
        reg = MetricsRegistry()
        assert reg.enabled
        reg.disable()
        reg.inc("off")
        reg.enable()
        reg.inc("on")
        assert reg.snapshot()["counters"] == {"on": 1.0}
